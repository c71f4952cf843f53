package histogram

import (
	"math"
	"slices"
	"testing"
)

func TestDistBucketing(t *testing.T) {
	d := NewDist([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 9} {
		d.Observe(v)
	}
	// Boundary values land in their own bucket (v <= bound); the +Inf
	// overflow bucket is last.
	if got, want := d.Counts(), []uint64{2, 1, 1, 1}; !slices.Equal(got, want) {
		t.Fatalf("Counts() = %v, want %v", got, want)
	}
	if d.Total() != 5 || d.Sum() != 15 {
		t.Fatalf("Total=%d Sum=%v, want 5/15", d.Total(), d.Sum())
	}
}

func TestDistIgnoresNaN(t *testing.T) {
	d := NewDist([]float64{1})
	d.Observe(math.NaN())
	d.Observe(0.5)
	if d.Total() != 1 {
		t.Fatalf("Total = %d after one NaN and one real observation, want 1", d.Total())
	}
}

func TestDistBoundsCopied(t *testing.T) {
	in := []float64{1, 2}
	d := NewDist(in)
	in[0] = 99
	if b := d.Bounds(); b[0] != 1 {
		t.Fatal("Dist aliased the caller's bounds slice")
	}
	out := d.Bounds()
	out[1] = 99
	if b := d.Bounds(); b[1] != 2 {
		t.Fatal("Bounds returned an aliased slice")
	}
}

func TestDistInvalidBoundsPanic(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":          {},
		"non-increasing": {1, 1},
		"descending":     {2, 1},
		"nan":            {math.NaN()},
		"inf":            {math.Inf(1)},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid bounds did not panic")
				}
			}()
			NewDist(bounds)
		})
	}
}

func TestDistQuantile(t *testing.T) {
	d := NewDist([]float64{1, 2, 4, 8})
	if got := d.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile(0.5) = %v, want 0", got)
	}
	// 10 observations: 5 in (…,1], 4 in (1,2], 1 in (4,8].
	for i := 0; i < 5; i++ {
		d.Observe(0.5)
	}
	for i := 0; i < 4; i++ {
		d.Observe(1.5)
	}
	d.Observe(6)
	if got := d.Quantile(0.5); got != 1 {
		t.Fatalf("Quantile(0.5) = %v, want 1", got)
	}
	if got := d.Quantile(0.9); got != 2 {
		t.Fatalf("Quantile(0.9) = %v, want 2", got)
	}
	if got := d.Quantile(0.95); got != 8 {
		t.Fatalf("Quantile(0.95) = %v, want 8", got)
	}
	// Clamping: out-of-range q behaves as 0 and 1.
	if got := d.Quantile(-3); got != d.Quantile(0) {
		t.Fatalf("Quantile(-3) = %v, want %v", got, d.Quantile(0))
	}
	if got := d.Quantile(7); got != d.Quantile(1) {
		t.Fatalf("Quantile(7) = %v, want %v", got, d.Quantile(1))
	}
}

// Overflow observations cannot be resolved past the top bound; Quantile
// reports the highest finite bound rather than inventing a value.
func TestDistQuantileOverflow(t *testing.T) {
	d := NewDist([]float64{1, 2})
	d.Observe(100)
	d.Observe(200)
	if got := d.Quantile(0.95); got != 2 {
		t.Fatalf("overflow Quantile(0.95) = %v, want top bound 2", got)
	}
}
