package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestQuantileNearestRank(t *testing.T) {
	s := seq(10)
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.25, 3}, {0.99, 10}, {0.1, 1}, {0, 1}, {1, 10},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

// The tail rule: the highest percentile with at least ten samples above
// it, reported with its value.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n       int
		p, v    float64
		defined bool
	}{
		{10, 0, 0, false},
		{11, 1 - 10.0/11, 1, true},
		{100, 0.90, 90, true},
		{1000, 0.99, 990, true},
		{2000, 0.995, 1990, true},
	} {
		p, v, ok := tail(seq(c.n))
		if ok != c.defined || (ok && (math.Abs(p-c.p) > 1e-12 || v != c.v)) {
			t.Errorf("tail(1..%d) = p%v %v %v, want p%v %v %v", c.n, p, v, ok, c.p, c.v, c.defined)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond != minBeyond {
				t.Errorf("tail(1..%d): %d samples beyond, want %d", c.n, beyond, minBeyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// Quartiles must equal Python's statistics.quantiles(v, n=4), the
// definition the benchmark's spread criterion uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{seq(10), 2.75, 8.25},
		{[]float64{5, 1, 9, 3, 7, 2}, 1.75, 7.5},
		{[]float64{4, 8}, 3, 9},
		{[]float64{6}, 6, 6},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	s := summarize(seq(10))
	if want := (8.25 - 2.75) / 5.5; math.Abs(s.Spread()-want) > 1e-12 || s.N != 10 {
		t.Errorf("spread = %v (n=%d), want %v", s.Spread(), s.N, want)
	}
}

func scaled(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}

func TestCompareAgainstBound(t *testing.T) {
	tight := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100}
	wide := []float64{70, 130, 85, 115, 100, 90, 110, 75, 125, 100}
	for _, c := range []struct {
		name         string
		base, cur    []float64
		bound        float64
		higherBetter bool
		want         string
	}{
		{"same", tight, tight, 0.1, false, verdictSame},
		{"slower beyond bound", tight, scaled(tight, 1.2), 0.1, false, verdictWorse},
		{"slower within bound", tight, scaled(tight, 1.05), 0.1, false, verdictSame},
		{"faster", tight, scaled(tight, 0.9), 0.1, false, verdictBetter},
		{"throughput drop", tight, scaled(tight, 0.8), 0.1, true, verdictWorse},
		{"throughput gain", tight, scaled(tight, 1.2), 0.1, true, verdictBetter},
		{"spread over bound", wide, scaled(wide, 1.02), 0.1, false, verdictUnresolved},
		{"spread over bound, every run better", wide, scaled(tight, 0.5), 0.1, false, verdictBetter},
	} {
		if got := compare(c.base, c.cur, c.bound, c.higherBetter); got != c.want {
			t.Errorf("%s: compare = %q, want %q", c.name, got, c.want)
		}
	}
}
