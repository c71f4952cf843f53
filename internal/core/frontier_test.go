package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"aspeo/internal/profile"
)

// randTable builds a random sorted entry list with strictly increasing
// speedups and positive powers.
func randTable(rng *rand.Rand, n int) []profile.Entry {
	entries := make([]profile.Entry, n)
	s, p := 1.0+rng.Float64(), 1.0+rng.Float64()
	for i := 0; i < n; i++ {
		entries[i] = profile.Entry{FreqIdx: i / 13, BWIdx: i % 13, Speedup: s, PowerW: p}
		s += 0.02 + rng.Float64()*0.5
		p += rng.Float64() * 0.8 // non-convex in general: hull must cope
	}
	return entries
}

// The frontier path must agree with the O(N²) reference search on the
// optimal energy for random tables and interior targets, and the
// returned pair must bracket the target.
func TestFrontierMatchesQuadraticProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		entries := randTable(rng, 3+rng.Intn(40))
		n := len(entries)
		target := entries[0].Speedup + rng.Float64()*(entries[n-1].Speedup-entries[0].Speedup)

		fr, err := NewFrontier(entries)
		if err != nil {
			return false
		}
		a1, err1 := fr.Optimize(target, T)
		a2, err2 := Optimize(entries, target, T)
		if err1 != nil || err2 != nil {
			return false
		}
		if a1.Low.Speedup > target+1e-12 || a1.High.Speedup < target-1e-12 {
			t.Logf("pair (%v, %v) does not bracket %v", a1.Low.Speedup, a1.High.Speedup, target)
			return false
		}
		return math.Abs(a1.ExpectedPowerW-a2.ExpectedPowerW) < 1e-9*math.Max(1, a2.ExpectedPowerW)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Energy parity with the paper's verbatim LP formulation (Eqns. 4–7):
// the frontier optimum is the LP optimum within 1e-9 (relative), and the
// allocation satisfies the LP constraints.
func TestFrontierMatchesLPProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		entries := randTable(rng, 3+rng.Intn(25))
		n := len(entries)
		target := entries[0].Speedup + rng.Float64()*(entries[n-1].Speedup-entries[0].Speedup)

		fr, err := NewFrontier(entries)
		if err != nil {
			return false
		}
		a1, err1 := fr.Optimize(target, T)
		a2, err2 := OptimizeLP(entries, target, T)
		if err1 != nil || err2 != nil {
			return false
		}
		if math.Abs(a1.ExpectedPowerW-a2.ExpectedPowerW) > 1e-9*math.Max(1, a2.ExpectedPowerW) {
			t.Logf("frontier %v vs LP %v at target %v", a1.ExpectedPowerW, a2.ExpectedPowerW, target)
			return false
		}
		tl, th := a1.TauLow.Seconds(), a1.TauHigh.Seconds()
		if tl < -1e-9 || th < -1e-9 || math.Abs(tl+th-T.Seconds()) > 1e-6 {
			return false
		}
		achieved := (a1.Low.Speedup*tl + a1.High.Speedup*th) / T.Seconds()
		return math.Abs(achieved-target) < 1e-6*math.Max(1, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Outside the table the frontier must reproduce Optimize's fallbacks
// bit-for-bit: cheapest entry below, cheapest-of-plateau above.
func TestFrontierFallbacksMatchOptimize(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		entries := randTable(rng, 2+rng.Intn(20))
		fr, err := NewFrontier(entries)
		if err != nil {
			return false
		}
		for _, target := range []float64{
			entries[0].Speedup * 0.5,
			entries[0].Speedup,
			entries[len(entries)-1].Speedup,
			entries[len(entries)-1].Speedup * 2,
		} {
			a1, err1 := fr.Optimize(target, T)
			a2, err2 := Optimize(entries, target, T)
			if err1 != nil || err2 != nil {
				return false
			}
			if a1 != a2 {
				t.Logf("target %v: frontier %+v vs quadratic %+v", target, a1, a2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFrontierRejectsUnsortedAndEmpty(t *testing.T) {
	if _, err := NewFrontier(nil); err != ErrEmptyTable {
		t.Fatalf("empty: %v", err)
	}
	unsorted := tbl([2]float64{2, 1}, [2]float64{1, 1})
	if _, err := NewFrontier(unsorted); err == nil {
		t.Fatal("unsorted input accepted")
	}
}

func TestFrontierBadTarget(t *testing.T) {
	fr, err := NewFrontier(tbl([2]float64{1, 1}, [2]float64{2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := fr.Optimize(target, T); err == nil {
			t.Errorf("target %v should error", target)
		}
	}
}

func TestFrontierCollapsesDuplicateSpeedups(t *testing.T) {
	entries := tbl(
		[2]float64{1, 3.0},
		[2]float64{1, 1.5}, // same speedup, cheaper: the hull point
		[2]float64{2, 2.0},
	)
	fr, err := NewFrontier(entries)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Len() != 2 {
		t.Fatalf("hull size %d, want 2", fr.Len())
	}
	a, err := fr.Optimize(1.5, T)
	if err != nil {
		t.Fatal(err)
	}
	if a.Low.PowerW != 1.5 {
		t.Fatalf("duplicate collapse kept power %v, want 1.5", a.Low.PowerW)
	}
}

// The old absolute 1e-9 equal-speedup fallback underflows one ulp on
// large-speedup tables; the tolerance must be relative so those tables
// still optimize.
func TestOptimizeLargeSpeedupTable(t *testing.T) {
	const scale = 1e9
	entries := tbl(
		[2]float64{1 * scale, 1.6},
		[2]float64{2 * scale, 2.2},
		[2]float64{3 * scale, 3.6},
	)
	target := 1.5 * scale
	a, err := Optimize(entries, target, T)
	if err != nil {
		t.Fatal(err)
	}
	if a.Low.Speedup != 1*scale || a.High.Speedup != 2*scale {
		t.Fatalf("bracket (%v, %v)", a.Low.Speedup, a.High.Speedup)
	}
	fr, err := NewFrontier(entries)
	if err != nil {
		t.Fatal(err)
	}
	af, err := fr.Optimize(target, T)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(af.ExpectedPowerW-a.ExpectedPowerW) > 1e-9*a.ExpectedPowerW {
		t.Fatalf("frontier %v vs quadratic %v", af.ExpectedPowerW, a.ExpectedPowerW)
	}
}

// TestControllerTargetQuantization pins the controller's solve path:
// the regulator's demand is quantized to the 2⁻¹² grid before the
// frontier solve, so every target in one bucket gets the identical
// allocation and the next bucket a different one.
func TestControllerTargetQuantization(t *testing.T) {
	tab := &profile.Table{
		App: "synthetic", BaseGIPS: 1,
		Entries: []profile.Entry{
			{FreqIdx: 0, BWIdx: 0, Speedup: 1.0, PowerW: 1.5, GIPS: 1.0},
			{FreqIdx: 1, BWIdx: 0, Speedup: 2.0, PowerW: 2.5, GIPS: 2.0},
			{FreqIdx: 2, BWIdx: 0, Speedup: 3.0, PowerW: 4.5, GIPS: 3.0},
		},
	}
	ctl, err := New(DefaultOptions(tab, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	solve := func(target float64) Allocation {
		t.Helper()
		a, err := ctl.optimize(target)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	const target = 1.7 // off the grid: 1.7·4096 = 6963.2
	a := solve(target)
	want, err := ctl.frontier.Optimize(6963.0/targetScale, ctl.opt.CycleT)
	if err != nil {
		t.Fatal(err)
	}
	if a != want {
		t.Fatalf("optimize(%v) = %+v, want the solve of the quantized target %+v", target, a, want)
	}
	raw, err := ctl.frontier.Optimize(target, ctl.opt.CycleT)
	if err != nil {
		t.Fatal(err)
	}
	if raw == a {
		t.Fatal("the raw target solves to the same allocation; the test cannot see quantization")
	}
	if same := solve(target + 1.0/(4*targetScale)); same != a {
		t.Fatalf("a target in the same bucket got %+v, want %+v", same, a)
	}
	if next := solve(target + 1.0/targetScale); next == a {
		t.Fatalf("a target in the next bucket got the same allocation %+v", next)
	}
}

// paperTable234 is a full 18×13 configuration table (the paper's entire
// space, pre-pruning) with a realistic concave speedup curve and a
// superlinear power curve.
func paperTable234() []profile.Entry {
	entries := make([]profile.Entry, 0, 234)
	s := 1.0
	for i := 0; i < 234; i++ {
		fi, bi := i/13, i%13
		s += 0.02 + 0.05/float64(1+i%7)
		p := 1.2 + 0.015*s*s + 0.03*float64(bi)
		entries = append(entries, profile.Entry{FreqIdx: fi, BWIdx: bi, Speedup: s, PowerW: p})
	}
	return entries
}

var benchTargets = []float64{1.3, 2.0, 3.1, 4.4, 5.2, 6.0}

// BenchmarkOptimizeQuadratic measures the O(N²) pair scan the serial
// controller ran every 2 s cycle, at the full 18×13 = 234-entry table.
func BenchmarkOptimizeQuadratic(b *testing.B) {
	entries := paperTable234()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(entries, benchTargets[i%len(benchTargets)], T); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeFrontier measures the hull binary search on the same
// table (hull built once, as in the controller).
func BenchmarkOptimizeFrontier(b *testing.B) {
	entries := paperTable234()
	fr, err := NewFrontier(entries)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fr.Len()), "hull_vertices")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fr.Optimize(benchTargets[i%len(benchTargets)], T); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewFrontier measures the one-time hull construction cost.
func BenchmarkNewFrontier(b *testing.B) {
	entries := paperTable234()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewFrontier(entries); err != nil {
			b.Fatal(err)
		}
	}
}
