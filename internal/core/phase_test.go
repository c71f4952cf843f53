package core

import (
	"math"
	"testing"
	"time"

	"aspeo/internal/profile"
	"aspeo/internal/sim"
	"aspeo/internal/workload"
)

func TestNewPhaseTrackerValidation(t *testing.T) {
	if _, err := NewPhaseTracker(0, 0.2); err == nil {
		t.Fatal("zero phases accepted")
	}
	if _, err := NewPhaseTracker(4, 0); err == nil {
		t.Fatal("zero tolerance accepted")
	}
	if _, err := NewPhaseTracker(4, 1.5); err == nil {
		t.Fatal("tolerance >= 1 accepted")
	}
}

func TestClassifySeparatesPhases(t *testing.T) {
	pt, err := NewPhaseTracker(4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Two alternating signatures 4× apart.
	seq := []float64{0.3, 1.2, 0.31, 1.25, 0.29, 1.18}
	var ids []int
	for _, y := range seq {
		ids = append(ids, pt.Classify(y))
	}
	if pt.Phases() != 2 {
		t.Fatalf("phases = %d, want 2", pt.Phases())
	}
	if ids[0] != ids[2] || ids[2] != ids[4] {
		t.Fatalf("low phase not stable: %v", ids)
	}
	if ids[1] != ids[3] || ids[3] != ids[5] {
		t.Fatalf("high phase not stable: %v", ids)
	}
	if ids[0] == ids[1] {
		t.Fatalf("phases merged: %v", ids)
	}
}

func TestClassifyMergesNearbySignatures(t *testing.T) {
	pt, _ := NewPhaseTracker(4, 0.25)
	a := pt.Classify(1.00)
	b := pt.Classify(1.10) // within 25%
	if a != b || pt.Phases() != 1 {
		t.Fatalf("nearby signatures split: %d vs %d, phases %d", a, b, pt.Phases())
	}
}

func TestClassifyCapsPhaseCount(t *testing.T) {
	pt, _ := NewPhaseTracker(2, 0.05)
	for _, y := range []float64{0.1, 1.0, 5.0, 20.0} {
		pt.Classify(y)
	}
	if pt.Phases() != 2 {
		t.Fatalf("phases = %d, want cap 2", pt.Phases())
	}
}

func TestClassifyIgnoresGarbage(t *testing.T) {
	pt, _ := NewPhaseTracker(4, 0.2)
	pt.Classify(1.0)
	cur := pt.Current()
	for _, y := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if got := pt.Classify(y); got != cur {
			t.Fatalf("garbage %v moved the phase", y)
		}
	}
	if pt.Phases() != 1 {
		t.Fatalf("garbage created phases: %d", pt.Phases())
	}
}

func TestLoadStorePerPhase(t *testing.T) {
	pt, _ := NewPhaseTracker(4, 0.2)
	if _, ok := pt.Load(); ok {
		t.Fatal("empty tracker returned state")
	}
	pt.Classify(0.3)
	if _, ok := pt.Load(); ok {
		t.Fatal("first visit must have no stored state")
	}
	pt.Store(2.0)
	pt.Classify(1.2) // new phase
	pt.Store(5.0)
	pt.Classify(0.31) // back to phase 0
	if s, ok := pt.Load(); !ok || s != 2.0 {
		t.Fatalf("phase 0 state = %v, %v; want 2.0", s, ok)
	}
	pt.Classify(1.19)
	if s, ok := pt.Load(); !ok || s != 5.0 {
		t.Fatalf("phase 1 state = %v, %v; want 5.0", s, ok)
	}
}

func TestCentroidAccessor(t *testing.T) {
	pt, _ := NewPhaseTracker(4, 0.2)
	pt.Classify(0.5)
	if got := pt.Centroid(0); got != 0.5 {
		t.Fatalf("centroid = %v", got)
	}
	if got := pt.Centroid(7); got != 0 {
		t.Fatalf("out-of-range centroid = %v", got)
	}
}

// A full tracker whose centroids lie at no finite distance from the
// measurement — zero, or small enough to overflow it, as a corrupt
// checkpoint may restore them — keeps its current phase instead of
// indexing a nearest phase that does not exist.
func TestClassifyFullWithoutFiniteDistance(t *testing.T) {
	pt, _ := NewPhaseTracker(2, 0.2)
	pt.st = trackerState{Phases: []phaseState{{Centroid: 0}, {Centroid: 5e-324}}, Current: 1}
	if got := pt.Classify(1); got != 1 {
		t.Fatalf("Classify = %d, want the current phase 1", got)
	}
}

// Integration: on the phase-heavy MobileBench, the phase-aware controller
// must detect the load/scroll alternation and not regress tracking error
// versus the plain controller.
func TestPhaseAwareOnMobileBench(t *testing.T) {
	spec := workload.MobileBench()
	opt := profile.Options{
		Load: workload.BaselineLoad, Mode: profile.Coordinated,
		Seeds: []int64{11}, Warmup: 2 * time.Second, Window: 16 * time.Second,
	}
	tab, err := profile.Run(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	target := 0.8 * tab.MaxSpeedup() * tab.BaseGIPS

	run := func(phaseAware bool) (*Controller, sim.Stats) {
		ph, err := sim.NewPhone(sim.Config{
			Foreground: spec, Load: workload.BaselineLoad, Seed: 7,
			ScreenOn: true, WiFiOn: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine(ph)
		opts := DefaultOptions(tab, target)
		opts.Seed = 7
		opts.PhaseAware = phaseAware
		ctl, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.Install(eng); err != nil {
			t.Fatal(err)
		}
		st := eng.Run(spec.RunFor*3, true)
		return ctl, st
	}

	plain, _ := run(false)
	aware, _ := run(true)

	if plain.PhasesDetected() != 0 {
		t.Fatal("plain controller should not track phases")
	}
	if aware.PhasesDetected() < 2 {
		t.Fatalf("phase-aware controller detected %d phases on MobileBench, want >= 2",
			aware.PhasesDetected())
	}
	if aware.MeanAbsError() > 1.5*plain.MeanAbsError() {
		t.Fatalf("phase awareness badly regressed tracking: %.4f vs %.4f",
			aware.MeanAbsError(), plain.MeanAbsError())
	}
}
