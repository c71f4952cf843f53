package perftool

import (
	"math"
	"testing"
	"time"

	"aspeo/internal/sim"
	"aspeo/internal/workload"
)

func TestNewRejectsSubMinimumPeriod(t *testing.T) {
	if _, err := New(50*time.Millisecond, 1); err == nil {
		t.Fatal("perf on the Nexus 6 cannot sample below 100 ms")
	}
	if _, err := New(MinSamplingPeriod, 1); err != nil {
		t.Fatalf("minimum period must be accepted: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(time.Millisecond, 1)
}

func TestOverheadMatchesPaper(t *testing.T) {
	// Paper §IV-B: 40% at 100 ms, 4% at 1 s.
	if got := MustNew(100*time.Millisecond, 1).OverheadFrac(); math.Abs(got-0.40) > 1e-9 {
		t.Fatalf("overhead at 100ms = %v, want 0.40", got)
	}
	if got := MustNew(time.Second, 1).OverheadFrac(); math.Abs(got-0.04) > 1e-9 {
		t.Fatalf("overhead at 1s = %v, want 0.04", got)
	}
}

func newPhone(t *testing.T) *sim.Phone {
	t.Helper()
	ph, err := sim.NewPhone(sim.Config{
		Foreground: workload.MXPlayer(), Load: workload.NoLoad, Seed: 1,
		ScreenOn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ph
}

func TestReadingsTrackTrueGIPS(t *testing.T) {
	ph := newPhone(t)
	eng := sim.NewEngine(ph)
	eng.MustRegister(&sim.FixedConfigActor{FreqIdx: 9, BWIdx: 6})
	p := MustNew(time.Second, 42)
	eng.MustRegister(p)
	st := eng.Run(20*time.Second, false)

	r, ok := p.Last()
	if !ok {
		t.Fatal("no reading after 20 s")
	}
	if r.Window != time.Second {
		t.Fatalf("window = %v", r.Window)
	}
	mean, ok := p.MeanOver(10 * time.Second)
	if !ok {
		t.Fatal("MeanOver failed")
	}
	// The 10 s mean must sit within a few percent of the engine-exact
	// GIPS (noise is 2%/√s per reading).
	if math.Abs(mean-st.GIPS)/st.GIPS > 0.05 {
		t.Fatalf("perf mean %.4f vs true %.4f", mean, st.GIPS)
	}
}

func TestMeanOverBeforeFirstReading(t *testing.T) {
	p := MustNew(time.Second, 1)
	if _, ok := p.MeanOver(2 * time.Second); ok {
		t.Fatal("MeanOver must report no data before the first window")
	}
	if _, ok := p.Last(); ok {
		t.Fatal("Last must report no data before the first window")
	}
}

func TestAttachInstallsOverheads(t *testing.T) {
	ph := newPhone(t)
	eng := sim.NewEngine(ph)
	eng.MustRegister(&sim.FixedConfigActor{FreqIdx: 17, BWIdx: 12})
	clean := eng.Run(5*time.Second, false)

	ph2 := newPhone(t)
	eng2 := sim.NewEngine(ph2)
	eng2.MustRegister(&sim.FixedConfigActor{FreqIdx: 17, BWIdx: 12})
	p := MustNew(time.Second, 1)
	eng2.MustRegister(p)
	instrumented := eng2.Run(5*time.Second, false)

	// Power must include the 15 mW standing overlay.
	if instrumented.AvgPowerW <= clean.AvgPowerW {
		t.Fatalf("perf attachment did not cost power: %.4f vs %.4f",
			instrumented.AvgPowerW, clean.AvgPowerW)
	}
}

func TestDetachRemovesOverheads(t *testing.T) {
	ph := newPhone(t)
	eng := sim.NewEngine(ph)
	eng.MustRegister(&sim.FixedConfigActor{FreqIdx: 9, BWIdx: 6})
	p := MustNew(time.Second, 1)
	eng.MustRegister(p)
	eng.Run(3*time.Second, false)
	p.Detach(ph)
	// After detach, a step must not reserve perf CPU. (Indirect check:
	// the standing overlay is gone, so power at idle drops.)
	before := ph.LastPowerW()
	ph.Step(time.Millisecond)
	after := ph.LastPowerW()
	if after > before {
		t.Fatalf("power rose after detach: %.4f -> %.4f", before, after)
	}
}

func TestNoiseIsSeededAndBounded(t *testing.T) {
	run := func(seed int64) float64 {
		ph := newPhone(t)
		eng := sim.NewEngine(ph)
		eng.MustRegister(&sim.FixedConfigActor{FreqIdx: 9, BWIdx: 6})
		p := MustNew(time.Second, seed)
		eng.MustRegister(p)
		eng.Run(10*time.Second, false)
		r, _ := p.Last()
		return r.GIPS
	}
	if run(7) != run(7) {
		t.Fatal("same seed must reproduce readings")
	}
	if run(7) == run(8) {
		t.Fatal("different seeds should produce different noise")
	}
}

func TestHistoryBounded(t *testing.T) {
	ph := newPhone(t)
	eng := sim.NewEngine(ph)
	eng.MustRegister(&sim.FixedConfigActor{FreqIdx: 9, BWIdx: 6})
	p := MustNew(100*time.Millisecond, 1)
	eng.MustRegister(p)
	eng.Run(30*time.Second, false) // 300 samples >> historyLen
	if p.st.HistN > historyLen {
		t.Fatalf("history grew to %d, cap %d", p.st.HistN, historyLen)
	}
	if _, ok := p.MeanOver(2 * time.Second); !ok {
		t.Fatal("MeanOver must work at the cap")
	}
}

func TestMeanOverDegenerateSpans(t *testing.T) {
	ph := newPhone(t)
	eng := sim.NewEngine(ph)
	p := MustNew(time.Second, 42)
	eng.MustRegister(p)
	eng.Run(5*time.Second, false)

	if _, ok := p.MeanOver(0); ok {
		t.Fatal("zero-length window must report no data")
	}
	if _, ok := p.MeanOver(-time.Second); ok {
		t.Fatal("negative window must report no data")
	}
	// A window shorter than the control cycle still yields the latest
	// reading.
	m, ok := p.MeanOver(100 * time.Millisecond)
	if !ok || m <= 0 {
		t.Fatalf("sub-period window: %v, %v", m, ok)
	}
}

// When samples are dropped, readings older than the requested span must
// not leak into the mean: MeanOver covers trailing time, not a trailing
// reading count.
func TestMeanOverExcludesStaleReadingsAfterDrops(t *testing.T) {
	ph := newPhone(t)
	eng := sim.NewEngine(ph)
	p := MustNew(time.Second, 42)
	// Poison the early history: gigantic readings, then drop everything
	// in the middle so they sit right below the fresh ones.
	drop := false
	p.SetFaultHook(func(r Reading) (Reading, bool) {
		if r.EndedAt <= 3*time.Second {
			r.GIPS = 100 // absurd; must never reach a 2 s mean at t=20 s
			return r, true
		}
		if drop = r.EndedAt < 18*time.Second; drop {
			return r, false
		}
		return r, true
	})
	eng.MustRegister(p)
	eng.Run(20*time.Second, false)

	if p.Dropped() == 0 {
		t.Fatal("hook dropped nothing; test proves nothing")
	}
	m, ok := p.MeanOver(2 * time.Second)
	if !ok {
		t.Fatal("no mean despite fresh readings")
	}
	if m > 50 {
		t.Fatalf("stale poisoned readings leaked into the mean: %v", m)
	}
}

// A window in which every sample was dropped must report no data, not a
// stale mean — the controller treats that as a failing cycle.
func TestMeanOverAllSamplesDropped(t *testing.T) {
	ph := newPhone(t)
	eng := sim.NewEngine(ph)
	p := MustNew(time.Second, 42)
	p.SetFaultHook(func(r Reading) (Reading, bool) { return r, false })
	eng.MustRegister(p)
	eng.Run(10*time.Second, false)

	if p.Dropped() != 9 {
		t.Fatalf("Dropped = %d, want 9 (one per closed window)", p.Dropped())
	}
	if _, ok := p.Last(); ok {
		t.Fatal("Last reported a reading although every sample was dropped")
	}
	if _, ok := p.MeanOver(2 * time.Second); ok {
		t.Fatal("MeanOver reported data although every sample was dropped")
	}
}

// The hook can rewrite a reading in place (spikes, zeros); the published
// reading and history carry the rewritten value.
func TestFaultHookRewritesReading(t *testing.T) {
	ph := newPhone(t)
	eng := sim.NewEngine(ph)
	p := MustNew(time.Second, 42)
	p.SetFaultHook(func(r Reading) (Reading, bool) {
		r.GIPS *= 4
		return r, true
	})
	eng.MustRegister(p)
	st := eng.Run(10*time.Second, false)

	r, ok := p.Last()
	if !ok {
		t.Fatal("no reading")
	}
	if r.GIPS < 2*st.GIPS {
		t.Fatalf("hook rewrite not visible: reading %.4f, true %.4f", r.GIPS, st.GIPS)
	}
	if p.Dropped() != 0 {
		t.Fatalf("Dropped = %d for a rewrite-only hook", p.Dropped())
	}
}

// Clearing the hook restores pass-through behavior.
func TestFaultHookCleared(t *testing.T) {
	p := MustNew(time.Second, 42)
	p.SetFaultHook(func(r Reading) (Reading, bool) { return r, false })
	p.SetFaultHook(nil)
	ph := newPhone(t)
	eng := sim.NewEngine(ph)
	eng.MustRegister(p)
	eng.Run(5*time.Second, false)
	if _, ok := p.Last(); !ok {
		t.Fatal("cleared hook still dropping readings")
	}
}
