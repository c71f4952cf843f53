package workload

import (
	"math"
	"testing"
	"time"

	"aspeo/internal/perfmodel"
)

func testTraits() perfmodel.Traits {
	return perfmodel.Traits{CPI: 1, BPI: 0.1, Par: 1}
}

// pacedSpec returns a one-phase paced spec with the given jitter.
func pacedSpec(sigma float64) *Spec {
	return &Spec{
		Name: "span-paced",
		Phases: []Phase{{
			Name:         "p",
			Kind:         Paced,
			Traits:       testTraits(),
			Duration:     5 * time.Second,
			DemandGIPS:   0.075,
			DemandJitter: sigma,
			JitterPeriod: 60 * time.Millisecond,
		}},
		Loop:   true,
		RunFor: 100 * time.Second,
	}
}

func batchSpec(window time.Duration) *Spec {
	return &Spec{
		Name: "span-batch",
		Phases: []Phase{{
			Name:        "b",
			Kind:        Batch,
			Traits:      testTraits(),
			Duration:    window,
			InstrBudget: 4.5e8,
		}},
		Loop:   true,
		RunFor: 100 * time.Second,
	}
}

// taskStateEqual compares every observable field of two tasks, optionally
// ignoring the jitter resample bookkeeping (which SpanBound is allowed to
// leave stale when σ = 0).
func taskStateEqual(t *testing.T, a, b *Task, ignoreJitterClock bool) {
	t.Helper()
	type cmp struct {
		name string
		x, y float64
	}
	checks := []cmp{
		{"phaseExec", a.phaseExec, b.phaseExec},
		{"totalExec", a.totalExec, b.totalExec},
		{"backlog", a.backlog, b.backlog},
		{"dropped", a.dropped, b.dropped},
		{"jitterMul", a.jitterMul, b.jitterMul},
	}
	for _, c := range checks {
		if math.Float64bits(c.x) != math.Float64bits(c.y) {
			t.Fatalf("%s mismatch: %v (%#x) vs %v (%#x)", c.name, c.x, math.Float64bits(c.x), c.y, math.Float64bits(c.y))
		}
	}
	if a.now != b.now || a.phaseElapsed != b.phaseElapsed || a.phaseIdx != b.phaseIdx ||
		a.loopsDone != b.loopsDone || a.done != b.done {
		t.Fatalf("clock/phase state mismatch: %+v vs %+v", a, b)
	}
	if !ignoreJitterClock && a.jitterUntil != b.jitterUntil {
		t.Fatalf("jitterUntil mismatch: %v vs %v", a.jitterUntil, b.jitterUntil)
	}
}

// advanceSteps is the literal reference AdvanceSpan must reproduce: n
// consecutive Advance calls.
func advanceSteps(t *Task, executed float64, dt time.Duration, n int) {
	for i := 0; i < n; i++ {
		t.Advance(executed, dt)
	}
}

// jitterCap is the paced-phase span bound without the σ = 0 relaxation:
// the steps up to and including the next jitter resample.
func jitterCap(t *Task, dt time.Duration) int { return ceilSteps(t.jitterUntil-t.now, dt) }

// TestAdvanceSpanBitIdentity drives AdvanceSpan against the literal
// Advance loop on the telescoping regimes (batch, windowed batch, served paced) and the
// fallback regime (starved paced with a draining backlog).
func TestAdvanceSpanBitIdentity(t *testing.T) {
	dt := time.Millisecond
	cases := []struct {
		name string
		spec *Spec
		exec func(Demand) float64 // per-step executed instructions
		n    int
	}{
		{"batch-starved", batchSpec(0), func(Demand) float64 { return 7.5e4 }, 1000},
		{"windowed-batch-idle", batchSpec(4 * time.Second), func(Demand) float64 { return 0 }, 3999},
		{"paced-served", pacedSpec(0), func(d Demand) float64 { return d.WantedInstr }, 4999},
		{"paced-starved", pacedSpec(0), func(Demand) float64 { return 1e4 }, 50},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := NewTask(tc.spec, 42)
			fast := NewTask(tc.spec, 42)
			// Prime both with one slow step so jitter state initializes
			// identically, mirroring how the engine captures a plan.
			e0 := tc.exec(ref.Demand(dt))
			_ = fast.Demand(dt)
			ref.Advance(e0, dt)
			fast.Advance(e0, dt)
			advanceSteps(ref, e0, dt, tc.n)
			fast.AdvanceSpan(e0, dt, tc.n)
			taskStateEqual(t, ref, fast, false)
		})
	}
}

// TestSpanBoundRelaxesZeroJitter: with σ = 0 a served paced phase's span
// bound must reach the phase boundary instead of stopping at the jitter
// resample, and replaying that whole span must leave every observable
// identical to per-step execution (the jitter clock alone may go stale).
func TestSpanBoundRelaxesZeroJitter(t *testing.T) {
	dt := time.Millisecond
	spec := pacedSpec(0)
	mk := func() (*Task, StepPlan, float64) {
		tk := NewTask(spec, 7)
		want := tk.Demand(dt).WantedInstr
		tk.Advance(want, dt)
		return tk, StepPlan{Exec: want, MaxInstr: 1e9, Served: true, PhaseIdx: 0}, want
	}
	ref, sp, want := mk()
	if jc := jitterCap(ref, dt); jc != 60-1 {
		t.Fatalf("jitter cap = %d, want 59 (60 ms jitter period)", jc)
	}
	sb := ref.SpanBound(sp, dt)
	if wantBound := ceilSteps(spec.Phases[0].Duration-ref.phaseElapsed, dt); sb != wantBound {
		t.Fatalf("SpanBound = %d, want %d (phase boundary)", sb, wantBound)
	}
	// Replay the full relaxed span in one call vs. stepwise.
	fast, _, _ := mk()
	advanceSteps(ref, want, dt, sb)
	fast.AdvanceSpan(want, dt, sb)
	taskStateEqual(t, ref, fast, true)
	if ref.phaseElapsed != fast.phaseElapsed {
		t.Fatalf("span must cross the phase boundary identically")
	}

	// σ > 0 must keep the jitter cap even under SpanBound.
	jt := NewTask(pacedSpec(1.0), 7)
	w := jt.Demand(dt).WantedInstr
	jt.Advance(w, dt)
	jsp := StepPlan{Exec: w, MaxInstr: 1e9, Served: true, PhaseIdx: 0}
	if got, want := jt.SpanBound(jsp, dt), jitterCap(jt, dt); got != want {
		t.Fatalf("σ>0 SpanBound = %d, want the jitter cap %d", got, want)
	}

	// A stale non-1 multiplier (entering a σ=0 phase mid-jitter-window)
	// must not be granted the relaxation.
	// The plan is served at the stale demand, so only the jitter cap
	// binds.
	st := NewTask(spec, 7)
	st.Advance(st.Demand(dt).WantedInstr, dt)
	st.jitterMul = 1.37
	stale := spec.Phases[0].DemandGIPS * 1e9 * dt.Seconds() * st.jitterMul
	ssp := StepPlan{Exec: stale, MaxInstr: 1e9, Served: true, PhaseIdx: 0}
	if got, want := st.SpanBound(ssp, dt), jitterCap(st, dt); got != want {
		t.Fatalf("stale-multiplier SpanBound = %d, want the jitter cap %d", got, want)
	}
}
