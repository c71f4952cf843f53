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

// steadySpec is pacedSpec(0) with its jitter resample pushed to the
// phase end, so only the phase boundary bounds a clamped span.
func steadySpec() *Spec {
	s := pacedSpec(0)
	s.Phases[0].JitterPeriod = s.Phases[0].Duration
	return s
}

// touchSpec is two σ = 0 paced phases that draw touch events at
// different rates.
func touchSpec() *Spec {
	s := pacedSpec(0)
	s.Phases[0].Duration, s.Phases[0].TouchRate = time.Second, 50
	q := s.Phases[0]
	q.Name, q.TouchRate = "q", 400
	s.Phases = append(s.Phases, q)
	return s
}

// taskStateEqual compares every observable field of two tasks, the rng
// position included, optionally ignoring the jitter resample bookkeeping
// (which SpanBound is allowed to leave stale when σ = 0).
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
	_, da := a.rngSrc.State()
	_, db := b.rngSrc.State()
	if da != db {
		t.Fatalf("rng position mismatch: %d vs %d draws", da, db)
	}
}

// slowStep is one literal simulator step for a lone task with the given
// capacity — Demand, clamp, Advance, Touches, as Phone.Step runs each
// task — and returns the plan Phone.Step would capture and the step's
// touch count.
func slowStep(t *Task, capacity float64, dt time.Duration) (StepPlan, int) {
	d := t.Demand(dt)
	exec := d.WantedInstr
	if exec > capacity {
		exec = capacity
	}
	sp := StepPlan{Exec: exec, MaxInstr: capacity, Served: exec == d.WantedInstr, PhaseIdx: t.phaseIdx}
	t.Advance(exec, dt)
	return sp, t.Touches(dt)
}

// advanceSteps is the literal reference AdvanceSpan must reproduce: n
// consecutive Advance + Touches calls. It returns the touch count.
func advanceSteps(t *Task, executed float64, dt time.Duration, n int) (touches int) {
	for i := 0; i < n; i++ {
		t.Advance(executed, dt)
		touches += t.Touches(dt)
	}
	return touches
}

// jitterCap is the paced-phase span bound without the σ = 0 relaxation:
// the steps up to and including the next jitter resample.
func jitterCap(t *Task, dt time.Duration) int { return ceilSteps(t.jitterUntil-t.now, dt) }

// TestAdvanceSpanBitIdentity drives AdvanceSpan against the literal
// Advance + Touches loop in every regime — batch, windowed batch, served
// paced, starved paced (short, and long enough to drop at the backlog
// cap), draining paced, and a touch phase whose span ends the phase —
// for a span no longer than SpanBound allows. The touch counts and the
// rng position must match too.
func TestAdvanceSpanBitIdentity(t *testing.T) {
	dt := time.Millisecond
	cases := []struct {
		name     string
		spec     *Spec
		starve   int     // zero-capacity steps first, to build a backlog
		capacity float64 // capacity of the captured and replayed step
		n        int
		touches  bool // the span draws touch events
	}{
		{"batch-starved", batchSpec(0), 0, 7.5e4, 1000, false},
		{"windowed-batch-idle", batchSpec(4 * time.Second), 0, 0, 3999, false},
		{"paced-served", pacedSpec(0), 0, 1e9, 4999, false},
		{"paced-starved", pacedSpec(0), 0, 1e4, 50, false},
		// 1e4 of a 7.5e4 per-step demand fills the 7.5e7 backlog cap after
		// about 1,150 steps; every step after that drops the same work.
		{"paced-starved-to-cap", steadySpec(), 0, 1e4, 2000, false},
		// 400 starved steps leave a 3e7 backlog, which a 1e5 capacity
		// drains by 2.5e4 a step.
		{"paced-draining", steadySpec(), 400, 1e5, 1000, false},
		// The span ends the first phase, so its last step draws touches
		// at the second phase's rate.
		{"paced-touch", touchSpec(), 0, 1e9, 999, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, fast := NewTask(tc.spec, 42), NewTask(tc.spec, 42)
			var sp StepPlan
			for _, tk := range []*Task{ref, fast} {
				for i := 0; i < tc.starve; i++ {
					slowStep(tk, 0, dt)
				}
				// One slow step captures the plan the span replays.
				sp, _ = slowStep(tk, tc.capacity, dt)
			}
			if b := fast.SpanBound(sp, dt, unboundedSteps); tc.n > b {
				t.Fatalf("span of %d steps exceeds SpanBound %d", tc.n, b)
			}
			want := advanceSteps(ref, sp.Exec, dt, tc.n)
			if got := fast.AdvanceSpan(sp.Exec, dt, tc.n); got != want {
				t.Fatalf("AdvanceSpan drew %d touches, the literal loop %d", got, want)
			}
			if tc.touches != (want > 0) {
				t.Fatalf("literal loop drew %d touches", want)
			}
			taskStateEqual(t, ref, fast, false)
		})
	}
}

// TestSpanBoundDrainingBacklog: a paced phase held at capacity while its
// backlog drains (want < MaxInstr < want + backlog) executes exactly
// MaxInstr every step until the backlog fits. SpanBound must cover
// exactly those steps — the leading steps the literal Demand → clamp →
// Advance loop clamps — and AdvanceSpan over them must match that loop.
func TestSpanBoundDrainingBacklog(t *testing.T) {
	dt := time.Millisecond
	const capacity = 1e5 // above the 7.5e4 per-step demand
	mk := func() (*Task, StepPlan) {
		tk := NewTask(steadySpec(), 3)
		for i := 0; i < 20; i++ {
			slowStep(tk, 0, dt)
		}
		sp, _ := slowStep(tk, capacity, dt)
		return tk, sp
	}
	ref, sp := mk()
	if want := pacedWant(&ref.Spec.Phases[0], dt, ref.jitterMul); sp.Served || !(want < sp.MaxInstr) {
		t.Fatalf("not a draining step: want %v, plan %+v", want, sp)
	}
	sb := ref.SpanBound(sp, dt, unboundedSteps)
	if sb <= 0 {
		t.Fatalf("SpanBound = %d while the backlog drains, want > 0", sb)
	}
	probe, _ := mk()
	clamped := 0
	for probe.Demand(dt).WantedInstr > capacity {
		probe.Advance(capacity, dt)
		if clamped++; clamped > 10000 {
			t.Fatal("backlog never drains")
		}
	}
	if sb != clamped {
		t.Fatalf("SpanBound = %d, the literal loop clamps %d steps", sb, clamped)
	}
	if got := ref.SpanBound(sp, dt, sb/2); got != sb/2 {
		t.Fatalf("SpanBound under limit %d = %d", sb/2, got)
	}
	fast, _ := mk()
	for i := 0; i < sb; i++ {
		slowStep(ref, capacity, dt)
	}
	fast.AdvanceSpan(sp.Exec, dt, sb)
	taskStateEqual(t, ref, fast, false)
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
	sb := ref.SpanBound(sp, dt, unboundedSteps)
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
	if got, want := jt.SpanBound(jsp, dt, unboundedSteps), jitterCap(jt, dt); got != want {
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
	if got, want := st.SpanBound(ssp, dt, unboundedSteps), jitterCap(st, dt); got != want {
		t.Fatalf("stale-multiplier SpanBound = %d, want the jitter cap %d", got, want)
	}
}
