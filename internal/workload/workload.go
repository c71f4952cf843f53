// Package workload models the applications the paper evaluates and the
// background loads they run against.
//
// Each application is a Spec: a looped sequence of phases, where a phase
// is either *paced* (the app wants a target instruction rate — game
// loops, video frames, audio buffers; unmet demand accumulates in a small
// backlog and surplus capacity idles) or *batch* (the app consumes all
// capacity until an instruction budget is done — transcoding, page
// loads). Phases carry the architectural traits (perfmodel.Traits) that
// determine how fast they run at each system configuration, plus the
// power coupling of non-CPU units (GPU render, hardware codecs, camera,
// radio) that the Monsoon measures but DVFS does not control.
//
// The six evaluated apps (VidCon, MobileBench, AngryBirds, WeChat video
// call, MX Player, Spotify) are calibrated to the paper's anchors: base
// speeds (AngryBirds 0.129 GIPS, VidCon 0.471 GIPS at the lowest
// configuration), saturation knees ("no GIPS improvement beyond CPU
// frequency No. 5" for AngryBirds), excluded frequency ranges, and run
// lengths. The eBook reader used for the paper's Figure 1 is included as
// a seventh spec.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"aspeo/internal/detrand"
	"aspeo/internal/fpacc"
	"aspeo/internal/perfmodel"
)

// Kind distinguishes how a phase consumes the machine.
type Kind int

// Phase kinds.
const (
	// Paced phases want DemandGIPS instructions per second.
	Paced Kind = iota
	// Batch phases consume all available capacity until InstrBudget
	// instructions have retired.
	Batch
)

func (k Kind) String() string {
	if k == Batch {
		return "batch"
	}
	return "paced"
}

// Phase is one stage of an application's execution.
type Phase struct {
	Name   string
	Kind   Kind
	Traits perfmodel.Traits

	// Paced parameters.
	Duration   time.Duration // phase length
	DemandGIPS float64       // wanted instruction rate, GIPS
	// DemandJitter is the σ of a mean-one lognormal multiplier on the
	// paced demand; it models frame spikes and decode bursts. The
	// multiplier is resampled every JitterPeriod (default 200 ms):
	// short periods create the micro-bursts that trip the 20 ms-window
	// default governor while washing out of the controller's 2 s
	// averages.
	DemandJitter float64
	JitterPeriod time.Duration

	// Batch parameters. A batch phase with Duration == 0 ends when
	// InstrBudget instructions have retired (a transcode chunk, a page
	// load). A batch phase with Duration > 0 is *windowed*: it lasts
	// exactly Duration — the budget races to completion and the rest of
	// the window idles (prefetch, sync bursts); budget not finished by
	// the window's end is abandoned.
	InstrBudget float64 // instructions to retire before the phase ends

	// Power coupling of units DVFS does not control.
	AuxBaseW    float64 // constant draw while the phase runs (codec, camera…)
	AuxWPerGIPS float64 // draw proportional to achieved GIPS (GPU render)

	// NetBps is network traffic while the phase runs (bytes/second).
	NetBps float64

	// TouchRate is user input events per second (Poisson); these drive
	// the interactive governor's input boost. At most MaxTouchRate.
	TouchRate float64

	// BacklogSec bounds how much unmet paced demand is buffered, in
	// seconds of demand, before work is dropped. Games keep a few
	// frames (~0.1 s); audio players buffer seconds. 0 means the
	// package default.
	BacklogSec float64
}

// Validate checks phase consistency.
func (p Phase) Validate() error {
	if err := p.Traits.Validate(); err != nil {
		return fmt.Errorf("phase %q: %w", p.Name, err)
	}
	switch p.Kind {
	case Paced:
		if p.DemandGIPS <= 0 {
			return fmt.Errorf("phase %q: paced phase needs positive DemandGIPS", p.Name)
		}
		if p.Duration <= 0 {
			return fmt.Errorf("phase %q: paced phase needs positive Duration", p.Name)
		}
	case Batch:
		if p.InstrBudget <= 0 {
			return fmt.Errorf("phase %q: batch phase needs positive InstrBudget", p.Name)
		}
	default:
		return fmt.Errorf("phase %q: unknown kind %d", p.Name, int(p.Kind))
	}
	if p.DemandJitter < 0 || p.BacklogSec < 0 || p.AuxBaseW < 0 || p.AuxWPerGIPS < 0 || p.NetBps < 0 || p.TouchRate < 0 {
		return fmt.Errorf("phase %q: negative parameter", p.Name)
	}
	if !(p.TouchRate <= MaxTouchRate) {
		return fmt.Errorf("phase %q: TouchRate %v exceeds %d events/s", p.Name, p.TouchRate, MaxTouchRate)
	}
	return nil
}

// MaxTouchRate bounds Phase.TouchRate, in events per second: one event
// per 1 ms simulator step on average. Touches draws by Poisson
// inversion against exp(-rate), whose cost grows with the per-step rate
// and whose count saturates once exp(-rate) underflows (about 745 per
// step); library apps peak at 2.5 events/s.
const MaxTouchRate = 1000

// Spec describes an application.
type Spec struct {
	Name   string
	Phases []Phase

	// Loop restarts the phase sequence when it completes.
	Loop bool
	// LoopCount bounds the number of phase-sequence iterations for
	// looped apps that have a natural end (MobileBench's site list);
	// 0 means unbounded.
	LoopCount int
	// RunFor is the nominal foreground session length for paced apps
	// and a safety bound for batch apps.
	RunFor time.Duration

	// DeadlineCritical marks apps whose performance is reported via
	// execution time rather than GIPS (paper Table III: VidCon,
	// MobileBench, MX Player).
	DeadlineCritical bool

	// ProfileFreqIdxs are the 0-based CPU frequency ladder indices
	// included in the offline profiling table — the paper's app-
	// specific range restrictions (§V-A).
	ProfileFreqIdxs []int

	// Background marks specs that model background services.
	Background bool
}

// Validate checks the spec.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: spec needs a name")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload %s: no phases", s.Name)
	}
	for _, p := range s.Phases {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("workload %s: %w", s.Name, err)
		}
	}
	if s.RunFor <= 0 {
		return fmt.Errorf("workload %s: RunFor must be positive", s.Name)
	}
	for _, i := range s.ProfileFreqIdxs {
		if i < 0 || i > 17 {
			return fmt.Errorf("workload %s: profile freq index %d out of range", s.Name, i)
		}
	}
	return nil
}

// Clone returns a deep copy of the spec. Generated workloads (scenario
// perturbations, chain synthesis) mutate their copy freely without
// aliasing the library specs or each other: Phase carries only value
// types, so copying the phase slice and the frequency-index slice makes
// the copy fully independent.
func (s *Spec) Clone() *Spec {
	c := *s
	c.Phases = append([]Phase(nil), s.Phases...)
	c.ProfileFreqIdxs = append([]int(nil), s.ProfileFreqIdxs...)
	return &c
}

// TotalBatchInstr returns the total instruction budget of one iteration
// of the phase sequence (batch phases only).
func (s *Spec) TotalBatchInstr() float64 {
	sum := 0.0
	for _, p := range s.Phases {
		if p.Kind == Batch {
			sum += p.InstrBudget
		}
	}
	return sum
}

const defaultJitterPeriod = 200 * time.Millisecond

// backlogCap bounds how much unmet paced demand may be buffered, in
// seconds of demand. Real apps queue work elastically — decoded audio,
// buffered frames, deferred physics ticks — and only visibly degrade when
// starved for sustained periods.
const defaultBacklogSec = 1.0

// Task is a running instance of a Spec. It is a pure state machine: the
// simulator asks for its Demand each step, executes some portion of it,
// and reports the result to Advance.
type Task struct {
	Spec *Spec

	rng    *rand.Rand
	rngSrc *detrand.Source
	st     taskState // the dynamic state a checkpoint carries (state.go)

	// Touches' Poisson threshold exp(-rate), cached for one phase and
	// step length (the Spec does not change while the task runs).
	touchIdx int
	touchDt  time.Duration
	touchL   float64
	touchOn  bool // phase touchIdx draws touch events at step touchDt
}

// NewTask instantiates a spec with a deterministic seed.
func NewTask(spec *Spec, seed int64) *Task {
	rng, src := detrand.New(seed)
	return &Task{
		Spec:   spec,
		rng:    rng,
		rngSrc: src,
		st:     taskState{JitterMul: 1},
	}
}

// Demand is what a task wants from the machine for one step.
type Demand struct {
	WantedInstr float64 // instructions the task would consume this step
	Traits      perfmodel.Traits
	AuxBaseW    float64
	AuxWPerGIPS float64
	NetBps      float64
}

// Phase returns the currently executing phase.
func (t *Task) Phase() Phase { return t.Spec.Phases[t.st.PhaseIdx] }

// Done reports whether the task has finished (batch budget exhausted and
// not looping, or loop count reached).
func (t *Task) Done() bool { return t.st.Done }

// TotalExecuted returns instructions retired so far.
func (t *Task) TotalExecuted() float64 { return t.st.TotalExec }

// DroppedInstr returns paced work dropped due to backlog overflow (missed
// frames).
func (t *Task) DroppedInstr() float64 { return t.st.Dropped }

// Now returns the task-local clock.
func (t *Task) Now() time.Duration { return t.st.Now }

// Demand computes what the task wants for the next dt.
func (t *Task) Demand(dt time.Duration) Demand {
	if t.st.Done {
		return Demand{Traits: t.Spec.Phases[0].Traits}
	}
	p := &t.Spec.Phases[t.st.PhaseIdx]
	d := Demand{
		Traits:      p.Traits,
		AuxBaseW:    p.AuxBaseW,
		AuxWPerGIPS: p.AuxWPerGIPS,
		NetBps:      p.NetBps,
	}
	switch p.Kind {
	case Batch:
		d.WantedInstr = p.InstrBudget - t.st.PhaseExec
		if d.WantedInstr < 0 {
			d.WantedInstr = 0
		}
	case Paced:
		if t.st.Now >= t.st.JitterUntil {
			t.st.JitterMul = t.sampleJitter(p.DemandJitter)
			jp := p.JitterPeriod
			if jp <= 0 {
				jp = defaultJitterPeriod
			}
			t.st.JitterUntil = t.st.Now + jp
		}
		d.WantedInstr = pacedWant(p, dt, t.st.JitterMul) + t.st.Backlog
	}
	return d
}

// pacedWant is a paced phase's demand for one step of dt at jitter
// multiplier mul, before any backlog.
func pacedWant(p *Phase, dt time.Duration, mul float64) float64 {
	return p.DemandGIPS * 1e9 * dt.Seconds() * mul
}

// backlogCap is how much unmet work a paced phase may carry before it
// drops the excess.
func backlogCap(p *Phase) float64 {
	backlogSec := p.BacklogSec
	if backlogSec <= 0 {
		backlogSec = defaultBacklogSec
	}
	return p.DemandGIPS * 1e9 * backlogSec
}

// backlogStep is one step of the paced unmet-work recurrence: a step
// that wanted want on top of backlog and executed executed carries the
// rest, up to cap, and drops the excess. Advance, SpanBound's drain walk
// and AdvanceSpan's fold all take their steps through it, which is what
// keeps the three bit-identical.
func backlogStep(want, backlog, executed, cap float64) (next, drop float64) {
	unmet := want + backlog - executed
	if unmet < 0 {
		return 0, 0
	}
	if unmet > cap {
		return cap, unmet - cap
	}
	return unmet, 0
}

// sampleJitter draws a mean-one lognormal multiplier with σ = sigma.
func (t *Task) sampleJitter(sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return math.Exp(sigma*t.rng.NormFloat64() - sigma*sigma/2)
}

// Advance reports that `executed` instructions of the previous Demand ran
// during dt, and moves the phase machine forward.
func (t *Task) Advance(executed float64, dt time.Duration) {
	if t.st.Done {
		return
	}
	p := &t.Spec.Phases[t.st.PhaseIdx]
	t.st.Now += dt
	t.st.PhaseElapsed += dt
	t.st.PhaseExec += executed
	t.st.TotalExec += executed

	if p.Kind == Paced {
		var drop float64
		t.st.Backlog, drop = backlogStep(pacedWant(p, dt, t.st.JitterMul), t.st.Backlog, executed, backlogCap(p))
		if drop > 0 {
			t.st.Dropped += drop
		}
	}

	switch p.Kind {
	case Batch:
		if p.Duration > 0 {
			// Windowed batch: fixed wall-clock window.
			if t.st.PhaseElapsed >= p.Duration {
				if t.st.PhaseExec < p.InstrBudget {
					t.st.Dropped += p.InstrBudget - t.st.PhaseExec
				}
				t.nextPhase()
			}
		} else if t.st.PhaseExec >= p.InstrBudget {
			t.nextPhase()
		}
	case Paced:
		if t.st.PhaseElapsed >= p.Duration {
			t.nextPhase()
		}
	}
}

func (t *Task) nextPhase() {
	t.st.PhaseIdx++
	t.st.PhaseElapsed = 0
	t.st.PhaseExec = 0
	t.st.Backlog = 0
	if t.st.PhaseIdx >= len(t.Spec.Phases) {
		t.st.PhaseIdx = 0
		t.st.LoopsDone++
		if !t.Spec.Loop || (t.Spec.LoopCount > 0 && t.st.LoopsDone >= t.Spec.LoopCount) {
			t.st.Done = true
		}
	}
}

// --- Span support (sim.Phone.StepSpan) ---
//
// A step-at-a-time simulator spends most of its time repeating steps
// whose inputs have not changed: the configuration is constant between
// actor ticks and a task's demand is constant between jitter resamples
// and phase transitions. StepPlan/SpanBound let the simulator prove,
// from task state alone, that the next k steps would execute exactly
// what the last slow step executed — so it can replay them without
// recomputing demand or the power model. The contract is bit-identity:
// a fused span must leave every observable value (task state, rng
// stream, dropped work) exactly as k slow steps would.

// StepPlan records what one simulator step executed for this task.
type StepPlan struct {
	Exec     float64 // instructions the step executed
	MaxInstr float64 // capacity available to the task that step
	Served   bool    // Exec == WantedInstr (demand not capacity-clamped)
	PhaseIdx int     // phase the step executed in
	Done     bool    // task was already done (step skipped it)
}

// unboundedSteps stands for "no task-side limit" before SpanBound
// applies its caller's.
const unboundedSteps = math.MaxInt32

// ceilSteps returns how many dt-steps fit strictly before deadline a,
// counting the step that crosses it: the largest k with (k-1)·dt < a.
func ceilSteps(a, dt time.Duration) int {
	if a <= 0 {
		return 0
	}
	return int((a + dt - 1) / dt)
}

// SpanBound returns how many consecutive dt-steps, at most limit, the
// task can repeat sp before what it executes could change: during those
// steps each step would execute exactly sp.Exec, with the same clamp
// decision, and Demand would draw no randomness. 0 means the next step
// must run the slow path. The bound may include the step that ends a
// paced phase or a windowed batch (Advance handles the transition), but
// never extends past it.
//
// A capacity-clamped paced phase covers two states. Starved, its demand
// alone exceeds capacity, so the clamp holds whatever the backlog does.
// Draining, the per-step demand fits but the backlog does not, so each
// step executes sp.MaxInstr and only the backlog moves: SpanBound walks
// that backlog through backlogStep, for at most limit steps, and ends
// the span before the first step that would be served (want + backlog
// <= sp.MaxInstr).
//
// A paced phase is normally capped at its next jitter resample. The one
// exception is a steadily-served phase whose jitter is disabled (σ = 0)
// and whose multiplier sits at its fixed point of 1: crossing the
// resample deadline draws no randomness and cannot change the demand,
// so the span may run all the way to the phase boundary. The resample
// deadline then goes stale, which is harmless: Demand refreshes it
// lazily on the next slow step, and no observable depends on it.
func (t *Task) SpanBound(sp StepPlan, dt time.Duration, limit int) int {
	if t.st.Done || sp.Done || t.st.PhaseIdx != sp.PhaseIdx {
		return 0
	}
	p := &t.Spec.Phases[t.st.PhaseIdx]
	switch p.Kind {
	case Batch:
		remaining := p.InstrBudget - t.st.PhaseExec
		k := unboundedSteps
		switch {
		case sp.Served && sp.Exec == 0 && remaining <= 0:
			// Windowed batch idling out its window: demand stays zero
			// until the window ends.
		case sp.Served:
			// The budget finishes this step; the transition needs the
			// slow path.
			return 0
		case sp.MaxInstr <= 0:
			// Starved of all capacity: no progress, state frozen.
		default:
			// Starved: exec == MaxInstr until the budget approaches.
			// phaseExec accumulates sequentially in floating point, so
			// keep a two-step safety margin from the exact boundary.
			m := (remaining - sp.MaxInstr) / sp.MaxInstr
			if m < float64(unboundedSteps) {
				k = int(m) - 1
			}
			if k < 1 {
				return 0
			}
		}
		if p.Duration > 0 {
			if kw := ceilSteps(p.Duration-t.st.PhaseElapsed, dt); kw < k {
				k = kw
			}
		}
		return min(k, limit)
	case Paced:
		// Never step past the jitter resample deadline: Demand draws
		// from the rng there (even with σ = 0 the multiplier is
		// re-evaluated), and past it the demand may change — except for
		// σ = 0 with the multiplier already at its fixed point in a
		// served phase.
		k := min(limit, ceilSteps(p.Duration-t.st.PhaseElapsed, dt))
		if !(sp.Served && p.DemandJitter <= 0 && t.st.JitterMul == 1) {
			k = min(k, ceilSteps(t.st.JitterUntil-t.st.Now, dt))
		}
		if k <= 0 {
			return 0
		}
		want := pacedWant(p, dt, t.st.JitterMul)
		switch {
		case sp.Served:
			// Steady served state: backlog empty and the step executes
			// exactly the per-step demand.
			if t.st.Backlog != 0 || want != sp.Exec {
				return 0
			}
		case want < sp.MaxInstr:
			// Draining: clamped only while the backlog keeps the demand
			// above capacity.
			cap := backlogCap(p)
			b := t.st.Backlog
			for j := 0; j < k; j++ {
				if want+b <= sp.MaxInstr {
					return j
				}
				b, _ = backlogStep(want, b, sp.Exec, cap)
			}
		}
		// Otherwise starved: demand alone exceeds capacity, so the clamp
		// holds whatever the backlog does.
		return k
	}
	return 0
}

// AdvanceSpan reports n identical steps and draws their touch events —
// bit-identically to n consecutive Advance + Touches calls — and returns
// the number of touches. The first n-1 steps fold in closed form in
// every regime: the clocks add exactly, the instruction totals through
// fpacc.AddK, and a paced phase's backlog walks backlogStep with want
// and the cap computed once, until it reaches a fixed point (served and
// empty, or starved at the cap and dropping the same work every step),
// from where the drops fold through fpacc.AddK too. A touch draw depends
// only on the phase and the rng, neither of which an Advance before the
// last step can change, so drawing the first n-1 after the fold keeps
// the rng order. The final step runs the literal Advance, which handles
// the transition if the span ends the phase, and draws its touches in
// whatever phase that leaves.
//
// Precondition: n must not exceed the task's SpanBound for the step
// being replayed, so that no phase transition or jitter resample can
// occur before the final step.
func (t *Task) AdvanceSpan(executed float64, dt time.Duration, n int) int {
	if n <= 0 || t.st.Done {
		return 0
	}
	p := &t.Spec.Phases[t.st.PhaseIdx]
	m := n - 1
	t.st.Now += time.Duration(m) * dt
	t.st.PhaseElapsed += time.Duration(m) * dt
	t.st.PhaseExec = fpacc.AddK(t.st.PhaseExec, executed, m)
	t.st.TotalExec = fpacc.AddK(t.st.TotalExec, executed, m)
	if p.Kind == Paced {
		want, cap := pacedWant(p, dt, t.st.JitterMul), backlogCap(p)
		for j := 0; j < m; j++ {
			prev := t.st.Backlog
			var drop float64
			t.st.Backlog, drop = backlogStep(want, prev, executed, cap)
			if drop > 0 {
				t.st.Dropped += drop
			}
			if t.st.Backlog == prev {
				// Fixed point: each remaining step repeats this one.
				if drop > 0 {
					t.st.Dropped = fpacc.AddK(t.st.Dropped, drop, m-1-j)
				}
				break
			}
		}
	}
	touches := 0
	if l, ok := t.touchThreshold(dt); ok {
		for j := 0; j < m; j++ {
			touches += t.drawTouches(l)
		}
	}
	t.Advance(executed, dt)
	return touches + t.Touches(dt)
}

// PhaseIndex returns the index of the currently executing phase.
func (t *Task) PhaseIndex() int { return t.st.PhaseIdx }

// Touches returns the number of user-input events during dt (Poisson
// with the phase's TouchRate).
func (t *Task) Touches(dt time.Duration) int {
	if t.st.Done {
		return 0
	}
	if l, ok := t.touchThreshold(dt); ok {
		return t.drawTouches(l)
	}
	return 0
}

// touchThreshold returns exp(-rate) for the current phase's per-step
// touch rate over dt, computed once per phase and dt; ok is false when
// the phase draws no touches.
func (t *Task) touchThreshold(dt time.Duration) (l float64, ok bool) {
	if t.touchIdx != t.st.PhaseIdx || t.touchDt != dt {
		rate := t.Spec.Phases[t.st.PhaseIdx].TouchRate * dt.Seconds()
		t.touchIdx, t.touchDt = t.st.PhaseIdx, dt
		t.touchOn, t.touchL = rate > 0, math.Exp(-rate)
	}
	return t.touchL, t.touchOn
}

// drawTouches draws one Poisson count by inversion against l =
// exp(-rate); a validated phase's per-step rate is at most
// MaxTouchRate·dt.
func (t *Task) drawTouches(l float64) int {
	n := 0
	p := t.rng.Float64()
	for p > l {
		n++
		p *= t.rng.Float64()
	}
	return n
}
