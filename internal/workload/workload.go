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
	// the interactive governor's input boost.
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
	return nil
}

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

	rng          *rand.Rand
	rngSrc       *detrand.Source
	now          time.Duration
	phaseIdx     int
	phaseElapsed time.Duration
	phaseExec    float64 // instructions retired in the current phase
	totalExec    float64
	loopsDone    int
	done         bool

	jitterMul   float64
	jitterUntil time.Duration
	backlog     float64 // unmet paced instructions carried over
	dropped     float64 // paced instructions dropped at backlog overflow
}

// NewTask instantiates a spec with a deterministic seed.
func NewTask(spec *Spec, seed int64) *Task {
	rng, src := detrand.New(seed)
	return &Task{
		Spec:      spec,
		rng:       rng,
		rngSrc:    src,
		jitterMul: 1,
	}
}

// Reset rewinds the task to its initial state under a fresh seed —
// bit-identical to NewTask(t.Spec, seed). One Task definition can then
// back many generated sessions in turn (the scenario compiler's reuse
// path) instead of callers rebuilding tasks by hand; no phase state,
// backlog, drop accounting or rng position leaks from the previous run.
func (t *Task) Reset(seed int64) {
	rng, src := detrand.New(seed)
	*t = Task{Spec: t.Spec, rng: rng, rngSrc: src, jitterMul: 1}
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
func (t *Task) Phase() Phase { return t.Spec.Phases[t.phaseIdx] }

// Done reports whether the task has finished (batch budget exhausted and
// not looping, or loop count reached).
func (t *Task) Done() bool { return t.done }

// TotalExecuted returns instructions retired so far.
func (t *Task) TotalExecuted() float64 { return t.totalExec }

// DroppedInstr returns paced work dropped due to backlog overflow (missed
// frames).
func (t *Task) DroppedInstr() float64 { return t.dropped }

// Now returns the task-local clock.
func (t *Task) Now() time.Duration { return t.now }

// Demand computes what the task wants for the next dt.
func (t *Task) Demand(dt time.Duration) Demand {
	if t.done {
		return Demand{Traits: t.Spec.Phases[0].Traits}
	}
	p := &t.Spec.Phases[t.phaseIdx]
	d := Demand{
		Traits:      p.Traits,
		AuxBaseW:    p.AuxBaseW,
		AuxWPerGIPS: p.AuxWPerGIPS,
		NetBps:      p.NetBps,
	}
	switch p.Kind {
	case Batch:
		d.WantedInstr = p.InstrBudget - t.phaseExec
		if d.WantedInstr < 0 {
			d.WantedInstr = 0
		}
	case Paced:
		if t.now >= t.jitterUntil {
			t.jitterMul = t.sampleJitter(p.DemandJitter)
			jp := p.JitterPeriod
			if jp <= 0 {
				jp = defaultJitterPeriod
			}
			t.jitterUntil = t.now + jp
		}
		want := p.DemandGIPS * 1e9 * dt.Seconds() * t.jitterMul
		d.WantedInstr = want + t.backlog
	}
	return d
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
	if t.done {
		return
	}
	p := &t.Spec.Phases[t.phaseIdx]
	t.now += dt
	t.phaseElapsed += dt
	t.phaseExec += executed
	t.totalExec += executed

	if p.Kind == Paced {
		want := p.DemandGIPS * 1e9 * dt.Seconds() * t.jitterMul
		unmet := want + t.backlog - executed
		if unmet < 0 {
			unmet = 0
		}
		backlogSec := p.BacklogSec
		if backlogSec <= 0 {
			backlogSec = defaultBacklogSec
		}
		cap := p.DemandGIPS * 1e9 * backlogSec
		if unmet > cap {
			t.dropped += unmet - cap
			unmet = cap
		}
		t.backlog = unmet
	}

	switch p.Kind {
	case Batch:
		if p.Duration > 0 {
			// Windowed batch: fixed wall-clock window.
			if t.phaseElapsed >= p.Duration {
				if t.phaseExec < p.InstrBudget {
					t.dropped += p.InstrBudget - t.phaseExec
				}
				t.nextPhase()
			}
		} else if t.phaseExec >= p.InstrBudget {
			t.nextPhase()
		}
	case Paced:
		if t.phaseElapsed >= p.Duration {
			t.nextPhase()
		}
	}
}

func (t *Task) nextPhase() {
	t.phaseIdx++
	t.phaseElapsed = 0
	t.phaseExec = 0
	t.backlog = 0
	if t.phaseIdx >= len(t.Spec.Phases) {
		t.phaseIdx = 0
		t.loopsDone++
		if !t.Spec.Loop || (t.Spec.LoopCount > 0 && t.loopsDone >= t.Spec.LoopCount) {
			t.done = true
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

// unboundedSteps is SpanBound's "no task-side limit" answer; callers
// min() it against engine-side bounds.
const unboundedSteps = math.MaxInt32

// ceilSteps returns how many dt-steps fit strictly before deadline a,
// counting the step that crosses it: the largest k with (k-1)·dt < a.
func ceilSteps(a, dt time.Duration) int {
	if a <= 0 {
		return 0
	}
	return int((a + dt - 1) / dt)
}

// SpanBound returns how many consecutive dt-steps the task can repeat
// sp before its demand could change: during those steps Demand would
// return the same WantedInstr with the same clamp decision and no rng
// draw would occur. 0 means the next step must run the slow path. The
// bound may include the step that ends a paced phase or a windowed
// batch (Advance handles the transition), but never extends past it.
//
// A paced phase is normally capped at its next jitter resample. The one
// exception is a steadily-served phase whose jitter is disabled (σ = 0)
// and whose multiplier sits at its fixed point of 1: crossing the
// resample deadline draws no randomness and cannot change the demand,
// so the span may run all the way to the phase boundary. The resample
// deadline then goes stale, which is harmless: Demand refreshes it
// lazily on the next slow step, and no observable depends on it.
func (t *Task) SpanBound(sp StepPlan, dt time.Duration) int {
	if t.done || sp.Done || t.phaseIdx != sp.PhaseIdx {
		return 0
	}
	p := &t.Spec.Phases[t.phaseIdx]
	switch p.Kind {
	case Batch:
		remaining := p.InstrBudget - t.phaseExec
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
			if kw := ceilSteps(p.Duration-t.phaseElapsed, dt); kw < k {
				k = kw
			}
		}
		return k
	case Paced:
		// Never step past the jitter resample deadline: Demand draws
		// from the rng there (even with σ = 0 the multiplier is
		// re-evaluated), and past it the demand may change — except for
		// σ = 0 with the multiplier already at its fixed point in a
		// served phase.
		k := unboundedSteps
		if !(sp.Served && p.DemandJitter <= 0 && t.jitterMul == 1) {
			k = ceilSteps(t.jitterUntil-t.now, dt)
			if k <= 0 {
				return 0
			}
		}
		if kp := ceilSteps(p.Duration-t.phaseElapsed, dt); kp < k {
			k = kp
		}
		if k <= 0 {
			return 0
		}
		want := p.DemandGIPS * 1e9 * dt.Seconds() * t.jitterMul
		if sp.Served {
			// Steady served state: backlog empty and the step executes
			// exactly the per-step demand.
			if t.backlog != 0 || want != sp.Exec {
				return 0
			}
		} else {
			// Starved: the clamp persists only while demand alone
			// exceeds capacity; a draining backlog (want < capacity)
			// changes exec per step and must run slow.
			if want < sp.MaxInstr {
				return 0
			}
		}
		return k
	}
	return 0
}

// AdvanceSpan reports n identical steps — bit-identically to n
// consecutive Advance calls — but folds the first n-1 steps in closed
// form when the task state provably telescopes: batch phases
// (instruction totals accumulate sequentially, fast-forwarded exactly
// by fpacc.AddK) and steadily-served paced phases (an empty backlog
// with executed == want keeps the unmet-work arithmetic at exactly
// zero every step). Anything else falls back to the literal loop.
//
// Precondition: n must not exceed the task's SpanBound for the step
// being replayed, so that no phase transition can occur before the
// final step. The final step always runs the literal Advance, which
// handles the transition if the span ends the phase.
func (t *Task) AdvanceSpan(executed float64, dt time.Duration, n int) {
	if n <= 0 || t.done {
		return
	}
	p := &t.Spec.Phases[t.phaseIdx]
	closed := false
	switch p.Kind {
	case Batch:
		closed = true
	case Paced:
		want := p.DemandGIPS * 1e9 * dt.Seconds() * t.jitterMul
		closed = t.backlog == 0 && executed == want
	}
	if !closed {
		for i := 0; i < n; i++ {
			t.Advance(executed, dt)
		}
		return
	}
	t.now += time.Duration(n-1) * dt
	t.phaseElapsed += time.Duration(n-1) * dt
	t.phaseExec = fpacc.AddK(t.phaseExec, executed, n-1)
	t.totalExec = fpacc.AddK(t.totalExec, executed, n-1)
	t.Advance(executed, dt)
}

// PhaseIndex returns the index of the currently executing phase.
func (t *Task) PhaseIndex() int { return t.phaseIdx }

// TouchActive reports whether the current phase generates touch events —
// i.e. whether Touches would consume randomness.
func (t *Task) TouchActive() bool {
	return !t.done && t.Spec.Phases[t.phaseIdx].TouchRate > 0
}

// Touches returns the number of user-input events during dt (Poisson
// with the phase's TouchRate).
func (t *Task) Touches(dt time.Duration) int {
	if t.done {
		return 0
	}
	rate := t.Spec.Phases[t.phaseIdx].TouchRate * dt.Seconds()
	if rate <= 0 {
		return 0
	}
	// Poisson via inversion; rates per step are ≪ 1.
	n := 0
	l := math.Exp(-rate)
	p := t.rng.Float64()
	for p > l {
		n++
		p *= t.rng.Float64()
	}
	return n
}
