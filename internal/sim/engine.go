package sim

import (
	"fmt"
	"time"

	"aspeo/internal/platform"
	"aspeo/internal/pmu"
)

// Actor is the platform actor contract: a periodically scheduled
// software component (governor, perf tool, controller) ticked at its
// period boundaries, before the device advances.
type Actor = platform.Actor

// DefaultStep is the engine's integration step: 1 ms, finer than every
// software period in the system (the fastest is the interactive
// governor's 20 ms timer).
const DefaultStep = time.Millisecond

// Engine advances a Phone and its actors in lockstep.
//
// Concurrency contract: an Engine, its Phone, its workload and every
// registered Actor form one single-threaded simulation cell — none of
// them is safe for concurrent use, and none holds global state. Parallel
// campaigns (internal/par, internal/experiment's runner) exploit exactly
// this: each goroutine constructs its own Phone/Engine/actor set ("one
// Phone per goroutine") and cells share nothing but read-only inputs
// such as workload specs and profile tables.
type Engine struct {
	phone *Phone
	// debug enables the run loop's invariant enforcement (event.go);
	// violations panic — they are engine bugs, never data errors. Tests
	// turn it on; production runs leave it off.
	debug     bool
	actors    []scheduled
	interrupt func() bool
	ckptHook  func()
	cursor    RunCursor
}

// scheduled is one registered actor and its next deadline — the
// engine's one schedule, which checkpoints capture and restore.
type scheduled struct {
	actor Actor
	next  time.Duration
}

// NewEngine creates an engine over the phone, stepping DefaultStep.
func NewEngine(ph *Phone) *Engine { return &Engine{phone: ph} }

// Phone returns the concrete device under simulation — for harnesses
// extracting simulator-only state (histograms, trace recorder).
// Platform consumers use Device instead.
func (e *Engine) Phone() *Phone { return e.phone }

// Device implements platform.Runner.
func (e *Engine) Device() platform.Device { return e.phone }

// Register adds an actor. It returns an error if the actor's period is
// not a positive multiple of the engine step.
func (e *Engine) Register(a Actor) error {
	p := a.Period()
	if p <= 0 || p%DefaultStep != 0 {
		return fmt.Errorf("sim: actor %q period %v is not a positive multiple of step %v",
			a.Name(), p, DefaultStep)
	}
	e.actors = append(e.actors, scheduled{actor: a, next: e.phone.Now()})
	return nil
}

// MustRegister is Register but panics on error; for experiment harnesses
// with statically known periods.
func (e *Engine) MustRegister(a Actor) {
	if err := e.Register(a); err != nil {
		panic(err)
	}
}

// SetInterrupt installs a callback polled at every event boundary of
// the run — the loop points where an actor is due to tick (or the run
// is about to begin). The spacing of polls in simulated time equals the
// gap between consecutive actor deadlines: with the default session actor set that
// is the fastest registered period (20 ms under a kernel governor, 1 s
// under the controller's perf tool, up to the 2 s control quantum in a
// controller-only cell). When the callback returns true the run stops
// at that boundary, and Run's Stats cover exactly the steps that
// executed. nil clears it. The fleet runtime uses this for cooperative
// session stop; an interrupt that never fires leaves the run
// bit-identical to one without (the poll is observation only — it
// cannot touch the cell).
func (e *Engine) SetInterrupt(f func() bool) { e.interrupt = f }

// Stats summarizes a run; the definition lives in platform so every
// platform.Runner reports the same shape.
type Stats = platform.Stats

// Run advances the simulation until `until` elapses (relative to the
// current clock) or, if stopWhenFGDone, until the foreground task
// completes. It returns run statistics measured over exactly the
// interval it simulated.
func (e *Engine) Run(until time.Duration, stopWhenFGDone bool) Stats {
	return e.run(e.startRun(until, stopWhenFGDone))
}

// startRun opens a measurement session and records the baselines the
// run's Stats are diffed against.
func (e *Engine) startRun(until time.Duration, stopWhenFGDone bool) RunCursor {
	ph := e.phone
	ph.Monitor().Start()
	return RunCursor{
		Start:              ph.Now(),
		Deadline:           ph.Now() + until,
		StopWhenFGDone:     stopWhenFGDone,
		StartInstr:         ph.PMU().Read(pmu.Instructions),
		DropsAtStart:       ph.Foreground().DroppedInstr(),
		FreqChangesAtStart: ph.FreqChanges(),
		BWChangesAtStart:   ph.BWChanges(),
	}
}

// Resume continues a run from a restored cursor WITHOUT re-taking
// baselines: the monitor keeps its restored accumulators (Run's Start
// would zero them) and the final Stats are still deltas against the
// original run's entry point, so a killed-and-restored run reports the
// identical Stats an uninterrupted one would.
func (e *Engine) Resume(cur RunCursor) Stats { return e.run(cur) }

// run drives the run loop over the cursor's window and computes the
// run's Stats.
func (e *Engine) run(cur RunCursor) Stats {
	e.cursor = cur
	e.runEvent(cur)
	return e.finishRun(cur)
}

// finishRun closes the measurement session and diffs the run's Stats
// against the cursor's baselines.
func (e *Engine) finishRun(cur RunCursor) Stats {
	ph := e.phone
	ph.Monitor().Stop()
	dur := ph.Now() - cur.Start
	instr := ph.PMU().Read(pmu.Instructions) - cur.StartInstr
	st := Stats{
		Duration:     dur,
		EnergyJ:      ph.Monitor().EnergyJ(),
		AvgPowerW:    ph.Monitor().AveragePowerW(),
		PeakPowerW:   ph.Monitor().PeakPowerW(),
		Instructions: instr,
		FGCompleted:  ph.FGDone(),
		DroppedInstr: ph.Foreground().DroppedInstr() - cur.DropsAtStart,
		FreqChanges:  ph.FreqChanges() - cur.FreqChangesAtStart,
		BWChanges:    ph.BWChanges() - cur.BWChangesAtStart,
	}
	if dur > 0 {
		st.GIPS = instr / dur.Seconds() / 1e9
	}
	return st
}

// FixedConfigActor pins the device at one configuration — the profiler's
// workhorse and the building block for `userspace`-style control in
// tests.
type FixedConfigActor struct {
	FreqIdx, BWIdx int
}

// Name implements Actor.
func (f *FixedConfigActor) Name() string { return "fixed-config" }

// Period implements Actor.
func (f *FixedConfigActor) Period() time.Duration { return 100 * time.Millisecond }

// Tick pins the configuration.
func (f *FixedConfigActor) Tick(_ time.Duration, dev platform.Device) {
	dev.SetFreqIdx(f.FreqIdx)
	dev.SetBWIdx(f.BWIdx)
}

var _ platform.Runner = (*Engine)(nil)
