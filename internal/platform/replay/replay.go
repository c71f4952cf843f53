// Package replay implements a trace-driven platform backend: a Device
// whose observation surface (clock, PMU counters, power rail, telemetry)
// is reconstructed step-for-step from a recorded run, and an Engine that
// drives actors over it with the same scheduling semantics as the
// simulator.
//
// A full-rate recording (one trace.Point per engine step, written by
// trace.Recorder.WriteJSON) is a complete measurement record: it carries
// the cumulative PMU and telemetry counters as of the end of every step,
// so software replayed on top of it observes bit-for-bit what it would
// have observed live. A deterministic consumer — the energy controller
// with a fixed seed — therefore reproduces its recorded decisions
// cycle-for-cycle, with no simulation engine in the loop.
//
// Replay is open-loop: actuation (SetFreqIdx, sysfs writes) is accepted,
// protocol-checked and tracked by the platform.Kernel the device embeds,
// the simulator's own, but does not alter the recorded trajectory. That is exactly what makes it useful — it separates "what
// did the policy decide" from "what did the platform do", and it is the
// harness for regression-testing controller logic against traces
// captured from other backends, including real hardware.
package replay

import (
	"fmt"
	"time"

	"aspeo/internal/platform"
	"aspeo/internal/pmu"
	"aspeo/internal/soc"
	"aspeo/internal/sysfs"
	"aspeo/internal/trace"
)

// Device is the trace-driven platform.Device. Its kernel side — the
// cpufreq/devfreq tree, the ladder actuator, the touch queue and the
// span sink — is the embedded platform.Kernel the simulated phone
// embeds too, so installers and governors see an identical tree and
// actuation is tracked exactly as on the phone: protocol checks, clamps
// and the thermal cap behave the same, but open-loop — actuation does
// not change the recorded trajectory. It is a single-threaded cell like
// every backend: not safe for concurrent use.
type Device struct {
	platform.Kernel

	pts  []trace.Point
	step time.Duration
	cur  int // next step to replay; Now() is its start time
}

var (
	_ platform.Device      = (*Device)(nil)
	_ platform.BatchWriter = (*Device)(nil)
)

// newDevice validates the trace and builds the device over it.
func newDevice(pts []trace.Point, chip *soc.SoC) (*Device, error) {
	if chip == nil {
		chip = soc.Nexus6()
	}
	if err := chip.Validate(); err != nil {
		return nil, err
	}
	if len(pts) < 2 {
		return nil, fmt.Errorf("replay: trace has %d points, need at least 2", len(pts))
	}
	if pts[0].T != 0 {
		return nil, fmt.Errorf("replay: trace starts at %v, want 0 (record the whole run)", pts[0].T)
	}
	step := pts[1].T - pts[0].T
	if step <= 0 {
		return nil, fmt.Errorf("replay: non-increasing trace times (%v then %v)", pts[0].T, pts[1].T)
	}
	for i := range pts {
		if pts[i].T != time.Duration(i)*step {
			return nil, fmt.Errorf("replay: trace is not full-rate: point %d at %v, want %v (record with TraceEvery = engine step)",
				i, pts[i].T, time.Duration(i)*step)
		}
	}
	if pts[len(pts)-1].CumInstr == 0 {
		return nil, fmt.Errorf("replay: trace carries no cumulative counters (recorded by an older recorder, or via CSV?); re-record with WriteJSON")
	}
	d := &Device{pts: pts, step: step}
	d.Kernel.Init(chip, nil)
	// The trace does not carry the load model; the informational files
	// exist (software probing them must not error) with quiescent values.
	d.FS().Create(sysfs.ProcLoadAvg, "0.00 0.00 0.00 2/812 12345", false)
	d.FS().Create(sysfs.ProcMemInfoFreeMB, "512", false)
	return d, nil
}

// observed returns the trace point whose counters are visible at the
// current time: the one covering the step that just completed. Before
// the first step everything reads zero.
func (d *Device) observed() trace.Point {
	if d.cur == 0 {
		return trace.Point{}
	}
	i := d.cur
	if i > len(d.pts) {
		i = len(d.pts)
	}
	return d.pts[i-1]
}

// advance replays one recorded step; the trace must not be exhausted.
func (d *Device) advance() {
	d.AddTouches(d.pts[d.cur].Touches)
	d.cur++
}

// Done reports whether the whole trace has been replayed.
func (d *Device) Done() bool { return d.cur >= len(d.pts) }

// --- platform.Clock ---

// Now returns the replay clock: the start time of the next recorded
// step, or the end of the trace once exhausted.
func (d *Device) Now() time.Duration {
	if d.cur < len(d.pts) {
		return d.pts[d.cur].T
	}
	return d.pts[len(d.pts)-1].T + d.step
}

// --- platform.PerfReader ---

// PMUSnapshot reconstructs the counter state a live reader would see at
// this instant from the recorded absolutes. Deltas between two
// snapshots are plain subtractions of recorded values, so a recorded
// measurement chain reproduces bit-for-bit. The cycle counter is not
// recorded and reads zero.
func (d *Device) PMUSnapshot() pmu.Snapshot {
	p := d.observed()
	return pmu.SnapshotAt(p.CumInstr, 0, p.CumTrafficBytes)
}

// SetPerfOverhead is a no-op: the recorded power already includes the
// instrumentation cost the original run paid.
func (d *Device) SetPerfOverhead(cpuFrac, standingW float64) {}

// --- platform.PowerMeter ---

// LastPowerW returns the recorded device power over the most recent
// replayed step.
func (d *Device) LastPowerW() float64 { return d.observed().PowerW }

// LastCPUPowerW returns the recorded CPU power component.
func (d *Device) LastCPUPowerW() float64 { return d.observed().CPUPowerW }

// AddOverlayEnergyJ is a no-op: replayed power is measured, not modeled,
// so one-shot instrumentation costs are already in the record.
func (d *Device) AddOverlayEnergyJ(j float64) {}

// --- platform.Telemetry ---

// CumMachineBusySec returns the recorded cumulative machine-busy time.
func (d *Device) CumMachineBusySec() float64 { return d.observed().CumBusySec }

// CumBusyCoreSec returns the recorded cumulative busy core-seconds.
func (d *Device) CumBusyCoreSec() float64 { return d.observed().CumCoreSec }

// CumTrafficBytes returns the recorded cumulative DRAM traffic.
func (d *Device) CumTrafficBytes() float64 { return d.observed().CumTrafficBytes }

// Engine drives actors over a replayed Device with the simulator's
// scheduling semantics: actors tick at their period boundaries, in
// registration order, before the device advances one step.
type Engine struct {
	dev    *Device
	actors []scheduled
}

type scheduled struct {
	actor platform.Actor
	next  time.Duration
}

var _ platform.Runner = (*Engine)(nil)

// NewEngine builds a replay engine over a full-rate recorded trace. A
// nil chip defaults to the Nexus 6 ladders (the trace records ladder
// indices, so the chip must match the recording backend's).
func NewEngine(pts []trace.Point, chip *soc.SoC) (*Engine, error) {
	dev, err := newDevice(pts, chip)
	if err != nil {
		return nil, err
	}
	return &Engine{dev: dev}, nil
}

// Device implements platform.Runner.
func (e *Engine) Device() platform.Device { return e.dev }

// Step returns the engine's scheduling quantum: the recorded step.
func (e *Engine) Step() time.Duration { return e.dev.step }

// Register implements platform.Runner.
func (e *Engine) Register(a platform.Actor) error {
	p := a.Period()
	if p <= 0 || p%e.dev.step != 0 {
		return fmt.Errorf("replay: actor %q period %v is not a positive multiple of step %v",
			a.Name(), p, e.dev.step)
	}
	e.actors = append(e.actors, scheduled{actor: a, next: e.dev.Now()})
	return nil
}

// Run replays until `until` elapses on the trace clock or the trace is
// exhausted, whichever comes first, and returns statistics over exactly
// the replayed interval. There is no foreground-task notion in a trace,
// so stopWhenFGDone only matters through the recorded Stats it produced
// originally; it is accepted for interface symmetry and ignored.
func (e *Engine) Run(until time.Duration, stopWhenFGDone bool) platform.Stats {
	dev := e.dev
	start := dev.Now()
	deadline := start + until
	startInstr := dev.observed().CumInstr
	fcAtStart, bwAtStart := dev.FreqChanges(), dev.BWChanges()

	var energyJ, peakW float64
	for dev.Now() < deadline && !dev.Done() {
		now := dev.Now()
		for i := range e.actors {
			if now >= e.actors[i].next {
				e.actors[i].actor.Tick(now, dev)
				e.actors[i].next = now + e.actors[i].actor.Period()
			}
		}
		stepPower := dev.pts[dev.cur].PowerW
		dev.advance()
		energyJ += stepPower * dev.step.Seconds()
		if stepPower > peakW {
			peakW = stepPower
		}
	}

	dur := dev.Now() - start
	instr := dev.observed().CumInstr - startInstr
	st := platform.Stats{
		Duration:     dur,
		EnergyJ:      energyJ,
		PeakPowerW:   peakW,
		Instructions: instr,
		FreqChanges:  dev.FreqChanges() - fcAtStart,
		BWChanges:    dev.BWChanges() - bwAtStart,
	}
	if dur > 0 {
		st.AvgPowerW = energyJ / dur.Seconds()
		st.GIPS = instr / dur.Seconds() / 1e9
	}
	return st
}
