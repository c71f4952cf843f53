package sim

import (
	"encoding/json"
	"fmt"
	"time"

	"aspeo/internal/histogram"
	"aspeo/internal/monsoon"
	"aspeo/internal/platform"
	"aspeo/internal/pmu"
	"aspeo/internal/workload"
)

// This file is the simulation layer of session checkpointing: the
// engine's run cursor and actor-schedule walk, and the phone's full
// device snapshot. The contract throughout is bit-exactness — a cell
// rebuilt from the same Config, restored from these snapshots, and
// resumed produces byte-identical outputs to one that was never
// interrupted. Snapshots may only be captured from the engine's
// checkpoint hook (loop top), where no actor is mid-tick and no step
// batch is in flight.

// RunCursor captures everything Engine.Run derives at entry: the run
// window and the baselines its final Stats are diffed against. It is
// part of a session checkpoint so that Resume reports Stats over the
// ORIGINAL run interval, not the post-restore remainder.
type RunCursor struct {
	Start          time.Duration `json:"start_ns"`
	Deadline       time.Duration `json:"deadline_ns"`
	StopWhenFGDone bool          `json:"stop_when_fg_done"`

	StartInstr  float64 `json:"start_instr"`
	StartCycles float64 `json:"start_cycles"`
	StartBus    float64 `json:"start_bus"`

	DropsAtStart       float64 `json:"drops_at_start"`
	FreqChangesAtStart int     `json:"freq_changes_at_start"`
	BWChangesAtStart   int     `json:"bw_changes_at_start"`
}

// Cursor returns the cursor of the run in progress (or most recently
// finished). Valid inside a checkpoint hook, where it describes the
// active run.
func (e *Engine) Cursor() RunCursor { return e.cursor }

// Suspend captures the active run's cursor for a later Resume — the
// engine half of a session checkpoint. It must be called from inside
// the checkpoint hook (the engine's quiescent point): there, and only
// there, the cursor, the actor schedule (CheckpointActors) and the
// device snapshot (Phone.CheckpointState) are mutually consistent, so
// a cell rebuilt from the same Config, restored via RestoreActors →
// Phone.RestoreState, and continued with Resume(cursor) reproduces the
// uninterrupted run byte for byte. Outside the hook it returns the same
// value as Cursor, which describes the most recent run entry rather
// than a resumable point.
func (e *Engine) Suspend() RunCursor { return e.cursor }

// SetCheckpointHook installs a callback polled once per engine-loop
// iteration, after the interrupt poll and before any actor ticks. At
// that point the cell is quiescent — it is the only place snapshot
// capture is allowed. Like the interrupt, the hook is observation
// only: a run with a hook that captures state is bit-identical to one
// without. nil clears it.
func (e *Engine) SetCheckpointHook(f func()) { e.ckptHook = f }

// ActorState is one registered actor's entry in a checkpoint: its
// schedule position plus, for actors carrying run state
// (platform.Checkpointer implementors), their serialized state.
// Stateless actors (e.g. FixedConfigActor) snapshot with a nil State.
type ActorState struct {
	Name  string          `json:"name"`
	Next  time.Duration   `json:"next_ns"`
	State json.RawMessage `json:"state,omitempty"`
}

// CheckpointActors snapshots every registered actor in registration
// order.
func (e *Engine) CheckpointActors() ([]ActorState, error) {
	out := make([]ActorState, len(e.actors))
	for i := range e.actors {
		a := e.actors[i].actor
		out[i] = ActorState{Name: a.Name(), Next: e.actors[i].next}
		if ck, ok := a.(platform.Checkpointer); ok {
			raw, err := ck.CheckpointState()
			if err != nil {
				return nil, fmt.Errorf("sim: checkpoint actor %q: %w", a.Name(), err)
			}
			out[i].State = raw
		}
	}
	return out, nil
}

// RestoreActors restores a snapshot onto a freshly rebuilt actor set.
// The actors must have been registered in the same order with the same
// names as in the checkpointed cell; any mismatch is an error rather
// than a silent divergence. Actor restore runs BEFORE the phone's
// sysfs value restore: actors that publish runtime sysfs files (the
// interactive governor's tunables) recreate them here so the value
// restore finds every file present.
func (e *Engine) RestoreActors(states []ActorState) error {
	if len(states) != len(e.actors) {
		return fmt.Errorf("sim: restore %d actor states into %d registered actors",
			len(states), len(e.actors))
	}
	for i := range e.actors {
		a := e.actors[i].actor
		if states[i].Name != a.Name() {
			return fmt.Errorf("sim: restore actor %d: snapshot %q, registered %q",
				i, states[i].Name, a.Name())
		}
		ck, isCk := a.(platform.Checkpointer)
		if isCk != (states[i].State != nil) {
			return fmt.Errorf("sim: restore actor %q: checkpointability mismatch (snapshot state %v, actor checkpointer %v)",
				a.Name(), states[i].State != nil, isCk)
		}
		if isCk {
			if err := ck.RestoreState(states[i].State, e.phone); err != nil {
				return fmt.Errorf("sim: restore actor %q: %w", a.Name(), err)
			}
		}
		e.actors[i].next = states[i].Next
	}
	return nil
}

// PhoneState is the device half of a session checkpoint: the complete
// dynamic state of a Phone. Everything rebuilt deterministically from
// Config (SoC tables, power model, sysfs wiring, step plan cache) is
// excluded; everything that evolves during a run is here.
type PhoneState struct {
	Now        time.Duration `json:"now_ns"`
	FreqIdx    int           `json:"freq_idx"`
	BWIdx      int           `json:"bw_idx"`
	ThermalCap int           `json:"thermal_cap"`
	ScreenOn   bool          `json:"screen_on"`
	WiFiOn     bool          `json:"wifi_on"`

	// Tasks holds fg followed by bg, in the fixed construction order.
	Tasks []workload.TaskState `json:"tasks"`

	CumMachineBusySec float64         `json:"cum_machine_busy_sec"`
	CumBusyCoreSec    float64         `json:"cum_busy_core_sec"`
	CumTrafficBytes   float64         `json:"cum_traffic_bytes"`
	PendingTouches    int             `json:"pending_touches"`
	FreqChanges       int             `json:"freq_changes"`
	BWChanges         int             `json:"bw_changes"`
	Health            platform.Health `json:"health"`

	PendingOverlayJ float64 `json:"pending_overlay_j"`
	StandingOverlay float64 `json:"standing_overlay_w"`
	PerfOverheadCPU float64 `json:"perf_overhead_cpu"`

	LastPowerW    float64 `json:"last_power_w"`
	LastCPUPowerW float64 `json:"last_cpu_power_w"`
	LastStepIPS   float64 `json:"last_step_ips"`

	PMUInstr  float64 `json:"pmu_instr"`
	PMUCycles float64 `json:"pmu_cycles"`
	PMUBus    float64 `json:"pmu_bus"`

	Monitor monsoon.State            `json:"monitor"`
	CPUHist histogram.ResidencyState `json:"cpu_hist"`
	BWHist  histogram.ResidencyState `json:"bw_hist"`

	// Sysfs holds every static file's stored value. Dynamic (read-hook)
	// files derive their content from the state above and are excluded.
	Sysfs map[string]string `json:"sysfs"`
}

// CheckpointState captures the phone. It refuses when a full-rate trace
// recorder is attached: the recorder's ring is diagnostic state that a
// restored cell cannot reproduce, so checkpointing such a session would
// silently break the bit-exactness contract instead of loudly here.
func (p *Phone) CheckpointState() (PhoneState, error) {
	if p.rec != nil {
		return PhoneState{}, fmt.Errorf("sim: checkpoint unsupported with trace recording enabled (TraceEvery > 0)")
	}
	s := PhoneState{
		Now:        p.now,
		FreqIdx:    p.freqIdx,
		BWIdx:      p.bwIdx,
		ThermalCap: p.thermalCap,
		ScreenOn:   p.screenOn,
		WiFiOn:     p.wifiOn,

		CumMachineBusySec: p.cumMachineBusySec,
		CumBusyCoreSec:    p.cumBusyCoreSec,
		CumTrafficBytes:   p.cumTrafficBytes,
		PendingTouches:    p.pendingTouches,
		FreqChanges:       p.freqChanges,
		BWChanges:         p.bwChanges,
		Health:            p.health,

		PendingOverlayJ: p.pendingOverlayJ,
		StandingOverlay: p.standingOverlay,
		PerfOverheadCPU: p.perfOverheadCPU,

		LastPowerW:    p.lastPowerW,
		LastCPUPowerW: p.lastCPUPowerW,
		LastStepIPS:   p.lastStepIPS,

		Monitor: p.mon.State(),
		CPUHist: p.cpuHist.State(),
		BWHist:  p.bwHist.State(),
		Sysfs:   p.fs.Export(),
	}
	s.PMUInstr, s.PMUCycles, s.PMUBus = p.pmu.Snapshot().Values()
	s.Tasks = make([]workload.TaskState, len(p.tasks))
	for i, t := range p.tasks {
		s.Tasks[i] = t.State()
	}
	return s, nil
}

// RestoreState restores a snapshot onto a phone freshly rebuilt from
// the same Config. Actor restore must already have run (so runtime
// sysfs files exist for the value restore). The step plan cache is
// dropped, not restored: it is a pure function of the state above and
// the first post-restore Step recomputes it bit-identically.
func (p *Phone) RestoreState(s PhoneState) error {
	if p.rec != nil {
		return fmt.Errorf("sim: restore unsupported with trace recording enabled (TraceEvery > 0)")
	}
	if len(s.Tasks) != len(p.tasks) {
		return fmt.Errorf("sim: restore %d task states into %d tasks", len(s.Tasks), len(p.tasks))
	}
	if s.FreqIdx < 0 || s.FreqIdx >= len(p.soc.CPUFreqs) {
		return fmt.Errorf("sim: restore freq index %d out of %d", s.FreqIdx, len(p.soc.CPUFreqs))
	}
	if s.BWIdx < 0 || s.BWIdx >= len(p.soc.MemBWs) {
		return fmt.Errorf("sim: restore bw index %d out of %d", s.BWIdx, len(p.soc.MemBWs))
	}
	for i, t := range p.tasks {
		if err := t.Restore(s.Tasks[i]); err != nil {
			return fmt.Errorf("sim: restore task %d: %w", i, err)
		}
	}
	if err := p.cpuHist.Restore(s.CPUHist); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	if err := p.bwHist.Restore(s.BWHist); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	if err := p.fs.RestoreValues(s.Sysfs); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}

	p.now = s.Now
	p.freqIdx = s.FreqIdx
	p.bwIdx = s.BWIdx
	p.thermalCap = s.ThermalCap
	p.screenOn = s.ScreenOn
	p.wifiOn = s.WiFiOn

	p.cumMachineBusySec = s.CumMachineBusySec
	p.cumBusyCoreSec = s.CumBusyCoreSec
	p.cumTrafficBytes = s.CumTrafficBytes
	p.pendingTouches = s.PendingTouches
	p.freqChanges = s.FreqChanges
	p.bwChanges = s.BWChanges
	p.health = s.Health

	p.pendingOverlayJ = s.PendingOverlayJ
	p.standingOverlay = s.StandingOverlay
	p.perfOverheadCPU = s.PerfOverheadCPU

	p.lastPowerW = s.LastPowerW
	p.lastCPUPowerW = s.LastCPUPowerW
	p.lastStepIPS = s.LastStepIPS

	p.pmu.Restore(pmu.SnapshotAt(s.PMUInstr, s.PMUCycles, s.PMUBus))
	p.mon.Restore(s.Monitor)
	p.plan.valid = false
	return nil
}
