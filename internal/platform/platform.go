// Package platform defines the device abstraction the runtime stack is
// written against. The paper's controller is explicitly portable — it
// needs a perf counter to read, a power rail to meter, and sysfs knobs
// to write — so every software layer (the controller and its resilience
// ladder, the stock governors, the perf tool, the fault injector)
// consumes these capability interfaces instead of a concrete device.
//
// Backends implement Device: internal/sim's Phone (the cycle-accurate
// simulator), internal/platform/replay (a trace-driven device replaying
// a recorded run), and — the design target — a future adb/sysfs backend
// driving real Android hardware. The kernel side of a device is written
// once, as Kernel: the cpufreq/devfreq tree with its userspace
// setspeed protocol, the clamped ladder actuator under a thermal cap,
// the touch queue and the span sink. Both backends embed it and add
// only what they alone know: the clock, PMU, power rail, busy-time
// counters and /proc files.
//
// Backend contract:
//
//   - Single-threaded cell: a Device, its Runner and every registered
//     Actor form one single-threaded cell. None of them needs to be safe
//     for concurrent use, and none may hold global state; parallel
//     campaigns run one cell per goroutine sharing only read-only inputs.
//   - Determinism: for a fixed backend state and seed set, a run is
//     bit-identical regardless of wall-clock time or worker count. All
//     randomness comes from seeded PRNGs owned by actors.
//   - Clock: Now is the backend's virtual (or measured) time; it is
//     monotonically non-decreasing and advances only between actor ticks.
//   - Fault decoration: fault injection composes over these interfaces
//     (internal/fault's WrapActuator/WrapPerf/WrapRunner decorators), so
//     a fault plan applies unchanged to any backend.
package platform

import (
	"time"

	"aspeo/internal/obs"
	"aspeo/internal/pmu"
	"aspeo/internal/soc"
	"aspeo/internal/sysfs"
)

// Governor names understood by the cpufreq/devfreq file protocol. They
// belong to the platform contract: every backend's sysfs view speaks
// them, and consumers compare against them when dispatching policies.
const (
	GovInteractive  = "interactive"
	GovOndemand     = "ondemand"
	GovUserspace    = "userspace"
	GovPerformance  = "performance"
	GovPowersave    = "powersave"
	GovCPUBWHwmon   = "cpubw_hwmon"
	GovConservative = "conservative"
)

// Clock exposes the backend's time base.
type Clock interface {
	// Now returns the current backend time. Monotonically non-decreasing.
	Now() time.Duration
}

// PerfReader is the PMU surface the perf tool samples: consistent
// counter snapshots from which GIPS windows are derived, plus the knob
// for charging the sampling instrumentation's own cost to the device.
type PerfReader interface {
	// PMUSnapshot captures all hardware counters at once, so a reader
	// can compute mutually consistent deltas.
	PMUSnapshot() pmu.Snapshot
	// SetPerfOverhead installs the sampling instrumentation's standing
	// cost: cpuFrac of machine time plus standingW of power. Backends
	// whose recorded/measured power already includes instrumentation
	// (replay, real hardware) treat this as a no-op.
	SetPerfOverhead(cpuFrac, standingW float64)
}

// PowerMeter is the power rail: per-step device power, its CPU
// component (the heat source thermal models integrate), and a hook for
// charging one-shot instrumentation energy.
type PowerMeter interface {
	// LastPowerW returns the device power over the most recent step.
	LastPowerW() float64
	// LastCPUPowerW returns the CPU share (dynamic + leakage) of the
	// most recent step's power.
	LastCPUPowerW() float64
	// AddOverlayEnergyJ charges a one-shot instrumentation energy cost
	// (controller compute, actuation) to the device. Backends that
	// measure rather than model power ignore it.
	AddOverlayEnergyJ(j float64)
}

// ConfigActuator is the DVFS actuation surface: the (CPU frequency,
// memory bandwidth) ladder position and the thermal bound on it.
// Index-based setters are the raw mechanism; policy software actuates
// through the sysfs userspace-governor files (SysfsView), which route
// here after protocol checks.
type ConfigActuator interface {
	// SoC describes the chip's frequency and bandwidth ladders.
	SoC() *soc.SoC
	// CurFreqIdx returns the current CPU frequency ladder index.
	CurFreqIdx() int
	// CurBWIdx returns the current bandwidth ladder index.
	CurBWIdx() int
	// SetFreqIdx requests a CPU frequency; out-of-range indices clamp
	// and an active thermal cap bounds the request.
	SetFreqIdx(i int)
	// SetBWIdx requests a memory bandwidth vote; clamps like SetFreqIdx.
	SetBWIdx(i int)
	// SetThermalCapIdx bounds the CPU frequency at ladder index i (the
	// thermal driver's mitigation); negative lifts the cap.
	SetThermalCapIdx(i int)
	// ThermalCapIdx returns the active cap, or -1 when none.
	ThermalCapIdx() int
}

// SysfsView is the file protocol: the cpufreq/devfreq trees with their
// kernel-faithful write semantics. This is the surface the fault
// decorators intercept, so policy software MUST actuate through
// WriteFile (not the raw index setters) to stay inside the fault model.
type SysfsView interface {
	// ReadFile returns the file's current value.
	ReadFile(path string) (string, error)
	// WriteFile writes with userspace semantics: permissions, write
	// hooks and any installed decorator apply, and a rejected write
	// leaves the old value in place.
	WriteFile(path, value string) error
	// SetFile writes with root semantics: hooks, permissions and
	// decorators do not apply (an OEM daemon with root, the kernel
	// itself). The fault injector's hijacks use it.
	SetFile(path, value string)
	// FileExists reports whether the path is registered.
	FileExists(path string) bool
	// CreateFile registers a new node — governors publishing tunables.
	// A non-nil hook validates writes like a kernel store() callback.
	CreateFile(path, initial string, writable bool, hook sysfs.WriteHook)
}

// FileWrite is one sysfs write of a batch (see BatchWriter).
type FileWrite struct {
	Path, Value string
}

// BatchWriter is an optional capability a backend may add to its
// SysfsView: apply several userspace-semantics writes in one call.
// Semantics are exactly sequential WriteFile calls — writes apply in
// order and the first error aborts the batch, leaving later files
// untouched — so a caller may use it purely as a fast path.
//
// Capability discovery is by type assertion on the device a consumer
// holds. Fault decorators wrap devices in a plain platform.Device
// embedding, which deliberately does NOT expose this interface: under
// fault injection the assertion fails and consumers fall back to
// per-file WriteFile, keeping every write inside the fault model.
type BatchWriter interface {
	// WriteFiles applies the writes in order with WriteFile semantics,
	// stopping at (and returning) the first error.
	WriteFiles(writes []FileWrite) error
}

// HealthCounts are the integer counters of a control actor's fault
// ladder. One type serves every place the counters travel: a
// controller's ledger (embedded in Health), the per-cycle change the
// fleet's telemetry records carry, and the fleet-wide sums the rollup
// reports. Add and Sub work counter by counter, so deltas of ledgers sum
// exactly to the difference of their totals.
type HealthCounts struct {
	// ActuationFailures counts failed sysfs actuation writes, retries
	// included.
	ActuationFailures int `json:"actuation_failures"`
	// ActuationRetries counts retry attempts spent on failed writes.
	ActuationRetries int `json:"actuation_retries"`
	// GovernorReinstalls counts hijacks detected and repaired by
	// rewriting the governor file back to userspace.
	GovernorReinstalls int `json:"governor_reinstalls"`
	// MaxFreqRestores counts scaling_max_freq clamps undone.
	MaxFreqRestores int `json:"max_freq_restores"`
	// RejectedSamples counts measurements the validation gate kept out
	// of the Kalman update; the next three break it down by cause.
	RejectedSamples  int `json:"rejected_samples"`
	NonFiniteSamples int `json:"non_finite_samples"`
	StuckSamples     int `json:"stuck_samples"`
	OutlierSamples   int `json:"outlier_samples"`
	// DegradedCycles counts control cycles spent at the safe
	// configuration.
	DegradedCycles int `json:"degraded_cycles"`
	// WatchdogTrips counts degrade and relinquish transitions.
	WatchdogTrips int `json:"watchdog_trips"`
	// ConsecutiveFailures is the watchdog's current failing-cycle run —
	// a level, not a counter: a delta of it may be negative, and a sum
	// of it reads as "failing cycles currently in flight".
	ConsecutiveFailures int `json:"consecutive_failures"`
}

// Add adds o to h, counter by counter.
func (h *HealthCounts) Add(o HealthCounts) {
	h.ActuationFailures += o.ActuationFailures
	h.ActuationRetries += o.ActuationRetries
	h.GovernorReinstalls += o.GovernorReinstalls
	h.MaxFreqRestores += o.MaxFreqRestores
	h.RejectedSamples += o.RejectedSamples
	h.NonFiniteSamples += o.NonFiniteSamples
	h.StuckSamples += o.StuckSamples
	h.OutlierSamples += o.OutlierSamples
	h.DegradedCycles += o.DegradedCycles
	h.WatchdogTrips += o.WatchdogTrips
	h.ConsecutiveFailures += o.ConsecutiveFailures
}

// Sub subtracts o from h, counter by counter.
func (h *HealthCounts) Sub(o HealthCounts) {
	h.ActuationFailures -= o.ActuationFailures
	h.ActuationRetries -= o.ActuationRetries
	h.GovernorReinstalls -= o.GovernorReinstalls
	h.MaxFreqRestores -= o.MaxFreqRestores
	h.RejectedSamples -= o.RejectedSamples
	h.NonFiniteSamples -= o.NonFiniteSamples
	h.StuckSamples -= o.StuckSamples
	h.OutlierSamples -= o.OutlierSamples
	h.DegradedCycles -= o.DegradedCycles
	h.WatchdogTrips -= o.WatchdogTrips
	h.ConsecutiveFailures -= o.ConsecutiveFailures
}

// Health is a control actor's self-diagnostics ledger: what its fault
// ladder observed and did. The controller keeps the one copy and hands
// it out (core's Controller.Health and CycleSnapshot.Health); the type
// lives in the platform contract, beside HealthCounts, so every consumer
// — the report layer, the fleet rollups, the resilience tests — reads
// one definition. No device records it.
type Health struct {
	HealthCounts
	// Relinquished is set once control is handed back to the stock
	// governors; the controller stops actuating for good.
	Relinquished bool `json:"relinquished"`
	// LastTransition names the most recent ladder transition and the
	// control cycle it fired on ("degraded@41", "recovered@44",
	// "relinquished@52"); empty until a transition fires. It mirrors the
	// ladder events of the decision trace, so an aggregate that only
	// sees the ledger still knows which rung fired last.
	LastTransition string `json:"last_transition,omitempty"`
}

// Telemetry is the device's statistics surface. Downward, it is what the
// stock governors sample: cumulative busy-time and traffic counters
// (snapshot and diff, like /proc/stat) and the input-event queue.
// Upward, it is where control software publishes its decision-trace
// spans, so any backend (sim, replay, a real device shim) forwards them
// to one sink.
type Telemetry interface {
	// CumMachineBusySec returns cumulative aggregate machine-busy
	// seconds. Monotonically non-decreasing.
	CumMachineBusySec() float64
	// CumBusyCoreSec returns cumulative OS-visible busy core-seconds.
	CumBusyCoreSec() float64
	// CumTrafficBytes returns cumulative DRAM traffic.
	CumTrafficBytes() float64
	// TakeTouches drains and returns pending input events; an immediate
	// second call returns 0.
	TakeTouches() int
	// RecordSpan publishes one decision-trace span from a control actor.
	// It is observation only: recording must not alter the device's
	// trajectory, and a run traced through any backend — sim, replay, a
	// real-device shim — produces the identical span stream. Backends
	// forward spans to an attached obs.Sink and drop them when none is
	// attached.
	RecordSpan(s obs.Span)
}

// Device bundles every capability a backend provides. Consumers should
// accept the narrowest interface that covers their needs; Device is the
// currency the Runner hands to actors.
type Device interface {
	Clock
	PerfReader
	PowerMeter
	ConfigActuator
	SysfsView
	Telemetry
}

// Actor is a periodically scheduled software component: a governor, the
// perf tool, the energy controller, the fault injector. Tick runs at
// the actor's period boundaries, before the device advances.
type Actor interface {
	// Name identifies the actor in logs and errors.
	Name() string
	// Period is the scheduling interval; it must be a positive multiple
	// of the runner's step.
	Period() time.Duration
	// Tick lets the actor observe and actuate the device.
	Tick(now time.Duration, dev Device)
}

// Runner drives one device and its actors in lockstep — the backend's
// event loop. sim.Engine and replay.Engine implement it.
type Runner interface {
	// Device returns the device the runner drives — possibly decorated
	// (see fault.WrapRunner); actors that bind the device at install
	// time must take it from here, not keep a backend pointer.
	Device() Device
	// Register adds an actor; it fails if the actor's period is not a
	// positive multiple of the runner's step.
	Register(a Actor) error
}

// Stats summarizes a run.
type Stats struct {
	Duration     time.Duration // run time on the backend clock
	EnergyJ      float64
	AvgPowerW    float64
	PeakPowerW   float64
	GIPS         float64 // PMU-derived system GIPS over the run
	Instructions float64
	FGCompleted  bool    // foreground batch work finished
	DroppedInstr float64 // paced work dropped by the foreground app
	FreqChanges  int
	BWChanges    int
}
