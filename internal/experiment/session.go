package experiment

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"aspeo/internal/core"
	"aspeo/internal/fault"
	"aspeo/internal/governor"
	"aspeo/internal/obs"
	"aspeo/internal/perftool"
	"aspeo/internal/platform"
	"aspeo/internal/profile"
	"aspeo/internal/sim"
	"aspeo/internal/sysfs"
	"aspeo/internal/workload"
)

// SessionSpec declaratively describes one end-to-end run: an application
// on a simulated phone under either a stock governor pair or the energy
// controller, optionally tormented by a fault scenario. It is the shared
// construction path of aspeo-run and the fleet runtime — both validate a
// spec, build a Session from it, and run it — so the wiring rules
// (registration order, fault decoration, profiling fallbacks) live in
// exactly one place and a 1-session fleet run is the same computation as
// the equivalent aspeo-run invocation.
type SessionSpec struct {
	// App is the application under test (workload.ByName). Ignored for
	// resolution when AppSpec is set.
	App string
	// AppSpec, when non-nil, is an inline application definition — a
	// generated workload (scenario chain, perturbation, imported trace)
	// that has no library name. App, if also set, must match
	// AppSpec.Name; when empty it is filled from it for display.
	AppSpec *workload.Spec
	// ExtraBackground appends additional background tasks after the
	// load condition's standard set — scenario ambient conditions such
	// as ad-burst storms.
	ExtraBackground []*workload.Spec
	// Load is the background condition: NL, BL or HL.
	Load string
	// Governor is the baseline cpufreq policy when Controller is false
	// (one of governor.CPUFreqPolicies).
	Governor string
	// Controller runs the energy controller instead of a stock governor.
	Controller bool
	// CPUOnly restricts the controller to CPU frequency (Table V
	// baseline); it needs Controller.
	CPUOnly bool
	// Profile is a profile-table JSON path; empty profiles on the fly.
	// The file is parsed once per process for each distinct content,
	// and sessions on the same bytes share one *profile.Table
	// read-only: nothing writes a table once profile.ReadJSON or
	// profile.Run returns it.
	Profile string
	// TargetGIPS is the performance target; 0 measures it from the
	// default governors.
	TargetGIPS float64
	// Quick selects reduced-fidelity on-the-fly profiling.
	Quick bool
	// Seed drives the cell's whole stochastic state.
	Seed int64
	// Faults names a fault scenario (FaultScenarioByName); empty injects
	// nothing.
	Faults string
	// TraceEvery, when positive, attaches a trace recorder at that
	// decimation interval.
	TraceEvery time.Duration
	// RunFor caps the session at a fixed duration instead of the app's
	// nominal session; 0 keeps the standard session semantics. The fleet
	// runtime uses it to bound session length.
	RunFor time.Duration
	// LogAllocations keeps the controller's per-cycle decision log — the
	// golden tests' cycle-for-cycle comparison record.
	LogAllocations bool
	// OnCycle subscribes to the controller's per-cycle telemetry
	// (controller mode only; see core.Options.OnCycle for the contract).
	OnCycle func(core.CycleSnapshot)
	// CheckpointEvery, when positive, captures a full session snapshot
	// every CheckpointEvery control cycles (controller mode) or every
	// CheckpointEvery seconds of simulated time (governor mode) and
	// delivers it to OnCheckpoint. Incompatible with TraceEvery (the
	// trace recorder's ring cannot be restored bit-exactly).
	CheckpointEvery int
	// OnCheckpoint receives each captured snapshot (required when
	// CheckpointEvery is set). The sink owns durability — typically an
	// atomic write through internal/ckpt. A sink error is counted
	// (CheckpointStats) and the run continues.
	OnCheckpoint func(*CellState) error
	// Trace receives the controller's per-stage decision spans
	// (controller mode only). A non-nil sink turns on decision tracing
	// (core.Options.Trace) and is attached to the cell's telemetry
	// surface; tracing is observation only, so a traced run is
	// bit-identical to an untraced one.
	Trace obs.Sink
	// Logf receives informational progress messages ("profiling...");
	// nil is silent.
	Logf func(format string, args ...any)
}

// Validate rejects specs that would otherwise fall through to defaults
// silently: unknown apps, loads, governors and fault scenarios are
// errors, not no-ops.
func (s SessionSpec) Validate() error {
	_, err := s.resolve()
	return err
}

// resolvedSpec is what a spec names: the application, the load
// condition and, when Faults is set, the fault scenario.
type resolvedSpec struct {
	app    *workload.Spec
	load   workload.BGLoad
	faults *FaultScenario
}

// resolve checks the spec and builds what it names. Validate and
// NewSession share it, so a session resolves its spec once.
func (s SessionSpec) resolve() (r resolvedSpec, err error) {
	if s.AppSpec != nil {
		if err := s.AppSpec.Validate(); err != nil {
			return r, err
		}
		if s.App != "" && s.App != s.AppSpec.Name {
			return r, fmt.Errorf("app %q does not match inline workload %q", s.App, s.AppSpec.Name)
		}
		r.app = s.AppSpec
	} else if r.app, err = workload.ByName(s.App); err != nil {
		return r, err
	}
	for i, bg := range s.ExtraBackground {
		if bg == nil {
			return r, fmt.Errorf("extra background %d: nil spec", i)
		}
		if err := bg.Validate(); err != nil {
			return r, fmt.Errorf("extra background %d: %w", i, err)
		}
	}
	if r.load, err = workload.ParseBGLoad(s.Load); err != nil {
		return r, err
	}
	if !s.Controller {
		ok := false
		for _, g := range governor.CPUFreqPolicies() {
			if s.Governor == g {
				ok = true
				break
			}
		}
		if !ok {
			return r, fmt.Errorf("unknown governor %q (want one of: %s)",
				s.Governor, strings.Join(governor.CPUFreqPolicies(), ", "))
		}
		if s.CPUOnly {
			return r, fmt.Errorf("CPU-only applies to the controller, not to governor %q", s.Governor)
		}
	}
	if s.Faults != "" {
		sc, err := FaultScenarioByName(s.Faults)
		if err != nil {
			return r, err
		}
		r.faults = &sc
	}
	if s.TargetGIPS < 0 {
		return r, fmt.Errorf("negative target %v GIPS", s.TargetGIPS)
	}
	if s.RunFor < 0 {
		return r, fmt.Errorf("negative run duration %v", s.RunFor)
	}
	if s.CheckpointEvery < 0 {
		return r, fmt.Errorf("negative checkpoint interval %d", s.CheckpointEvery)
	}
	if s.CheckpointEvery > 0 {
		if s.OnCheckpoint == nil {
			return r, fmt.Errorf("CheckpointEvery set without an OnCheckpoint sink")
		}
		if s.TraceEvery > 0 {
			return r, fmt.Errorf("checkpointing is incompatible with trace recording (TraceEvery)")
		}
	}
	return r, nil
}

// Session is one fully constructed run: the harness plus the actors
// NewSession wired onto it and the inputs it resolved along the way.
type Session struct {
	Spec SessionSpec
	// App and Load are the resolved workload inputs.
	App  *workload.Spec
	Load workload.BGLoad
	// Harness is the underlying simulation cell.
	Harness *Harness
	// Controller is the installed energy controller; nil in governor
	// mode.
	Controller *core.Controller
	// Injector is the installed fault injector; nil without a scenario.
	Injector *fault.Injector
	// TargetGIPS is the resolved performance target (0 in governor
	// mode).
	TargetGIPS float64
	// TableEntries and BaseGIPS describe the profile table the
	// controller runs on (0 in governor mode).
	TableEntries int
	BaseGIPS     float64

	// Checkpoint plumbing (see checkpoint.go). ckptPending carries the
	// controller cycle that requested a snapshot (0 = none); nextCkptAt
	// is the governor-mode schedule; cursor/restored drive Run's resume
	// path after RestoreState.
	onCheckpoint func(*CellState) error
	ckptPending  int
	nextCkptAt   time.Duration
	ckptStats    CheckpointStats
	cursor       sim.RunCursor
	restored     bool
}

// NewSession validates the spec and builds the cell: phone, engine,
// injector, governors or controller — the exact wiring aspeo-run
// performs, exported so the fleet runtime reuses it. Construction can be
// expensive in controller mode without a stored profile: the on-the-fly
// profiling campaign runs here. NewSession itself only resolves the spec
// (app, load, fault plan, controller options); the wiring is
// newSession's, which the paper campaigns share.
func NewSession(spec SessionSpec) (*Session, error) {
	r, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	logf := spec.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var plan *fault.Plan
	if sc := r.faults; sc != nil {
		plan = &sc.Plan
		logf("fault scenario %s: %s", sc.Name, sc.Desc)
	}
	var opts *core.Options
	if spec.Controller {
		tab, tgt, err := resolveTableAndTarget(r.app, r.load, spec, logf)
		if err != nil {
			return nil, err
		}
		o := core.DefaultOptions(tab, tgt)
		opts = &o
		logf("controller: target %.4f GIPS, table %d entries (base %.4f GIPS)",
			tgt, tab.Len(), tab.BaseGIPS)
	}
	return newSession(spec, r.app, r.load, opts, plan)
}

// newSession builds a resolved cell and is the one place the wiring
// rules live. A non-nil plan gets its own injector, seeded with the
// cell's seed and registered first, so its clock leads the actors it
// torments. A non-nil opts selects controller mode: the controller runs
// on *opts with the spec's per-session fields (seed, CPU-only, logging,
// telemetry, tracing) applied, its OnCycle marks a checkpoint due every
// CheckpointEvery cycles, and
//   - under faults it actuates through fault.WrapRunner, its perf tool
//     reads through fault.WrapPerf, and the stock governors stand by;
//   - CPU-only, cpubw_hwmon keeps the memory bandwidth: the standby
//     pair's under faults, otherwise one registered for the purpose.
//
// Otherwise spec.Governor drives the CPU beside cpubw_hwmon, with a 1 s
// perf tool reading through fault.WrapPerf under faults.
func newSession(spec SessionSpec, app *workload.Spec, load workload.BGLoad,
	opts *core.Options, plan *fault.Plan) (*Session, error) {

	if spec.App == "" {
		spec.App = app.Name
	}
	s := &Session{Spec: spec, App: app, Load: load}
	h, err := NewHarness(HarnessConfig{
		Foreground: app, Load: load, ExtraBackground: spec.ExtraBackground,
		Seed: spec.Seed, TraceEvery: spec.TraceEvery,
	})
	if err != nil {
		return nil, err
	}
	var r platform.Runner = h.Engine
	if plan != nil {
		if s.Injector, err = fault.NewInjector(*plan, spec.Seed); err != nil {
			return nil, err
		}
		if err := r.Register(s.Injector); err != nil {
			return nil, err
		}
	}
	if opts != nil {
		o := *opts
		o.Seed = spec.Seed
		o.CPUOnly = spec.CPUOnly
		o.LogAllocations = spec.LogAllocations
		o.OnCycle = spec.OnCycle
		o.Trace = spec.Trace != nil
		if every := spec.CheckpointEvery; every > 0 {
			// The cycle only marks a snapshot due, after the subscriber
			// has run; the engine hook captures at the next loop
			// boundary, where the cell is quiescent.
			sub := spec.OnCycle
			o.OnCycle = func(cs core.CycleSnapshot) {
				if sub != nil {
					sub(cs)
				}
				if cs.CyclesRun%every == 0 {
					s.ckptPending = cs.CyclesRun
				}
			}
		}
		ctl, err := core.New(o)
		if err != nil {
			return nil, err
		}
		if spec.CPUOnly && s.Injector == nil {
			// Under faults the standby pair below brings its own
			// cpubw_hwmon; a second one would act on the bus twice.
			if err := r.Register(governor.NewDevFreq()); err != nil {
				return nil, err
			}
		}
		ctlRunner := r
		if s.Injector != nil {
			ctlRunner = fault.WrapRunner(r, s.Injector)
		}
		if err := ctl.Install(ctlRunner); err != nil {
			return nil, err
		}
		if s.Injector != nil {
			// Stock governors stand by to take over after a hijack or a
			// relinquish; they idle while the governor files read
			// "userspace".
			if err := governor.Defaults(r); err != nil {
				return nil, err
			}
			fault.WrapPerf(ctl.Perf(), s.Injector)
		}
		s.Controller = ctl
		s.TargetGIPS = o.TargetGIPS
		s.TableEntries = o.Table.Len()
		s.BaseGIPS = o.Table.BaseGIPS
	} else {
		if err := r.Device().WriteFile(sysfs.CPUScalingGovernor, spec.Governor); err != nil {
			return nil, fmt.Errorf("setting governor: %w", err)
		}
		if err := governor.Defaults(r); err != nil {
			return nil, err
		}
		p := perftool.MustNew(time.Second, spec.Seed)
		if err := r.Register(p); err != nil {
			return nil, err
		}
		if s.Injector != nil {
			fault.WrapPerf(p, s.Injector)
		}
	}

	if spec.Trace != nil {
		h.Phone.AttachSpanSink(spec.Trace)
	}
	s.Harness = h
	if spec.CheckpointEvery > 0 {
		s.onCheckpoint = spec.OnCheckpoint
		if opts == nil {
			s.nextCkptAt = time.Duration(spec.CheckpointEvery) * time.Second
		}
		h.Engine.SetCheckpointHook(s.pollCheckpoint)
	}
	return s, nil
}

// Run executes the session. stop, when non-nil, is polled at every
// engine step; a true return ends the run there and the Stats cover the
// partial window (cooperative stop — the fleet runtime's session
// cancellation). A nil stop, or one that never fires, yields exactly the
// standard session.
func (s *Session) Run(stop func() bool) sim.Stats {
	if stop != nil {
		s.Harness.Engine.SetInterrupt(stop)
		defer s.Harness.Engine.SetInterrupt(nil)
	}
	if s.restored {
		// A restored session resumes the checkpointed run window; Stats
		// still cover the original run interval, so the summary matches an
		// uninterrupted run byte for byte.
		return s.Harness.Engine.Resume(s.cursor)
	}
	if s.Spec.RunFor > 0 {
		return s.Harness.Engine.Run(s.Spec.RunFor, s.App.DeadlineCritical)
	}
	return s.Harness.RunSession()
}

// resolveTableAndTarget resolves the controller inputs: a stored table
// or a fresh profiling pass, and the default-measured target when none
// given.
func resolveTableAndTarget(app *workload.Spec, bg workload.BGLoad,
	spec SessionSpec, logf func(string, ...any)) (*profile.Table, float64, error) {

	exp := Default()
	if spec.Quick {
		exp = Quick()
	}
	var tab *profile.Table
	if spec.Profile != "" {
		var err error
		if tab, err = readStoredTable(spec.Profile); err != nil {
			return nil, 0, err
		}
	} else {
		var err error
		logf("profiling (pass a profile table to reuse a stored one)...")
		mode := profile.Coordinated
		if spec.CPUOnly {
			mode = profile.Governed
		}
		tab, err = exp.Profile(app, bg, mode)
		if err != nil {
			return nil, 0, err
		}
	}
	target := spec.TargetGIPS
	if target == 0 {
		logf("measuring default-governor performance for the target...")
		def, err := exp.MeasureDefault(app, bg)
		if err != nil {
			return nil, 0, err
		}
		target = def.GIPS
	}
	return tab, target, nil
}

// storedTables holds the profile tables sessions have read, keyed by
// the file's bytes. A key is content, not a path or a time, so an entry
// never goes stale: a rewritten file has new bytes and parses anew.
// Callers see the map only as time and allocations, the way they see a
// sync.Pool.
var storedTables struct {
	sync.Mutex
	m map[string]*profile.Table
}

// maxStoredTables bounds storedTables; a full map is cleared.
const maxStoredTables = 64

// readStoredTable returns the table in the file at path, parsed and
// validated by profile.ReadJSON once per process for each distinct
// content. Every session on the same bytes shares the one table,
// read-only.
func readStoredTable(path string) (*profile.Table, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	storedTables.Lock()
	defer storedTables.Unlock()
	if tab, ok := storedTables.m[string(raw)]; ok {
		return tab, nil
	}
	tab, err := profile.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	if storedTables.m == nil || len(storedTables.m) >= maxStoredTables {
		storedTables.m = make(map[string]*profile.Table)
	}
	storedTables.m[string(raw)] = tab
	return tab, nil
}
