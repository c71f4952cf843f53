package experiment

import (
	"fmt"
	"os"
	"strings"
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
	// baseline).
	CPUOnly bool
	// Profile is a profile-table JSON path; empty profiles on the fly.
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
	// Resilience overrides the controller's fault-handling ladder; the
	// zero value selects the hardened defaults.
	Resilience core.Resilience
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
	if s.AppSpec != nil {
		if err := s.AppSpec.Validate(); err != nil {
			return err
		}
		if s.App != "" && s.App != s.AppSpec.Name {
			return fmt.Errorf("app %q does not match inline workload %q", s.App, s.AppSpec.Name)
		}
	} else if _, err := workload.ByName(s.App); err != nil {
		return err
	}
	for i, bg := range s.ExtraBackground {
		if bg == nil {
			return fmt.Errorf("extra background %d: nil spec", i)
		}
		if err := bg.Validate(); err != nil {
			return fmt.Errorf("extra background %d: %w", i, err)
		}
	}
	if _, err := workload.ParseBGLoad(s.Load); err != nil {
		return err
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
			return fmt.Errorf("unknown governor %q (want one of: %s)",
				s.Governor, strings.Join(governor.CPUFreqPolicies(), ", "))
		}
	}
	if s.Faults != "" {
		if _, err := FaultScenarioByName(s.Faults); err != nil {
			return err
		}
	}
	if s.TargetGIPS < 0 {
		return fmt.Errorf("negative target %v GIPS", s.TargetGIPS)
	}
	if s.RunFor < 0 {
		return fmt.Errorf("negative run duration %v", s.RunFor)
	}
	if s.CheckpointEvery < 0 {
		return fmt.Errorf("negative checkpoint interval %d", s.CheckpointEvery)
	}
	if s.CheckpointEvery > 0 {
		if s.OnCheckpoint == nil {
			return fmt.Errorf("CheckpointEvery set without an OnCheckpoint sink")
		}
		if s.TraceEvery > 0 {
			return fmt.Errorf("checkpointing is incompatible with trace recording (TraceEvery)")
		}
	}
	return nil
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
// profiling campaign runs here.
func NewSession(spec SessionSpec) (*Session, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	logf := spec.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	app := spec.AppSpec
	if app == nil {
		app, _ = workload.ByName(spec.App)
	}
	if spec.App == "" {
		spec.App = app.Name
	}
	bg, _ := workload.ParseBGLoad(spec.Load)
	s := &Session{Spec: spec, App: app, Load: bg}

	// The injector registers first so its clock leads the actors it
	// torments; it decorates the controller's (or perf's) I/O surfaces.
	if spec.Faults != "" {
		sc, err := FaultScenarioByName(spec.Faults)
		if err != nil {
			return nil, err
		}
		s.Injector, err = fault.NewInjector(sc.Plan, spec.Seed)
		if err != nil {
			return nil, err
		}
		logf("fault scenario %s: %s", sc.Name, sc.Desc)
	}

	install := func(r platform.Runner) error {
		if s.Injector != nil {
			if err := r.Register(s.Injector); err != nil {
				return err
			}
		}
		if spec.Controller {
			tab, tgt, err := resolveTableAndTarget(app, bg, spec, logf)
			if err != nil {
				return err
			}
			opts := core.DefaultOptions(tab, tgt)
			opts.Seed = spec.Seed
			opts.CPUOnly = spec.CPUOnly
			opts.LogAllocations = spec.LogAllocations
			opts.Resilience = spec.Resilience
			opts.OnCycle = spec.OnCycle
			opts.Trace = spec.Trace != nil
			if spec.CheckpointEvery > 0 {
				// The controller only signals; the engine hook captures at
				// the next loop boundary, where the cell is quiescent.
				opts.CheckpointEvery = spec.CheckpointEvery
				opts.OnCheckpoint = func(cyclesRun int) { s.ckptPending = cyclesRun }
			}
			ctl, err := core.New(opts)
			if err != nil {
				return err
			}
			if spec.CPUOnly {
				if err := r.Register(governor.NewDevFreq()); err != nil {
					return err
				}
			}
			ctlRunner := r
			if s.Injector != nil {
				ctlRunner = fault.WrapRunner(r, s.Injector)
			}
			if err := ctl.Install(ctlRunner); err != nil {
				return err
			}
			if s.Injector != nil {
				// Stock governors stand by to take over after a hijack
				// or a relinquish; they idle while the governor files
				// read "userspace".
				if err := governor.Defaults(r); err != nil {
					return err
				}
				fault.WrapPerf(ctl.Perf(), s.Injector)
			}
			s.Controller = ctl
			s.TargetGIPS = tgt
			s.TableEntries = tab.Len()
			s.BaseGIPS = tab.BaseGIPS
			logf("controller: target %.4f GIPS, table %d entries (base %.4f GIPS)",
				tgt, tab.Len(), tab.BaseGIPS)
			return nil
		}
		if err := r.Device().WriteFile(sysfs.CPUScalingGovernor, spec.Governor); err != nil {
			return fmt.Errorf("setting governor: %w", err)
		}
		if err := governor.Defaults(r); err != nil {
			return err
		}
		p := perftool.MustNew(time.Second, spec.Seed)
		if err := r.Register(p); err != nil {
			return err
		}
		if s.Injector != nil {
			fault.WrapPerf(p, s.Injector)
		}
		return nil
	}

	h, err := NewHarness(HarnessConfig{
		Foreground: app, Load: bg, ExtraBackground: spec.ExtraBackground,
		Seed: spec.Seed, TraceEvery: spec.TraceEvery, Install: install,
	})
	if err != nil {
		return nil, err
	}
	if spec.Trace != nil {
		h.Phone.AttachSpanSink(spec.Trace)
	}
	s.Harness = h
	if spec.CheckpointEvery > 0 {
		s.onCheckpoint = spec.OnCheckpoint
		if !spec.Controller {
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
		f, err := os.Open(spec.Profile)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		tab, err = profile.ReadJSON(f)
		if err != nil {
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
