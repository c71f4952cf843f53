package experiment

import (
	"time"

	"aspeo/internal/platform"
	"aspeo/internal/sim"
	"aspeo/internal/workload"
)

// Harness is one fully constructed simulation cell: a phone, its engine,
// and whatever actor set Install wired up. Every driver that used to
// hand-build the Phone/Engine/controller stack — the campaign runner,
// aspeo-run, aspeo-repro's artifacts — goes through NewHarness, so the
// construction rules (screen on, WiFi on, session semantics) live in
// exactly one place.
type Harness struct {
	Phone  *sim.Phone
	Engine *sim.Engine
	spec   *workload.Spec
}

// HarnessConfig describes one cell.
type HarnessConfig struct {
	// Foreground is the application under test.
	Foreground *workload.Spec
	// Load is the background condition (NL/BL/HL).
	Load workload.BGLoad
	// ExtraBackground appends additional background tasks after the
	// load condition's standard set (scenario ambient conditions).
	ExtraBackground []*workload.Spec
	// Seed drives the cell's whole stochastic state.
	Seed int64
	// TraceEvery, when positive, attaches a trace recorder at that
	// decimation interval (sim.DefaultStep records every engine step —
	// the full-rate recording platform/replay needs).
	TraceEvery time.Duration
	// Install wires the actor set (governors, perf, controller, fault
	// injector) onto the cell. It receives the engine as a
	// platform.Runner so installers are backend-agnostic; nil installs
	// nothing.
	Install func(platform.Runner) error
}

// NewHarness builds the cell: phone (screen and WiFi on, the paper's
// measurement condition), engine, and the installed actors. Install
// errors surface instead of being dropped mid-construction.
func NewHarness(cfg HarnessConfig) (*Harness, error) {
	ph, err := sim.NewPhone(sim.Config{
		Foreground: cfg.Foreground, Load: cfg.Load, Seed: cfg.Seed,
		ExtraBackground: cfg.ExtraBackground,
		ScreenOn:        true, WiFiOn: true, TraceEvery: cfg.TraceEvery,
	})
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine(ph)
	h := &Harness{Phone: ph, Engine: eng, spec: cfg.Foreground}
	if cfg.Install != nil {
		if err := cfg.Install(eng); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// RunSession runs the app's standard session: deadline-critical apps run
// to completion (bounded by 3x the nominal session for pathological
// configurations), the rest run their nominal duration.
func (h *Harness) RunSession() sim.Stats {
	if h.spec.DeadlineCritical {
		return h.Engine.Run(h.spec.RunFor*3, true)
	}
	return h.Engine.Run(h.spec.RunFor, false)
}
