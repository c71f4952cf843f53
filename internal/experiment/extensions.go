package experiment

import (
	"fmt"
	"time"

	"aspeo/internal/battery"
	"aspeo/internal/core"
	"aspeo/internal/loadmodel"
	"aspeo/internal/platform"
	"aspeo/internal/thermal"
	"aspeo/internal/workload"
)

// These experiments go beyond the paper's evaluation, implementing the
// extensions its §V-C and §VII sketch: battery-life translation of the
// energy savings, model-based profile adaptation across load conditions,
// phase-aware control for the §V-B problem apps, and thermal behaviour.

// BatteryRow translates one Table III row into battery life.
type BatteryRow struct {
	App              string
	DefaultLife      time.Duration
	ControllerLife   time.Duration
	LifeExtensionPct float64
}

// BatteryLife converts a Table III campaign's average powers into
// screen-on battery life on the stock 3220 mAh pack — the end-user
// quantity the paper's abstract motivates.
func BatteryLife(res *TableIIIResult) ([]BatteryRow, error) {
	pack := battery.Nexus6Pack()
	var out []BatteryRow
	for _, row := range res.Rows {
		defLife, err := battery.LifeEstimate(pack, row.Default.AvgPowerW, 10*time.Second)
		if err != nil {
			return nil, fmt.Errorf("battery life for %s: %w", row.App, err)
		}
		ctlLife, err := battery.LifeEstimate(pack, row.Ctl.AvgPowerW, 10*time.Second)
		if err != nil {
			return nil, fmt.Errorf("battery life for %s: %w", row.App, err)
		}
		ext, err := battery.LifeExtensionPct(pack, row.Default.AvgPowerW, row.Ctl.AvgPowerW)
		if err != nil {
			return nil, err
		}
		out = append(out, BatteryRow{
			App: row.App, DefaultLife: defLife, ControllerLife: ctlLife,
			LifeExtensionPct: ext,
		})
	}
	return out, nil
}

// LoadModelResult compares the three ways to obtain an NL table for an
// app profiled under BL: reuse it stale, adapt it with the load model,
// or re-profile from scratch (§V-C future work).
type LoadModelResult struct {
	App        string
	Stale      Comparison // BL table + BL target under NL
	Adapted    Comparison // model-adapted table + target under NL
	Reprofiled Comparison // full NL re-profile
}

// LoadModelStudy runs the comparison for one app.
func (c Config) LoadModelStudy(spec *workload.Spec) (*LoadModelResult, error) {
	blTab, err := c.Profile(spec, workload.BaselineLoad, 0)
	if err != nil {
		return nil, err
	}
	blDef, err := c.MeasureDefault(spec, workload.BaselineLoad)
	if err != nil {
		return nil, err
	}
	blFp, err := loadmodel.Characterize(workload.BaselineLoad, spec.Name, c.Seeds[0], c.ProfileWindow)
	if err != nil {
		return nil, err
	}
	nlFp, err := loadmodel.Characterize(workload.NoLoad, spec.Name, c.Seeds[0], c.ProfileWindow)
	if err != nil {
		return nil, err
	}

	res := &LoadModelResult{App: spec.Name}

	// 1. Stale: the paper's Table IV condition.
	res.Stale, err = c.Evaluate(spec, blTab, blDef.GIPS, workload.NoLoad, false)
	if err != nil {
		return nil, err
	}
	// 2. Model-adapted: no re-profiling, just the footprint shift.
	adTab, err := loadmodel.Adapt(blTab, blFp, nlFp)
	if err != nil {
		return nil, err
	}
	adTarget := loadmodel.AdaptTarget(blDef.GIPS, blFp, nlFp)
	res.Adapted, err = c.Evaluate(spec, adTab, adTarget, workload.NoLoad, false)
	if err != nil {
		return nil, err
	}
	// 3. Re-profiled: the expensive ground truth.
	nlTab, err := c.Profile(spec, workload.NoLoad, 0)
	if err != nil {
		return nil, err
	}
	nlDef, err := c.MeasureDefault(spec, workload.NoLoad)
	if err != nil {
		return nil, err
	}
	res.Reprofiled, err = c.Evaluate(spec, nlTab, nlDef.GIPS, workload.NoLoad, false)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// PhaseResult compares the plain and phase-aware controllers on a
// phase-heavy application.
type PhaseResult struct {
	App            string
	Plain          Comparison
	PhaseAware     Comparison
	PhasesDetected int
}

// PhaseStudy runs the §V-B extension on MobileBench, the app the paper
// singles out as hardest for the fixed-table controller.
func (c Config) PhaseStudy() (*PhaseResult, error) {
	spec := workload.MobileBench()
	tab, err := c.Profile(spec, workload.BaselineLoad, 0)
	if err != nil {
		return nil, err
	}
	def, err := c.MeasureDefault(spec, workload.BaselineLoad)
	if err != nil {
		return nil, err
	}

	run := func(phaseAware bool) (Comparison, int, error) {
		opts := core.DefaultOptions(tab, def.GIPS)
		opts.PhaseAware = phaseAware
		rr, last, err := c.runSeeds(func(seed int64) (*Session, error) {
			return newSession(SessionSpec{Controller: true, Seed: seed}, spec, workload.BaselineLoad, &opts, nil)
		})
		if err != nil {
			return Comparison{}, 0, err
		}
		return compare(spec, workload.BaselineLoad, def, rr), last.Controller.PhasesDetected(), nil
	}

	res := &PhaseResult{App: spec.Name}
	res.Plain, _, err = run(false)
	if err != nil {
		return nil, err
	}
	res.PhaseAware, res.PhasesDetected, err = run(true)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ThermalResult summarizes junction behaviour under default governors vs
// the controller.
type ThermalResult struct {
	App          string
	DefaultPeakC float64
	CtlPeakC     float64
	DefaultThrot time.Duration
	CtlThrot     time.Duration
}

// ThermalStudy runs AngryBirds with the thermal monitor active under
// both policies inside a tight passive-cooling envelope: the default
// governor's 1.5 GHz excursions push the junction over the trip point
// while the controller's lower operating point stays under it.
func (c Config) ThermalStudy() (*ThermalResult, error) {
	spec := workload.AngryBirds()
	tab, err := c.Profile(spec, workload.BaselineLoad, 0)
	if err != nil {
		return nil, err
	}
	def, err := c.MeasureDefault(spec, workload.BaselineLoad)
	if err != nil {
		return nil, err
	}

	params := thermal.DefaultParams()
	params.TripC = 36 // a tight envelope (hot day, case on) so gaming bites
	params.ReleaseC = 33

	// Each policy runs the first seed with the monitor registered after
	// its actors.
	run := func(cell SessionSpec, opts *core.Options) (*thermal.Monitor, error) {
		cell.Seed = c.Seeds[0]
		s, err := newSession(cell, spec, workload.BaselineLoad, opts, nil)
		if err != nil {
			return nil, err
		}
		mon := thermal.MustNew(params)
		if err := s.Harness.Engine.Register(mon); err != nil {
			return nil, err
		}
		s.Run(nil)
		return mon, nil
	}

	defMon, err := run(SessionSpec{Governor: platform.GovInteractive}, nil)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions(tab, def.GIPS)
	ctlMon, err := run(SessionSpec{Controller: true}, &opts)
	if err != nil {
		return nil, err
	}
	return &ThermalResult{
		App:          spec.Name,
		DefaultPeakC: defMon.PeakC(), CtlPeakC: ctlMon.PeakC(),
		DefaultThrot: defMon.ThrottledFor(), CtlThrot: ctlMon.ThrottledFor(),
	}, nil
}
