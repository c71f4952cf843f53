package experiment

import (
	"fmt"
	"time"

	"aspeo/internal/core"
	"aspeo/internal/perftool"
	"aspeo/internal/profile"
	"aspeo/internal/workload"
)

// OverheadResult reproduces the §V-A1 controller-overhead accounting.
type OverheadResult struct {
	// PerfCPUOverheadPct is the machine share the perf tool costs at
	// the controller's 1 s sampling period (paper: 4%).
	PerfCPUOverheadPct float64
	// PerfPowerOverheadW is perf's standing power cost (paper: 15 mW).
	PerfPowerOverheadW float64
	// ControllerEnergyPerCycleJ is the regulator+optimizer compute cost
	// per 2 s control cycle (paper: <10 ms at ≈25 mW average).
	ControllerEnergyPerCycleJ float64
	// OptimizerTimePerCycle is the measured host wall time of the
	// energy optimizer per cycle (paper: regulator+optimizer <10 ms).
	OptimizerTimePerCycle time.Duration
	// FreqChangesPerCycle is how often the scheduler actuates.
	FreqChangesPerCycle float64
	// ActuationPowerW is the average actuation overhead (paper: 14 mW).
	ActuationPowerW float64
	Cycles          int
}

// Overhead runs the controller on AngryBirds and accounts its costs.
func (c Config) Overhead(tab *profile.Table, targetGIPS float64) (*OverheadResult, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	spec := workload.AngryBirds()
	if tab == nil {
		var err error
		tab, err = c.Profile(spec, workload.BaselineLoad, profile.Coordinated)
		if err != nil {
			return nil, err
		}
		def, err := c.MeasureDefault(spec, workload.BaselineLoad)
		if err != nil {
			return nil, err
		}
		targetGIPS = def.GIPS
	}

	opts := core.DefaultOptions(tab, targetGIPS)
	s, err := newSession(SessionSpec{Controller: true, Seed: c.Seeds[0]}, spec, workload.BaselineLoad, &opts, nil)
	if err != nil {
		return nil, err
	}
	st := s.Run(nil)
	ctl := s.Controller
	if ctl.Cycles() == 0 {
		return nil, fmt.Errorf("experiment: controller never cycled")
	}

	cycles := ctl.Cycles()
	perCycleFreqChanges := float64(st.FreqChanges) / float64(cycles)
	// 5 mJ per transition (see sim.Phone.SetFreqIdx) averaged over the
	// cycle duration.
	actW := perCycleFreqChanges * 5e-3 / opts.CycleT.Seconds()
	perf := perftool.MustNew(core.PerfPeriod, 0)
	return &OverheadResult{
		PerfCPUOverheadPct:        100 * perf.OverheadFrac(),
		PerfPowerOverheadW:        0.015 / core.PerfPeriod.Seconds(),
		ControllerEnergyPerCycleJ: 0.050,
		OptimizerTimePerCycle:     ctl.OptimizerWallTime() / time.Duration(cycles),
		FreqChangesPerCycle:       perCycleFreqChanges,
		ActuationPowerW:           actW,
		Cycles:                    cycles,
	}, nil
}
