// Package experiment reproduces every table and figure of the paper's
// evaluation (§V): it profiles the applications, measures the default
// governors, runs the controller, and aggregates the comparisons the
// paper reports. Each artifact has one entry point (Fig1, TableI …
// TableV, Overhead) returning structured data that internal/report
// renders.
package experiment

import (
	"fmt"
	"time"

	"aspeo/internal/core"
	"aspeo/internal/platform"
	"aspeo/internal/profile"
	"aspeo/internal/sim"
	"aspeo/internal/stats"
	"aspeo/internal/workload"
)

// Config controls an experiment campaign.
type Config struct {
	// Seeds for repeated runs; the paper averages three runs.
	Seeds []int64
	// ProfileSeeds for the offline profiling stage.
	ProfileSeeds []int64
	// ProfileWarmup/ProfileWindow per configuration.
	ProfileWarmup time.Duration
	ProfileWindow time.Duration
	// Workers bounds the campaign worker pool fanning out independent
	// simulation cells (runs and profiling points). 0 or negative means
	// one worker per CPU (runtime.GOMAXPROCS(0)); 1 forces the serial
	// path. Results are identical for every setting — see runner.go.
	Workers int
}

// Default returns the paper-faithful campaign configuration.
func Default() Config {
	return Config{
		Seeds:         []int64{101, 202, 303},
		ProfileSeeds:  []int64{11, 22, 33},
		ProfileWarmup: 4 * time.Second,
		ProfileWindow: 36 * time.Second,
	}
}

// Quick returns a reduced-fidelity configuration: one seed and short
// profiling windows. Result shapes hold; confidence is lower.
func Quick() Config {
	return Config{
		Seeds:         []int64{101},
		ProfileSeeds:  []int64{11},
		ProfileWarmup: 2 * time.Second,
		ProfileWindow: 16 * time.Second,
	}
}

func (c Config) validate() error {
	if len(c.Seeds) == 0 || len(c.ProfileSeeds) == 0 {
		return fmt.Errorf("experiment: empty seed lists")
	}
	if c.ProfileWindow <= 0 {
		return fmt.Errorf("experiment: non-positive profile window")
	}
	return nil
}

func (c Config) profileOptions(load workload.BGLoad, mode profile.BWMode) profile.Options {
	return profile.Options{
		Load:    load,
		Mode:    mode,
		Seeds:   c.ProfileSeeds,
		Warmup:  c.ProfileWarmup,
		Window:  c.ProfileWindow,
		Workers: c.Workers,
	}
}

// RunResult aggregates one measurement condition over the seed set.
type RunResult struct {
	EnergyJ     float64 // mean
	AvgPowerW   float64
	PeakPowerW  float64
	GIPS        float64
	RuntimeSec  float64
	EnergyStd   float64
	CPUResidPct []float64 // last run's CPU-frequency residency (percent)
	BWResidPct  []float64 // last run's bandwidth residency (percent)
	FreqChanges int
	BWChanges   int
}

// aggregate folds per-seed stats into a RunResult.
func aggregate(stats_ []sim.Stats, lastPh *sim.Phone) RunResult {
	var e, p, pk, g, t []float64
	for _, st := range stats_ {
		e = append(e, st.EnergyJ)
		p = append(p, st.AvgPowerW)
		pk = append(pk, st.PeakPowerW)
		g = append(g, st.GIPS)
		t = append(t, st.Duration.Seconds())
	}
	return RunResult{
		EnergyJ:     stats.Mean(e),
		AvgPowerW:   stats.Mean(p),
		PeakPowerW:  stats.Max(pk),
		GIPS:        stats.Mean(g),
		RuntimeSec:  stats.Mean(t),
		EnergyStd:   stats.StdDev(e),
		CPUResidPct: lastPh.CPUHistogram().Percents(),
		BWResidPct:  lastPh.BWHistogram().Percents(),
		FreqChanges: lastPh.FreqChanges(),
		BWChanges:   lastPh.BWChanges(),
	}
}

// MeasureDefault runs the app under the stock governors (interactive +
// cpubw_hwmon) with perf attached — the paper's R_def / T_def / P_def /
// E_def measurement (§III-A).
func (c Config) MeasureDefault(spec *workload.Spec, load workload.BGLoad) (RunResult, error) {
	if err := c.validate(); err != nil {
		return RunResult{}, err
	}
	rr, _, err := c.runSeeds(func(seed int64) (*Session, error) {
		return newSession(SessionSpec{Governor: platform.GovInteractive, Seed: seed}, spec, load, nil, nil)
	})
	return rr, err
}

// RunController runs the app under the energy controller with the given
// profile table and target. A CPU-only controller leaves the bandwidth
// to its default governor.
func (c Config) RunController(spec *workload.Spec, tab *profile.Table,
	targetGIPS float64, load workload.BGLoad, cpuOnly bool) (RunResult, error) {

	if err := c.validate(); err != nil {
		return RunResult{}, err
	}
	opts := core.DefaultOptions(tab, targetGIPS)
	rr, _, err := c.runSeeds(func(seed int64) (*Session, error) {
		return newSession(SessionSpec{Controller: true, CPUOnly: cpuOnly, Seed: seed}, spec, load, &opts, nil)
	})
	return rr, err
}

// Comparison is one row of Tables III/IV/V: controller vs default.
type Comparison struct {
	App     string
	Load    workload.BGLoad
	Default RunResult
	Ctl     RunResult
	// PerfDeltaPct follows the paper's convention: positive = the
	// controller performed better. Deadline-critical apps compare
	// execution time; the rest compare GIPS.
	PerfDeltaPct float64
	// EnergySavingsPct is 100·(E_def − E_ctl)/E_def.
	EnergySavingsPct float64
}

func compare(spec *workload.Spec, load workload.BGLoad, def, ctl RunResult) Comparison {
	var perf float64
	if spec.DeadlineCritical {
		perf = stats.PctDelta(1/ctl.RuntimeSec, 1/def.RuntimeSec)
	} else {
		perf = stats.PctDelta(ctl.GIPS, def.GIPS)
	}
	return Comparison{
		App: spec.Name, Load: load, Default: def, Ctl: ctl,
		PerfDeltaPct:     perf,
		EnergySavingsPct: stats.Savings(ctl.EnergyJ, def.EnergyJ),
	}
}

// Evaluate profiles the app under BL, measures the default under `load`,
// and runs the controller against the default's performance. This is the
// paper's end-to-end protocol for one (app, load) cell.
func (c Config) Evaluate(spec *workload.Spec, tab *profile.Table,
	targetGIPS float64, load workload.BGLoad, cpuOnly bool) (Comparison, error) {

	// The default measurement and the controller run are independent
	// (the target is given), so they are two cells of the campaign pool.
	var def, ctl RunResult
	err := c.forEachCell(2, func(i int) error {
		var err error
		if i == 0 {
			def, err = c.MeasureDefault(spec, load)
		} else {
			ctl, err = c.RunController(spec, tab, targetGIPS, load, cpuOnly)
		}
		return err
	})
	if err != nil {
		return Comparison{}, err
	}
	return compare(spec, load, def, ctl), nil
}

// Profile runs the offline profiling stage for the app.
func (c Config) Profile(spec *workload.Spec, load workload.BGLoad, mode profile.BWMode) (*profile.Table, error) {
	return profile.Run(spec, c.profileOptions(load, mode))
}
