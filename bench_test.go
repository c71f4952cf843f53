// Package aspeo's root benchmark harness regenerates every table and
// figure of the paper (HPCA 2017, "Application-Specific Performance-Aware
// Energy Optimization on Android Mobile Devices") and reports the
// headline quantities as custom benchmark metrics.
//
// The benchmarks run the Quick experiment configuration (single seed,
// shortened profiling windows) so `go test -bench=.` completes in
// minutes; the paper-fidelity campaign is `aspeo-repro` without -quick.
package aspeo

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"aspeo/internal/core"
	"aspeo/internal/experiment"
	"aspeo/internal/profile"
	"aspeo/internal/sim"
	"aspeo/internal/stats"
	"aspeo/internal/workload"
)

// table3Cached caches the quick Table III campaign shared by the figure
// and downstream-table benchmarks. sync.OnceValues makes the fixture
// safe under `go test -race -bench`: concurrent callers block on one
// campaign and share the immutable result; every simulation inside the
// campaign builds its own sim.Phone (the engine's one-Phone-per-
// goroutine contract), so no device state crosses goroutines.
var table3Cached = sync.OnceValues(func() (*experiment.TableIIIResult, error) {
	return experiment.Quick().TableIII()
})

func table3(b *testing.B) *experiment.TableIIIResult {
	res, err := table3Cached()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig1EbookHistogram regenerates Figure 1: the eBook reader's
// CPU-frequency residency under the default governor. Reported metrics:
// residency at frequency 10 and at the maximum frequency (the paper's
// two highlighted buckets).
func BenchmarkFig1EbookHistogram(b *testing.B) {
	cfg := experiment.Quick()
	var r *experiment.Fig1Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = cfg.Fig1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.ResidencyPct[9], "freq10_resid_%")
	b.ReportMetric(r.ResidencyPct[17], "freq18_resid_%")
}

// BenchmarkTableIProfileAngryBirds regenerates Table I: the AngryBirds
// offline profile. Metrics: base speed (paper: 0.129 GIPS) and the
// speedup at (0.8832 GHz, 762 MBps) (paper: 1.837).
func BenchmarkTableIProfileAngryBirds(b *testing.B) {
	cfg := experiment.Quick()
	var r *experiment.TableIResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = cfg.TableI()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Table.BaseGIPS, "base_GIPS")
	for _, e := range r.Table.Entries {
		if e.FreqIdx == 4 && e.BWIdx == 0 {
			b.ReportMetric(e.Speedup, "speedup_f5bw1")
		}
	}
}

// BenchmarkTableIIConfigSpace covers the trivial Table II artifact and
// measures SoC model construction.
func BenchmarkTableIIConfigSpace(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = experiment.TableII().SoC.NumConfigs()
	}
	b.ReportMetric(float64(n), "configs")
}

// BenchmarkTableIIIControllerVsDefault regenerates the headline Table
// III. Metrics: mean energy savings and worst performance delta across
// the six applications.
func BenchmarkTableIIIControllerVsDefault(b *testing.B) {
	var res *experiment.TableIIIResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Quick().TableIII()
		if err != nil {
			b.Fatal(err)
		}
	}
	var saves []float64
	worst := 0.0
	for _, row := range res.Rows {
		saves = append(saves, row.EnergySavingsPct)
		if row.PerfDeltaPct < worst {
			worst = row.PerfDeltaPct
		}
	}
	b.ReportMetric(stats.Mean(saves), "mean_savings_%")
	b.ReportMetric(stats.Min(saves), "min_savings_%")
	b.ReportMetric(stats.Max(saves), "max_savings_%")
	b.ReportMetric(worst, "worst_perf_delta_%")
}

// BenchmarkTableIIISerial runs the quick Table III campaign on a single
// worker — the strictly sequential baseline every pre-runner campaign
// used.
func BenchmarkTableIIISerial(b *testing.B) {
	cfg := experiment.Quick()
	cfg.Workers = 1
	for i := 0; i < b.N; i++ {
		if _, err := cfg.TableIII(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIIIParallel runs the same campaign on the full worker
// pool and reports the wall-clock speedup over a serial reference run
// (determinism of the results themselves is asserted by
// TestTableIIIParallelMatchesSerial in internal/experiment).
func BenchmarkTableIIIParallel(b *testing.B) {
	serialCfg := experiment.Quick()
	serialCfg.Workers = 1
	serialStart := time.Now()
	if _, err := serialCfg.TableIII(); err != nil {
		b.Fatal(err)
	}
	serialWall := time.Since(serialStart)

	cfg := experiment.Quick()
	cfg.Workers = 0 // one worker per CPU
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.TableIII(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perOp := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(serialWall.Seconds()/perOp, "speedup_x")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkFig4CPUHistograms extracts the Figure 4 histogram pairs from
// the shared Table III campaign. Metric: default-governor residency at
// frequency 10 averaged over the six apps (paper: 12.7–27.9%).
func BenchmarkFig4CPUHistograms(b *testing.B) {
	res := table3(b)
	var pairs []experiment.HistPair
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs = experiment.Fig4(res)
	}
	var f10 []float64
	for _, p := range pairs {
		f10 = append(f10, p.Def[9])
	}
	b.ReportMetric(stats.Mean(f10), "def_freq10_resid_%")
}

// BenchmarkFig5BWHistograms extracts the Figure 5 pairs. Metric: the
// controller's residency at the lowest bandwidth averaged over apps
// (the paper reports >60% for all six).
func BenchmarkFig5BWHistograms(b *testing.B) {
	res := table3(b)
	var pairs []experiment.HistPair
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs = experiment.Fig5(res)
	}
	var bw1 []float64
	for _, p := range pairs {
		bw1 = append(bw1, p.Ctl[0])
	}
	b.ReportMetric(stats.Mean(bw1), "ctl_bw1_resid_%")
}

// BenchmarkOverheadOptimizer regenerates the §V-A1 overhead accounting.
// Metric: optimizer host-time per control cycle in microseconds (the
// paper's on-device bound is 10 ms).
func BenchmarkOverheadOptimizer(b *testing.B) {
	res := table3(b)
	cfg := experiment.Quick()
	var r *experiment.OverheadResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		r, err = cfg.Overhead(res.Tables[workload.NameAngryBirds], res.Targets[workload.NameAngryBirds])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.OptimizerTimePerCycle.Nanoseconds()), "optimizer_ns_per_cycle")
	b.ReportMetric(r.PerfCPUOverheadPct, "perf_cpu_overhead_%")
}

// BenchmarkTableIVLoadSensitivity regenerates Table IV (BL/NL/HL).
// Metrics: mean savings per load condition.
func BenchmarkTableIVLoadSensitivity(b *testing.B) {
	base := table3(b)
	cfg := experiment.Quick()
	var res *experiment.TableIVResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = cfg.TableIV(base)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, load := range experiment.Loads {
		var s []float64
		for _, perLoad := range res.Rows {
			s = append(s, perLoad[load].EnergySavingsPct)
		}
		b.ReportMetric(stats.Mean(s), "savings_"+load.String()+"_%")
	}
}

// BenchmarkTableVCPUOnly regenerates Table V. Metric: the paper's §V-D
// aggregate — extra energy of CPU-only control vs coordinated control.
func BenchmarkTableVCPUOnly(b *testing.B) {
	base := table3(b)
	cfg := experiment.Quick()
	var res *experiment.TableVResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = cfg.TableV(base)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ExtraEnergyVsCoordinatedPct(), "extra_energy_vs_coord_%")
}

// --- Ablations of the design choices DESIGN.md calls out ---

// ablationRun takes the shared AngryBirds profile and runs the controller
// with mutated
// options, reporting energy and delivered GIPS.
func ablationRun(b *testing.B, mutate func(*core.Options)) (energy, gips float64) {
	b.Helper()
	res := table3(b)
	tab := res.Tables[workload.NameAngryBirds]
	target := res.Targets[workload.NameAngryBirds]
	spec := workload.AngryBirds()

	ph, err := sim.NewPhone(sim.Config{
		Foreground: spec, Load: workload.BaselineLoad, Seed: 101,
		ScreenOn: true, WiFiOn: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng := sim.NewEngine(ph)
	opts := core.DefaultOptions(tab, target)
	opts.Seed = 101
	mutate(&opts)
	ctl, err := core.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := ctl.Install(eng); err != nil {
		b.Fatal(err)
	}
	st := eng.Run(spec.RunFor, false)
	return st.EnergyJ, st.GIPS
}

// BenchmarkAblationDeadbeatPole removes the regulator's pole damping
// (ρ = 0, the paper's literal Eqn. 3).
func BenchmarkAblationDeadbeatPole(b *testing.B) {
	var e, g float64
	for i := 0; i < b.N; i++ {
		e, g = ablationRun(b, func(o *core.Options) { o.Pole = 1e-9 })
	}
	b.ReportMetric(e, "energy_J")
	b.ReportMetric(g, "GIPS")
}

// BenchmarkAblationNoPruning disables ε-dominance pruning of the profile.
func BenchmarkAblationNoPruning(b *testing.B) {
	var e, g float64
	for i := 0; i < b.N; i++ {
		e, g = ablationRun(b, func(o *core.Options) { o.EpsilonDominance = -1 })
	}
	b.ReportMetric(e, "energy_J")
	b.ReportMetric(g, "GIPS")
}

// BenchmarkAblationCoarseQuantum runs the scheduler at a 500 ms dwell
// instead of the paper's 200 ms.
func BenchmarkAblationCoarseQuantum(b *testing.B) {
	var e, g float64
	for i := 0; i < b.N; i++ {
		e, g = ablationRun(b, func(o *core.Options) { o.Quantum = 500 * time.Millisecond })
	}
	b.ReportMetric(e, "energy_J")
	b.ReportMetric(g, "GIPS")
}

// BenchmarkAblationSlowControlCycle doubles the control period to 4 s.
func BenchmarkAblationSlowControlCycle(b *testing.B) {
	var e, g float64
	for i := 0; i < b.N; i++ {
		e, g = ablationRun(b, func(o *core.Options) { o.CycleT = 4 * time.Second })
	}
	b.ReportMetric(e, "energy_J")
	b.ReportMetric(g, "GIPS")
}

// BenchmarkBaselineReference runs the paper's reference point: the
// controller at default options, for comparison with the ablations.
func BenchmarkBaselineReference(b *testing.B) {
	var e, g float64
	for i := 0; i < b.N; i++ {
		e, g = ablationRun(b, func(o *core.Options) {})
	}
	b.ReportMetric(e, "energy_J")
	b.ReportMetric(g, "GIPS")
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// seconds per wall second for a default-governor AngryBirds run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := experiment.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.MeasureDefault(workload.AngryBirds(), workload.BaselineLoad); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(200*float64(b.N)/b.Elapsed().Seconds(), "sim_s/wall_s")
}

// BenchmarkProfileSparsity quantifies the interpolation error of the
// paper's sparse profiling: RMS relative error of interpolated GIPS vs a
// dense sweep at the same frequencies, for AngryBirds.
func BenchmarkProfileSparsity(b *testing.B) {
	spec := workload.AngryBirds()
	opts := profile.Options{
		Load: workload.BaselineLoad, Mode: profile.Coordinated,
		Seeds: []int64{11}, Warmup: 2 * time.Second, Window: 12 * time.Second,
	}
	var rms float64
	for i := 0; i < b.N; i++ {
		tab, err := profile.Run(spec, opts)
		if err != nil {
			b.Fatal(err)
		}
		// Dense ground truth at bw index 8 (7019 MBps), a non-anchor.
		var sumSq, n float64
		for _, e := range tab.Entries {
			if e.BWIdx != 8 {
				continue
			}
			truth := measurePinned(b, spec, e.FreqIdx, 8)
			rel := (e.GIPS - truth) / truth
			sumSq += rel * rel
			n++
		}
		rms = 100 * sqrt(sumSq/n)
	}
	b.ReportMetric(rms, "interp_rms_err_%")
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 30; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func measurePinned(b *testing.B, spec *workload.Spec, fi, bi int) float64 {
	b.Helper()
	looped := *spec
	looped.Loop, looped.LoopCount = true, 0
	ph, err := sim.NewPhone(sim.Config{
		Foreground: &looped, Load: workload.BaselineLoad, Seed: 11,
		ScreenOn: true, WiFiOn: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng := sim.NewEngine(ph)
	eng.MustRegister(&sim.FixedConfigActor{FreqIdx: fi, BWIdx: bi})
	eng.Run(2*time.Second, false)
	st := eng.Run(12*time.Second, false)
	return st.GIPS
}

// --- Extension benchmarks (paper §V-C / §VII future work, implemented) ---

// BenchmarkExtensionBatteryLife translates Table III into battery hours.
func BenchmarkExtensionBatteryLife(b *testing.B) {
	res := table3(b)
	var rows []experiment.BatteryRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.BatteryLife(res)
		if err != nil {
			b.Fatal(err)
		}
	}
	var ext []float64
	for _, r := range rows {
		ext = append(ext, r.LifeExtensionPct)
	}
	b.ReportMetric(stats.Mean(ext), "mean_life_extension_%")
}

// BenchmarkExtensionPhaseAware runs the §V-B phase-aware study.
func BenchmarkExtensionPhaseAware(b *testing.B) {
	var r *experiment.PhaseResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.Quick().PhaseStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.PhasesDetected), "phases")
	b.ReportMetric(r.PhaseAware.EnergySavingsPct, "phase_aware_savings_%")
}

// BenchmarkExtensionThermal runs the thermal mitigation study.
func BenchmarkExtensionThermal(b *testing.B) {
	var r *experiment.ThermalResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.Quick().ThermalStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.DefaultThrot.Seconds(), "def_throttled_s")
	b.ReportMetric(r.CtlThrot.Seconds(), "ctl_throttled_s")
}

// BenchmarkExtensionLoadModel runs the §V-C model-adaptation study.
func BenchmarkExtensionLoadModel(b *testing.B) {
	var r *experiment.LoadModelResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.Quick().LoadModelStudy(workload.AngryBirds())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Stale.EnergySavingsPct, "stale_savings_%")
	b.ReportMetric(r.Adapted.EnergySavingsPct, "adapted_savings_%")
	b.ReportMetric(r.Reprofiled.EnergySavingsPct, "reprofiled_savings_%")
}
