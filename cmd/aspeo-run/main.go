// Command aspeo-run executes one application on the simulated phone,
// either under a stock governor pair or under the energy controller, and
// reports energy, performance and residency histograms. It is the
// single-session face of the same construction path the fleet runtime
// uses (experiment.SessionSpec), so a run here and a 1-session fleet
// submission are the same computation.
//
// Usage:
//
//	aspeo-run -app angrybirds -governor interactive
//	aspeo-run -app angrybirds -controller -profile angrybirds.json -target 0.44
//	aspeo-run -app spotify -controller            # profiles + targets automatically
//	aspeo-run -app spotify -controller -faults combined   # inject a fault scenario
//	aspeo-run -app spotify -record run.json       # full-rate trace for platform/replay
//	aspeo-run -app spotify -controller -json      # machine-readable summary on stdout
//	aspeo-run -app spotify -controller -trace-out run.trace.ndjson   # decision trace
//	aspeo-run -app spotify -controller -faults combined -flight-out flight.ndjson
//	aspeo-run -app spotify -controller -checkpoint run.ckpt.json     # crash safety
//	aspeo-run -app spotify -controller -restore run.ckpt.json        # resume after a kill
//	aspeo-run -scenario evening.json -scenario-index 3    # one generated scenario session
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"aspeo/internal/ckpt"
	"aspeo/internal/core"
	"aspeo/internal/experiment"
	"aspeo/internal/governor"
	"aspeo/internal/obs"
	"aspeo/internal/obs/pipeline"
	"aspeo/internal/report"
	"aspeo/internal/scenario"
	"aspeo/internal/sim"
	"aspeo/internal/workload"
)

func main() {
	var (
		app        = flag.String("app", "", "application: "+strings.Join(workload.Names(), ", "))
		load       = flag.String("load", "BL", "background load: NL, BL or HL")
		gov        = flag.String("governor", "interactive", "cpufreq governor for the baseline run: "+strings.Join(governor.CPUFreqPolicies(), ", "))
		useCtl     = flag.Bool("controller", false, "run under the energy controller instead of a governor")
		profPath   = flag.String("profile", "", "profile table JSON (from aspeo-profile); profiled on the fly when empty")
		target     = flag.Float64("target", 0, "performance target in GIPS; measured from the default governors when 0")
		cpuOnly    = flag.Bool("cpu-only", false, "controller actuates CPU frequency only (Table V baseline)")
		seed       = flag.Int64("seed", 101, "simulation seed")
		quick      = flag.Bool("quick", false, "reduced-fidelity profiling when done on the fly")
		histograms = flag.Bool("hist", false, "print residency histograms")
		traceCSV   = flag.String("trace", "", "write a time-series trace CSV to this path")
		recordJSON = flag.String("record", "", "write a full-rate JSON trace (replayable via platform/replay) to this path")
		faultName  = flag.String("faults", "", "inject a fault scenario: "+strings.Join(experiment.FaultScenarioNames(), ", "))
		jsonOut    = flag.Bool("json", false, "emit the final run summary as JSON on stdout (shared schema with the fleet API)")
		traceOut   = flag.String("trace-out", "", "write the controller's full decision trace (NDJSON, for aspeo-trace) to this path")
		flightOut  = flag.String("flight-out", "", "write the flight recorder's ring (last spans before an escalation) to this path when the watchdog tripped or the controller relinquished")
		flightCap  = flag.Int("flight-cap", 0, "flight recorder ring capacity in spans (0 = default)")
		ckptOut    = flag.String("checkpoint", "", "keep the session crash-safe: write its latest snapshot to this path (atomically, overwritten in place) every -checkpoint-every cadence points")
		ckptEvery  = flag.Int("checkpoint-every", 25, "checkpoint cadence: control cycles (controller) or simulated seconds (governor)")
		restore    = flag.String("restore", "", "resume from a checkpoint written by -checkpoint; the other flags must rebuild the same spec (same app, seed, mode, ...) or the restore is rejected")
		scenPath   = flag.String("scenario", "", "run one session of a compiled scenario instead of -app: scenario spec JSON (see aspeo-gen)")
		scenIdx    = flag.Int("scenario-index", 0, "which generated session of -scenario to run")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
		memprofile = flag.String("memprofile", "", "write a heap profile (taken after the run) to this path")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("%v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal("%v", err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal("%v", err)
			}
			if err := f.Close(); err != nil {
				fatal("%v", err)
			}
		}()
	}

	var traceEvery time.Duration
	if *traceCSV != "" {
		traceEvery = 100 * time.Millisecond
	}
	if *recordJSON != "" {
		// Replay needs one point per engine step; the CSV (if also
		// requested) shares the full-rate recorder.
		traceEvery = sim.DefaultStep
	}

	// Decision tracing: -trace-out collects the run's whole span stream,
	// -flight-out keeps only the bounded ring the fleet dumps on
	// escalation. Both ride the same sink, so either alone or both
	// together see the identical stream — and tracing is observation
	// only, so the run's results match an untraced run bit for bit.
	var trace *obs.Trace
	var flight *obs.Recorder
	var sinks []obs.Sink
	if *traceOut != "" {
		trace = obs.NewTrace()
		sinks = append(sinks, trace)
	}
	if *flightOut != "" {
		flight = obs.NewRecorder(*flightCap)
		sinks = append(sinks, flight)
	}
	var sink obs.Sink
	if len(sinks) > 0 {
		sink = obs.Tee(sinks...)
	}

	var spec experiment.SessionSpec
	var (
		scSpec *scenario.Spec
		scSess *scenario.Session
		pipe   *pipeline.Pipeline
	)
	if *scenPath != "" {
		// Scenario mode: the generated session defines the workload and
		// run conditions; only the observation flags (-record, -trace,
		// -json, ...) apply on top. The compiled stream is deterministic,
		// so "-scenario s.json -scenario-index 3" names the same run
		// every time.
		if *app != "" {
			fmt.Fprintln(os.Stderr, "aspeo-run: -app and -scenario are mutually exclusive")
			flag.Usage()
			os.Exit(2)
		}
		sc, err := scenario.LoadFile(*scenPath)
		if err != nil {
			fatal("%v", err)
		}
		g, err := sc.Compile()
		if err != nil {
			fatal("%v", err)
		}
		if *scenIdx < 0 || *scenIdx >= len(g.Sessions) {
			fatal("-scenario-index %d out of range [0, %d)", *scenIdx, len(g.Sessions))
		}
		gs := &g.Sessions[*scenIdx]
		spec = gs.SessionSpec()
		fmt.Fprintf(os.Stderr, "aspeo-run: scenario %s session %d: %s (cohort %s, load %s, arrival t=%.1fs)\n",
			g.Name, gs.Index, gs.App.Name, gs.Cohort, gs.Load, gs.ArrivalS)
		if len(sc.Assertions) > 0 {
			// The spec's assertions apply to this single session the
			// same way the fleet applies them to the population: a
			// 1-worker telemetry pipeline fed from the cycle hook and
			// the final summary, evaluated against its rollup.
			scSpec, scSess = sc, gs
			pipe = pipeline.New(pipeline.Options{Workers: 1})
			cohortID := pipe.CohortID(gs.Cohort)
			pipe.ObserveArrival(0, cohortID, gs.ArrivalS)
			arrival := gs.ArrivalS
			stormP, stormB := gs.StormPeriodS, gs.StormBurstS
			spec.OnCycle = func(cs core.CycleSnapshot) {
				rec := pipeline.CycleRecord{
					Cohort:       cohortID,
					T:            arrival + cs.At.Seconds(),
					MeasuredGIPS: cs.MeasuredGIPS,
					TargetGIPS:   cs.TargetGIPS,
					PowerW:       cs.PowerW,
				}
				if stormP > 0 {
					rec.Storm = math.Mod(cs.At.Seconds(), stormP) < stormB
				}
				pipe.ObserveCycle(0, &rec)
			}
		}
	} else {
		spec = experiment.SessionSpec{
			App: *app, Load: *load, Governor: *gov,
			Controller: *useCtl, CPUOnly: *cpuOnly,
			Profile: *profPath, TargetGIPS: *target, Quick: *quick,
			Seed: *seed, Faults: *faultName,
		}
	}
	spec.TraceEvery = traceEvery
	spec.Trace = sink
	spec.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if *ckptOut != "" {
		spec.CheckpointEvery = *ckptEvery
		path := *ckptOut
		spec.OnCheckpoint = func(cs *experiment.CellState) error {
			return ckpt.Save(ckpt.OS{}, path, runCheckpointKind, nil, cs)
		}
	}
	// Validate up front so a typo'd flag is a usage error, not a silent
	// fall-through to defaults (an unknown governor used to leave the
	// device parked at its boot frequency with no policy at all).
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "aspeo-run: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	// Probe the checkpoint destination now: discovering an unwritable
	// directory at the first cadence point would silently cost the run
	// its durability (sink failures are counted, not fatal — by design).
	if *ckptOut != "" {
		if err := probeWritable(filepath.Dir(*ckptOut)); err != nil {
			fmt.Fprintf(os.Stderr, "aspeo-run: -checkpoint %s: %v\n", *ckptOut, err)
			flag.Usage()
			os.Exit(2)
		}
	}

	sess, err := experiment.NewSession(spec)
	if err != nil {
		fatal("%v", err)
	}
	if *restore != "" {
		cell := new(experiment.CellState)
		if err := ckpt.Load(ckpt.OS{}, *restore, runCheckpointKind, nil, cell); err != nil {
			fatal("%v", err)
		}
		if err := sess.RestoreState(cell); err != nil {
			fatal("restoring %s: %v", *restore, err)
		}
		fmt.Fprintf(os.Stderr, "aspeo-run: restored from %s (t=%.1fs, cycle %d)\n",
			*restore, cell.At.Seconds(), cell.CyclesRun)
	}
	st := sess.Run(nil)
	summary := report.NewRunSummary(sess, st)
	ph := sess.Harness.Phone

	if *jsonOut {
		if err := summary.WriteJSON(os.Stdout); err != nil {
			fatal("writing summary: %v", err)
		}
	} else {
		fmt.Printf("app=%s load=%s runtime=%.1fs energy=%.1fJ avg-power=%.3fW peak=%.3fW gips=%.4f freq-changes=%d bw-changes=%d\n",
			summary.App, summary.Load, summary.DurationS, summary.EnergyJ, summary.AvgPowerW,
			summary.PeakPowerW, summary.GIPS, summary.FreqChanges, summary.BWChanges)
		if st.DroppedInstr > 0 {
			fmt.Printf("dropped foreground work: %.3g instructions\n", st.DroppedInstr)
		}
		if sess.Injector != nil {
			fmt.Printf("injected faults: %+v\n", sess.Injector.Counts())
			if c := summary.Controller; c != nil {
				h := c.Health
				fmt.Printf("controller health: actuation failures=%d (retries %d), reinstalls=%d, max-freq restores=%d\n",
					h.ActuationFailures, h.ActuationRetries, h.GovernorReinstalls, h.MaxFreqRestores)
				fmt.Printf("  samples gated=%d (non-finite %d, stuck %d, outlier %d), watchdog trips=%d, degraded cycles=%d, relinquished=%v\n",
					h.RejectedSamples, h.NonFiniteSamples, h.StuckSamples, h.OutlierSamples,
					h.WatchdogTrips, h.DegradedCycles, h.Relinquished)
			}
		}
	}
	if *histograms {
		fmt.Println()
		report.Histogram(os.Stdout, "CPU frequency residency", ph.CPUHistogram().Percents(), 40)
		fmt.Println()
		report.Histogram(os.Stdout, "Memory bandwidth residency", ph.BWHistogram().Percents(), 40)
	}
	if *ckptOut != "" {
		cs := sess.CheckpointStats()
		fmt.Fprintf(os.Stderr, "aspeo-run: %d checkpoints written to %s (%d failures)\n",
			cs.Captured, *ckptOut, cs.Failures)
	}
	if *traceCSV != "" {
		writeFile(*traceCSV, ph.Recorder().WriteCSV)
	}
	if *recordJSON != "" {
		writeFile(*recordJSON, ph.Recorder().WriteJSON)
	}
	if trace != nil {
		writeFile(*traceOut, trace.WriteNDJSON)
	}
	if flight != nil {
		// Like the fleet's automatic dumps, the flight recorder only
		// lands on disk when something escalated; a clean run writes
		// nothing.
		escalated := false
		if c := summary.Controller; c != nil {
			escalated = c.Health.WatchdogTrips > 0 || c.Health.Relinquished
		}
		if escalated {
			writeFile(*flightOut, flight.WriteNDJSON)
			fmt.Fprintf(os.Stderr, "aspeo-run: flight recorder dumped to %s (%d spans, %d evicted)\n",
				*flightOut, len(flight.Snapshot()), flight.Dropped())
		} else {
			fmt.Fprintln(os.Stderr, "aspeo-run: no escalation; flight recorder not dumped")
		}
	}
	if pipe != nil {
		fin := pipeline.FinalRecord{
			Cohort:       pipe.CohortID(scSess.Cohort),
			HasSummary:   true,
			Controller:   summary.Controller != nil,
			DurationS:    summary.DurationS,
			EnergyJ:      summary.EnergyJ,
			DroppedInstr: summary.DroppedInstr,
			GIPS:         summary.GIPS,
		}
		if c := summary.Controller; c != nil {
			fin.MeanAbsErrGIPS = c.MeanAbsErrGIPS
		}
		pipe.ObserveFinal(0, &fin)
		errs := scSpec.Evaluate(pipe.Rollup())
		for _, err := range errs {
			fmt.Fprintf(os.Stderr, "aspeo-run: assertion failed: %v\n", err)
		}
		if len(errs) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "aspeo-run: scenario %s: %d assertions passed\n", scSpec.Name, len(scSpec.Assertions))
	}
}

// runCheckpointKind names aspeo-run's checkpoint payload (a bare
// session cell; the spec identity lives in the command line that must
// be repeated on -restore).
const runCheckpointKind = "aspeo/session-cell"

// probeWritable verifies dir exists (creating it if needed) and accepts
// writes, so durability failures surface as usage errors up front.
func probeWritable(dir string) error {
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".aspeo-probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	if err := f.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Remove(name)
}

// writeFile streams one recorder export to path.
func writeFile(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	if err := write(f); err != nil {
		fatal("writing %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		fatal("writing %s: %v", path, err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "aspeo-run: "+format+"\n", args...)
	os.Exit(1)
}
