package report

import (
	"encoding/json"
	"fmt"
	"io"

	"aspeo/internal/experiment"
	"aspeo/internal/fault"
	"aspeo/internal/obs"
	"aspeo/internal/obs/pipeline"
	"aspeo/internal/platform"
	"aspeo/internal/sim"
)

// RunSummary is the machine-readable record of one session: what ran,
// under which policy, and what it measured. One schema serves every
// consumer — `aspeo-run -json` prints it, the fleet API returns it per
// session, and the fleet golden test compares the two byte for byte —
// so a field added here is a field added everywhere at once.
//
// Only deterministic quantities belong in it: no wall-clock timestamps,
// no host identifiers. Two runs of the same spec must marshal
// identically.
type RunSummary struct {
	App      string `json:"app"`
	Load     string `json:"load"`
	Seed     int64  `json:"seed"`
	Mode     string `json:"mode"` // "governor" or "controller"
	Governor string `json:"governor,omitempty"`
	CPUOnly  bool   `json:"cpu_only,omitempty"`
	Faults   string `json:"faults,omitempty"`

	DurationS    float64 `json:"duration_s"`
	EnergyJ      float64 `json:"energy_j"`
	AvgPowerW    float64 `json:"avg_power_w"`
	PeakPowerW   float64 `json:"peak_power_w"`
	GIPS         float64 `json:"gips"`
	FGCompleted  bool    `json:"fg_completed"`
	DroppedInstr float64 `json:"dropped_instr,omitempty"`
	FreqChanges  int     `json:"freq_changes"`
	BWChanges    int     `json:"bw_changes"`

	Controller *ControllerSummary `json:"controller,omitempty"`
	Injected   *fault.Counts      `json:"injected_faults,omitempty"`
}

// ControllerSummary is the controller-mode slice of a RunSummary.
type ControllerSummary struct {
	TargetGIPS       float64         `json:"target_gips"`
	TableEntries     int             `json:"table_entries"`
	BaseGIPS         float64         `json:"base_gips"`
	Cycles           int             `json:"cycles"`
	MeanAbsErrGIPS   float64         `json:"mean_abs_err_gips"`
	BaseEstimateGIPS float64         `json:"base_estimate_gips"`
	PhasesDetected   int             `json:"phases_detected"`
	Health           platform.Health `json:"health"`
}

// NewRunSummary assembles the summary of a finished session.
func NewRunSummary(s *experiment.Session, st sim.Stats) RunSummary {
	sum := RunSummary{
		App:          s.App.Name,
		Load:         s.Load.String(),
		Seed:         s.Spec.Seed,
		Mode:         "governor",
		Governor:     s.Spec.Governor,
		CPUOnly:      s.Spec.CPUOnly,
		Faults:       s.Spec.Faults,
		DurationS:    st.Duration.Seconds(),
		EnergyJ:      st.EnergyJ,
		AvgPowerW:    st.AvgPowerW,
		PeakPowerW:   st.PeakPowerW,
		GIPS:         st.GIPS,
		FGCompleted:  st.FGCompleted,
		DroppedInstr: st.DroppedInstr,
		FreqChanges:  st.FreqChanges,
		BWChanges:    st.BWChanges,
	}
	if s.Controller != nil {
		sum.Mode = "controller"
		sum.Governor = ""
		sum.Controller = &ControllerSummary{
			TargetGIPS:       s.TargetGIPS,
			TableEntries:     s.TableEntries,
			BaseGIPS:         s.BaseGIPS,
			Cycles:           s.Controller.Cycles(),
			MeanAbsErrGIPS:   s.Controller.MeanAbsError(),
			BaseEstimateGIPS: s.Controller.BaseSpeedEstimate(),
			PhasesDetected:   s.Controller.PhasesDetected(),
			Health:           s.Controller.Health(),
		}
	}
	if s.Injector != nil {
		c := s.Injector.Counts()
		sum.Injected = &c
	}
	return sum
}

// WriteJSON writes the summary as indented JSON with a trailing newline.
func (r RunSummary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// FleetRollup is the fleet-wide aggregate the session manager folds its
// sessions into: population by state and throughput, which only the
// manager knows, next to the telemetry pipeline's epoch rollup, which
// carries the summed energy, performance and health figures. Like
// RunSummary it is a shared schema — the fleet API returns it as JSON,
// Fleet renders it as text, and RollupMetrics publishes it on a metrics
// registry for the Prometheus exposition.
type FleetRollup struct {
	// Sessions by lifecycle state.
	Pending   int `json:"pending"`
	Running   int `json:"running"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Stopped   int `json:"stopped"`
	// Submitted counts every session ever accepted; Restarts every
	// restart attempt consumed.
	Submitted int `json:"submitted"`
	Restarts  int `json:"restarts"`
	// PanicsRecovered counts worker panics the manager contained (each
	// fed the restart ladder); CheckpointsWritten counts session
	// snapshots written durably. Both are zero — and omitted — on
	// fleets without chaos or checkpointing.
	PanicsRecovered    int `json:"panics_recovered,omitempty"`
	CheckpointsWritten int `json:"checkpoints_written,omitempty"`

	// CyclesTotal counts control cycles observed across all controller
	// sessions, live ones included; CyclesPerSec is the recent fleet
	// throughput (cycles per wall-clock second since the previous
	// rollup).
	CyclesTotal  int     `json:"cycles_total"`
	CyclesPerSec float64 `json:"cycles_per_sec"`

	// Telemetry is the pipeline's epoch rollup: finished-session totals
	// (Totals), the ladder ledger summed across sessions and restart
	// attempts (Health), per-cohort population distributions,
	// saturation (brownout) events and interference analysis. The
	// manager always sets it.
	Telemetry *pipeline.Rollup `json:"telemetry,omitempty"`
}

// Active reports how many sessions are not yet terminal.
func (r FleetRollup) Active() int { return r.Pending + r.Running }

// Fleet renders the rollup as a compact text block — the aspeo-fleet
// log line and the smoke test's human-readable assertion surface.
func Fleet(w io.Writer, r FleetRollup) {
	fmt.Fprintf(w, "fleet: %d pending, %d running, %d completed, %d failed, %d stopped (%d submitted, %d restarts)\n",
		r.Pending, r.Running, r.Completed, r.Failed, r.Stopped, r.Submitted, r.Restarts)
	tot, h := r.Telemetry.Totals, r.Telemetry.Health
	fmt.Fprintf(w, "  cycles=%d (%.1f/s) sim-time=%.0fs energy=%.1fJ mean-gips=%.4f mean-abs-err=%.4f\n",
		r.CyclesTotal, r.CyclesPerSec, tot.SimSeconds, tot.EnergyJ, tot.MeanGIPS, tot.MeanAbsErrGIPS)
	fmt.Fprintf(w, "  health: actuation-failures=%d reinstalls=%d rejected-samples=%d watchdog-trips=%d degraded-cycles=%d relinquished=%d\n",
		h.ActuationFailures, h.GovernorReinstalls, h.RejectedSamples, h.WatchdogTrips, h.DegradedCycles, h.Relinquished)
	if h.LastTransition != "" {
		fmt.Fprintf(w, "  last-transition: %s\n", h.LastTransition)
	}
	pipeline.WriteTable(w, r.Telemetry)
}

// RollupMetrics publishes the rollup onto an obs.Registry, creating the
// fleet metric families on first call and refreshing their values on
// every call after that. The fleet control plane keeps one long-lived
// registry (so process-level instruments like scrape histograms coexist
// with the rollup) and refreshes it from the current Rollup() at scrape
// time. Metric names follow the Prometheus conventions: a unit suffix,
// _total on monotonic counters.
func RollupMetrics(reg *obs.Registry, r FleetRollup) {
	states := reg.GaugeVec("aspeo_fleet_sessions",
		"Sessions currently in each lifecycle state.", "state")
	for _, s := range []struct {
		state string
		n     int
	}{
		{"pending", r.Pending}, {"running", r.Running},
		{"completed", r.Completed}, {"failed", r.Failed}, {"stopped", r.Stopped},
	} {
		states.With(s.state).Set(float64(s.n))
	}

	counter := func(name, help string, v float64) {
		reg.Counter(name, help).Set(v)
	}
	gauge := func(name, help string, v float64) {
		reg.Gauge(name, help).Set(v)
	}
	counter("aspeo_fleet_sessions_submitted_total", "Sessions accepted since start.", float64(r.Submitted))
	counter("aspeo_fleet_session_restarts_total", "Session restart attempts consumed.", float64(r.Restarts))
	counter("aspeo_fleet_cycles_total", "Control cycles observed across all controller sessions.", float64(r.CyclesTotal))
	gauge("aspeo_fleet_cycles_per_second", "Recent fleet control-cycle throughput.", r.CyclesPerSec)
	tot, h := r.Telemetry.Totals, r.Telemetry.Health
	counter("aspeo_fleet_sim_seconds_total", "Simulated seconds completed by finished sessions.", tot.SimSeconds)
	counter("aspeo_fleet_energy_joules_total", "Energy consumed by finished sessions.", tot.EnergyJ)
	counter("aspeo_fleet_dropped_instructions_total", "Foreground instructions dropped by finished sessions.", tot.DroppedInstr)
	gauge("aspeo_fleet_mean_gips", "Mean GIPS over finished sessions.", tot.MeanGIPS)
	gauge("aspeo_fleet_mean_abs_error_gips", "Mean |target-measured| GIPS over finished controller sessions.", tot.MeanAbsErrGIPS)

	for _, m := range []struct {
		name, help string
		v          int
	}{
		{"aspeo_fleet_health_actuation_failures_total", "Failed sysfs actuation writes.", h.ActuationFailures},
		{"aspeo_fleet_health_actuation_retries_total", "Retry attempts spent on failed writes.", h.ActuationRetries},
		{"aspeo_fleet_health_governor_reinstalls_total", "Governor hijacks repaired.", h.GovernorReinstalls},
		{"aspeo_fleet_health_maxfreq_restores_total", "scaling_max_freq clamps undone.", h.MaxFreqRestores},
		{"aspeo_fleet_health_rejected_samples_total", "Measurements rejected by the validation gate.", h.RejectedSamples},
		{"aspeo_fleet_health_watchdog_trips_total", "Watchdog degrade and relinquish transitions.", h.WatchdogTrips},
		{"aspeo_fleet_health_degraded_cycles_total", "Control cycles spent at the safe configuration.", h.DegradedCycles},
	} {
		counter(m.name, m.help, float64(m.v))
	}
	gauge("aspeo_fleet_relinquished_sessions", "Sessions whose controller relinquished the device.", float64(h.Relinquished))

	telemetryMetrics(reg, r.Telemetry)
}

// telemetryMetrics publishes the pipeline rollup's distribution and
// analyzer families: the population measured-GIPS histogram (loaded
// into the same family the fleet registers at construction), per-cohort
// labeled histograms, and the saturation/interference figures.
func telemetryMetrics(reg *obs.Registry, t *pipeline.Rollup) {
	reg.Histogram("aspeo_fleet_measured_gips",
		"Per-cycle measured performance across all controller sessions.",
		pipeline.GIPSBounds).Load(t.GIPS.Counts, t.GIPS.Sum)

	slackVec := reg.HistogramVec("aspeo_fleet_cohort_slack_pct",
		"Per-cycle slack (100·(measured−target)/target) by cohort.",
		pipeline.SlackBounds, "cohort")
	powVec := reg.HistogramVec("aspeo_fleet_cohort_power_watts",
		"Per-cycle device power by cohort.",
		pipeline.PowerBounds, "cohort")
	gipsVec := reg.HistogramVec("aspeo_fleet_cohort_measured_gips",
		"Per-cycle measured performance by cohort.",
		pipeline.GIPSBounds, "cohort")
	for i := range t.Cohorts {
		c := &t.Cohorts[i]
		slackVec.With(c.Name).Load(c.Slack.Counts, c.Slack.Sum)
		powVec.With(c.Name).Load(c.Power.Counts, c.Power.Sum)
		gipsVec.With(c.Name).Load(c.GIPS.Counts, c.GIPS.Sum)
	}

	brownouts, depth, cycles := 0, 0.0, uint64(0)
	if s := t.Saturation; s != nil {
		brownouts, depth, cycles = len(s.Brownouts), s.WorstDepth, s.BrownoutCycles
	}
	reg.Gauge("aspeo_fleet_brownouts",
		"Brownout events detected by the saturation analyzer.").Set(float64(brownouts))
	reg.Gauge("aspeo_fleet_brownout_worst_depth",
		"Deepest per-window GIPS deficit (1 − measured/target).").Set(depth)
	reg.Counter("aspeo_fleet_brownout_cycles_total",
		"Control cycles that ran inside brownout windows.").Set(float64(cycles))

	collapse := reg.GaugeVec("aspeo_fleet_slack_collapse_pct",
		"Calm-minus-storm mean slack by cohort (interference analyzer).", "cohort")
	corr := reg.GaugeVec("aspeo_fleet_arrival_slack_corr",
		"Correlation of population arrivals with cohort slack.", "cohort")
	for _, inf := range t.Interference {
		collapse.With(inf.Cohort).Set(inf.SlackCollapsePct)
		corr.With(inf.Cohort).Set(inf.ArrivalSlackCorr)
	}
}
