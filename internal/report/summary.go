package report

import (
	"encoding/json"
	"fmt"
	"io"

	"aspeo/internal/experiment"
	"aspeo/internal/fault"
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
// RunSummary it is a shared schema and the single source of the fleet's
// outputs: the fleet API returns it as JSON, Fleet renders it as text,
// and WriteMetrics renders it as the Prometheus exposition.
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
	// The manager's live counters. PanicsRecovered counts worker panics
	// the manager contained (each fed the restart ladder),
	// HTTPPanicsRecovered control-plane handler panics answered 500.
	// CheckpointsWritten counts session snapshots written durably,
	// CheckpointFailures snapshot writes that failed (the session
	// continued). ShedQueueFull and ShedMaxStreams count control-plane
	// requests shed with 429: submissions refused by a full queue, and
	// streams refused at the concurrent-stream bound. Each is zero — and
	// omitted — on fleets without chaos, checkpointing or overload.
	PanicsRecovered     int `json:"panics_recovered,omitempty"`
	HTTPPanicsRecovered int `json:"http_panics_recovered,omitempty"`
	CheckpointsWritten  int `json:"checkpoints_written,omitempty"`
	CheckpointFailures  int `json:"checkpoint_failures,omitempty"`
	ShedQueueFull       int `json:"shed_queue_full,omitempty"`
	ShedMaxStreams      int `json:"shed_max_streams,omitempty"`

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
