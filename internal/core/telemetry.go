package core

import (
	"time"

	"aspeo/internal/obs"
	"aspeo/internal/platform"
)

// CycleSnapshot is the controller's structured per-cycle telemetry: one
// immutable record of the control loop's state at the end of a control
// cycle. It replaces log-scraping as the way runtimes observe a live
// controller — the fleet session manager folds these into fleet-wide
// rollups, and tests assert on them directly.
//
// Snapshots are plain values: emitting one never aliases controller
// state, so a consumer may retain them across cycles.
type CycleSnapshot struct {
	// CyclesRun counts every control-cycle invocation, measured or not;
	// it is the snapshot's ordinal (1 = first cycle).
	CyclesRun int `json:"cycles_run"`
	// Cycles counts closed-loop cycles (an accepted measurement reached
	// the regulator).
	Cycles int `json:"cycles"`
	// At is the backend clock when the cycle ran.
	At time.Duration `json:"at_ns"`
	// MeasuredGIPS is the most recent perf reading consumed.
	MeasuredGIPS float64 `json:"measured_gips"`
	// TargetGIPS is the performance target r.
	TargetGIPS float64 `json:"target_gips"`
	// SpeedupSetting is s_n, the regulator's current demand.
	SpeedupSetting float64 `json:"speedup_setting"`
	// BaseEstimateGIPS is the Kalman filter's current base-speed estimate.
	BaseEstimateGIPS float64 `json:"base_estimate_gips"`
	// ExpectedSpeedup is the scheduled allocation's expectation.
	ExpectedSpeedup float64 `json:"expected_speedup"`
	// MeanAbsErrGIPS is the running mean |r − y| over closed-loop cycles.
	MeanAbsErrGIPS float64 `json:"mean_abs_err_gips"`
	// PowerW is the device power over the step that ended the cycle.
	PowerW float64 `json:"power_w"`
	// PhasesDetected is the phase tracker's cluster count (0 = off).
	PhasesDetected int `json:"phases_detected"`
	// Degraded reports whether the watchdog pins the safe configuration.
	Degraded bool `json:"degraded"`
	// Health is the resilience ladder's ledger as of this cycle.
	Health platform.Health `json:"health"`
}

// Snapshot assembles the controller's current per-cycle telemetry. The
// controller must be installed (it reads the device clock and power
// rail); before installation the zero-time snapshot carries only
// controller-side state.
func (c *Controller) Snapshot() CycleSnapshot {
	s := CycleSnapshot{
		CyclesRun:        c.st.CyclesRun,
		Cycles:           c.st.Cycles,
		MeasuredGIPS:     c.st.LastMeasured,
		TargetGIPS:       c.opt.TargetGIPS,
		SpeedupSetting:   c.st.SPrev,
		BaseEstimateGIPS: c.BaseSpeedEstimate(),
		ExpectedSpeedup:  c.st.LastAlloc.ExpectedSpeedup,
		MeanAbsErrGIPS:   c.MeanAbsError(),
		PhasesDetected:   c.PhasesDetected(),
		Degraded:         c.st.Degraded,
		Health:           c.st.Health,
	}
	if c.dev != nil {
		s.At = c.dev.Now()
		s.PowerW = c.dev.LastPowerW()
	}
	return s
}

// publishCycle pushes the cycle's telemetry outward: the cycle span to
// the decision trace and the full snapshot, health ledger included, to
// the OnCycle subscriber. Publication is observation only — it must
// never feed back into the control law, so a run with a subscriber is
// bit-identical to one without.
func (c *Controller) publishCycle(dev platform.Device) {
	var snap CycleSnapshot
	haveSnap := false
	if c.opt.Trace {
		s := c.Snapshot()
		snap, haveSnap = s, true
		attrs := append(c.spanAttrs[:0],
			obs.Int("cycles", s.Cycles),
			obs.Float("measured_gips", s.MeasuredGIPS),
			obs.Float("target_gips", s.TargetGIPS),
			obs.Float("speedup_setting", s.SpeedupSetting),
			obs.Float("base_estimate_gips", s.BaseEstimateGIPS),
			obs.Float("expected_speedup", s.ExpectedSpeedup),
			obs.Float("mean_abs_err_gips", s.MeanAbsErrGIPS),
			obs.Float("power_w", s.PowerW),
			obs.Bool("degraded", s.Degraded),
			obs.Bool("relinquished", s.Health.Relinquished),
			obs.Int("consecutive_failures", s.Health.ConsecutiveFailures),
		)
		if s.Health.LastTransition != "" {
			attrs = append(attrs, obs.String("last_transition", s.Health.LastTransition))
		}
		c.emitSpan(dev, obs.StageCycle, attrs)
	}
	if c.opt.OnCycle != nil {
		if !haveSnap {
			snap = c.Snapshot()
		}
		c.opt.OnCycle(snap)
	}
}
