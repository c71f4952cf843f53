package core

import (
	"encoding/json"
	"fmt"

	"aspeo/internal/kalman"
	"aspeo/internal/platform"
	"aspeo/internal/profile"
)

// This file implements platform.Checkpointer for the Controller: the
// full regulator state — Kalman filter, integrator, phase tracker,
// scheduler dwell position, resilience ladder — serialized so a
// restored controller continues bit-identically. Structures rebuilt
// deterministically from the immutable profile table (entries,
// frontier, precomputed sysfs value strings) are not serialized; they
// are reconstructed by New on the restored cell and lazily on first
// actuation. OptimizerWallTime is deliberately NOT serialized — it is
// host wall time, not simulation state, and no deterministic output
// includes it.
//
// Restore ignores keys it does not know, so snapshots written by older
// controllers — which also carried an allocation cache, its hit counter
// and the last solve path — still restore; none of those fed the
// control law.

// controllerState is the controller's dynamic state besides its Kalman
// filter and phase tracker: the Controller holds it and its checkpoint
// carries it.
type controllerState struct {
	CyclesRun int     `json:"cycles_run"` // total runCycle invocations (measured or not)
	SPrev     float64 `json:"s_prev"`     // speedup applied during the previous cycle

	Slots     []profile.Entry    `json:"slots"`
	SlotIdx   int                `json:"slot_idx"`
	Attached  bool               `json:"attached"`
	LastAlloc Allocation         `json:"last_alloc"`
	AllocLog  []AllocationRecord `json:"alloc_log,omitempty"`

	// Resilience state (resilience.go).
	Health           platform.Health `json:"health"`
	RetriesLeft      int             `json:"retries_left"` // actuation retry budget for the current cycle
	CycleFailed      bool            `json:"cycle_failed"` // an actuation failed unrecovered this cycle
	Degraded         bool            `json:"degraded"`     // watchdog pinned the safe configuration
	RecentY          []float64       `json:"recent_y"`
	RecentYPos       int             `json:"recent_y_pos"`  // ring write position once RecentY is full
	OutlierRun       int             `json:"outlier_run"`   // consecutive outlier rejections (persistence-accept)
	StockCPUGov      string          `json:"stock_cpu_gov"` // governor to hand back on relinquish
	StockBWGov       string          `json:"stock_bw_gov"`
	InstalledMaxFreq string          `json:"installed_max_freq"` // legitimate scaling_max_freq value

	// Decision-trace state (observation only — it never feeds back into
	// the control law): why the gate rejected this cycle's sample.
	GateCause string `json:"gate_cause"`

	// Diagnostics.
	Cycles       int     `json:"cycles"`
	SumAbsErr    float64 `json:"sum_abs_err"`
	LastMeasured float64 `json:"last_measured"`
}

// snapshot is the JSON shape of a checkpointed controller: its dynamic
// state plus its Kalman filter's and, when phase-aware, its tracker's.
type snapshot struct {
	controllerState
	Kalman  kalman.State  `json:"kalman"`
	Tracker *trackerState `json:"tracker,omitempty"`
}

// CheckpointState implements platform.Checkpointer.
func (c *Controller) CheckpointState() (json.RawMessage, error) {
	s := snapshot{controllerState: c.st, Kalman: c.kf.State()}
	if c.tracker != nil {
		s.Tracker = &c.tracker.st
	}
	return json.Marshal(s)
}

// RestoreState implements platform.Checkpointer. The controller must
// have been rebuilt (New + Install) from the same options the snapshot
// was taken under; only the dynamic state is overwritten here, and
// only once every check has passed. Every index the control loop will
// use — the dwell slot, the stuck-detection ring position, each slot's
// ladder indices on dev, the tracker's current phase — is checked, so
// a corrupt snapshot is an error rather than a panic in a later cycle.
func (c *Controller) RestoreState(raw json.RawMessage, dev platform.Device) error {
	var s snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	if len(s.Slots) != len(c.st.Slots) {
		return fmt.Errorf("core: restore %d slots into schedule of %d", len(s.Slots), len(c.st.Slots))
	}
	if s.SlotIdx < 0 || s.SlotIdx >= len(c.st.Slots) {
		return fmt.Errorf("core: restore slot index %d out of %d", s.SlotIdx, len(c.st.Slots))
	}
	chip := dev.SoC()
	for i, e := range s.Slots {
		// A negative bandwidth index is legal: apply skips that write.
		if e.FreqIdx < 0 || e.FreqIdx >= len(chip.CPUFreqs) || e.BWIdx >= len(chip.MemBWs) {
			return fmt.Errorf("core: restore slot %d at ladder indices %d/%d, device ladders %d/%d",
				i, e.FreqIdx, e.BWIdx, len(chip.CPUFreqs), len(chip.MemBWs))
		}
	}
	if n := stuckWindow - 1; len(s.RecentY) > n || s.RecentYPos < 0 || s.RecentYPos >= n {
		return fmt.Errorf("core: restore %d stuck-window readings at position %d into a ring of %d",
			len(s.RecentY), s.RecentYPos, n)
	}
	if (s.Tracker != nil) != (c.tracker != nil) {
		return fmt.Errorf("core: restore phase-tracker state mismatch (snapshot %v, controller %v)",
			s.Tracker != nil, c.tracker != nil)
	}
	if t := s.Tracker; t != nil && (t.Current < 0 || (len(t.Phases) > 0 && t.Current >= len(t.Phases))) {
		return fmt.Errorf("core: restore tracker current %d out of %d phases", t.Current, len(t.Phases))
	}
	if err := c.kf.Restore(s.Kalman); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	c.st = s.controllerState
	if c.tracker != nil {
		c.tracker.st = *s.Tracker
	}
	return nil
}

var _ platform.Checkpointer = (*Controller)(nil)
