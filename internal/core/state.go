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

type trackerState struct {
	Phases  []trackerPhase `json:"phases"`
	Current int            `json:"current"`
}

type trackerPhase struct {
	Centroid float64 `json:"centroid"`
	Visits   int     `json:"visits"`
	S        float64 `json:"s"`
	HasS     bool    `json:"has_s"`
}

type controllerState struct {
	CyclesRun int     `json:"cycles_run"`
	SPrev     float64 `json:"s_prev"`

	Slots     []profile.Entry    `json:"slots"`
	SlotIdx   int                `json:"slot_idx"`
	Attached  bool               `json:"attached"`
	LastAlloc Allocation         `json:"last_alloc"`
	AllocLog  []AllocationRecord `json:"alloc_log,omitempty"`

	Kalman  kalman.State  `json:"kalman"`
	Tracker *trackerState `json:"tracker,omitempty"`

	Health           platform.Health `json:"health"`
	RetriesLeft      int             `json:"retries_left"`
	CycleFailed      bool            `json:"cycle_failed"`
	Degraded         bool            `json:"degraded"`
	RecentY          []float64       `json:"recent_y"`
	RecentYPos       int             `json:"recent_y_pos"`
	OutlierRun       int             `json:"outlier_run"`
	StockCPUGov      string          `json:"stock_cpu_gov"`
	StockBWGov       string          `json:"stock_bw_gov"`
	InstalledMaxFreq string          `json:"installed_max_freq"`

	GateCause string `json:"gate_cause"`

	Cycles       int     `json:"cycles"`
	SumAbsErr    float64 `json:"sum_abs_err"`
	LastMeasured float64 `json:"last_measured"`
}

// CheckpointState implements platform.Checkpointer.
func (c *Controller) CheckpointState() (json.RawMessage, error) {
	s := controllerState{
		CyclesRun: c.cyclesRun,
		SPrev:     c.sPrev,

		Slots:     c.slots,
		SlotIdx:   c.slotIdx,
		Attached:  c.attached,
		LastAlloc: c.lastAlloc,
		AllocLog:  c.allocLog,

		Kalman: c.kf.State(),

		Health:           c.health,
		RetriesLeft:      c.retriesLeft,
		CycleFailed:      c.cycleFailed,
		Degraded:         c.degraded,
		RecentY:          c.recentY,
		RecentYPos:       c.recentYPos,
		OutlierRun:       c.outlierRun,
		StockCPUGov:      c.stockCPUGov,
		StockBWGov:       c.stockBWGov,
		InstalledMaxFreq: c.installedMaxFreq,

		GateCause: c.gateCause,

		Cycles:       c.cycles,
		SumAbsErr:    c.sumAbsErr,
		LastMeasured: c.lastMeasured,
	}
	if c.tracker != nil {
		ts := &trackerState{Current: c.tracker.current}
		for _, p := range c.tracker.phases {
			ts.Phases = append(ts.Phases, trackerPhase{
				Centroid: p.centroid, Visits: p.visits, S: p.s, HasS: p.hasS,
			})
		}
		s.Tracker = ts
	}
	return json.Marshal(s)
}

// RestoreState implements platform.Checkpointer. The controller must
// have been rebuilt (New + Install) from the same options the snapshot
// was taken under; only the dynamic state is overwritten here.
func (c *Controller) RestoreState(raw json.RawMessage, _ platform.Device) error {
	var s controllerState
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	if len(s.Slots) != len(c.slots) {
		return fmt.Errorf("core: restore %d slots into schedule of %d", len(s.Slots), len(c.slots))
	}
	if s.SlotIdx < 0 || s.SlotIdx >= len(c.slots) {
		return fmt.Errorf("core: restore slot index %d out of %d", s.SlotIdx, len(c.slots))
	}
	if (s.Tracker != nil) != (c.tracker != nil) {
		return fmt.Errorf("core: restore phase-tracker state mismatch (snapshot %v, controller %v)",
			s.Tracker != nil, c.tracker != nil)
	}
	if err := c.kf.Restore(s.Kalman); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}

	c.cyclesRun = s.CyclesRun
	c.sPrev = s.SPrev
	copy(c.slots, s.Slots)
	c.slotIdx = s.SlotIdx
	c.attached = s.Attached
	c.lastAlloc = s.LastAlloc
	c.allocLog = s.AllocLog

	if c.tracker != nil {
		c.tracker.phases = c.tracker.phases[:0]
		for _, p := range s.Tracker.Phases {
			c.tracker.phases = append(c.tracker.phases, phaseState{
				centroid: p.Centroid, visits: p.Visits, s: p.S, hasS: p.HasS,
			})
		}
		if s.Tracker.Current < 0 || (len(c.tracker.phases) > 0 && s.Tracker.Current >= len(c.tracker.phases)) {
			return fmt.Errorf("core: restore tracker current %d out of %d phases",
				s.Tracker.Current, len(c.tracker.phases))
		}
		c.tracker.current = s.Tracker.Current
	}

	c.health = s.Health
	c.retriesLeft = s.RetriesLeft
	c.cycleFailed = s.CycleFailed
	c.degraded = s.Degraded
	// recentY is a capacity-bounded ring; rebuild it at the restored
	// length so pushRecentY's append/rotate decisions replay exactly.
	c.recentY = append(c.recentY[:0], s.RecentY...)
	c.recentYPos = s.RecentYPos
	c.outlierRun = s.OutlierRun
	c.stockCPUGov = s.StockCPUGov
	c.stockBWGov = s.StockBWGov
	c.installedMaxFreq = s.InstalledMaxFreq

	c.gateCause = s.GateCause

	c.cycles = s.Cycles
	c.sumAbsErr = s.SumAbsErr
	c.lastMeasured = s.LastMeasured
	return nil
}

var _ platform.Checkpointer = (*Controller)(nil)
