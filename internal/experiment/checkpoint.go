package experiment

import (
	"fmt"
	"time"

	"aspeo/internal/sim"
)

// Session checkpointing. A CellState is the complete dynamic state of a
// running session cell — engine cursor, actor schedule and state, and
// the full device snapshot — captured only at the engine's quiescent
// point (the checkpoint hook). The contract is bit-exactness: a session
// killed after a checkpoint and rebuilt from the same SessionSpec, then
// restored and resumed, produces byte-identical deterministic outputs
// (run summary JSON, allocation log) to one that ran uninterrupted.
//
// Cadence: in controller mode a checkpoint is captured at the first
// engine-loop boundary after every CheckpointEvery-th control cycle
// (the session's core.Options.OnCycle only raises a flag — nothing is
// snapshotted mid-tick). In governor
// mode there are no control cycles, so the session checkpoints on a
// simulated-time schedule of CheckpointEvery seconds (the perf tool's
// reporting period is 1 s, making the two cadences comparable).
//
// Checkpoint capture and delivery are observation only: a sink failure
// is counted and the run continues — losing durability must never kill
// an otherwise healthy session.

// CellState is one full session snapshot.
type CellState struct {
	// CyclesRun is the controller cycle count that triggered the capture
	// (0 for governor-mode time-scheduled checkpoints).
	CyclesRun int `json:"cycles_run"`
	// At is the simulated time of capture.
	At time.Duration `json:"at_ns"`
	// Cursor is the engine run in progress — window and Stats baselines.
	Cursor sim.RunCursor `json:"cursor"`
	// NextCheckpointAt is the governor-mode schedule position (0 in
	// controller mode, where cadence derives from the restored cycle
	// count).
	NextCheckpointAt time.Duration `json:"next_checkpoint_at_ns"`
	// Actors is the engine's actor set in registration order.
	Actors []sim.ActorState `json:"actors"`
	// Phone is the device snapshot.
	Phone sim.PhoneState `json:"phone"`
}

// CheckpointStats reports a session's checkpoint activity.
type CheckpointStats struct {
	// Captured counts successfully captured and delivered snapshots.
	Captured int
	// Failures counts capture or sink errors (the run continued).
	Failures int
	// LastErr is the most recent failure, "" if none.
	LastErr string
}

// CheckpointStats returns the session's checkpoint counters.
func (s *Session) CheckpointStats() CheckpointStats { return s.ckptStats }

// CaptureState snapshots the cell. Sessions normally checkpoint through
// the engine hook (SessionSpec.CheckpointEvery + OnCheckpoint); this is
// exported for harnesses that stop a run cooperatively and want a final
// snapshot at the stop boundary — the engine is quiescent there too.
func (s *Session) CaptureState(cyclesRun int) (*CellState, error) {
	eng := s.Harness.Engine
	actors, err := eng.CheckpointActors()
	if err != nil {
		return nil, err
	}
	phone, err := s.Harness.Phone.CheckpointState()
	if err != nil {
		return nil, err
	}
	return &CellState{
		CyclesRun:        cyclesRun,
		At:               s.Harness.Phone.Now(),
		Cursor:           eng.Cursor(),
		NextCheckpointAt: s.nextCkptAt,
		Actors:           actors,
		Phone:            phone,
	}, nil
}

// RestoreState restores a snapshot onto a freshly built session. The
// session must have been constructed from the same SessionSpec
// (identity checks live in the ckpt envelope layer). Order matters:
// actors first (they recreate runtime sysfs files — governor tunables —
// that the phone's sysfs value restore then fills), then the device,
// then the run cursor so Run resumes instead of starting over.
func (s *Session) RestoreState(cs *CellState) error {
	if cs == nil {
		return fmt.Errorf("experiment: restore nil cell state")
	}
	if err := s.Harness.Engine.RestoreActors(cs.Actors); err != nil {
		return err
	}
	if err := s.Harness.Phone.RestoreState(cs.Phone); err != nil {
		return err
	}
	s.cursor = cs.Cursor
	s.nextCkptAt = cs.NextCheckpointAt
	s.restored = true
	s.ckptPending = 0
	return nil
}

// Restored reports whether the session was restored from a checkpoint
// (its next Run resumes the captured run window).
func (s *Session) Restored() bool { return s.restored }

// pollCheckpoint is the engine checkpoint hook: it runs at every loop
// top and captures a snapshot when one is due — the controller raised
// the pending flag, or the governor-mode schedule expired. The schedule
// state is advanced BEFORE capture so the serialized snapshot carries
// the post-capture schedule and a restored session does not immediately
// re-checkpoint.
func (s *Session) pollCheckpoint() {
	var cycle int
	switch {
	case s.ckptPending > 0:
		cycle = s.ckptPending
		s.ckptPending = 0
	case s.nextCkptAt > 0 && s.Harness.Phone.Now() >= s.nextCkptAt:
		s.nextCkptAt += time.Duration(s.Spec.CheckpointEvery) * time.Second
	default:
		return
	}
	cs, err := s.CaptureState(cycle)
	if err == nil {
		err = s.onCheckpoint(cs)
	}
	if err != nil {
		s.ckptStats.Failures++
		s.ckptStats.LastErr = err.Error()
		return
	}
	s.ckptStats.Captured++
}
