package fleet

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"aspeo/internal/ckpt"
	"aspeo/internal/experiment"
)

// Crash-safe fleet: with Options.CheckpointDir set, every running
// session keeps its latest snapshot at <dir>/<id>.ckpt.json (one file
// per session, overwritten atomically — see internal/ckpt) and removes
// it when it lands in a terminal state. After a process crash, Restore
// scans the directory and resubmits every in-flight session under its
// original id, resuming from its snapshot; the restored session's
// deterministic outputs (summary JSON, allocation log) are
// byte-identical to what the uninterrupted run would have produced.

// checkpointKind names the fleet session payload in the ckpt envelope.
const checkpointKind = "aspeo/fleet-session"

// checkpointMeta identifies whose snapshot a checkpoint file holds.
// Attempt matters for restore correctness: attempt k runs at seed
// Seed + k·restartSeedStride, so the restored cell must be rebuilt
// under the same attempt ordinal to land in an identical cell.
type checkpointMeta struct {
	ID      string `json:"id"`
	Seq     uint64 `json:"seq"`
	Config  Config `json:"config"`
	Attempt int    `json:"attempt"`
}

func (m *Manager) checkpointPath(id string) string {
	return filepath.Join(m.opts.CheckpointDir, id+".ckpt.json")
}

// removeCheckpoint drops a terminal session's checkpoint (best effort —
// the file may never have been written).
func (m *Manager) removeCheckpoint(id string) {
	if m.opts.CheckpointDir == "" {
		return
	}
	_ = m.ckptFS.Remove(m.checkpointPath(id))
}

// Restore scans the checkpoint directory and resubmits every session
// checkpointed there, each resuming from its snapshot under its
// original id. Call it once, after NewManager and before opening
// intake. Unreadable or corrupt checkpoint files are skipped and
// reported in the joined error alongside the successfully restored
// views — a damaged file must not block the rest of the fleet from
// coming back.
func (m *Manager) Restore() ([]SessionView, error) {
	if m.opts.CheckpointDir == "" {
		return nil, fmt.Errorf("fleet: restore without a checkpoint directory")
	}
	names, err := m.ckptFS.ReadDir(m.opts.CheckpointDir)
	if err != nil {
		return nil, fmt.Errorf("fleet: restore: %w", err)
	}
	var views []SessionView
	var errs []error
	for _, name := range names {
		if !strings.HasSuffix(name, ".ckpt.json") {
			continue
		}
		path := filepath.Join(m.opts.CheckpointDir, name)
		var meta checkpointMeta
		cell := new(experiment.CellState)
		if err := ckpt.Load(m.ckptFS, path, checkpointKind, &meta, cell); err != nil {
			errs = append(errs, err)
			continue
		}
		v, err := m.resubmit(meta, cell)
		if err != nil {
			errs = append(errs, fmt.Errorf("fleet: restore %s: %w", meta.ID, err))
			continue
		}
		views = append(views, v)
	}
	return views, errors.Join(errs...)
}

// resubmit queues one restored session under its checkpointed identity.
func (m *Manager) resubmit(meta checkpointMeta, cell *experiment.CellState) (SessionView, error) {
	if m.draining.Load() {
		return SessionView{}, ErrDraining
	}
	if meta.ID == "" {
		return SessionView{}, fmt.Errorf("checkpoint has no session id")
	}
	cfg := meta.Config.normalized()
	if err := cfg.Validate(); err != nil {
		return SessionView{}, err
	}
	// Keep the ordinal source above every restored session so new
	// submissions never collide with restored ids.
	for {
		cur := m.seq.Load()
		if meta.Seq <= cur || m.seq.CompareAndSwap(cur, meta.Seq) {
			break
		}
	}
	return m.enqueue(&session{
		id:          meta.ID,
		seq:         meta.Seq,
		cfg:         cfg,
		resume:      cell,
		baseAttempt: meta.Attempt,
		restarts:    meta.Attempt,
	})
}

// ReadyProblems reports why the manager is not ready to serve: draining,
// or an unwritable checkpoint directory (durability would silently
// degrade). An empty slice means ready — the /readyz contract.
func (m *Manager) ReadyProblems() []string {
	var probs []string
	if m.Draining() {
		probs = append(probs, "draining")
	}
	if m.opts.CheckpointDir != "" {
		if err := ckpt.Probe(m.ckptFS, m.opts.CheckpointDir); err != nil {
			probs = append(probs, fmt.Sprintf("checkpoint dir not writable: %v", err))
		}
	}
	return probs
}
