package workload

import (
	"fmt"
	"time"
)

// taskState is a running task's dynamic state: the Task holds it and
// its checkpoint carries it.
type taskState struct {
	Now          time.Duration `json:"now_ns"`
	PhaseIdx     int           `json:"phase_idx"`
	PhaseElapsed time.Duration `json:"phase_elapsed_ns"`
	PhaseExec    float64       `json:"phase_exec"` // instructions retired in the current phase
	TotalExec    float64       `json:"total_exec"`
	LoopsDone    int           `json:"loops_done"`
	Done         bool          `json:"done"`
	JitterMul    float64       `json:"jitter_mul"`
	JitterUntil  time.Duration `json:"jitter_until_ns"`
	Backlog      float64       `json:"backlog"` // unmet paced instructions carried over
	Dropped      float64       `json:"dropped"` // paced instructions dropped at backlog overflow
}

// TaskState is a checkpointable snapshot of a running Task: its dynamic
// state plus the spec it runs and its rng, captured as the (seed,
// draws) stream position — see internal/detrand — so jitter
// multipliers and touch-event Poisson draws continue on the identical
// stream after a restore.
type TaskState struct {
	Spec     string `json:"spec"`
	RNGSeed  int64  `json:"rng_seed"`
	RNGDraws uint64 `json:"rng_draws"`
	taskState
}

// State captures the task for a checkpoint.
func (t *Task) State() TaskState {
	seed, draws := t.rngSrc.State()
	return TaskState{Spec: t.Spec.Name, RNGSeed: seed, RNGDraws: draws, taskState: t.st}
}

// Restore overwrites the task with a previously captured State. The
// task must have been built from the same Spec the state was captured
// from.
func (t *Task) Restore(s TaskState) error {
	if s.Spec != t.Spec.Name {
		return fmt.Errorf("workload: restoring %q state into task for %q", s.Spec, t.Spec.Name)
	}
	if s.PhaseIdx < 0 || s.PhaseIdx >= len(t.Spec.Phases) {
		return fmt.Errorf("workload %s: restore phase index %d out of %d", t.Spec.Name, s.PhaseIdx, len(t.Spec.Phases))
	}
	if err := t.rngSrc.Restore(s.RNGSeed, s.RNGDraws); err != nil {
		return fmt.Errorf("workload %s: %w", t.Spec.Name, err)
	}
	t.st = s.taskState
	return nil
}
