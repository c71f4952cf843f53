package fault

import (
	"encoding/json"
	"fmt"
	"time"

	"aspeo/internal/platform"
)

// injectorState is the injector's dynamic state: the scenario clock,
// the per-hijack fire schedule, the stuck-read memory and the
// delivered-fault tallies. The injector holds it and its checkpoint
// carries it.
type injectorState struct {
	Now      time.Duration   `json:"now_ns"`
	NextFire []time.Duration `json:"next_fire_ns"` // per hijack; <0 when exhausted
	LastGIPS float64         `json:"last_gips"`
	HaveLast bool            `json:"have_last"`
	Counts   Counts          `json:"counts"`
}

// state is the JSON shape of a checkpointed injector: its dynamic state
// plus the rng stream position. The plan itself is not serialized — a
// restored cell is rebuilt from the same immutable Plan — but its
// hijack count is recorded so a mismatched plan fails loudly.
type state struct {
	Hijacks  int    `json:"hijacks"`
	RNGSeed  int64  `json:"rng_seed"`
	RNGDraws uint64 `json:"rng_draws"`
	injectorState
}

// CheckpointState implements platform.Checkpointer.
func (in *Injector) CheckpointState() (json.RawMessage, error) {
	seed, draws := in.rngSrc.State()
	return json.Marshal(state{Hijacks: len(in.plan.Hijacks), RNGSeed: seed, RNGDraws: draws, injectorState: in.st})
}

// RestoreState implements platform.Checkpointer.
func (in *Injector) RestoreState(raw json.RawMessage, _ platform.Device) error {
	var s state
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("fault: %w", err)
	}
	if s.Hijacks != len(in.plan.Hijacks) || len(s.NextFire) != len(in.plan.Hijacks) {
		return fmt.Errorf("fault: restore state for %d hijacks into plan with %d", s.Hijacks, len(in.plan.Hijacks))
	}
	if err := in.rngSrc.Restore(s.RNGSeed, s.RNGDraws); err != nil {
		return fmt.Errorf("fault: %w", err)
	}
	in.st = s.injectorState
	return nil
}
