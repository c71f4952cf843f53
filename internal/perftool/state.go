package perftool

import (
	"encoding/json"
	"fmt"
	"time"

	"aspeo/internal/platform"
	"aspeo/internal/pmu"
)

// perfState is the reader's dynamic state besides the PMU baseline and
// the reading ring, whose live layouts differ from their stored ones.
// The reader holds it and its checkpoint carries it.
type perfState struct {
	PrevAt      time.Duration `json:"prev_at_ns"`
	Initialized bool          `json:"initialized"`
	Last        Reading       `json:"last"`
	HistPos     int           `json:"hist_pos"`
	HistN       int           `json:"hist_n"`
	Seq         int           `json:"seq"`
	Attached    bool          `json:"attached"`
	Dropped     int           `json:"dropped"` // readings the fault hook discarded
}

// state is the JSON shape of a checkpointed perf reader: its dynamic
// state, the sampling period it was built with, the noise rng as its
// (seed, draws) stream position, the PMU baseline as its three counter
// values, and the reading ring verbatim so MeanOver sees the identical
// trailing window after a restore.
type state struct {
	Period     time.Duration `json:"period_ns"`
	RNGSeed    int64         `json:"rng_seed"`
	RNGDraws   uint64        `json:"rng_draws"`
	PrevInstr  float64       `json:"prev_instr"`
	PrevCycles float64       `json:"prev_cycles"`
	PrevBus    float64       `json:"prev_bus"`
	History    []Reading     `json:"history"`
	perfState
}

// CheckpointState implements platform.Checkpointer.
func (p *Perf) CheckpointState() (json.RawMessage, error) {
	s := state{Period: p.period, History: p.history[:], perfState: p.st}
	s.RNGSeed, s.RNGDraws = p.rngSrc.State()
	s.PrevInstr, s.PrevCycles, s.PrevBus = p.prev.Values()
	return json.Marshal(s)
}

// RestoreState implements platform.Checkpointer. The fault hook is a
// live wiring concern (re-installed by session construction), not
// state, and is left untouched.
func (p *Perf) RestoreState(raw json.RawMessage, _ platform.Device) error {
	var s state
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("perftool: %w", err)
	}
	if s.Period != p.period {
		return fmt.Errorf("perftool: restore period %v into reader at %v", s.Period, p.period)
	}
	if len(s.History) != historyLen {
		return fmt.Errorf("perftool: restore history of %d readings, ring holds %d", len(s.History), historyLen)
	}
	if s.HistPos < 0 || s.HistPos >= historyLen || s.HistN < 0 || s.HistN > historyLen {
		return fmt.Errorf("perftool: restore ring cursor %d/%d out of range", s.HistPos, s.HistN)
	}
	if err := p.rngSrc.Restore(s.RNGSeed, s.RNGDraws); err != nil {
		return fmt.Errorf("perftool: %w", err)
	}
	p.prev = pmu.SnapshotAt(s.PrevInstr, s.PrevCycles, s.PrevBus)
	copy(p.history[:], s.History)
	p.st = s.perfState
	return nil
}
