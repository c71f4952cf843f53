package kalman

import "math"

// State is the filter's whole state, held by the filter itself and
// carried by its checkpoint. All fields are plain float64/bool/int
// values that round-trip exactly through encoding/json (Go emits
// shortest-round-trip decimal for floats), so a restored filter
// continues bit-identically.
type State struct {
	Q           float64 `json:"q"` // process noise variance
	R           float64 `json:"r"` // measurement noise variance
	X           float64 `json:"x"` // state estimate
	P           float64 `json:"p"` // estimate variance
	Initialized bool    `json:"initialized"`
	Steps       int     `json:"steps"`
	LastGain    float64 `json:"last_gain"`
}

// State captures the filter for a checkpoint.
func (f *Filter) State() State { return f.st }

// Restore overwrites the filter with a previously captured State.
func (f *Filter) Restore(s State) error {
	if !(s.Q > 0) || !(s.R > 0) || math.IsInf(s.Q, 0) || math.IsInf(s.R, 0) {
		return ErrBadVariance
	}
	f.st = s
	return nil
}
