package monsoon

import "time"

// State is the monitor's whole state, held by the monitor itself and
// carried by its checkpoint. Restoring it mid-session (Running true)
// continues the integration exactly where the original left off —
// unlike Start, which resets the accumulators.
type State struct {
	SampleHz float64 `json:"sample_hz"`
	// Current sample state.
	LastPowerW float64       `json:"last_power_w"`
	EnergyJ    float64       `json:"energy_j"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	Samples    int           `json:"samples"`
	SumPower   float64       `json:"sum_power"`
	MaxPower   float64       `json:"max_power"`
	Running    bool          `json:"running"`
}

// State captures the monitor for a checkpoint.
func (m *Monitor) State() State { return m.st }

// Restore overwrites the monitor with a previously captured State,
// including the running flag — a restored session must not call Start
// (which would zero the accumulators).
func (m *Monitor) Restore(s State) { m.st = s }
