package governor

import (
	"encoding/json"
	"fmt"
	"time"

	"aspeo/internal/platform"
)

// Checkpoint states for the policy engines. Each engine holds its
// evaluation state in one of the structs below, and its checkpoint
// carries that struct. Tunables live either in the constructor
// (restored cells are rebuilt with the same tunables) or in sysfs
// (covered by the sysfs value snapshot). The interactive governor is
// special: its sysfs tunable files are created at its first tick, so
// RestoreState republishes them before the checkpointed sysfs values
// are applied.

type interactiveState struct {
	LastBusy    float64       `json:"last_busy"`
	LastTime    time.Duration `json:"last_time_ns"`
	FloorUntil  time.Duration `json:"floor_until_ns"`  // no down-steps before this
	BoostUntil  time.Duration `json:"boost_until_ns"`  // input boost active until this
	HispeedTime time.Duration `json:"hispeed_time_ns"` // when we arrived at/above hispeed
	Initialized bool          `json:"initialized"`
}

// sampledState serves both sampled governors, ondemand and
// conservative.
type sampledState struct {
	LastBusy    float64       `json:"last_busy"`
	LastTime    time.Duration `json:"last_time_ns"`
	NextSample  time.Duration `json:"next_sample_ns"`
	Initialized bool          `json:"initialized"`
}

type hwmonState struct {
	LastBytes   float64       `json:"last_bytes"`
	LastTime    time.Duration `json:"last_time_ns"`
	LowSince    time.Duration `json:"low_since_ns"`
	Initialized bool          `json:"initialized"`
}

type cpufreqState struct {
	Interactive  interactiveState `json:"interactive"`
	Ondemand     sampledState     `json:"ondemand"`
	Conservative sampledState     `json:"conservative"`
}

// CheckpointState implements platform.Checkpointer.
func (c *CPUFreq) CheckpointState() (json.RawMessage, error) {
	return json.Marshal(cpufreqState{
		Interactive:  c.interactive.st,
		Ondemand:     c.ondemand.st,
		Conservative: c.conservative.st,
	})
}

// RestoreState implements platform.Checkpointer. When the interactive
// governor had already initialized, its sysfs tunable files are
// recreated (with their write-validation hooks) so the subsequent sysfs
// value restore can land the checkpointed tunable values on them.
func (c *CPUFreq) RestoreState(raw json.RawMessage, dev platform.Device) error {
	var s cpufreqState
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("governor: cpufreq: %w", err)
	}
	c.interactive.st = s.Interactive
	c.ondemand.st = s.Ondemand
	c.conservative.st = s.Conservative
	if s.Interactive.Initialized && dev != nil {
		c.interactive.publishTunables(dev)
	}
	return nil
}

// CheckpointState implements platform.Checkpointer.
func (d *DevFreq) CheckpointState() (json.RawMessage, error) {
	return json.Marshal(d.hwmon.st)
}

// RestoreState implements platform.Checkpointer.
func (d *DevFreq) RestoreState(raw json.RawMessage, _ platform.Device) error {
	var s hwmonState
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("governor: devfreq: %w", err)
	}
	d.hwmon.st = s
	return nil
}
