// Package monsoon emulates the Monsoon power monitor the paper uses to
// measure whole-device power: a battery-terminal sampler at 5 kHz whose
// trace is integrated into energy (paper §IV-A).
//
// The simulator publishes instantaneous device power once per simulation
// step; the monitor resamples that at its own frequency and accumulates
// energy with rectangle integration, exactly as the host-side Monsoon
// software does.
package monsoon

import (
	"fmt"
	"time"

	"aspeo/internal/fpacc"
)

// Monitor integrates a power signal over time.
type Monitor struct {
	sampleHz float64
	// Current sample state.
	lastPowerW float64
	energyJ    float64
	elapsed    time.Duration
	samples    int
	sumPower   float64
	maxPower   float64
	running    bool
}

// New creates a monitor with the given sampling frequency. The real
// instrument runs at 5000 Hz.
func New(sampleHz float64) (*Monitor, error) {
	if sampleHz <= 0 {
		return nil, fmt.Errorf("monsoon: sample rate %v Hz invalid", sampleHz)
	}
	return &Monitor{sampleHz: sampleHz}, nil
}

// Default returns the 5 kHz instrument used in the paper.
func Default() *Monitor {
	m, err := New(5000)
	if err != nil {
		panic(err)
	}
	return m
}

// Start begins a measurement session, resetting accumulated state.
func (m *Monitor) Start() {
	m.energyJ, m.elapsed, m.samples, m.sumPower, m.maxPower = 0, 0, 0, 0, 0
	m.running = true
}

// Running reports whether a session is active.
func (m *Monitor) Running() bool { return m.running }

// Observe feeds the instantaneous device power for the next dt of
// simulated time. The monitor internally resamples at its configured
// frequency; with a constant power over dt the result is exact.
func (m *Monitor) Observe(powerW float64, dt time.Duration) {
	if !m.running || dt <= 0 {
		return
	}
	sec := dt.Seconds()
	n := int(sec*m.sampleHz + 0.5)
	if n < 1 {
		n = 1
	}
	m.lastPowerW = powerW
	m.energyJ += powerW * sec
	m.elapsed += dt
	m.samples += n
	m.sumPower += powerW * float64(n)
	if powerW > m.maxPower {
		m.maxPower = powerW
	}
}

// ObserveSpan feeds n consecutive constant-power observations of dt
// each. It produces bit-identical accumulator state to n sequential
// Observe(powerW, dt) calls, but in time logarithmic in n (fpacc.AddK
// fast-forwards the two sequential float sums — floating-point addition
// is not associative — while the integer counters batch exactly). The
// simulation engine uses it to integrate power over a whole quiescent
// interval in one call.
func (m *Monitor) ObserveSpan(powerW float64, dt time.Duration, n int) {
	if !m.running || dt <= 0 || n <= 0 {
		return
	}
	sec := dt.Seconds()
	k := int(sec*m.sampleHz + 0.5)
	if k < 1 {
		k = 1
	}
	m.lastPowerW = powerW
	m.energyJ = fpacc.AddK(m.energyJ, powerW*sec, n)
	m.sumPower = fpacc.AddK(m.sumPower, powerW*float64(k), n)
	m.elapsed += time.Duration(n) * dt
	m.samples += n * k
	if powerW > m.maxPower {
		m.maxPower = powerW
	}
}

// Stop ends the session.
func (m *Monitor) Stop() { m.running = false }

// EnergyJ returns accumulated energy in joules.
func (m *Monitor) EnergyJ() float64 { return m.energyJ }

// AveragePowerW returns the session's average power.
func (m *Monitor) AveragePowerW() float64 {
	if m.samples == 0 {
		return 0
	}
	return m.sumPower / float64(m.samples)
}

// PeakPowerW returns the maximum instantaneous power observed.
func (m *Monitor) PeakPowerW() float64 { return m.maxPower }

// LastPowerW returns the most recent instantaneous power.
func (m *Monitor) LastPowerW() float64 { return m.lastPowerW }

// Elapsed returns the measured session duration.
func (m *Monitor) Elapsed() time.Duration { return m.elapsed }

// Samples returns how many ADC samples the session represents.
func (m *Monitor) Samples() int { return m.samples }
