// Package power models whole-device power of the simulated phone, the
// quantity the paper measures with a Monsoon power monitor at the battery
// terminals.
//
// The model is the usual CMOS decomposition plus fixed platform rails:
//
//	P = P_rest + P_screen + P_wifi
//	  + Σcores ( P_leak(V) + C_eff·f·V²·(active + σ·stalled) )
//	  + P_bus(bw) + e_DRAM·traffic + P_aux
//
// where `active` is core time spent retiring instructions, `stalled` is
// core time stalled on memory (a stalled core still clocks, hence the σ
// factor), P_bus is the memory-controller/bus rail which scales with the
// *provisioned* bandwidth (this is what makes cpubw_hwmon's over-
// provisioning expensive), e_DRAM charges actual traffic, and P_aux is a
// workload-coupled term (GPU render, hardware video decoder, camera,
// radio) supplied by the workload model.
//
// Coefficients are calibrated so an AngryBirds-like workload reproduces
// the neighbourhood of paper Table I: ≈1.62 W at (0.3 GHz, 762 MBps) and
// ≈2.22 W at (0.8832 GHz, 762 MBps), with ≈52 µW/MBps of provisioned
// bandwidth (the Table I rows 1→3 slope).
package power

import (
	"fmt"
	"math"
)

// Params are the model coefficients. Zero value is invalid; use Default.
type Params struct {
	// CeffWPerGHzV2 is effective switching capacitance: watts per
	// (GHz · V²) of one fully active core.
	CeffWPerGHzV2 float64
	// StallPowerFactor σ: fraction of active power a memory-stalled
	// core burns.
	StallPowerFactor float64
	// LeakWPerV2 is leakage per online core: watts per V².
	LeakWPerV2 float64
	// BusBaseW and BusWPerMBps model the provisioned-bandwidth rail.
	BusBaseW    float64
	BusWPerMBps float64
	// DRAMJPerByte is DRAM access energy per byte of actual traffic.
	DRAMJPerByte float64
	// ScreenW is the display at the fixed lowest brightness the paper
	// uses.
	ScreenW float64
	// WiFiIdleW is the connected-idle WiFi power; WiFiJPerByte charges
	// actual network traffic.
	WiFiIdleW    float64
	WiFiJPerByte float64
	// RestW covers PMIC, RAM refresh, sensor hub and other fixed rails.
	RestW float64
}

// Default returns the calibrated Nexus 6 coefficients.
func Default() Params {
	return Params{
		CeffWPerGHzV2:    0.50,
		StallPowerFactor: 0.60,
		LeakWPerV2:       0.080,
		BusBaseW:         0.030,
		BusWPerMBps:      52e-6,
		DRAMJPerByte:     1.0e-10,
		ScreenW:          0.450,
		WiFiIdleW:        0.050,
		WiFiJPerByte:     20e-9,
		RestW:            0.550,
	}
}

// Validate checks that all coefficients are finite and non-negative and
// the load-bearing ones are positive. It checks the fields in
// declaration order, so an error names the first invalid one.
func (p Params) Validate() error {
	fields := [...]struct {
		name string
		v    float64
	}{
		{"CeffWPerGHzV2", p.CeffWPerGHzV2}, {"StallPowerFactor", p.StallPowerFactor},
		{"LeakWPerV2", p.LeakWPerV2}, {"BusBaseW", p.BusBaseW},
		{"BusWPerMBps", p.BusWPerMBps}, {"DRAMJPerByte", p.DRAMJPerByte},
		{"ScreenW", p.ScreenW}, {"WiFiIdleW", p.WiFiIdleW},
		{"WiFiJPerByte", p.WiFiJPerByte}, {"RestW", p.RestW},
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("power: %s = %v invalid", f.name, f.v)
		}
	}
	if p.CeffWPerGHzV2 == 0 {
		return fmt.Errorf("power: CeffWPerGHzV2 must be positive")
	}
	return nil
}

// Input is an instantaneous operating point of the device.
type Input struct {
	FreqGHz float64 // current CPU clock
	Voltage float64 // current supply voltage
	// ActiveCoreSec and StalledCoreSec are core-seconds per second:
	// time cores spent computing vs. stalled on memory, summed over
	// cores (0..NumCores each).
	ActiveCoreSec  float64
	StalledCoreSec float64
	CoresOnline    int
	BWMBps         float64 // provisioned memory bandwidth
	TrafficBps     float64 // actual DRAM traffic, bytes/second
	ScreenOn       bool
	WiFiOn         bool
	WiFiBps        float64 // network traffic, bytes/second
	AuxW           float64 // workload-coupled components (GPU, codec, …)
	OverlayW       float64 // instrumentation/controller overheads
}

// Breakdown is per-component power in watts.
type Breakdown struct {
	CPUDynamic float64
	CPULeak    float64
	Bus        float64
	DRAM       float64
	Screen     float64
	WiFi       float64
	Rest       float64
	Aux        float64
	Overlay    float64
}

// Total sums all components.
func (b Breakdown) Total() float64 {
	return b.CPUDynamic + b.CPULeak + b.Bus + b.DRAM + b.Screen + b.WiFi +
		b.Rest + b.Aux + b.Overlay
}

// Model evaluates device power. It is a pure function of Params.
type Model struct {
	p Params
}

// New builds a Model, validating the parameters.
func New(p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Model{p: p}, nil
}

// MustNew is New but panics on invalid parameters.
func MustNew(p Params) *Model {
	m, err := New(p)
	if err != nil {
		panic(err)
	}
	return m
}

// Params returns the model coefficients.
func (m *Model) Params() Params { return m.p }

// Compute evaluates the power breakdown at the given operating point.
func (m *Model) Compute(in Input) Breakdown {
	v2 := in.Voltage * in.Voltage
	effCoreSec := in.ActiveCoreSec + m.p.StallPowerFactor*in.StalledCoreSec
	b := Breakdown{
		CPUDynamic: m.p.CeffWPerGHzV2 * in.FreqGHz * v2 * effCoreSec,
		CPULeak:    m.p.LeakWPerV2 * v2 * float64(in.CoresOnline),
		Bus:        m.p.BusBaseW + m.p.BusWPerMBps*in.BWMBps,
		DRAM:       m.p.DRAMJPerByte * in.TrafficBps,
		Rest:       m.p.RestW,
		Aux:        in.AuxW,
		Overlay:    in.OverlayW,
	}
	if in.ScreenOn {
		b.Screen = m.p.ScreenW
	}
	if in.WiFiOn {
		b.WiFi = m.p.WiFiIdleW + m.p.WiFiJPerByte*in.WiFiBps
	}
	return b
}
