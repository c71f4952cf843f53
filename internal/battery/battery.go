// Package battery models the phone's Li-ion cell — the resource the
// paper's energy optimization ultimately protects ("energy consumption
// is strongly correlated with battery life", §I).
//
// The model is a capacity bucket with a state-of-charge-dependent
// open-circuit voltage and an internal series resistance: at higher draw
// the terminal voltage sags, the same device power costs more charge,
// and the effective capacity shrinks — which is why minimizing *energy*
// (not just power) extends runtime disproportionately.
package battery

import (
	"fmt"
	"math"
	"time"
)

// Params describe a cell. The default matches the Nexus 6's 3220 mAh
// pack.
type Params struct {
	CapacitymAh  float64
	NominalV     float64 // voltage at ~50% state of charge
	FullV        float64 // open-circuit voltage at 100%
	EmptyV       float64 // cutoff voltage at 0%
	InternalOhm  float64 // series resistance
	CoulombicEff float64 // charge efficiency (discharge side ~1.0)
}

// Nexus6Pack returns the stock battery parameters.
func Nexus6Pack() Params {
	return Params{
		CapacitymAh:  3220,
		NominalV:     3.8,
		FullV:        4.3,
		EmptyV:       3.3,
		InternalOhm:  0.12,
		CoulombicEff: 1.0,
	}
}

// Validate checks physical plausibility.
func (p Params) Validate() error {
	if p.CapacitymAh <= 0 {
		return fmt.Errorf("battery: capacity %v mAh invalid", p.CapacitymAh)
	}
	if !(p.EmptyV < p.NominalV && p.NominalV < p.FullV) {
		return fmt.Errorf("battery: voltage ordering invalid (%v < %v < %v)",
			p.EmptyV, p.NominalV, p.FullV)
	}
	if p.InternalOhm < 0 || p.CoulombicEff <= 0 || p.CoulombicEff > 1 {
		return fmt.Errorf("battery: resistance/efficiency invalid")
	}
	return nil
}

// Cell is a discharging battery.
type Cell struct {
	p         Params
	chargeC   float64 // remaining charge in coulombs
	fullC     float64
	drainedJ  float64
	elapsed   time.Duration
	exhausted bool
}

// New creates a fully charged cell.
func New(p Params) (*Cell, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	full := p.CapacitymAh / 1000 * 3600 // mAh → coulombs
	return &Cell{p: p, chargeC: full, fullC: full}, nil
}

// MustNew is New but panics on invalid parameters.
func MustNew(p Params) *Cell {
	c, err := New(p)
	if err != nil {
		panic(err)
	}
	return c
}

// SOC returns the state of charge in [0,1].
func (c *Cell) SOC() float64 { return c.chargeC / c.fullC }

// Exhausted reports whether the cell hit the cutoff.
func (c *Cell) Exhausted() bool { return c.exhausted }

// DrainedJ returns the total energy delivered so far.
func (c *Cell) DrainedJ() float64 { return c.drainedJ }

// Elapsed returns the discharge time simulated so far.
func (c *Cell) Elapsed() time.Duration { return c.elapsed }

// OCV returns the open-circuit voltage at the current state of charge: a
// piecewise curve with the Li-ion plateau around the middle.
func (c *Cell) OCV() float64 {
	soc := c.SOC()
	switch {
	case soc >= 0.9:
		// Steep top segment.
		return c.p.NominalV + 0.1 + (c.p.FullV-c.p.NominalV-0.1)*(soc-0.9)/0.1
	case soc >= 0.2:
		// Plateau: nominal ± 0.1 V across the middle.
		return c.p.NominalV - 0.1 + 0.2*(soc-0.2)/0.7
	default:
		// Knee towards cutoff.
		return c.p.EmptyV + (c.p.NominalV-0.1-c.p.EmptyV)*soc/0.2
	}
}

// Drain removes the charge needed to deliver powerW of device power for
// dt: the current solves P = (V_oc − I·R)·I, so higher draws cost
// disproportionate charge through the I²R loss. It returns the terminal
// voltage, or marks the cell exhausted when the charge or the terminal
// voltage runs out.
func (c *Cell) Drain(powerW float64, dt time.Duration) (terminalV float64) {
	if c.exhausted || powerW <= 0 || dt <= 0 {
		return c.OCV()
	}
	voc := c.OCV()
	// I = (Voc - sqrt(Voc² - 4·R·P)) / (2R); fall back to P/Voc when
	// the discriminant goes negative (draw beyond deliverable power).
	disc := voc*voc - 4*c.p.InternalOhm*powerW
	var current float64
	if c.p.InternalOhm == 0 || disc <= 0 {
		current = powerW / voc
	} else {
		current = (voc - math.Sqrt(disc)) / (2 * c.p.InternalOhm)
	}
	terminalV = voc - current*c.p.InternalOhm
	if terminalV <= c.p.EmptyV {
		c.exhausted = true
		return terminalV
	}
	c.chargeC -= current * dt.Seconds() / c.p.CoulombicEff
	c.drainedJ += powerW * dt.Seconds()
	c.elapsed += dt
	if c.chargeC <= 0 {
		c.chargeC = 0
		c.exhausted = true
	}
	return terminalV
}

// LifeEstimate returns how long a constant device draw of powerW would
// run a fresh cell, integrating the discharge curve at the given step.
func LifeEstimate(p Params, powerW float64, step time.Duration) (time.Duration, error) {
	if powerW <= 0 {
		return 0, fmt.Errorf("battery: non-positive power %v", powerW)
	}
	if step <= 0 {
		step = time.Second
	}
	c, err := New(p)
	if err != nil {
		return 0, err
	}
	const maxLife = 14 * 24 * time.Hour
	for !c.Exhausted() && c.Elapsed() < maxLife {
		c.Drain(powerW, step)
	}
	return c.Elapsed(), nil
}

// LifeExtensionPct returns the battery-life improvement of running at
// ctlPowerW instead of defPowerW, in percent.
func LifeExtensionPct(p Params, defPowerW, ctlPowerW float64) (float64, error) {
	defLife, err := LifeEstimate(p, defPowerW, 10*time.Second)
	if err != nil {
		return 0, err
	}
	ctlLife, err := LifeEstimate(p, ctlPowerW, 10*time.Second)
	if err != nil {
		return 0, err
	}
	if defLife == 0 {
		return 0, fmt.Errorf("battery: zero default life")
	}
	return 100 * (ctlLife.Seconds() - defLife.Seconds()) / defLife.Seconds(), nil
}
