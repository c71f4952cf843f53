package governor

import (
	"time"

	"aspeo/internal/platform"
	"aspeo/internal/soc"
	"aspeo/internal/sysfs"
)

// HwmonTunables configure the cpubw_hwmon bandwidth governor.
type HwmonTunables struct {
	SamplingRate time.Duration
	// EventInflation models the gap between the L2 read/write events
	// the hardware monitor counts and actual DRAM bytes: prefetches,
	// write allocations and full-line transfers make the monitor see
	// substantially more than the useful traffic. This inflation is
	// exactly why the paper finds the default picks "higher-than-
	// necessary bandwidth for over 60% of the application runtime".
	EventInflation float64
	// IOPercent is the utilization target: provision so the measured
	// traffic is IOPercent of the vote.
	IOPercent float64
	// DecayHold is how long measured demand must sit low before any
	// down-step.
	DecayHold time.Duration
	// DecayFactor is the multiplicative down-step (exponential
	// back-off, §V-A: "implements an exponential back-off algorithm
	// while reducing the bandwidth").
	DecayFactor float64
}

// DefaultHwmon returns tunables shaped after the msm_bw_hwmon defaults.
func DefaultHwmon() HwmonTunables {
	return HwmonTunables{
		SamplingRate:   50 * time.Millisecond,
		EventInflation: 3.0,
		IOPercent:      0.80,
		DecayHold:      2 * time.Second,
		DecayFactor:    0.90,
	}
}

type hwmon struct {
	tun HwmonTunables
	st  hwmonState // the dynamic state a checkpoint carries (state.go)
}

func newHwmon(tun HwmonTunables) *hwmon {
	return &hwmon{tun: tun}
}

func (g *hwmon) tick(now time.Duration, dev platform.Device) {
	bytes := dev.CumTrafficBytes()
	if !g.st.Initialized {
		g.st.Initialized = true
		g.st.LastBytes, g.st.LastTime = bytes, now
		g.st.LowSince = now
		return
	}
	elapsed := (now - g.st.LastTime).Seconds()
	if elapsed <= 0 {
		return
	}
	measuredMBps := (bytes - g.st.LastBytes) / elapsed / 1e6 * g.tun.EventInflation
	g.st.LastBytes, g.st.LastTime = bytes, now

	s := dev.SoC()
	cur := s.BW(dev.CurBWIdx()).MBps()
	needed := measuredMBps / g.tun.IOPercent

	if needed > cur {
		// Ramp up immediately to fit the demand.
		dev.SetBWIdx(s.NearestBWIdx(soc.Bandwidth(needed)))
		g.st.LowSince = now
		return
	}
	if needed > cur*g.tun.IOPercent {
		// Within the utilization band: hold.
		g.st.LowSince = now
		return
	}
	// Demand is low; back off exponentially after the hold period. The
	// decayed vote rounds *down* the ladder (a decay that rounded up
	// would wedge at rungs spaced wider than the decay factor), but
	// never below what the measured demand needs.
	if now-g.st.LowSince >= g.tun.DecayHold {
		idx := floorBWIdx(s, cur*g.tun.DecayFactor)
		if min := s.NearestBWIdx(soc.Bandwidth(needed)); idx < min {
			idx = min
		}
		dev.SetBWIdx(idx)
		g.st.LowSince = now
	}
}

// floorBWIdx returns the highest ladder index whose bandwidth is <= b,
// or 0 when b is below the ladder.
func floorBWIdx(s *soc.SoC, b float64) int {
	idx := 0
	for i, bw := range s.MemBWs {
		if bw.MBps() <= b {
			idx = i
		}
	}
	return idx
}

// DevFreq is the devfreq policy engine for the memory bus, dispatching on
// the sysfs governor file.
type DevFreq struct {
	hwmon  *hwmon
	period time.Duration
}

// NewDevFreq builds the policy engine with default tunables.
func NewDevFreq() *DevFreq {
	return &DevFreq{hwmon: newHwmon(DefaultHwmon()), period: 50 * time.Millisecond}
}

// Name implements platform.Actor.
func (d *DevFreq) Name() string { return "devfreq" }

// Period implements platform.Actor.
func (d *DevFreq) Period() time.Duration { return d.period }

// Tick dispatches to the active governor.
func (d *DevFreq) Tick(now time.Duration, dev platform.Device) {
	gov, err := dev.ReadFile(sysfs.DevFreqGovernor)
	if err != nil {
		return
	}
	switch gov {
	case platform.GovCPUBWHwmon:
		d.hwmon.tick(now, dev)
	case platform.GovPerformance:
		dev.SetBWIdx(len(dev.SoC().MemBWs) - 1)
	case platform.GovPowersave:
		dev.SetBWIdx(0)
	case platform.GovUserspace:
		// Bandwidth comes from userspace/set_freq writes.
	}
}

// Defaults registers the Android default policy engines (interactive +
// cpubw_hwmon) on a runner. The governor actually applied still follows
// the sysfs governor files.
func Defaults(r platform.Runner) error {
	if err := r.Register(NewCPUFreq()); err != nil {
		return err
	}
	return r.Register(NewDevFreq())
}
