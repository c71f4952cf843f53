// Package governor re-implements the stock Android/Linux DVFS governors
// that the paper compares against: the cpufreq governors `interactive`
// (the Android default), `ondemand`, `performance`, `powersave` and
// `userspace`, and the devfreq bandwidth governor `cpubw_hwmon` with its
// exponential back-off (paper §II-A, §V-A).
//
// Each governor is implemented from its documented algorithm and runs
// against the simulated phone through the same observation surface the
// kernel uses (busy-time counters, memory traffic counters, input
// events), while dispatch follows the sysfs `scaling_governor` /
// `governor` files so experiments can switch policies exactly as the
// paper does.
package governor

import (
	"time"

	"aspeo/internal/platform"
	"aspeo/internal/soc"
	"aspeo/internal/sysfs"
)

// InteractiveTunables are the interactive governor's knobs, named after
// the sysfs tunables of the real driver.
type InteractiveTunables struct {
	GoHispeedLoad    float64       // load that triggers the hispeed jump
	HispeedFreqIdx   int           // ladder index of hispeed_freq
	AboveHispeedWait time.Duration // dwell before climbing past hispeed
	MinSampleTime    time.Duration // dwell before any down-step
	TargetLoad       float64       // steady-state load the governor aims at
	InputBoost       time.Duration // floor at hispeed after a touch event
}

// DefaultInteractive returns tunables matching the Nexus 6 shipping
// configuration: hispeed_freq is ladder step 10 (1.4976 GHz) — the very
// frequency the paper finds the default governor parked at for
// 12.7–27.9% of every app's runtime.
func DefaultInteractive() InteractiveTunables {
	return InteractiveTunables{
		GoHispeedLoad:    0.85,
		HispeedFreqIdx:   9,
		AboveHispeedWait: 80 * time.Millisecond,
		MinSampleTime:    150 * time.Millisecond,
		TargetLoad:       0.85,
		InputBoost:       200 * time.Millisecond,
	}
}

// interactive is the per-policy state of the interactive algorithm.
type interactive struct {
	tun InteractiveTunables
	st  interactiveState // the dynamic state a checkpoint carries (state.go)
}

func newInteractive(tun InteractiveTunables) *interactive {
	return &interactive{tun: tun}
}

// tick runs one evaluation of the interactive algorithm.
func (g *interactive) tick(now time.Duration, dev platform.Device) {
	busy := dev.CumMachineBusySec()
	if !g.st.Initialized {
		g.st.Initialized = true
		g.st.LastBusy, g.st.LastTime = busy, now
		g.publishTunables(dev)
		return
	}
	g.loadTunables(dev)
	elapsed := (now - g.st.LastTime).Seconds()
	if elapsed <= 0 {
		return
	}
	load := (busy - g.st.LastBusy) / elapsed
	g.st.LastBusy, g.st.LastTime = busy, now
	if load < 0 {
		load = 0
	}
	if load > 1 {
		load = 1
	}

	if dev.TakeTouches() > 0 {
		g.st.BoostUntil = now + g.tun.InputBoost
	}

	cur := dev.CurFreqIdx()
	s := dev.SoC()
	maxIdx := len(s.CPUFreqs) - 1

	// Frequency that would put the load at TargetLoad.
	curGHz := s.Freq(cur).GHz()
	wantGHz := curGHz * load / g.tun.TargetLoad
	target := s.NearestFreqIdx(freqFromGHz(wantGHz))

	// Hispeed jump: heavy load below hispeed jumps straight there.
	if load >= g.tun.GoHispeedLoad && cur < g.tun.HispeedFreqIdx {
		target = g.tun.HispeedFreqIdx
	}
	// Climbing past hispeed is gated: each further step up waits out
	// above_hispeed_delay, so the governor walks the upper ladder a
	// couple of steps at a time rather than leaping to the maximum.
	// This staircase is what populates the mid-frequency buckets of the
	// paper's Figure 4 histograms.
	if target > g.tun.HispeedFreqIdx && cur >= g.tun.HispeedFreqIdx {
		if now-g.st.HispeedTime < g.tun.AboveHispeedWait {
			target = cur
		} else if target > cur+2 {
			target = cur + 2
		}
	}
	if target > maxIdx {
		target = maxIdx
	}

	// Input boost floors the frequency at hispeed.
	if now < g.st.BoostUntil && target < g.tun.HispeedFreqIdx {
		target = g.tun.HispeedFreqIdx
	}

	switch {
	case target > cur:
		dev.SetFreqIdx(target)
		g.st.FloorUntil = now + g.tun.MinSampleTime
		if target >= g.tun.HispeedFreqIdx {
			g.st.HispeedTime = now
		}
	case target < cur:
		// Down-steps wait out min_sample_time (the floor timer).
		if now >= g.st.FloorUntil {
			dev.SetFreqIdx(target)
			g.st.FloorUntil = now + g.tun.MinSampleTime
		}
	}
}

// OndemandTunables configure the ondemand governor.
type OndemandTunables struct {
	SamplingRate time.Duration
	UpThreshold  float64 // load that jumps to max frequency
	DownFactor   float64 // proportional scaling target when below threshold
}

// DefaultOndemand mirrors the classic kernel defaults (sampling tuned to
// the simulator's 20 ms governor clock).
func DefaultOndemand() OndemandTunables {
	return OndemandTunables{
		SamplingRate: 60 * time.Millisecond,
		UpThreshold:  0.90,
		DownFactor:   0.80,
	}
}

type ondemand struct {
	tun OndemandTunables
	st  sampledState // the dynamic state a checkpoint carries (state.go)
}

func newOndemand(tun OndemandTunables) *ondemand {
	return &ondemand{tun: tun}
}

func (g *ondemand) tick(now time.Duration, dev platform.Device) {
	if now < g.st.NextSample {
		return
	}
	g.st.NextSample = now + g.tun.SamplingRate
	busy := dev.CumMachineBusySec()
	if !g.st.Initialized {
		g.st.Initialized = true
		g.st.LastBusy, g.st.LastTime = busy, now
		return
	}
	elapsed := (now - g.st.LastTime).Seconds()
	if elapsed <= 0 {
		return
	}
	load := (busy - g.st.LastBusy) / elapsed
	g.st.LastBusy, g.st.LastTime = busy, now

	s := dev.SoC()
	if load >= g.tun.UpThreshold {
		// Ondemand's signature move: straight to the maximum.
		dev.SetFreqIdx(len(s.CPUFreqs) - 1)
		return
	}
	cur := dev.CurFreqIdx()
	wantGHz := s.Freq(cur).GHz() * load / g.tun.DownFactor
	dev.SetFreqIdx(s.NearestFreqIdx(freqFromGHz(wantGHz)))
}

// CPUFreq is the cpufreq policy engine: it dispatches to whichever
// governor the sysfs scaling_governor file names, mirroring how the
// kernel switches policies.
type CPUFreq struct {
	interactive  *interactive
	ondemand     *ondemand
	conservative *conservative
	period       time.Duration
}

// CPUFreqPolicies lists the governor names the policy engine dispatches
// to — the valid values of a baseline run's scaling_governor. userspace
// is deliberately absent: it is a policy vacuum on its own (frequency
// then comes only from setspeed writes), so selecting it as a baseline
// is almost always a flag typo, and callers validating user input should
// reject it alongside unknown names.
func CPUFreqPolicies() []string {
	return []string{
		platform.GovInteractive, platform.GovOndemand, platform.GovConservative,
		platform.GovPerformance, platform.GovPowersave,
	}
}

// NewCPUFreq builds the policy engine with default tunables.
func NewCPUFreq() *CPUFreq {
	return &CPUFreq{
		interactive:  newInteractive(DefaultInteractive()),
		ondemand:     newOndemand(DefaultOndemand()),
		conservative: newConservative(DefaultConservative()),
		period:       20 * time.Millisecond,
	}
}

// Name implements platform.Actor.
func (c *CPUFreq) Name() string { return "cpufreq" }

// Period implements platform.Actor.
func (c *CPUFreq) Period() time.Duration { return c.period }

// Tick dispatches to the active governor.
func (c *CPUFreq) Tick(now time.Duration, dev platform.Device) {
	gov, err := dev.ReadFile(sysfs.CPUScalingGovernor)
	if err != nil {
		return
	}
	switch gov {
	case platform.GovInteractive:
		c.interactive.tick(now, dev)
	case platform.GovOndemand:
		c.ondemand.tick(now, dev)
	case platform.GovConservative:
		c.conservative.tick(now, dev)
	case platform.GovPerformance:
		dev.SetFreqIdx(len(dev.SoC().CPUFreqs) - 1)
	case platform.GovPowersave:
		dev.SetFreqIdx(0)
	case platform.GovUserspace:
		// The userspace governor does nothing on its own; frequency
		// comes from scaling_setspeed writes.
	}
}

// freqFromGHz converts a GHz value to the soc.Freq the ladder lookup
// expects.
func freqFromGHz(g float64) soc.Freq { return soc.Freq(g) }
