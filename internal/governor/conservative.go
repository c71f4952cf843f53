package governor

import (
	"time"

	"aspeo/internal/platform"
)

// ConservativeTunables configure the conservative cpufreq governor — the
// classic kernel policy that steps the frequency gradually instead of
// jumping, designed for battery-sensitive devices.
type ConservativeTunables struct {
	SamplingRate  time.Duration
	UpThreshold   float64 // load above which the frequency steps up
	DownThreshold float64 // load below which the frequency steps down
	FreqStep      int     // ladder steps per adjustment
}

// DefaultConservative mirrors the kernel defaults (up 80 / down 20,
// 5%-of-range steps ≈ one ladder rung on an 18-step ladder).
func DefaultConservative() ConservativeTunables {
	return ConservativeTunables{
		SamplingRate:  60 * time.Millisecond,
		UpThreshold:   0.80,
		DownThreshold: 0.20,
		FreqStep:      1,
	}
}

type conservative struct {
	tun ConservativeTunables
	st  sampledState // the dynamic state a checkpoint carries (state.go)
}

func newConservative(tun ConservativeTunables) *conservative {
	return &conservative{tun: tun}
}

func (g *conservative) tick(now time.Duration, dev platform.Device) {
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

	cur := dev.CurFreqIdx()
	switch {
	case load >= g.tun.UpThreshold:
		dev.SetFreqIdx(cur + g.tun.FreqStep)
	case load <= g.tun.DownThreshold:
		dev.SetFreqIdx(cur - g.tun.FreqStep)
	}
}
