package governor

import (
	"fmt"
	"strconv"
	"time"

	"aspeo/internal/platform"
	"aspeo/internal/soc"
	"aspeo/internal/sysfs"
)

// The real interactive governor exposes its tunables as sysfs files under
// /sys/devices/system/cpu/cpufreq/interactive/ — the exact knobs device
// vendors ship tuned and the paper's experiments inherit. This file wires
// the same protocol onto the simulated phone: the files are created when
// the governor first runs, validated on write, and re-read every timer
// tick, so experiments can retune the default governor exactly the way a
// kernel engineer would (`echo 1190400 > hispeed_freq`).
const (
	InteractiveDir       = "/sys/devices/system/cpu/cpufreq/interactive"
	TunableHispeedFreq   = InteractiveDir + "/hispeed_freq"        // kHz
	TunableGoHispeedLoad = InteractiveDir + "/go_hispeed_load"     // percent
	TunableAboveHispeed  = InteractiveDir + "/above_hispeed_delay" // usec
	TunableMinSampleTime = InteractiveDir + "/min_sample_time"     // usec
	TunableTargetLoads   = InteractiveDir + "/target_loads"        // percent
	TunableInputBoostMS  = InteractiveDir + "/input_boost_ms"      // msec
)

// publishTunables creates the sysfs files from the current tunables.
func (g *interactive) publishTunables(dev platform.Device) {
	if dev.FileExists(TunableHispeedFreq) {
		return
	}
	khz := dev.SoC().Freq(g.tun.HispeedFreqIdx).KHz()
	entries := map[string]string{
		TunableHispeedFreq:   strconv.Itoa(khz),
		TunableGoHispeedLoad: strconv.Itoa(int(g.tun.GoHispeedLoad*100 + 0.5)),
		TunableAboveHispeed:  strconv.Itoa(int(g.tun.AboveHispeedWait / time.Microsecond)),
		TunableMinSampleTime: strconv.Itoa(int(g.tun.MinSampleTime / time.Microsecond)),
		TunableTargetLoads:   strconv.Itoa(int(g.tun.TargetLoad*100 + 0.5)),
		TunableInputBoostMS:  strconv.Itoa(int(g.tun.InputBoost / time.Millisecond)),
	}
	for path, val := range entries {
		dev.CreateFile(path, val, true, requirePositiveInt)
	}
}

// requirePositiveInt rejects writes that are not positive integers, like
// the kernel's store() callbacks returning -EINVAL.
func requirePositiveInt(path, _, val string) error {
	n, err := strconv.Atoi(val)
	if err != nil {
		return fmt.Errorf("%w: %q", sysfs.ErrInvalid, val)
	}
	if n <= 0 {
		return fmt.Errorf("%w: %d must be positive", sysfs.ErrInvalid, n)
	}
	return nil
}

// loadTunables refreshes the in-memory tunables from sysfs, so userspace
// writes take effect at the next evaluation.
func (g *interactive) loadTunables(dev platform.Device) {
	if v, ok := readInt(dev, TunableHispeedFreq); ok {
		g.tun.HispeedFreqIdx = dev.SoC().NearestFreqIdx(soc.FreqFromKHz(v))
	}
	if v, ok := readInt(dev, TunableGoHispeedLoad); ok {
		g.tun.GoHispeedLoad = float64(v) / 100
	}
	if v, ok := readInt(dev, TunableAboveHispeed); ok {
		g.tun.AboveHispeedWait = time.Duration(v) * time.Microsecond
	}
	if v, ok := readInt(dev, TunableMinSampleTime); ok {
		g.tun.MinSampleTime = time.Duration(v) * time.Microsecond
	}
	if v, ok := readInt(dev, TunableTargetLoads); ok {
		g.tun.TargetLoad = float64(v) / 100
	}
	if v, ok := readInt(dev, TunableInputBoostMS); ok {
		g.tun.InputBoost = time.Duration(v) * time.Millisecond
	}
}

func readInt(dev platform.SysfsView, path string) (int, bool) {
	s, err := dev.ReadFile(path)
	if err != nil {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, false
	}
	return n, true
}
