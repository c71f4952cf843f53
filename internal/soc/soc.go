// Package soc describes the system-on-chip hardware that the simulator,
// the stock governors and the energy controller all operate on.
//
// The default model is the Qualcomm Snapdragon 805 found in the Nexus 6
// used by the paper: a quad-core Krait 450 CPU with 18 DVFS operating
// points and a memory bus with 13 selectable bandwidths (paper Table II).
// The package is parametric, so any other ladder can be described.
package soc

import (
	"fmt"
	"strconv"
)

// Freq is a CPU clock frequency in GHz.
type Freq float64

// GHz returns the frequency in GHz as a plain float64.
func (f Freq) GHz() float64 { return float64(f) }

// Hz returns the frequency in cycles per second.
func (f Freq) Hz() float64 { return float64(f) * 1e9 }

// KHz returns the frequency as the integer kHz the cpufreq files carry,
// rounded to the nearest kHz.
func (f Freq) KHz() int { return int(float64(f)*1e6 + 0.5) }

// FreqFromKHz converts a cpufreq kHz value to a frequency.
func FreqFromKHz(khz int) Freq { return Freq(float64(khz) / 1e6) }

// String formats the frequency the way the paper's tables do.
func (f Freq) String() string { return fmt.Sprintf("%.4fGHz", float64(f)) }

// Bandwidth is a memory-bus bandwidth in MBps (as exposed by devfreq).
type Bandwidth float64

// MBps returns the bandwidth in megabytes per second.
func (b Bandwidth) MBps() float64 { return float64(b) }

// BytesPerSec returns the bandwidth in bytes per second.
func (b Bandwidth) BytesPerSec() float64 { return float64(b) * 1e6 }

// String formats the bandwidth the way the paper's tables do.
func (b Bandwidth) String() string { return fmt.Sprintf("%.0fMBps", float64(b)) }

// LadderText formats both ladders the way the cpufreq and devfreq files
// carry them — frequencies as Freq.KHz, bandwidths as whole MBps — into
// one buffer. freqList and bwList are the ladders as
// scaling_available_frequencies and available_frequencies list them,
// every step's value followed by one space; freqs[i] and bws[i] are
// step i's value alone, substrings of the lists. The whole text costs
// two allocations.
func (s *SoC) LadderText() (freqList, bwList string, freqs, bws []string) {
	var stack [256]byte // the Nexus 6's text is 205 bytes; a longer one grows on the heap
	buf := stack[:0]
	for i := range s.CPUFreqs {
		buf = append(strconv.AppendInt(buf, int64(s.Freq(i).KHz()), 10), ' ')
	}
	cut := len(buf)
	for i := range s.MemBWs {
		buf = append(strconv.AppendInt(buf, int64(int(s.BW(i).MBps())), 10), ' ')
	}
	text := string(buf)
	vals := make([]string, 0, len(s.CPUFreqs)+len(s.MemBWs))
	for start, i := 0, 0; i < len(text); i++ {
		if text[i] == ' ' {
			vals = append(vals, text[start:i])
			start = i + 1
		}
	}
	nf := len(s.CPUFreqs)
	return text[:cut], text[cut:], vals[:nf:nf], vals[nf:]
}

// Config identifies one system configuration: a (CPU frequency, memory
// bandwidth) index pair into an SoC's ladders. This is the unit the
// controller schedules and the profiler measures.
type Config struct {
	FreqIdx int // index into SoC.CPUFreqs (0-based)
	BWIdx   int // index into SoC.MemBWs (0-based)
}

// String renders the configuration as the paper does, e.g. "(0.3000GHz, 762MBps)".
func (c Config) String() string {
	return fmt.Sprintf("(f%d, bw%d)", c.FreqIdx+1, c.BWIdx+1)
}

// OPP is one CPU operating performance point: a frequency and the supply
// voltage the voltage regulator applies at that frequency.
type OPP struct {
	Freq    Freq
	Voltage float64 // volts
}

// SoC is a static description of the chip: its DVFS ladders. It
// carries no runtime state; see internal/sim for the dynamic device.
type SoC struct {
	Name     string
	NumCores int

	// CPUFreqs is the ascending ladder of CPU operating points.
	CPUFreqs []OPP

	// MemBWs is the ascending ladder of memory-bus bandwidths.
	MemBWs []Bandwidth
}

// NumConfigs returns the size of the full configuration space.
func (s *SoC) NumConfigs() int { return len(s.CPUFreqs) * len(s.MemBWs) }

// Freq returns the frequency at ladder index i (0-based).
func (s *SoC) Freq(i int) Freq { return s.CPUFreqs[i].Freq }

// Voltage returns the supply voltage at ladder index i (0-based).
func (s *SoC) Voltage(i int) float64 { return s.CPUFreqs[i].Voltage }

// BW returns the bandwidth at ladder index i (0-based).
func (s *SoC) BW(i int) Bandwidth { return s.MemBWs[i] }

// MinConfig returns the lowest system configuration (lowest CPU frequency
// and lowest memory bandwidth), which defines base speed in the paper.
func (s *SoC) MinConfig() Config { return Config{0, 0} }

// MaxConfig returns the highest system configuration.
func (s *SoC) MaxConfig() Config {
	return Config{len(s.CPUFreqs) - 1, len(s.MemBWs) - 1}
}

// ClampFreqIdx clamps i into the valid frequency index range.
func (s *SoC) ClampFreqIdx(i int) int {
	if i < 0 {
		return 0
	}
	if i >= len(s.CPUFreqs) {
		return len(s.CPUFreqs) - 1
	}
	return i
}

// ClampBWIdx clamps i into the valid bandwidth index range.
func (s *SoC) ClampBWIdx(i int) int {
	if i < 0 {
		return 0
	}
	if i >= len(s.MemBWs) {
		return len(s.MemBWs) - 1
	}
	return i
}

// NearestFreqIdx returns the index of the lowest ladder frequency that is
// >= f, or the highest index if f exceeds the ladder. This mirrors how
// cpufreq resolves a userspace setspeed request (CPUFREQ_RELATION_L).
func (s *SoC) NearestFreqIdx(f Freq) int {
	for i, opp := range s.CPUFreqs {
		if opp.Freq >= f {
			return i
		}
	}
	return len(s.CPUFreqs) - 1
}

// NearestBWIdx returns the index of the lowest ladder bandwidth >= b, or
// the highest index if b exceeds the ladder.
func (s *SoC) NearestBWIdx(b Bandwidth) int {
	for i, bw := range s.MemBWs {
		if bw >= b {
			return i
		}
	}
	return len(s.MemBWs) - 1
}

// Validate checks structural invariants: non-empty strictly ascending
// ladders and a positive core count.
func (s *SoC) Validate() error {
	if s.NumCores <= 0 {
		return fmt.Errorf("soc %q: NumCores must be positive, got %d", s.Name, s.NumCores)
	}
	if len(s.CPUFreqs) == 0 {
		return fmt.Errorf("soc %q: empty CPU frequency ladder", s.Name)
	}
	if len(s.MemBWs) == 0 {
		return fmt.Errorf("soc %q: empty memory bandwidth ladder", s.Name)
	}
	for i := 1; i < len(s.CPUFreqs); i++ {
		if s.CPUFreqs[i].Freq <= s.CPUFreqs[i-1].Freq {
			return fmt.Errorf("soc %q: CPU frequencies not strictly ascending at index %d", s.Name, i)
		}
		if s.CPUFreqs[i].Voltage < s.CPUFreqs[i-1].Voltage {
			return fmt.Errorf("soc %q: voltage not monotone at index %d", s.Name, i)
		}
	}
	for i := 1; i < len(s.MemBWs); i++ {
		if s.MemBWs[i] <= s.MemBWs[i-1] {
			return fmt.Errorf("soc %q: bandwidths not strictly ascending at index %d", s.Name, i)
		}
	}
	return nil
}

// nexus6Freqs is the exact 18-step CPU frequency ladder of the Snapdragon
// 805 (paper Table II), in GHz.
var nexus6Freqs = []Freq{
	0.3000, 0.4224, 0.6528, 0.7296, 0.8832, 0.9600,
	1.0368, 1.1904, 1.2672, 1.4976, 1.5744, 1.7280,
	1.9584, 2.2656, 2.4576, 2.4960, 2.5728, 2.6496,
}

// nexus6BWs is the exact 13-step memory bandwidth ladder of the Snapdragon
// 805 (paper Table II), in MBps.
var nexus6BWs = []Bandwidth{
	762, 1144, 1525, 2288, 3051, 3952, 4684, 5996, 7019, 8056, 10101, 12145, 16250,
}

// krait450Voltage models the Krait 450 voltage/frequency curve. The exact
// PMIC tables are not public; we use a monotone affine fit from ~0.80 V at
// 300 MHz to ~1.15 V at 2.65 GHz, which is in the range reported for
// 28 nm HPm silicon.
func krait450Voltage(f Freq) float64 {
	return 0.76 + 0.147*f.GHz()
}

// Nexus6 returns the SoC description of the paper's experimental platform.
// The frequency and bandwidth ladders are bit-identical to paper Table II.
func Nexus6() *SoC {
	opps := make([]OPP, len(nexus6Freqs))
	for i, f := range nexus6Freqs {
		opps[i] = OPP{Freq: f, Voltage: krait450Voltage(f)}
	}
	bws := make([]Bandwidth, len(nexus6BWs))
	copy(bws, nexus6BWs)
	return &SoC{
		Name:     "snapdragon805-nexus6",
		NumCores: 4,
		CPUFreqs: opps,
		MemBWs:   bws,
	}
}
