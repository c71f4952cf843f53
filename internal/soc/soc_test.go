package soc

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestNexus6MatchesTableII(t *testing.T) {
	n6 := Nexus6()
	if err := n6.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(n6.CPUFreqs); got != 18 {
		t.Fatalf("CPU ladder has %d steps, want 18", got)
	}
	if got := len(n6.MemBWs); got != 13 {
		t.Fatalf("BW ladder has %d steps, want 13", got)
	}
	if n6.NumCores != 4 {
		t.Fatalf("NumCores = %d, want 4 (quad-core Krait 450)", n6.NumCores)
	}
	// Spot-check the exact Table II anchors the paper's text cites.
	anchors := map[int]Freq{0: 0.3000, 4: 0.8832, 9: 1.4976, 12: 1.9584, 17: 2.6496}
	for idx, want := range anchors {
		if got := n6.Freq(idx); math.Abs(got.GHz()-want.GHz()) > 1e-9 {
			t.Errorf("freq[%d] = %v, want %v", idx, got, want)
		}
	}
	bwAnchors := map[int]Bandwidth{0: 762, 2: 1525, 4: 3051, 12: 16250}
	for idx, want := range bwAnchors {
		if got := n6.BW(idx); got != want {
			t.Errorf("bw[%d] = %v, want %v", idx, got, want)
		}
	}
	if got := n6.NumConfigs(); got != 234 {
		t.Fatalf("NumConfigs = %d, want 18*13 = 234", got)
	}
}

func TestNexus6IsFreshCopy(t *testing.T) {
	a, b := Nexus6(), Nexus6()
	a.CPUFreqs[0].Freq = 99
	a.MemBWs[0] = 99
	if b.CPUFreqs[0].Freq == 99 || b.MemBWs[0] == 99 {
		t.Fatal("Nexus6() instances share ladder storage")
	}
}

func TestMinMaxConfig(t *testing.T) {
	n6 := Nexus6()
	if got := n6.MinConfig(); got != (Config{0, 0}) {
		t.Fatalf("MinConfig = %v", got)
	}
	if got := n6.MaxConfig(); got != (Config{17, 12}) {
		t.Fatalf("MaxConfig = %v", got)
	}
}

func TestClamping(t *testing.T) {
	n6 := Nexus6()
	if got := n6.ClampFreqIdx(-3); got != 0 {
		t.Fatalf("ClampFreqIdx(-3) = %d", got)
	}
	if got := n6.ClampFreqIdx(99); got != 17 {
		t.Fatalf("ClampFreqIdx(99) = %d", got)
	}
	if got := n6.ClampBWIdx(7); got != 7 {
		t.Fatalf("ClampBWIdx(7) = %d", got)
	}
	if got := n6.ClampBWIdx(50); got != 12 {
		t.Fatalf("ClampBWIdx(50) = %d", got)
	}
}

func TestNearestFreqIdx(t *testing.T) {
	n6 := Nexus6()
	cases := []struct {
		f    Freq
		want int
	}{
		{0.1, 0},     // below ladder → lowest
		{0.3, 0},     // exact
		{0.31, 1},    // rounds up (CPUFREQ_RELATION_L)
		{1.4976, 9},  // exact mid
		{2.6496, 17}, // exact top
		{9.9, 17},    // above ladder → highest
	}
	for _, c := range cases {
		if got := n6.NearestFreqIdx(c.f); got != c.want {
			t.Errorf("NearestFreqIdx(%v) = %d, want %d", c.f, got, c.want)
		}
	}
}

// Every ladder step survives the cpufreq kHz encoding: KHz rounds to
// the integer the files carry, and FreqFromKHz maps it back to the same
// step.
func TestKHzRoundTrip(t *testing.T) {
	n6 := Nexus6()
	if got := n6.Freq(0).KHz(); got != 300000 {
		t.Errorf("Freq(0).KHz() = %d, want 300000", got)
	}
	if got := n6.Freq(17).KHz(); got != 2649600 {
		t.Errorf("Freq(17).KHz() = %d, want 2649600", got)
	}
	for i := range n6.CPUFreqs {
		khz := n6.Freq(i).KHz()
		if got := n6.NearestFreqIdx(FreqFromKHz(khz)); got != i {
			t.Errorf("step %d: %d kHz maps back to step %d", i, khz, got)
		}
	}
}

// LadderText's values are the kHz and MBps integers of every step,
// each list is its values each followed by one space, and the whole
// text costs two allocations.
func TestLadderText(t *testing.T) {
	n6 := Nexus6()
	freqList, bwList, freqs, bws := n6.LadderText()
	if len(freqs) != len(n6.CPUFreqs) || len(bws) != len(n6.MemBWs) {
		t.Fatalf("%d and %d values for ladders of %d and %d", len(freqs), len(bws), len(n6.CPUFreqs), len(n6.MemBWs))
	}
	for i, v := range freqs {
		if want := strconv.Itoa(n6.Freq(i).KHz()); v != want {
			t.Errorf("freqs[%d] = %q, want %q", i, v, want)
		}
	}
	for i, v := range bws {
		if want := strconv.Itoa(int(n6.BW(i).MBps())); v != want {
			t.Errorf("bws[%d] = %q, want %q", i, v, want)
		}
	}
	if want := strings.Join(freqs, " ") + " "; freqList != want {
		t.Errorf("freqList = %q, want %q", freqList, want)
	}
	if want := strings.Join(bws, " ") + " "; bwList != want {
		t.Errorf("bwList = %q, want %q", bwList, want)
	}
	if allocs := testing.AllocsPerRun(20, func() { n6.LadderText() }); allocs > 2 {
		t.Errorf("LadderText makes %.0f allocations, want at most 2", allocs)
	}
}

func TestNearestBWIdx(t *testing.T) {
	n6 := Nexus6()
	cases := []struct {
		b    Bandwidth
		want int
	}{
		{100, 0}, {762, 0}, {763, 1}, {16250, 12}, {99999, 12},
	}
	for _, c := range cases {
		if got := n6.NearestBWIdx(c.b); got != c.want {
			t.Errorf("NearestBWIdx(%v) = %d, want %d", c.b, got, c.want)
		}
	}
}

func TestVoltageMonotone(t *testing.T) {
	n6 := Nexus6()
	for i := 1; i < len(n6.CPUFreqs); i++ {
		if n6.Voltage(i) < n6.Voltage(i-1) {
			t.Fatalf("voltage not monotone at %d", i)
		}
	}
	if v := n6.Voltage(0); v < 0.6 || v > 0.85 {
		t.Fatalf("lowest voltage %v outside plausible Krait range", v)
	}
	if v := n6.Voltage(17); v < 1.0 || v > 1.25 {
		t.Fatalf("highest voltage %v outside plausible Krait range", v)
	}
}

func TestValidateCatchesBadLadders(t *testing.T) {
	bad := Nexus6()
	bad.CPUFreqs[3].Freq = bad.CPUFreqs[2].Freq // not ascending
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for non-ascending freqs")
	}
	bad = Nexus6()
	bad.MemBWs[5] = bad.MemBWs[4]
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for non-ascending bandwidths")
	}
	bad = Nexus6()
	bad.NumCores = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero cores")
	}
	bad = Nexus6()
	bad.CPUFreqs = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for empty ladder")
	}
}

// Property: NearestFreqIdx always returns the least index whose frequency
// is >= the request (or the top of the ladder).
func TestNearestFreqIdxProperty(t *testing.T) {
	n6 := Nexus6()
	f := func(raw float64) bool {
		q := Freq(math.Abs(math.Mod(raw, 3.0)))
		i := n6.NearestFreqIdx(q)
		if n6.CPUFreqs[i].Freq < q && i != len(n6.CPUFreqs)-1 {
			return false
		}
		if i > 0 && n6.CPUFreqs[i-1].Freq >= q {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStringFormats(t *testing.T) {
	if got := Freq(1.4976).String(); got != "1.4976GHz" {
		t.Fatalf("Freq.String = %q", got)
	}
	if got := Bandwidth(762).String(); got != "762MBps" {
		t.Fatalf("Bandwidth.String = %q", got)
	}
	if got := (Config{4, 0}).String(); got != "(f5, bw1)" {
		t.Fatalf("Config.String = %q", got)
	}
	if got := Freq(2.6496).Hz(); got != 2.6496e9 {
		t.Fatalf("Hz = %v", got)
	}
	if got := Bandwidth(762).BytesPerSec(); got != 762e6 {
		t.Fatalf("BytesPerSec = %v", got)
	}
}
