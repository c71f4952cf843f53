package power

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"aspeo/internal/soc"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	p := Default()
	p.CeffWPerGHzV2 = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero Ceff should be invalid")
	}
	p = Default()
	p.RestW = math.NaN()
	if err := p.Validate(); err == nil {
		t.Fatal("NaN should be invalid")
	}
	p = Default()
	p.BusWPerMBps = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative coefficient should be invalid")
	}
	// Two invalid fields: the error names the one declared first, on
	// every call.
	p = Default()
	p.StallPowerFactor, p.RestW = -1, -1
	for i := 0; i < 20; i++ {
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "StallPowerFactor") {
			t.Fatalf("call %d: %v, want the error to name StallPowerFactor", i, err)
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	p := Default()
	p.CeffWPerGHzV2 = -1
	if _, err := New(p); err == nil {
		t.Fatal("expected error")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := Default()
	p.CeffWPerGHzV2 = 0
	MustNew(p)
}

func TestBreakdownTotalSums(t *testing.T) {
	b := Breakdown{CPUDynamic: 1, CPULeak: 2, Bus: 3, DRAM: 4, Screen: 5,
		WiFi: 6, Rest: 7, Aux: 8, Overlay: 9}
	if got := b.Total(); got != 45 {
		t.Fatalf("Total = %v, want 45", got)
	}
}

func TestScreenWiFiGating(t *testing.T) {
	m := MustNew(Default())
	in := Input{FreqGHz: 1, Voltage: 1, CoresOnline: 4}
	off := m.Compute(in)
	if off.Screen != 0 || off.WiFi != 0 {
		t.Fatalf("screen/wifi should be zero when off: %+v", off)
	}
	in.ScreenOn, in.WiFiOn = true, true
	on := m.Compute(in)
	if on.Screen != Default().ScreenW {
		t.Fatalf("Screen = %v", on.Screen)
	}
	if on.WiFi != Default().WiFiIdleW {
		t.Fatalf("WiFi = %v", on.WiFi)
	}
}

func TestMonotoneInFrequency(t *testing.T) {
	m := MustNew(Default())
	n6 := soc.Nexus6()
	prev := -1.0
	for i := range n6.CPUFreqs {
		in := Input{
			FreqGHz: n6.Freq(i).GHz(), Voltage: n6.Voltage(i),
			ActiveCoreSec: 1.5, CoresOnline: 4, BWMBps: 762,
			ScreenOn: true, WiFiOn: true,
		}
		tot := m.Compute(in).Total()
		if tot <= prev {
			t.Fatalf("power not increasing at freq index %d: %v <= %v", i, tot, prev)
		}
		prev = tot
	}
}

func TestMonotoneInBandwidth(t *testing.T) {
	m := MustNew(Default())
	n6 := soc.Nexus6()
	prev := -1.0
	for i := range n6.MemBWs {
		in := Input{FreqGHz: 0.3, Voltage: 0.701, ActiveCoreSec: 1,
			CoresOnline: 4, BWMBps: n6.BW(i).MBps(), ScreenOn: true}
		tot := m.Compute(in).Total()
		if tot <= prev {
			t.Fatalf("power not increasing at bw index %d", i)
		}
		prev = tot
	}
}

// Calibration: the Table I anchor points. An AngryBirds-like operating
// point must land near the paper's measured device power.
func TestTableICalibration(t *testing.T) {
	m := MustNew(Default())
	n6 := soc.Nexus6()

	// Row 1: (0.3 GHz, 762 MBps) → 1623.57 mW. Game capacity-bound,
	// ~1.5 busy core-seconds, nearly all computing at this low clock.
	base := m.Compute(Input{
		FreqGHz: 0.3, Voltage: n6.Voltage(0),
		ActiveCoreSec: 1.45, StalledCoreSec: 0.05,
		CoresOnline: 4, BWMBps: 762, TrafficBps: 0.39e9,
		ScreenOn: true, WiFiOn: true, AuxW: 0.16,
	}).Total()
	if math.Abs(base-1.624) > 0.20 {
		t.Fatalf("base config power = %.3f W, want 1.624 ± 0.20", base)
	}

	// Row 31: (0.8832 GHz, 762 MBps) → 2219.22 mW. Now memory-bound:
	// cores stall on the unchanged bus while the game renders ~1.8×
	// more frames (higher aux/GPU power, more traffic).
	f5 := m.Compute(Input{
		FreqGHz: 0.8832, Voltage: n6.Voltage(4),
		ActiveCoreSec: 0.90, StalledCoreSec: 0.60,
		CoresOnline: 4, BWMBps: 762, TrafficBps: 0.72e9,
		ScreenOn: true, WiFiOn: true, AuxW: 0.30,
	}).Total()
	if math.Abs(f5-2.219) > 0.28 {
		t.Fatalf("freq-5 config power = %.3f W, want 2.219 ± 0.28", f5)
	}
	if f5 <= base {
		t.Fatal("higher frequency must cost more power")
	}
}

// The provisioned-bandwidth slope must match Table I rows 1→3:
// ~52 µW per MBps.
func TestBandwidthSlopeMatchesTableI(t *testing.T) {
	m := MustNew(Default())
	in := Input{FreqGHz: 0.3, Voltage: 0.701, ActiveCoreSec: 1.5, CoresOnline: 4}
	in.BWMBps = 762
	p1 := m.Compute(in).Total()
	in.BWMBps = 3051
	p3 := m.Compute(in).Total()
	slope := (p3 - p1) / (3051 - 762) * 1e6 // µW per MBps
	if math.Abs(slope-52) > 5 {
		t.Fatalf("bandwidth slope = %.1f µW/MBps, want ~52", slope)
	}
}

// Property: power is linear in overlay and aux terms.
func TestOverlayAdditiveProperty(t *testing.T) {
	m := MustNew(Default())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := Input{
			FreqGHz: 0.3 + rng.Float64()*2.3, Voltage: 0.7 + rng.Float64()*0.4,
			ActiveCoreSec: rng.Float64() * 4, StalledCoreSec: rng.Float64() * 2,
			CoresOnline: 4, BWMBps: 762 + rng.Float64()*15000,
			TrafficBps: rng.Float64() * 2e9, ScreenOn: true, WiFiOn: true,
		}
		base := m.Compute(in).Total()
		extra := rng.Float64()
		in.OverlayW = extra
		withOverlay := m.Compute(in).Total()
		return math.Abs(withOverlay-base-extra) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: stalled cores cost less than active cores.
func TestStallCheaperThanActiveProperty(t *testing.T) {
	m := MustNew(Default())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		coreSec := rng.Float64() * 4
		in := Input{FreqGHz: 1.5, Voltage: 0.9, CoresOnline: 4}
		in.ActiveCoreSec, in.StalledCoreSec = coreSec, 0
		allActive := m.Compute(in).Total()
		in.ActiveCoreSec, in.StalledCoreSec = 0, coreSec
		allStalled := m.Compute(in).Total()
		return allStalled <= allActive+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
