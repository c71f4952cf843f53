package governor

import (
	"testing"
	"time"

	"aspeo/internal/perfmodel"
	"aspeo/internal/platform"
	"aspeo/internal/sim"
	"aspeo/internal/sysfs"
	"aspeo/internal/workload"
)

// heavySpec returns a capacity-hungry batch workload that drives load to 1.
func heavySpec() *workload.Spec {
	return &workload.Spec{
		Name: "heavy",
		Phases: []workload.Phase{{
			Name: "grind", Kind: workload.Batch,
			Traits:      perfmodel.Traits{CPI: 1.5, BPI: 0.3, Par: 2.5, Overlap: 0.1},
			InstrBudget: 1e15,
		}},
		RunFor: time.Hour,
	}
}

// idleSpec returns a near-idle paced workload.
func idleSpec() *workload.Spec {
	return &workload.Spec{
		Name: "idle",
		Phases: []workload.Phase{{
			Name: "tick", Kind: workload.Paced,
			Traits:   perfmodel.Traits{CPI: 2, BPI: 1, Par: 1, Overlap: 0.05},
			Duration: time.Hour, DemandGIPS: 0.01,
		}},
		Loop: true, RunFor: time.Hour,
	}
}

// burstySpec alternates idle with heavy demand bursts.
func burstySpec() *workload.Spec {
	return &workload.Spec{
		Name: "bursty",
		Phases: []workload.Phase{
			{
				Name: "calm", Kind: workload.Paced,
				Traits:   perfmodel.Traits{CPI: 2, BPI: 1, Par: 1, Overlap: 0.05},
				Duration: 2 * time.Second, DemandGIPS: 0.02,
			},
			{
				Name: "burst", Kind: workload.Paced,
				Traits:   perfmodel.Traits{CPI: 2, BPI: 1, Par: 2, Overlap: 0.05},
				Duration: time.Second, DemandGIPS: 1.2,
			},
		},
		Loop: true, RunFor: time.Hour,
	}
}

func newPhone(t *testing.T, spec *workload.Spec) (*sim.Phone, *sim.Engine) {
	t.Helper()
	ph, err := sim.NewPhone(sim.Config{
		Foreground: spec, Load: workload.NoLoad, Seed: 1, ScreenOn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ph, sim.NewEngine(ph)
}

func setGov(t *testing.T, ph *sim.Phone, cpuGov, bwGov string) {
	t.Helper()
	if err := ph.FS().Write(sysfs.CPUScalingGovernor, cpuGov); err != nil {
		t.Fatal(err)
	}
	if err := ph.FS().Write(sysfs.DevFreqGovernor, bwGov); err != nil {
		t.Fatal(err)
	}
}

func TestPerformanceGovernorPinsMax(t *testing.T) {
	ph, eng := newPhone(t, idleSpec())
	setGov(t, ph, platform.GovPerformance, platform.GovPerformance)
	Defaults(eng)
	eng.Run(time.Second, false)
	if got := ph.CurFreqIdx(); got != 17 {
		t.Fatalf("performance governor at freq idx %d, want 17", got)
	}
	if got := ph.CurBWIdx(); got != 12 {
		t.Fatalf("performance devfreq at bw idx %d, want 12", got)
	}
}

func TestPowersaveGovernorPinsMin(t *testing.T) {
	ph, eng := newPhone(t, heavySpec())
	setGov(t, ph, platform.GovPowersave, platform.GovPowersave)
	Defaults(eng)
	// Start high to prove it comes down.
	ph.SetFreqIdx(17)
	ph.SetBWIdx(12)
	eng.Run(time.Second, false)
	if got := ph.CurFreqIdx(); got != 0 {
		t.Fatalf("powersave at freq idx %d, want 0", got)
	}
	if got := ph.CurBWIdx(); got != 0 {
		t.Fatalf("powersave devfreq at bw idx %d, want 0", got)
	}
}

func TestUserspaceGovernorHoldsStill(t *testing.T) {
	ph, eng := newPhone(t, heavySpec())
	setGov(t, ph, platform.GovUserspace, platform.GovUserspace)
	Defaults(eng)
	ph.SetFreqIdx(7)
	ph.SetBWIdx(3)
	eng.Run(time.Second, false)
	if ph.CurFreqIdx() != 7 || ph.CurBWIdx() != 3 {
		t.Fatalf("userspace moved the config to (%d,%d)", ph.CurFreqIdx(), ph.CurBWIdx())
	}
}

func TestInteractiveRampsUpUnderLoad(t *testing.T) {
	ph, eng := newPhone(t, heavySpec())
	Defaults(eng) // interactive is the default
	eng.Run(3*time.Second, false)
	if got := ph.CurFreqIdx(); got < 15 {
		t.Fatalf("interactive under full load at freq idx %d, want near max", got)
	}
}

func TestInteractiveStaysLowWhenIdle(t *testing.T) {
	ph, eng := newPhone(t, idleSpec())
	Defaults(eng)
	ph.SetFreqIdx(17)
	eng.Run(3*time.Second, false)
	if got := ph.CurFreqIdx(); got > 2 {
		t.Fatalf("interactive on idle workload at freq idx %d, want near min", got)
	}
}

func TestInteractiveHispeedResidency(t *testing.T) {
	// The bursty workload must populate the hispeed bucket (index 9 =
	// 1.4976 GHz), the signature behaviour in the paper's Fig. 4.
	ph, eng := newPhone(t, burstySpec())
	Defaults(eng)
	eng.Run(30*time.Second, false)
	if got := ph.CPUHistogram().Percent(9); got < 5 {
		t.Fatalf("hispeed (freq 10) residency = %.1f%%, want >= 5%%", got)
	}
}

func TestInteractiveClimbsPastHispeedStepwise(t *testing.T) {
	ph, eng := newPhone(t, heavySpec())
	Defaults(eng)
	// Sample the frequency trajectory at 20 ms: there must be at least
	// one intermediate reading strictly between hispeed and max.
	sawMid := false
	for i := 0; i < 50 && !sawMid; i++ {
		eng.Run(20*time.Millisecond, false)
		if f := ph.CurFreqIdx(); f > 9 && f < 17 {
			sawMid = true
		}
	}
	if !sawMid {
		t.Fatal("interactive jumped hispeed→max without intermediate steps")
	}
}

func TestOndemandJumpsToMaxAboveThreshold(t *testing.T) {
	ph, eng := newPhone(t, heavySpec())
	setGov(t, ph, platform.GovOndemand, platform.GovCPUBWHwmon)
	Defaults(eng)
	eng.Run(time.Second, false)
	if got := ph.CurFreqIdx(); got != 17 {
		t.Fatalf("ondemand under full load at freq idx %d, want 17", got)
	}
}

func TestOndemandScalesDownGradually(t *testing.T) {
	ph, eng := newPhone(t, idleSpec())
	setGov(t, ph, platform.GovOndemand, platform.GovCPUBWHwmon)
	Defaults(eng)
	ph.SetFreqIdx(17)
	eng.Run(2*time.Second, false)
	if got := ph.CurFreqIdx(); got > 2 {
		t.Fatalf("ondemand on idle workload stuck at freq idx %d", got)
	}
}

func TestHwmonRampsWithTraffic(t *testing.T) {
	ph, eng := newPhone(t, heavySpec())
	// Pin CPU high so the batch generates sustained traffic.
	setGov(t, ph, platform.GovPerformance, platform.GovCPUBWHwmon)
	Defaults(eng)
	eng.Run(2*time.Second, false)
	if got := ph.CurBWIdx(); got == 0 {
		t.Fatal("hwmon did not raise bandwidth under sustained traffic")
	}
}

func TestHwmonBacksOffExponentially(t *testing.T) {
	ph, eng := newPhone(t, idleSpec())
	setGov(t, ph, platform.GovPerformance, platform.GovCPUBWHwmon)
	Defaults(eng)
	ph.SetBWIdx(12)
	// With near-zero traffic the vote must decay, but through
	// intermediate rungs (exponential back-off), not a cliff.
	trail := []int{ph.CurBWIdx()}
	for i := 0; i < 40; i++ {
		eng.Run(time.Second, false)
		if bw := ph.CurBWIdx(); bw != trail[len(trail)-1] {
			trail = append(trail, bw)
		}
	}
	if final := trail[len(trail)-1]; final > 1 {
		t.Fatalf("hwmon never decayed: trail %v", trail)
	}
	if len(trail) < 4 {
		t.Fatalf("hwmon decay skipped the back-off ladder: trail %v", trail)
	}
	for i := 1; i < len(trail); i++ {
		if trail[i] > trail[i-1] {
			t.Fatalf("hwmon decay not monotone: trail %v", trail)
		}
	}
}

func TestGovernorSwitchingViaSysfs(t *testing.T) {
	ph, eng := newPhone(t, heavySpec())
	Defaults(eng)
	eng.Run(2*time.Second, false)
	high := ph.CurFreqIdx()
	if high < 15 {
		t.Fatalf("setup: interactive should be high, at %d", high)
	}
	setGov(t, ph, platform.GovPowersave, platform.GovPowersave)
	eng.Run(500*time.Millisecond, false)
	if got := ph.CurFreqIdx(); got != 0 {
		t.Fatalf("after switching to powersave freq idx = %d", got)
	}
}

func TestInputBoostOnTouch(t *testing.T) {
	// An idle workload with touch events: interactive must boost to
	// hispeed even though the load is negligible.
	spec := idleSpec()
	spec.Phases[0].TouchRate = 30 // a storm of touches
	ph, eng := newPhone(t, spec)
	Defaults(eng)
	eng.Run(5*time.Second, false)
	if got := ph.CPUHistogram().Percent(9); got < 30 {
		t.Fatalf("input boost residency at hispeed = %.1f%%, want dominant", got)
	}
}

func TestDefaultTunablesMatchNexus6(t *testing.T) {
	it := DefaultInteractive()
	if it.HispeedFreqIdx != 9 {
		t.Fatalf("hispeed_freq index = %d, want 9 (1.4976 GHz)", it.HispeedFreqIdx)
	}
	if p := NewCPUFreq().Period(); p != 20*time.Millisecond {
		t.Fatalf("timer_rate = %v", p)
	}
	ht := DefaultHwmon()
	if ht.DecayFactor <= 0 || ht.DecayFactor >= 1 {
		t.Fatalf("decay factor %v outside (0,1)", ht.DecayFactor)
	}
	if ht.EventInflation < 1 {
		t.Fatalf("event inflation %v should exceed 1 (prefetch overshoot)", ht.EventInflation)
	}
}

func TestConservativeStepsGradually(t *testing.T) {
	ph, eng := newPhone(t, heavySpec())
	setGov(t, ph, platform.GovConservative, platform.GovCPUBWHwmon)
	Defaults(eng)
	// Under sustained full load the conservative governor must climb,
	// but through every intermediate rung.
	last := ph.CurFreqIdx()
	maxJump := 0
	for i := 0; i < 120; i++ {
		eng.Run(20*time.Millisecond, false)
		cur := ph.CurFreqIdx()
		if d := cur - last; d > maxJump {
			maxJump = d
		}
		last = cur
	}
	if last < 10 {
		t.Fatalf("conservative never climbed: at %d after 2.4s of full load", last)
	}
	if maxJump > 1 {
		t.Fatalf("conservative jumped %d rungs at once", maxJump)
	}
}

func TestConservativeStepsDownWhenIdle(t *testing.T) {
	ph, eng := newPhone(t, idleSpec())
	setGov(t, ph, platform.GovConservative, platform.GovCPUBWHwmon)
	Defaults(eng)
	ph.SetFreqIdx(17)
	eng.Run(3*time.Second, false)
	if got := ph.CurFreqIdx(); got > 2 {
		t.Fatalf("conservative on idle stuck at %d", got)
	}
}

func TestInteractiveTunablesPublishedToSysfs(t *testing.T) {
	ph, eng := newPhone(t, idleSpec())
	Defaults(eng)
	eng.Run(100*time.Millisecond, false)
	got, err := ph.FS().Read(TunableHispeedFreq)
	if err != nil {
		t.Fatalf("tunables not published: %v", err)
	}
	if got != "1497600" {
		t.Fatalf("hispeed_freq = %q, want 1497600 (frequency 10)", got)
	}
	if v, _ := ph.FS().Read(TunableGoHispeedLoad); v != "85" {
		t.Fatalf("go_hispeed_load = %q", v)
	}
}

func TestInteractiveTunablesLiveRetune(t *testing.T) {
	// Lower hispeed_freq via sysfs; the input-boost floor must now park
	// the touch-storm workload at frequency 4 instead of frequency 10.
	spec := idleSpec()
	spec.Phases[0].TouchRate = 30
	ph, eng := newPhone(t, spec)
	Defaults(eng)
	eng.Run(100*time.Millisecond, false)
	if err := ph.FS().Write(TunableHispeedFreq, "729600"); err != nil { // frequency 4
		t.Fatal(err)
	}
	eng.Run(10*time.Second, false)
	f4 := ph.CPUHistogram().Percent(3)
	f10 := ph.CPUHistogram().Percent(9)
	if f4 < 50 || f10 > f4 {
		t.Fatalf("retuned hispeed ignored: f4=%.1f%% f10=%.1f%%", f4, f10)
	}
}

func TestInteractiveTunablesRejectGarbage(t *testing.T) {
	ph, eng := newPhone(t, idleSpec())
	Defaults(eng)
	eng.Run(100*time.Millisecond, false)
	if err := ph.FS().Write(TunableMinSampleTime, "fast"); err == nil {
		t.Fatal("non-numeric tunable accepted")
	}
	if err := ph.FS().Write(TunableGoHispeedLoad, "-5"); err == nil {
		t.Fatal("negative tunable accepted")
	}
	// The stored value must be unchanged.
	if v, _ := ph.FS().Read(TunableGoHispeedLoad); v != "85" {
		t.Fatalf("rejected write corrupted the tunable: %q", v)
	}
}
