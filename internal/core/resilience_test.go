package core

import (
	"math"
	"testing"
	"time"

	"aspeo/internal/fault"
	"aspeo/internal/governor"
	"aspeo/internal/platform"
	"aspeo/internal/profile"
	"aspeo/internal/sim"
	"aspeo/internal/sysfs"
	"aspeo/internal/workload"
)

func newTestController(t *testing.T, mut func(*Options)) *Controller {
	t.Helper()
	opts := DefaultOptions(syntheticTable(0.13), 0.3)
	if mut != nil {
		mut(&opts)
	}
	ctl, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

func TestResilienceDefaults(t *testing.T) {
	if outlierPersistence > degradeAfter {
		t.Fatal("persistence above degradeAfter: genuine phase shifts would trip the watchdog")
	}
}

func TestGateRejectsNonFinite(t *testing.T) {
	ctl := newTestController(t, nil)
	for _, z := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if ctl.gate(0.5, z) {
			t.Fatalf("gate accepted z=%v", z)
		}
	}
	h := ctl.Health()
	if h.NonFiniteSamples != 3 || h.RejectedSamples != 3 {
		t.Fatalf("health = %+v, want 3 non-finite rejections", h)
	}
}

func TestGateRejectsStuck(t *testing.T) {
	ctl := newTestController(t, nil) // stuckWindow 3
	b := 0.13
	if !ctl.gate(0.5, b) || !ctl.gate(0.5, b) {
		t.Fatal("gate rejected the first identical readings prematurely")
	}
	if ctl.gate(0.5, b) {
		t.Fatal("third bit-identical reading accepted")
	}
	h := ctl.Health()
	if h.StuckSamples != 1 {
		t.Fatalf("StuckSamples = %d, want 1", h.StuckSamples)
	}
	// A changed reading clears the condition.
	if !ctl.gate(0.51, b) {
		t.Fatal("fresh reading after stuck run rejected")
	}
}

func TestGateOutlierPersistence(t *testing.T) {
	ctl := newTestController(t, nil) // outlierSigma 10, outlierPersistence 2
	// Estimate starts at BaseGIPS = 0.13 with band 10·sqrt(P+R) ≈ 0.27;
	// z = 1.0 is far outside it.
	if ctl.gate(0.50, 1.0) {
		t.Fatal("first outlier accepted")
	}
	if ctl.gate(0.51, 1.0) {
		t.Fatal("second outlier accepted")
	}
	// Third consecutive excursion is a genuine level shift: accept so the
	// filter re-converges.
	if !ctl.gate(0.52, 1.0) {
		t.Fatal("persistent excursion still rejected; filter would freeze")
	}
	h := ctl.Health()
	if h.OutlierSamples != 2 || h.RejectedSamples != 2 {
		t.Fatalf("health = %+v, want 2 outlier rejections", h)
	}
	// Acceptance resets the run: the next isolated spike is rejected again.
	if ctl.gate(0.53, 1.9) {
		t.Fatal("isolated spike after reset accepted")
	}
}

func TestGateDisabledAcceptsEverything(t *testing.T) {
	ctl := newTestController(t, func(o *Options) { o.Unhardened = true })
	if !ctl.gate(0.5, math.NaN()) || !ctl.gate(0.5, 99) {
		t.Fatal("disabled gate rejected a measurement")
	}
	if ctl.Health().RejectedSamples != 0 {
		t.Fatal("disabled gate counted rejections")
	}
}

func TestWatchdogLadder(t *testing.T) {
	ph, err := sim.NewPhone(sim.Config{
		Foreground: workload.Spotify(), Load: workload.NoLoad, Seed: 1, ScreenOn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl := newTestController(t, nil) // degradeAfter 3, relinquishAfter 8
	for i := 1; i <= 2; i++ {
		if ctl.watchdog(ph, true) {
			t.Fatalf("watchdog intervened after %d failures, threshold is 3", i)
		}
	}
	if !ctl.watchdog(ph, true) || !ctl.Degraded() {
		t.Fatal("watchdog did not degrade at its threshold")
	}
	safe := ctl.entries[len(ctl.entries)/2]
	for _, s := range ctl.st.Slots {
		if s != safe {
			t.Fatalf("degraded schedule holds %+v, want safe entry %+v", s, safe)
		}
	}
	// A healthy cycle recovers closed-loop control.
	if ctl.watchdog(ph, false) || ctl.Degraded() {
		t.Fatal("watchdog did not recover after a healthy cycle")
	}
	// Sustained failure relinquishes.
	for i := 0; i < 8; i++ {
		ctl.watchdog(ph, true)
	}
	if !ctl.Health().Relinquished {
		t.Fatal("watchdog never relinquished")
	}
	if ctl.Health().WatchdogTrips != 3 { // degrade, degrade again, relinquish
		t.Fatalf("WatchdogTrips = %d, want 3", ctl.Health().WatchdogTrips)
	}
}

// installController builds a phone+engine with an injector registered
// ahead of the controller (so its clock leads) and composed onto both
// I/O surfaces: the controller installs through the fault-decorated
// runner and its perf reader carries the injector's reading hook.
func installController(t *testing.T, spec *workload.Spec, tab *profile.Table,
	target float64, plan fault.Plan, mut func(*Options)) (*sim.Engine, *Controller, *fault.Injector) {
	t.Helper()
	ph, err := sim.NewPhone(sim.Config{
		Foreground: spec, Load: workload.BaselineLoad, Seed: 7, ScreenOn: true, WiFiOn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(ph)
	inj, err := fault.NewInjector(plan, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng.MustRegister(inj)
	opts := DefaultOptions(tab, target)
	opts.Seed = 7
	if mut != nil {
		mut(&opts)
	}
	ctl, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Install(fault.WrapRunner(eng, inj)); err != nil {
		t.Fatal(err)
	}
	fault.WrapPerf(ctl.Perf(), inj)
	return eng, ctl, inj
}

// Every probabilistic write failure the injector delivers must appear in
// the controller's actuation-failure counter, and vice versa: in a pure
// write-fault scenario the two books match exactly.
func TestActuationFailuresMatchInjectedExactly(t *testing.T) {
	tab := syntheticTable(0.13)
	plan := fault.Plan{WriteFailProb: 0.3}
	eng, ctl, inj := installController(t, workload.Spotify(), tab, 0.3, plan, nil)
	eng.Run(30*time.Second, false)

	h, counts := ctl.Health(), inj.Counts()
	if counts.WriteFailures == 0 {
		t.Fatal("scenario injected no write failures; test proves nothing")
	}
	if h.ActuationFailures != counts.WriteFailures {
		t.Fatalf("controller counted %d actuation failures, injector delivered %d",
			h.ActuationFailures, counts.WriteFailures)
	}
	if h.ActuationRetries == 0 {
		t.Fatal("retry path never exercised at 30% failure probability")
	}
}

// A hijacked governor must be detected and reinstalled at the next
// ownership check, once per hijack, with the max-freq clamp undone.
func TestGovernorReinstallAfterHijack(t *testing.T) {
	tab := syntheticTable(0.13)
	plan := fault.Plan{Hijacks: []fault.Hijack{{At: 5 * time.Second, Repeat: 6 * time.Second}}}
	eng, ctl, inj := installController(t, workload.Spotify(), tab, 0.3, plan, nil)
	// 32 s leaves a full control cycle after the last hijack (29 s), so
	// every delivered hijack has had an ownership check behind it.
	eng.Run(32*time.Second, false)

	h, counts := ctl.Health(), inj.Counts()
	if counts.Hijacks < 4 {
		t.Fatalf("only %d hijacks fired in 30 s at a 6 s repeat", counts.Hijacks)
	}
	if h.GovernorReinstalls != counts.Hijacks {
		t.Fatalf("reinstalls %d != hijacks %d", h.GovernorReinstalls, counts.Hijacks)
	}
	gov, _ := eng.Phone().FS().Read(sysfs.CPUScalingGovernor)
	if gov != platform.GovUserspace {
		t.Fatalf("governor %q at end of run, want userspace reinstalled", gov)
	}
}

func TestMaxFreqRestoreAfterClamp(t *testing.T) {
	tab := syntheticTable(0.13)
	plan := fault.Plan{Hijacks: []fault.Hijack{{At: 5 * time.Second, MaxFreqKHz: 1000000}}}
	eng, ctl, _ := installController(t, workload.Spotify(), tab, 0.3, plan, nil)
	eng.Run(12*time.Second, false)

	if ctl.Health().MaxFreqRestores != 1 {
		t.Fatalf("MaxFreqRestores = %d, want 1", ctl.Health().MaxFreqRestores)
	}
	mf, _ := eng.Phone().FS().Read(sysfs.CPUScalingMaxFreq)
	if mf == "1000000" {
		t.Fatal("scaling_max_freq still clamped at end of run")
	}
}

// The unhardened controller must NOT fight back: faults land uncorrected.
func TestDisabledControllerStaysHijacked(t *testing.T) {
	tab := syntheticTable(0.13)
	plan := fault.Plan{Hijacks: []fault.Hijack{{At: 5 * time.Second}}}
	eng, ctl, _ := installController(t, workload.Spotify(), tab, 0.3, plan,
		func(o *Options) { o.Unhardened = true })
	eng.Run(12*time.Second, false)

	if ctl.Health().GovernorReinstalls != 0 {
		t.Fatal("disabled resilience reinstalled the governor")
	}
	gov, _ := eng.Phone().FS().Read(sysfs.CPUScalingGovernor)
	if gov == platform.GovUserspace {
		t.Fatal("governor still userspace; hijack never landed")
	}
}

// End-to-end degradation ladder: a stuck actuation file fails every
// write, so the watchdog must degrade at its threshold and ultimately
// relinquish the device to the stock governors, which then run it.
func TestDegradationLadderEndToEnd(t *testing.T) {
	tab := syntheticTable(0.13)
	plan := fault.Plan{StuckFiles: []fault.StuckFile{
		{Path: sysfs.CPUScalingSetSpeed, From: 6 * time.Second},
	}}
	eng, ctl, inj := installController(t, workload.Spotify(), tab, 0.3, plan, nil)
	governor.Defaults(eng) // stock governors stand by to take over
	eng.Run(60*time.Second, false)

	h := ctl.Health()
	if h.WatchdogTrips < 2 {
		t.Fatalf("WatchdogTrips = %d, want degrade then relinquish", h.WatchdogTrips)
	}
	if h.DegradedCycles == 0 {
		t.Fatal("controller never ran degraded cycles before relinquishing")
	}
	if !h.Relinquished {
		t.Fatal("controller never relinquished under a permanently stuck actuator")
	}
	if inj.Counts().StuckWrites == 0 {
		t.Fatal("stuck file never rejected a write")
	}
	gov, _ := eng.Phone().FS().Read(sysfs.CPUScalingGovernor)
	if gov != platform.GovInteractive {
		t.Fatalf("governor %q after relinquish, want stock interactive", gov)
	}
}

// A transient fault window must degrade and then RECOVER: closed-loop
// control resumes once writes succeed again.
func TestDegradeThenRecover(t *testing.T) {
	tab := syntheticTable(0.13)
	plan := fault.Plan{
		WriteFailProb: 1,
		WriteFailFrom: 6 * time.Second, WriteFailUntil: 14 * time.Second,
	}
	eng, ctl, _ := installController(t, workload.Spotify(), tab, 0.3, plan, nil)
	eng.Run(40*time.Second, false)

	h := ctl.Health()
	if h.WatchdogTrips == 0 || h.DegradedCycles == 0 {
		t.Fatalf("watchdog never degraded during the fault window: %+v", h)
	}
	if h.Relinquished {
		t.Fatal("controller relinquished over a transient fault window")
	}
	if ctl.Degraded() {
		t.Fatal("controller still degraded long after the fault cleared")
	}
	// The re-convergence transient may gate a trailing sample; what
	// matters is the failing run stays below the watchdog threshold.
	if h.ConsecutiveFailures >= degradeAfter {
		t.Fatalf("ConsecutiveFailures = %d after recovery", h.ConsecutiveFailures)
	}
}

// Under a combined fault scenario the hardened controller must stay
// within tolerance of the stock governors' delivered performance — the
// paper's fallback when userspace DVFS is not trustworthy.
func TestHardenedSlackBoundedVsStock(t *testing.T) {
	spec := workload.Spotify()
	opt := profile.Options{
		Load: workload.BaselineLoad, Mode: profile.Coordinated,
		Seeds: []int64{11}, Warmup: 2 * time.Second, Window: 10 * time.Second,
	}
	tab, err := profile.Run(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	target := 0.8 * tab.MaxSpeedup() * tab.BaseGIPS
	plan := fault.Plan{
		WriteFailProb: 0.2,
		Hijacks:       []fault.Hijack{{At: 8 * time.Second, Repeat: 10 * time.Second}},
		DropProb:      0.1, SpikeProb: 0.05, ZeroProb: 0.02,
	}

	// Stock condition: default governors under the same scenario.
	stockPh, err := sim.NewPhone(sim.Config{
		Foreground: spec, Load: workload.BaselineLoad, Seed: 7, ScreenOn: true, WiFiOn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	stockEng := sim.NewEngine(stockPh)
	stockInj := fault.MustNewInjector(plan, 7)
	stockEng.MustRegister(stockInj)
	if err := governor.Defaults(stockEng); err != nil {
		t.Fatal(err)
	}
	stockStats := stockEng.Run(40*time.Second, false)

	// Hardened condition.
	eng, ctl, _ := installController(t, spec, tab, target, plan, nil)
	governor.Defaults(eng)
	stats := eng.Run(40*time.Second, false)

	if stats.GIPS < 0.9*stockStats.GIPS {
		t.Fatalf("hardened controller delivered %.4f GIPS under faults, stock %.4f (slack > 10%%)",
			stats.GIPS, stockStats.GIPS)
	}
	if ctl.Health().GovernorReinstalls == 0 {
		t.Fatal("scenario never exercised the reinstall path")
	}
}

// Perf-fault scenarios must be visible in the health ledger: dropped
// windows and gated samples.
func TestPerfFaultsReachHealthLedger(t *testing.T) {
	tab := syntheticTable(0.13)
	plan := fault.Plan{ZeroProb: 0.3, SpikeProb: 0.2}
	eng, ctl, inj := installController(t, workload.Spotify(), tab, 0.3, plan, nil)
	eng.Run(40*time.Second, false)

	counts := ctl.Health()
	if inj.Counts().ZeroReads == 0 || inj.Counts().Spikes == 0 {
		t.Fatalf("scenario delivered no perf faults: %+v", inj.Counts())
	}
	if counts.OutlierSamples == 0 {
		t.Fatalf("gate never rejected injected zero/spike readings: %+v", counts)
	}
}
