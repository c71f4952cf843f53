package sim

import (
	"math"
	"strconv"
	"testing"
	"time"

	"aspeo/internal/platform"
	"aspeo/internal/power"
	"aspeo/internal/soc"
	"aspeo/internal/sysfs"
	"aspeo/internal/workload"
)

func newTestPhone(t *testing.T, spec *workload.Spec, load workload.BGLoad) *Phone {
	t.Helper()
	ph, err := NewPhone(Config{
		Foreground: spec, Load: load, Seed: 1, ScreenOn: true, WiFiOn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ph
}

func TestNewPhoneValidation(t *testing.T) {
	if _, err := NewPhone(Config{}); err == nil {
		t.Fatal("no foreground should fail")
	}
	bad := workload.AngryBirds()
	bad.Phases = nil
	if _, err := NewPhone(Config{Foreground: bad}); err == nil {
		t.Fatal("invalid spec should fail")
	}
}

func TestDefaultsToNexus6AndDefaultGovernors(t *testing.T) {
	ph := newTestPhone(t, workload.AngryBirds(), workload.BaselineLoad)
	if got := ph.SoC().Name; got != "snapdragon805-nexus6" {
		t.Fatalf("SoC = %s", got)
	}
	gov, err := ph.FS().Read(sysfs.CPUScalingGovernor)
	if err != nil || gov != platform.GovInteractive {
		t.Fatalf("cpu governor = %q, %v", gov, err)
	}
	gov, err = ph.FS().Read(sysfs.DevFreqGovernor)
	if err != nil || gov != platform.GovCPUBWHwmon {
		t.Fatalf("devfreq governor = %q, %v", gov, err)
	}
}

func TestCapacityBoundExecution(t *testing.T) {
	// At the lowest configuration AngryBirds is choked to its base
	// speed: measured GIPS ≈ 0.129 plus a little background work.
	ph := newTestPhone(t, workload.AngryBirds(), workload.NoLoad)
	eng := NewEngine(ph)
	eng.MustRegister(&FixedConfigActor{FreqIdx: 0, BWIdx: 0})
	st := eng.Run(20*time.Second, false)
	if st.GIPS < 0.10 || st.GIPS > 0.16 {
		t.Fatalf("GIPS at min config = %.4f, want ≈0.129 (capacity bound)", st.GIPS)
	}
	if st.DroppedInstr == 0 {
		t.Fatal("choked game must drop frames")
	}
}

func TestDemandBoundExecution(t *testing.T) {
	// At a high configuration the game only takes what it demands
	// (~0.36 GIPS average), far below capacity.
	ph := newTestPhone(t, workload.AngryBirds(), workload.NoLoad)
	eng := NewEngine(ph)
	eng.MustRegister(&FixedConfigActor{FreqIdx: 9, BWIdx: 12})
	st := eng.Run(30*time.Second, false)
	if st.GIPS < 0.28 || st.GIPS > 0.48 {
		t.Fatalf("GIPS at high config = %.4f, want ≈0.36 (demand bound)", st.GIPS)
	}
}

func TestHigherConfigMorePowerSamePacedWork(t *testing.T) {
	run := func(fi, bi int) Stats {
		ph := newTestPhone(t, workload.MXPlayer(), workload.NoLoad)
		eng := NewEngine(ph)
		eng.MustRegister(&FixedConfigActor{FreqIdx: fi, BWIdx: bi})
		return eng.Run(20*time.Second, false)
	}
	lo := run(6, 2)
	hi := run(17, 12)
	if hi.AvgPowerW <= lo.AvgPowerW {
		t.Fatalf("overprovisioning must cost power: lo=%.3f hi=%.3f", lo.AvgPowerW, hi.AvgPowerW)
	}
	// Paced demand met in both cases → similar GIPS.
	if math.Abs(hi.GIPS-lo.GIPS) > 0.15*lo.GIPS {
		t.Fatalf("paced GIPS should match: lo=%.3f hi=%.3f", lo.GIPS, hi.GIPS)
	}
}

func TestBatchRunsToCompletionFasterAtHigherConfig(t *testing.T) {
	run := func(fi, bi int) Stats {
		ph := newTestPhone(t, workload.VidCon(), workload.NoLoad)
		eng := NewEngine(ph)
		eng.MustRegister(&FixedConfigActor{FreqIdx: fi, BWIdx: bi})
		return eng.Run(900*time.Second, true)
	}
	hi := run(17, 7)
	lo := run(8, 7)
	if !hi.FGCompleted {
		t.Fatal("VidCon did not complete at max frequency")
	}
	if !lo.FGCompleted {
		t.Fatal("VidCon did not complete at frequency 9")
	}
	if hi.Duration >= lo.Duration {
		t.Fatalf("batch must finish faster at higher frequency: %v vs %v", hi.Duration, lo.Duration)
	}
	// Sanity: at max config the conversion should take tens of seconds,
	// like the paper's 59 s default run.
	if hi.Duration < 30*time.Second || hi.Duration > 120*time.Second {
		t.Fatalf("VidCon at max config took %v, want ≈1 minute", hi.Duration)
	}
}

func TestUserspaceSysfsActuation(t *testing.T) {
	ph := newTestPhone(t, workload.AngryBirds(), workload.NoLoad)
	fs := ph.FS()
	// Writing setspeed under the default governor is rejected.
	if err := fs.Write(sysfs.CPUScalingSetSpeed, "1497600"); err == nil {
		t.Fatal("setspeed must be rejected while governor != userspace")
	}
	if err := fs.Write(sysfs.CPUScalingGovernor, platform.GovUserspace); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write(sysfs.CPUScalingSetSpeed, "1497600"); err != nil {
		t.Fatal(err)
	}
	if got := ph.CurFreqIdx(); got != 9 {
		t.Fatalf("freq idx = %d, want 9 (1.4976 GHz)", got)
	}
	if got, _ := fs.Read(sysfs.CPUScalingCurFreq); got != "1497600" {
		t.Fatalf("scaling_cur_freq = %q", got)
	}

	if err := fs.Write(sysfs.DevFreqSetFreq, "3051"); err == nil {
		t.Fatal("devfreq set_freq must be rejected while governor != userspace")
	}
	if err := fs.Write(sysfs.DevFreqGovernor, platform.GovUserspace); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write(sysfs.DevFreqSetFreq, "3051"); err != nil {
		t.Fatal(err)
	}
	if got := ph.CurBWIdx(); got != 4 {
		t.Fatalf("bw idx = %d, want 4 (3051 MBps)", got)
	}
}

func TestSetSpeedRejectsGarbage(t *testing.T) {
	ph := newTestPhone(t, workload.AngryBirds(), workload.NoLoad)
	fs := ph.FS()
	fs.Write(sysfs.CPUScalingGovernor, platform.GovUserspace)
	if err := fs.Write(sysfs.CPUScalingSetSpeed, "fast"); err == nil {
		t.Fatal("non-numeric setspeed must be rejected")
	}
}

func TestTelemetryCountersAdvance(t *testing.T) {
	ph := newTestPhone(t, workload.AngryBirds(), workload.BaselineLoad)
	eng := NewEngine(ph)
	eng.MustRegister(&FixedConfigActor{FreqIdx: 4, BWIdx: 4})
	eng.Run(5*time.Second, false)
	if ph.CumMachineBusySec() <= 0 || ph.CumMachineBusySec() > 5.01 {
		t.Fatalf("CumMachineBusySec = %v", ph.CumMachineBusySec())
	}
	if ph.CumBusyCoreSec() <= 0 || ph.CumBusyCoreSec() > 4*5.01 {
		t.Fatalf("CumBusyCoreSec = %v", ph.CumBusyCoreSec())
	}
	if ph.CumTrafficBytes() <= 0 {
		t.Fatal("no traffic accounted")
	}
	if n := ph.TakeTouches(); n == 0 {
		t.Fatal("game generated no touches in 5s")
	}
	if n := ph.TakeTouches(); n != 0 {
		t.Fatalf("TakeTouches must drain: %d", n)
	}
}

func TestHistogramsAccumulate(t *testing.T) {
	ph := newTestPhone(t, workload.Spotify(), workload.NoLoad)
	eng := NewEngine(ph)
	eng.MustRegister(&FixedConfigActor{FreqIdx: 2, BWIdx: 1})
	eng.Run(3*time.Second, false)
	if got := ph.CPUHistogram().Percent(2); got < 99 {
		t.Fatalf("cpu residency at pinned freq = %.1f%%", got)
	}
	if got := ph.BWHistogram().Percent(1); got < 99 {
		t.Fatalf("bw residency at pinned bw = %.1f%%", got)
	}
	if got := ph.CPUHistogram().Total(); got != 3*time.Second {
		t.Fatalf("total observed = %v", got)
	}
}

func TestBGLoadAddsWorkAndPower(t *testing.T) {
	run := func(load workload.BGLoad) Stats {
		ph := newTestPhone(t, workload.MXPlayer(), load)
		eng := NewEngine(ph)
		eng.MustRegister(&FixedConfigActor{FreqIdx: 9, BWIdx: 6})
		return eng.Run(30*time.Second, false)
	}
	nl, bl, hl := run(workload.NoLoad), run(workload.BaselineLoad), run(workload.HeavierLoad)
	if bl.GIPS <= nl.GIPS {
		t.Fatalf("BL must add background instructions: NL=%.3f BL=%.3f", nl.GIPS, bl.GIPS)
	}
	if hl.GIPS <= bl.GIPS {
		t.Fatalf("HL must add more: BL=%.3f HL=%.3f", bl.GIPS, hl.GIPS)
	}
	if hl.AvgPowerW <= nl.AvgPowerW {
		t.Fatalf("HL must cost more power: NL=%.3f HL=%.3f", nl.AvgPowerW, hl.AvgPowerW)
	}
}

func TestPerfOverheadReducesCapacity(t *testing.T) {
	run := func(overhead float64) Stats {
		ph := newTestPhone(t, workload.VidCon(), workload.NoLoad)
		ph.SetPerfOverhead(overhead, 0)
		eng := NewEngine(ph)
		eng.MustRegister(&FixedConfigActor{FreqIdx: 17, BWIdx: 12})
		return eng.Run(20*time.Second, false)
	}
	clean := run(0)
	heavy := run(0.4) // 100 ms perf sampling: 40% overhead (§IV-B)
	if heavy.GIPS >= clean.GIPS*0.75 {
		t.Fatalf("40%% perf overhead should cut batch throughput: %.3f vs %.3f",
			heavy.GIPS, clean.GIPS)
	}
}

func TestPerfOverheadClamped(t *testing.T) {
	ph := newTestPhone(t, workload.VidCon(), workload.NoLoad)
	ph.SetPerfOverhead(-1, 0)
	ph.SetPerfOverhead(2, 0) // clamps to 0.9, must not panic or wedge
	ph.Step(time.Millisecond)
}

func TestFreqChangeAccounting(t *testing.T) {
	ph := newTestPhone(t, workload.AngryBirds(), workload.NoLoad)
	ph.SetFreqIdx(5)
	ph.SetFreqIdx(5) // no-op
	ph.SetFreqIdx(7)
	ph.SetBWIdx(3)
	if got := ph.FreqChanges(); got != 2 {
		t.Fatalf("FreqChanges = %d", got)
	}
	if got := ph.BWChanges(); got != 1 {
		t.Fatalf("BWChanges = %d", got)
	}
	// Clamping.
	ph.SetFreqIdx(99)
	if got := ph.CurFreqIdx(); got != 17 {
		t.Fatalf("clamped freq = %d", got)
	}
	ph.SetBWIdx(-4)
	if got := ph.CurBWIdx(); got != 0 {
		t.Fatalf("clamped bw = %d", got)
	}
}

// Every CPU frequency transition charges the §V-A1 actuation energy to
// the next step, whether it comes from SetFreqIdx or from a setspeed
// write, which reaches the kernel's own SetFreqIdx through its hook.
func TestTransitionEnergyOnEveryPath(t *testing.T) {
	ph := newTestPhone(t, workload.AngryBirds(), workload.NoLoad)
	ph.SetFreqIdx(5)
	if ph.st.PendingOverlayJ != 5e-3 {
		t.Fatalf("after SetFreqIdx: pending overlay %v J, want 5e-3", ph.st.PendingOverlayJ)
	}
	ph.SetFile(sysfs.CPUScalingGovernor, platform.GovUserspace)
	if err := ph.WriteFile(sysfs.CPUScalingSetSpeed, strconv.Itoa(ph.SoC().Freq(7).KHz())); err != nil {
		t.Fatal(err)
	}
	if ph.CurFreqIdx() != 7 || ph.st.PendingOverlayJ != 10e-3 {
		t.Fatalf("after setspeed: freq %d, pending overlay %v J; want 7 and 1e-2", ph.CurFreqIdx(), ph.st.PendingOverlayJ)
	}
	ph.SetFreqIdx(7) // no transition, no charge
	if ph.st.PendingOverlayJ != 10e-3 {
		t.Fatalf("after a no-op request: pending overlay %v J, want 1e-2", ph.st.PendingOverlayJ)
	}
}

func TestEngineActorScheduling(t *testing.T) {
	ph := newTestPhone(t, workload.Spotify(), workload.NoLoad)
	eng := NewEngine(ph)
	count := 0
	a := &funcActor{name: "counter", period: 100 * time.Millisecond,
		fn: func(time.Duration, platform.Device) { count++ }}
	eng.MustRegister(a)
	eng.Run(time.Second, false)
	if count != 10 {
		t.Fatalf("actor ticked %d times in 1s at 100ms, want 10", count)
	}
}

func TestEngineRejectsBadPeriod(t *testing.T) {
	ph := newTestPhone(t, workload.Spotify(), workload.NoLoad)
	eng := NewEngine(ph)
	bad := &funcActor{name: "bad", period: 1500 * time.Microsecond}
	if err := eng.Register(bad); err == nil {
		t.Fatal("non-multiple period must be rejected")
	}
	bad2 := &funcActor{name: "bad2", period: 0}
	if err := eng.Register(bad2); err == nil {
		t.Fatal("zero period must be rejected")
	}
}

func TestRunStopsWhenFGDone(t *testing.T) {
	spec := workload.VidCon()
	ph := newTestPhone(t, spec, workload.NoLoad)
	eng := NewEngine(ph)
	eng.MustRegister(&FixedConfigActor{FreqIdx: 17, BWIdx: 12})
	st := eng.Run(time.Hour, true)
	if !st.FGCompleted {
		t.Fatal("run should have completed the conversion")
	}
	if st.Duration >= time.Hour {
		t.Fatal("run did not stop at completion")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		ph := newTestPhone(t, workload.AngryBirds(), workload.BaselineLoad)
		eng := NewEngine(ph)
		eng.MustRegister(&FixedConfigActor{FreqIdx: 6, BWIdx: 3})
		return eng.Run(10*time.Second, false)
	}
	a, b := run(), run()
	if a.EnergyJ != b.EnergyJ || a.GIPS != b.GIPS {
		t.Fatalf("same seed must reproduce identical runs: %+v vs %+v", a, b)
	}
}

func TestEnergyConsistency(t *testing.T) {
	ph := newTestPhone(t, workload.WeChat(), workload.BaselineLoad)
	eng := NewEngine(ph)
	eng.MustRegister(&FixedConfigActor{FreqIdx: 6, BWIdx: 4})
	st := eng.Run(10*time.Second, false)
	if math.Abs(st.EnergyJ-st.AvgPowerW*st.Duration.Seconds()) > 0.02*st.EnergyJ {
		t.Fatalf("E=%.3f J vs P·t=%.3f J", st.EnergyJ, st.AvgPowerW*st.Duration.Seconds())
	}
	// Whole-device power must be in a plausible phone envelope.
	if st.AvgPowerW < 1.0 || st.AvgPowerW > 5.0 {
		t.Fatalf("WeChat avg power = %.2f W, outside [1,5]", st.AvgPowerW)
	}
}

func TestCustomSoCAndPowerParams(t *testing.T) {
	small := &soc.SoC{
		Name: "tiny", NumCores: 2,
		CPUFreqs: []soc.OPP{{Freq: 0.5, Voltage: 0.8}, {Freq: 1.0, Voltage: 0.9}},
		MemBWs:   []soc.Bandwidth{500, 1000},
	}
	pp := power.Default()
	pp.ScreenW = 0.1
	ph, err := NewPhone(Config{
		SoC: small, Power: pp, Foreground: workload.Spotify(),
		Seed: 3, ScreenOn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(ph)
	eng.MustRegister(&FixedConfigActor{FreqIdx: 1, BWIdx: 1})
	st := eng.Run(2*time.Second, false)
	if st.EnergyJ <= 0 {
		t.Fatal("no energy accounted on custom SoC")
	}
}

func TestTraceRecorderWiring(t *testing.T) {
	ph, err := NewPhone(Config{
		Foreground: workload.Spotify(), Seed: 1, ScreenOn: true,
		TraceEvery: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(ph)
	eng.MustRegister(&FixedConfigActor{FreqIdx: 0, BWIdx: 0})
	eng.Run(time.Second, false)
	if ph.Recorder() == nil || ph.Recorder().Len() != 10 {
		t.Fatalf("recorder points = %v", ph.Recorder())
	}
}

type funcActor struct {
	name   string
	period time.Duration
	fn     func(time.Duration, platform.Device)
}

func (f *funcActor) Name() string          { return f.name }
func (f *funcActor) Period() time.Duration { return f.period }
func (f *funcActor) Tick(now time.Duration, dev platform.Device) {
	if f.fn != nil {
		f.fn(now, dev)
	}
}
