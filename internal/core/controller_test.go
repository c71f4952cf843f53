package core

import (
	"math"
	"testing"
	"time"

	"aspeo/internal/profile"
	"aspeo/internal/sim"
	"aspeo/internal/sysfs"
	"aspeo/internal/workload"
)

// syntheticTable builds a plausible coordinated profile for tests without
// running the profiler: speedups and powers increase along a frontier.
func syntheticTable(base float64) *profile.Table {
	t := &profile.Table{App: "synthetic", Load: "BL", Mode: profile.Coordinated, BaseGIPS: base}
	s, p, step := 1.0, 1.6, 0.012
	for f := 0; f < 9; f++ {
		for bw := 0; bw < 13; bw++ {
			t.Entries = append(t.Entries, profile.Entry{
				FreqIdx: 2 * f, BWIdx: bw,
				Speedup: s, PowerW: p, GIPS: s * base,
			})
			s += 0.02
			// Strictly convex power/speedup frontier: the energy
			// optimum is unique, so LP and search pick identical
			// allocations.
			p += step
			step += 0.0004
		}
	}
	return t
}

func TestNewValidatesOptions(t *testing.T) {
	tab := syntheticTable(0.13)
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"nil table", func(o *Options) { o.Table = nil }},
		{"zero target", func(o *Options) { o.TargetGIPS = 0 }},
		{"negative target", func(o *Options) { o.TargetGIPS = -1 }},
		{"cycle not multiple", func(o *Options) { o.CycleT = 2100 * time.Millisecond }},
		{"zero quantum", func(o *Options) { o.Quantum = 0 }},
		{"perf too fast", func(o *Options) { o.PerfPeriod = 10 * time.Millisecond }},
		{"bad pole", func(o *Options) { o.Pole = 1.0 }},
		{"negative pole", func(o *Options) { o.Pole = -0.1 }},
		{"mode mismatch", func(o *Options) { o.CPUOnly = true }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := DefaultOptions(tab, 0.3)
			c.mut(&opts)
			if _, err := New(opts); err == nil {
				t.Fatalf("expected error for %s", c.name)
			}
		})
	}
	if _, err := New(DefaultOptions(tab, 0.3)); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

func TestCPUOnlyRequiresGovernedTable(t *testing.T) {
	tab := syntheticTable(0.13)
	tab.Mode = profile.Governed
	opts := DefaultOptions(tab, 0.3)
	opts.CPUOnly = true
	if _, err := New(opts); err != nil {
		t.Fatalf("governed table with CPUOnly should work: %v", err)
	}
	opts.CPUOnly = false
	if _, err := New(opts); err == nil {
		t.Fatal("governed table without CPUOnly must be rejected")
	}
}

func TestInstallSwitchesGovernors(t *testing.T) {
	ph, err := sim.NewPhone(sim.Config{
		Foreground: workload.Spotify(), Load: workload.NoLoad, Seed: 1, ScreenOn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(ph)
	ctl, err := New(DefaultOptions(syntheticTable(0.09), 0.12))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Install(eng); err != nil {
		t.Fatal(err)
	}
	if gov, _ := ph.FS().Read(sysfs.CPUScalingGovernor); gov != sim.GovUserspace {
		t.Fatalf("cpu governor = %q", gov)
	}
	if gov, _ := ph.FS().Read(sysfs.DevFreqGovernor); gov != sim.GovUserspace {
		t.Fatalf("devfreq governor = %q", gov)
	}
}

func TestCPUOnlyLeavesDevfreqAlone(t *testing.T) {
	ph, err := sim.NewPhone(sim.Config{
		Foreground: workload.Spotify(), Load: workload.NoLoad, Seed: 1, ScreenOn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(ph)
	tab := syntheticTable(0.09)
	tab.Mode = profile.Governed
	for i := range tab.Entries {
		tab.Entries[i].BWIdx = profile.GovernedBW
	}
	opts := DefaultOptions(tab, 0.12)
	opts.CPUOnly = true
	ctl, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Install(eng); err != nil {
		t.Fatal(err)
	}
	if gov, _ := ph.FS().Read(sysfs.DevFreqGovernor); gov != sim.GovCPUBWHwmon {
		t.Fatalf("devfreq governor = %q, want untouched cpubw_hwmon", gov)
	}
}

// End-to-end closed loop: the controller must track the target GIPS on a
// real workload within a few percent, and its actuation must follow the
// two-configuration schedule.
func TestClosedLoopTracksTarget(t *testing.T) {
	// A batch app runs at capacity, so the controller can modulate its
	// speed up AND down; target the middle of the profiled range.
	spec := workload.VidCon()
	opt := profile.Options{
		Load: workload.BaselineLoad, Mode: profile.Coordinated,
		Seeds: []int64{11}, Warmup: 2 * time.Second, Window: 12 * time.Second,
	}
	tab, err := profile.Run(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	target := 0.5 * (tab.MinSpeedup() + tab.MaxSpeedup()) * tab.BaseGIPS

	ph, err := sim.NewPhone(sim.Config{
		Foreground: spec, Load: workload.BaselineLoad, Seed: 7, ScreenOn: true, WiFiOn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(ph)
	ctl, err := New(DefaultOptions(tab, target))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Install(eng); err != nil {
		t.Fatal(err)
	}
	// 60 s keeps the measurement inside the conversion (the batch
	// completes at ~75 s at this target rate).
	st := eng.Run(60*time.Second, false)
	if ctl.Cycles() < 25 {
		t.Fatalf("only %d control cycles ran", ctl.Cycles())
	}
	if math.Abs(st.GIPS-target)/target > 0.08 {
		t.Fatalf("closed loop delivered %.4f GIPS, target %.4f (>8%% off)", st.GIPS, target)
	}
	if ctl.BaseSpeedEstimate() <= 0 {
		t.Fatal("Kalman estimate never initialized")
	}
}

// The controller must save energy against over-provisioning: pinning the
// maximum configuration costs more than the controller at the same
// delivered performance for a demand-limited app.
func TestControllerBeatsMaxPinned(t *testing.T) {
	spec := workload.Spotify()
	opt := profile.Options{
		Load: workload.NoLoad, Mode: profile.Coordinated,
		Seeds: []int64{11}, Warmup: 2 * time.Second, Window: 12 * time.Second,
	}
	tab, err := profile.Run(spec, opt)
	if err != nil {
		t.Fatal(err)
	}

	run := func(install func(*sim.Engine) error) sim.Stats {
		ph, err := sim.NewPhone(sim.Config{
			Foreground: spec, Load: workload.NoLoad, Seed: 7, ScreenOn: true, WiFiOn: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine(ph)
		if err := install(eng); err != nil {
			t.Fatal(err)
		}
		return eng.Run(spec.RunFor, false)
	}

	pinned := run(func(eng *sim.Engine) error {
		eng.MustRegister(&sim.FixedConfigActor{FreqIdx: 17, BWIdx: 12})
		return nil
	})
	ctlStats := run(func(eng *sim.Engine) error {
		ctl, err := New(DefaultOptions(tab, pinned.GIPS))
		if err != nil {
			return err
		}
		return ctl.Install(eng)
	})
	if ctlStats.EnergyJ >= pinned.EnergyJ {
		t.Fatalf("controller (%.1f J) did not beat max-pinned (%.1f J)",
			ctlStats.EnergyJ, pinned.EnergyJ)
	}
	if ctlStats.GIPS < 0.9*pinned.GIPS {
		t.Fatalf("controller lost too much performance: %.4f vs %.4f",
			ctlStats.GIPS, pinned.GIPS)
	}
}

func TestSchedulerQuantization(t *testing.T) {
	tab := syntheticTable(0.13)
	opts := DefaultOptions(tab, 0.3)
	ctl, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	// 10 slots of 200 ms in a 2 s cycle.
	if got := len(ctl.slots); got != 10 {
		t.Fatalf("slots = %d, want 10", got)
	}
	alloc := Allocation{
		Low:     tab.Entries[0],
		High:    tab.Entries[50],
		TauLow:  1300 * time.Millisecond,
		TauHigh: 700 * time.Millisecond,
	}
	ctl.fillSlots(alloc)
	hi := 0
	for _, s := range ctl.slots {
		if s == tab.Entries[50] {
			hi++
		}
	}
	// 700 ms rounds to 4 slots (3.5 → 4).
	if hi != 4 {
		t.Fatalf("high slots = %d, want 4", hi)
	}
	// Low runs first (single transition per cycle).
	if ctl.slots[0] != tab.Entries[0] || ctl.slots[9] != tab.Entries[50] {
		t.Fatal("slot order wrong: low must run before high")
	}
}

func TestDiagnosticsAccessors(t *testing.T) {
	tab := syntheticTable(0.13)
	ctl, err := New(DefaultOptions(tab, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Cycles() != 0 || ctl.MeanAbsError() != 0 {
		t.Fatal("fresh controller has non-zero diagnostics")
	}
	if ctl.CurrentSpeedupSetting() <= 0 {
		t.Fatal("initial speedup setting must be positive")
	}
	if a := ctl.LastAllocation(); a.TauLow+a.TauHigh != 2*time.Second {
		t.Fatalf("initial allocation does not fill the cycle: %+v", a)
	}
}
