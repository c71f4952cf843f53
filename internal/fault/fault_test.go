package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"aspeo/internal/perftool"
	"aspeo/internal/platform"
	"aspeo/internal/sim"
	"aspeo/internal/sysfs"
	"aspeo/internal/workload"
)

func testPhone(t *testing.T) *sim.Phone {
	t.Helper()
	ph, err := sim.NewPhone(sim.Config{
		Foreground: workload.Spotify(), Load: workload.NoLoad, Seed: 1, ScreenOn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ph
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"zero plan", Plan{}, true},
		{"full valid", Plan{
			WriteFailProb: 0.5, DropProb: 0.1, SpikeProb: 0.1, ZeroProb: 0.1,
			SpikeFactor: 4,
			Hijacks:     []Hijack{{At: time.Second, Repeat: 2 * time.Second}},
			StuckFiles:  []StuckFile{{Path: sysfs.CPUScalingSetSpeed}},
		}, true},
		{"probability above one", Plan{WriteFailProb: 1.5}, false},
		{"negative probability", Plan{DropProb: -0.1}, false},
		{"negative spike factor", Plan{SpikeFactor: -1}, false},
		{"inverted window", Plan{WriteFailProb: 0.1, WriteFailFrom: 5 * time.Second, WriteFailUntil: time.Second}, false},
		{"negative hijack time", Plan{Hijacks: []Hijack{{At: -time.Second}}}, false},
		{"stuck file no path", Plan{StuckFiles: []StuckFile{{}}}, false},
		{"negative stuck read", Plan{StuckReadFor: -time.Second}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.plan.Validate()
			if c.ok && err != nil {
				t.Fatalf("valid plan rejected: %v", err)
			}
			if !c.ok && err == nil {
				t.Fatal("invalid plan accepted")
			}
		})
	}
	// Two invalid probabilities: the error names the one declared
	// first, on every call.
	p := Plan{WriteFailProb: -1, ZeroProb: 2}
	for i := 0; i < 20; i++ {
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "WriteFailProb") {
			t.Fatalf("call %d: %v, want the error to name WriteFailProb", i, err)
		}
	}
}

func TestPlanActive(t *testing.T) {
	if (Plan{}).Active() {
		t.Fatal("zero plan reported active")
	}
	for i, p := range []Plan{
		{WriteFailProb: 0.1},
		{Hijacks: []Hijack{{}}},
		{StuckFiles: []StuckFile{{Path: "x"}}},
		{DropProb: 0.1},
		{SpikeProb: 0.1},
		{ZeroProb: 0.1},
		{StuckReadFor: time.Second},
	} {
		if !p.Active() {
			t.Fatalf("plan %d should be active", i)
		}
	}
}

// A hijack fires at its scheduled time, rewrites the governor with root
// semantics, clamps the max-freq bound, and re-fires at its period.
func TestHijackFiresOnSchedule(t *testing.T) {
	ph := testPhone(t)
	fs := ph.FS()
	if err := fs.Write(sysfs.CPUScalingGovernor, platform.GovUserspace); err != nil {
		t.Fatal(err)
	}
	maxIdx := len(ph.SoC().CPUFreqs) - 1
	ph.SetFreqIdx(maxIdx)
	capKHz := ph.SoC().Freq(2).KHz()

	in := MustNewInjector(Plan{Hijacks: []Hijack{{
		At: 2 * time.Second, MaxFreqKHz: capKHz, Repeat: 3 * time.Second,
	}}}, 1)

	in.Tick(time.Second, ph)
	if gov, _ := fs.Read(sysfs.CPUScalingGovernor); gov != platform.GovUserspace {
		t.Fatalf("hijack fired early: governor %q at t=1s", gov)
	}
	in.Tick(2*time.Second, ph)
	if gov, _ := fs.Read(sysfs.CPUScalingGovernor); gov != platform.GovInteractive {
		t.Fatalf("governor %q after hijack, want default interactive", gov)
	}
	if mf, _ := fs.Read(sysfs.CPUScalingMaxFreq); mf != strconv.Itoa(capKHz) {
		t.Fatalf("max_freq %q after hijack, want %d", mf, capKHz)
	}
	if ph.CurFreqIdx() > 2 {
		t.Fatalf("running frequency idx %d not clamped to 2", ph.CurFreqIdx())
	}
	if in.Counts().Hijacks != 1 {
		t.Fatalf("Hijacks = %d, want 1", in.Counts().Hijacks)
	}

	// Repair, then the repeat must re-fire one period later.
	fs.Set(sysfs.CPUScalingGovernor, platform.GovUserspace)
	in.Tick(4*time.Second, ph)
	if in.Counts().Hijacks != 1 {
		t.Fatal("repeat fired before its period elapsed")
	}
	in.Tick(5*time.Second, ph)
	if in.Counts().Hijacks != 2 {
		t.Fatalf("Hijacks = %d after repeat period, want 2", in.Counts().Hijacks)
	}
	if gov, _ := fs.Read(sysfs.CPUScalingGovernor); gov != platform.GovInteractive {
		t.Fatal("repeat hijack did not rewrite the governor")
	}
}

// One-shot hijacks fire exactly once.
func TestHijackOneShot(t *testing.T) {
	ph := testPhone(t)
	in := MustNewInjector(Plan{Hijacks: []Hijack{{At: time.Second}}}, 1)
	for now := time.Duration(0); now <= 10*time.Second; now += 100 * time.Millisecond {
		in.Tick(now, ph)
	}
	if in.Counts().Hijacks != 1 {
		t.Fatalf("one-shot hijack fired %d times", in.Counts().Hijacks)
	}
}

// Stuck files reject every write from their onset with EBUSY while the
// old value stays readable; probabilistic failures alternate EBUSY and
// EINVAL.
func TestInterceptWrite(t *testing.T) {
	ph := testPhone(t)
	fs := ph.FS()
	fs.Write(sysfs.CPUScalingGovernor, platform.GovUserspace)

	in := MustNewInjector(Plan{
		WriteFailProb: 1, // deterministic: every faultable write fails
		StuckFiles:    []StuckFile{{Path: sysfs.CPUScalingMaxFreq, From: 5 * time.Second}},
	}, 1)
	dev := WrapActuator(ph, in)

	// Before the stuck onset the file accepts writes.
	in.Tick(time.Second, ph)
	if err := dev.WriteFile(sysfs.CPUScalingMaxFreq, "1000000"); err != nil {
		t.Fatalf("write before stuck onset failed: %v", err)
	}
	in.Tick(5*time.Second, ph)
	if err := dev.WriteFile(sysfs.CPUScalingMaxFreq, "2649600"); !errorsIsBusy(err) {
		t.Fatalf("stuck file write error = %v, want EBUSY", err)
	}
	if v, _ := fs.Read(sysfs.CPUScalingMaxFreq); v != "1000000" {
		t.Fatalf("stuck file value changed to %q", v)
	}
	if in.Counts().StuckWrites != 1 {
		t.Fatalf("StuckWrites = %d", in.Counts().StuckWrites)
	}

	// Probabilistic failures on the actuation file alternate errno.
	err1 := dev.WriteFile(sysfs.CPUScalingSetSpeed, "1000000")
	err2 := dev.WriteFile(sysfs.CPUScalingSetSpeed, "1000000")
	if !errorsIsBusy(err1) {
		t.Fatalf("first failure = %v, want EBUSY", err1)
	}
	if !errorsIsInvalid(err2) {
		t.Fatalf("second failure = %v, want EINVAL", err2)
	}
	if in.Counts().WriteFailures != 2 {
		t.Fatalf("WriteFailures = %d", in.Counts().WriteFailures)
	}

	// Non-faultable paths pass through untouched.
	if err := dev.WriteFile(sysfs.CPUScalingGovernor, platform.GovUserspace); err != nil {
		t.Fatalf("non-faultable write failed: %v", err)
	}
}

// The write-failure window bounds probabilistic failures.
func TestWriteFailureWindow(t *testing.T) {
	ph := testPhone(t)
	fs := ph.FS()
	fs.Write(sysfs.CPUScalingGovernor, platform.GovUserspace)
	in := MustNewInjector(Plan{
		WriteFailProb: 1,
		WriteFailFrom: 2 * time.Second, WriteFailUntil: 4 * time.Second,
	}, 1)
	dev := WrapActuator(ph, in)

	check := func(now time.Duration, wantFail bool) {
		t.Helper()
		in.Tick(now, ph)
		err := dev.WriteFile(sysfs.CPUScalingSetSpeed, "1000000")
		if wantFail && err == nil {
			t.Fatalf("write at %v succeeded inside the failure window", now)
		}
		if !wantFail && err != nil {
			t.Fatalf("write at %v failed outside the window: %v", now, err)
		}
	}
	check(time.Second, false)
	check(2*time.Second, true)
	check(3*time.Second, true)
	check(4*time.Second, false)
}

// The perf hook delivers drops, zeros, spikes and stuck windows with the
// planned semantics and counts each delivered fault.
func TestInterceptReading(t *testing.T) {
	in := MustNewInjector(Plan{ZeroProb: 1}, 1)
	r, keep := in.interceptReading(perftool.Reading{GIPS: 2, EndedAt: time.Second})
	if !keep || r.GIPS != 0 {
		t.Fatalf("zero fault: keep=%v gips=%v", keep, r.GIPS)
	}
	if in.Counts().ZeroReads != 1 {
		t.Fatalf("ZeroReads = %d", in.Counts().ZeroReads)
	}

	in = MustNewInjector(Plan{DropProb: 1}, 1)
	if _, keep := in.interceptReading(perftool.Reading{GIPS: 2}); keep {
		t.Fatal("drop fault kept the reading")
	}
	if in.Counts().DroppedSamples != 1 {
		t.Fatalf("DroppedSamples = %d", in.Counts().DroppedSamples)
	}

	in = MustNewInjector(Plan{SpikeProb: 1}, 1) // default factor 4
	r, keep = in.interceptReading(perftool.Reading{GIPS: 2})
	if !keep || r.GIPS != 8 {
		t.Fatalf("spike fault: keep=%v gips=%v, want 8", keep, r.GIPS)
	}

	// Stuck window: readings freeze at the last clean value.
	in = MustNewInjector(Plan{StuckReadFrom: 2 * time.Second, StuckReadFor: 3 * time.Second}, 1)
	r, _ = in.interceptReading(perftool.Reading{GIPS: 1.5, EndedAt: time.Second})
	if r.GIPS != 1.5 {
		t.Fatal("clean reading altered before stuck window")
	}
	r, _ = in.interceptReading(perftool.Reading{GIPS: 9, EndedAt: 3 * time.Second})
	if r.GIPS != 1.5 {
		t.Fatalf("stuck reading = %v, want frozen 1.5", r.GIPS)
	}
	r, _ = in.interceptReading(perftool.Reading{GIPS: 9, EndedAt: 6 * time.Second})
	if r.GIPS != 9 {
		t.Fatalf("reading after stuck window = %v, want 9", r.GIPS)
	}
	if in.Counts().StuckReads != 1 {
		t.Fatalf("StuckReads = %d", in.Counts().StuckReads)
	}
}

// Determinism: the same (plan, seed) delivers the same fault sequence;
// different seeds differ.
func TestInjectorDeterminism(t *testing.T) {
	plan := Plan{
		WriteFailProb: 0.3, DropProb: 0.2, SpikeProb: 0.1, ZeroProb: 0.05,
	}
	runOnce := func(seed int64) string {
		ph := testPhone(t)
		fs := ph.FS()
		fs.Write(sysfs.CPUScalingGovernor, platform.GovUserspace)
		in := MustNewInjector(plan, seed)
		dev := WrapActuator(ph, in)
		var sig string
		for i := 0; i < 200; i++ {
			err := dev.WriteFile(sysfs.CPUScalingSetSpeed, "1000000")
			r, keep := in.interceptReading(perftool.Reading{GIPS: 1, Seq: i})
			sig += fmt.Sprintf("%v|%v|%v;", err != nil, keep, r.GIPS)
		}
		return sig + fmt.Sprintf("%+v", in.Counts())
	}
	if runOnce(42) != runOnce(42) {
		t.Fatal("same (plan, seed) produced different fault sequences")
	}
	if runOnce(42) == runOnce(43) {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

// A zero probability must not consume an rng draw: adding an inactive
// fault type to a plan must not change the sequence of the active one.
func TestZeroProbConsumesNoDraw(t *testing.T) {
	seq := func(plan Plan) string {
		in := MustNewInjector(plan, 7)
		var sig string
		for i := 0; i < 100; i++ {
			_, keep := in.interceptReading(perftool.Reading{GIPS: 1})
			sig += fmt.Sprintf("%v", keep)
		}
		return sig
	}
	base := seq(Plan{DropProb: 0.3})
	withInactive := seq(Plan{DropProb: 0.3, SpikeProb: 0, ZeroProb: 0})
	if base != withInactive {
		t.Fatal("inactive fault types perturbed the active drop sequence")
	}
}

func errorsIsBusy(err error) bool    { return errors.Is(err, sysfs.ErrBusy) }
func errorsIsInvalid(err error) bool { return errors.Is(err, sysfs.ErrInvalid) }
