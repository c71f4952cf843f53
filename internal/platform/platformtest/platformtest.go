// Package platformtest is the interface-conformance suite every
// platform.Device backend must pass. Backends import it from their own
// tests (internal/sim, internal/platform/replay) so the platform
// contract — clock monotonicity, PMU snapshot consistency, the sysfs
// governor-file protocol, actuator clamping, telemetry semantics — is
// asserted once and enforced everywhere, including future backends such
// as an adb/sysfs driver for real hardware.
package platformtest

import (
	"strconv"
	"testing"

	"aspeo/internal/obs"
	"aspeo/internal/platform"
	"aspeo/internal/pmu"
	"aspeo/internal/sysfs"
)

// Fixture is one backend instance under test. Step advances the backend
// by one of its native steps (time moves, counters may move); the suite
// calls it repeatedly, so it must stay valid for at least a few hundred
// steps.
type Fixture struct {
	Device platform.Device
	Step   func()
}

// Run executes the conformance suite against fresh fixtures from mk.
func Run(t *testing.T, name string, mk func(t *testing.T) Fixture) {
	t.Helper()
	tests := []struct {
		name string
		fn   func(t *testing.T, f Fixture)
	}{
		{"clock", testClock},
		{"pmu", testPMU},
		{"governor-files", testGovernorFiles},
		{"setspeed-protocol", testSetSpeedProtocol},
		{"root-writes", testRootWrites},
		{"create-file", testCreateFile},
		{"actuator", testActuator},
		{"thermal-cap", testThermalCap},
		{"telemetry", testTelemetry},
		{"power", testPower},
	}
	for _, tc := range tests {
		t.Run(name+"/"+tc.name, func(t *testing.T) {
			tc.fn(t, mk(t))
		})
	}
}

// testClock: time starts somewhere, never goes backward, and advances
// across steps.
func testClock(t *testing.T, f Fixture) {
	dev := f.Device
	t0 := dev.Now()
	if t0 < 0 {
		t.Fatalf("Now() = %v, want >= 0", t0)
	}
	prev := t0
	for i := 0; i < 10; i++ {
		f.Step()
		now := dev.Now()
		if now < prev {
			t.Fatalf("clock went backward: %v after %v", now, prev)
		}
		prev = now
	}
	if prev == t0 {
		t.Fatal("clock did not advance over 10 steps")
	}
}

// testPMU: snapshots are consistent and counters only move forward.
func testPMU(t *testing.T, f Fixture) {
	dev := f.Device
	before := dev.PMUSnapshot()
	for i := 0; i < 200; i++ {
		f.Step()
	}
	after := dev.PMUSnapshot()
	for _, c := range []pmu.Counter{pmu.Instructions, pmu.Cycles, pmu.BusAccessBytes} {
		if d := after.Delta(before, c); d < 0 {
			t.Fatalf("counter %v moved backward: delta %v", c, d)
		}
	}
	if d := after.Delta(before, pmu.Instructions); d == 0 {
		t.Fatal("instruction counter did not advance over 200 steps")
	}
}

// testGovernorFiles: both governor files exist, round-trip writes, and
// reject unknown interactions gracefully (missing path errors, not
// panics).
func testGovernorFiles(t *testing.T, f Fixture) {
	dev := f.Device
	for _, path := range []string{sysfs.CPUScalingGovernor, sysfs.DevFreqGovernor} {
		if !dev.FileExists(path) {
			t.Fatalf("governor file %s missing", path)
		}
		if err := dev.WriteFile(path, platform.GovUserspace); err != nil {
			t.Fatalf("writing %s: %v", path, err)
		}
		got, err := dev.ReadFile(path)
		if err != nil || got != platform.GovUserspace {
			t.Fatalf("readback of %s = %q, %v; want %q", path, got, err, platform.GovUserspace)
		}
	}
	if _, err := dev.ReadFile("/no/such/file"); err == nil {
		t.Fatal("reading a missing path succeeded")
	}
	if err := dev.WriteFile("/no/such/file", "x"); err == nil {
		t.Fatal("writing a missing path succeeded")
	}
}

// testSetSpeedProtocol: scaling_setspeed applies only under the
// userspace governor and routes to the frequency actuator, like the
// kernel's cpufreq userspace governor.
func testSetSpeedProtocol(t *testing.T, f Fixture) {
	dev := f.Device
	chip := dev.SoC()
	if err := dev.WriteFile(sysfs.CPUScalingGovernor, platform.GovInteractive); err != nil {
		t.Fatal(err)
	}
	khz := int(chip.Freq(1).GHz()*1e6 + 0.5)
	if err := dev.WriteFile(sysfs.CPUScalingSetSpeed, strconv.Itoa(khz)); err == nil {
		t.Fatal("setspeed accepted under a non-userspace governor")
	}
	if err := dev.WriteFile(sysfs.CPUScalingGovernor, platform.GovUserspace); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteFile(sysfs.CPUScalingSetSpeed, "not-a-number"); err == nil {
		t.Fatal("setspeed accepted a non-numeric value")
	}
	if err := dev.WriteFile(sysfs.CPUScalingSetSpeed, strconv.Itoa(khz)); err != nil {
		t.Fatalf("setspeed under userspace: %v", err)
	}
	if got := dev.CurFreqIdx(); got != 1 {
		t.Fatalf("CurFreqIdx = %d after setspeed to ladder index 1", got)
	}
}

// testRootWrites: SetFile bypasses the userspace protocol (hooks and
// permissions), the way a root daemon or the kernel itself mutates the
// tree.
func testRootWrites(t *testing.T, f Fixture) {
	dev := f.Device
	if err := dev.WriteFile(sysfs.CPUAvailableFreqs, "tampered"); err == nil {
		t.Fatal("userspace write to a read-only file succeeded")
	}
	dev.SetFile(sysfs.CPUScalingGovernor, platform.GovInteractive)
	if got, _ := dev.ReadFile(sysfs.CPUScalingGovernor); got != platform.GovInteractive {
		t.Fatalf("SetFile did not take effect: governor %q", got)
	}
}

// testCreateFile: backends support governors publishing tunables with a
// kernel-style store() validation hook.
func testCreateFile(t *testing.T, f Fixture) {
	dev := f.Device
	const path = "/sys/devices/test/knob"
	dev.CreateFile(path, "10", true, func(_, _, val string) error {
		if _, err := strconv.Atoi(val); err != nil {
			return err
		}
		return nil
	})
	if !dev.FileExists(path) {
		t.Fatal("created file does not exist")
	}
	if err := dev.WriteFile(path, "junk"); err == nil {
		t.Fatal("write hook did not reject an invalid value")
	}
	if got, _ := dev.ReadFile(path); got != "10" {
		t.Fatalf("rejected write changed the value to %q", got)
	}
	if err := dev.WriteFile(path, "42"); err != nil {
		t.Fatalf("valid write rejected: %v", err)
	}
	if got, _ := dev.ReadFile(path); got != "42" {
		t.Fatalf("value = %q after write, want 42", got)
	}
}

// testActuator: index setters clamp to the ladders and report through
// the Cur accessors.
func testActuator(t *testing.T, f Fixture) {
	dev := f.Device
	chip := dev.SoC()
	top := len(chip.CPUFreqs) - 1
	dev.SetFreqIdx(top + 100)
	if got := dev.CurFreqIdx(); got != top {
		t.Fatalf("CurFreqIdx = %d after over-range request, want %d", got, top)
	}
	dev.SetFreqIdx(-5)
	if got := dev.CurFreqIdx(); got != 0 {
		t.Fatalf("CurFreqIdx = %d after under-range request, want 0", got)
	}
	topBW := len(chip.MemBWs) - 1
	dev.SetBWIdx(topBW + 100)
	if got := dev.CurBWIdx(); got != topBW {
		t.Fatalf("CurBWIdx = %d after over-range request, want %d", got, topBW)
	}
}

// testThermalCap: an active cap bounds requests (and the current point),
// a negative value lifts it.
func testThermalCap(t *testing.T, f Fixture) {
	dev := f.Device
	chip := dev.SoC()
	top := len(chip.CPUFreqs) - 1
	dev.SetFreqIdx(top)
	dev.SetThermalCapIdx(1)
	if got := dev.ThermalCapIdx(); got != 1 {
		t.Fatalf("ThermalCapIdx = %d, want 1", got)
	}
	if got := dev.CurFreqIdx(); got > 1 {
		t.Fatalf("CurFreqIdx = %d above an active cap of 1", got)
	}
	dev.SetFreqIdx(top)
	if got := dev.CurFreqIdx(); got > 1 {
		t.Fatalf("request above the cap landed at %d", got)
	}
	dev.SetThermalCapIdx(-1)
	if got := dev.ThermalCapIdx(); got != -1 {
		t.Fatalf("ThermalCapIdx = %d after lifting, want -1", got)
	}
	dev.SetFreqIdx(top)
	if got := dev.CurFreqIdx(); got != top {
		t.Fatalf("CurFreqIdx = %d after lifting the cap, want %d", got, top)
	}
}

// testTelemetry: cumulative counters never decrease and TakeTouches
// drains.
func testTelemetry(t *testing.T, f Fixture) {
	dev := f.Device
	busy0, core0, traffic0 := dev.CumMachineBusySec(), dev.CumBusyCoreSec(), dev.CumTrafficBytes()
	for i := 0; i < 200; i++ {
		f.Step()
	}
	if b := dev.CumMachineBusySec(); b < busy0 {
		t.Fatalf("CumMachineBusySec decreased: %v -> %v", busy0, b)
	}
	if c := dev.CumBusyCoreSec(); c < core0 {
		t.Fatalf("CumBusyCoreSec decreased: %v -> %v", core0, c)
	}
	if tr := dev.CumTrafficBytes(); tr < traffic0 {
		t.Fatalf("CumTrafficBytes decreased: %v -> %v", traffic0, tr)
	}
	dev.TakeTouches()
	if n := dev.TakeTouches(); n != 0 {
		t.Fatalf("second TakeTouches = %d, want 0 (drain semantics)", n)
	}

	// Health recording: zero before any publication, read-back equal
	// after, and recording must not perturb the device's trajectory
	// (the clock keeps advancing identically either way — asserted
	// implicitly by the determinism suites that run with controllers
	// attached, which record every cycle).
	if h := dev.LastHealth(); h != (platform.Health{}) {
		t.Fatalf("LastHealth before any RecordHealth = %+v, want zero", h)
	}
	want := platform.Health{HealthCounts: platform.HealthCounts{
		ActuationFailures: 3, RejectedSamples: 2, StuckSamples: 2, WatchdogTrips: 1,
	}}
	dev.RecordHealth(want)
	if got := dev.LastHealth(); got != want {
		t.Fatalf("LastHealth = %+v, want %+v", got, want)
	}
	dev.RecordHealth(platform.Health{})

	// Span recording: with no sink attached, RecordSpan must be a safe
	// no-op (dropped, not buffered), and like RecordHealth it must not
	// perturb the device — same clock and counters before and after.
	now0, busy1 := dev.Now(), dev.CumMachineBusySec()
	dev.RecordSpan(obs.Span{Cycle: 1, Stage: obs.StageCycle, At: now0,
		Attrs: obs.Attrs{obs.Bool("probe", true)}})
	if got := dev.Now(); got != now0 {
		t.Fatalf("RecordSpan advanced the clock: %v -> %v", now0, got)
	}
	if b := dev.CumMachineBusySec(); b != busy1 {
		t.Fatalf("RecordSpan changed CumMachineBusySec: %v -> %v", busy1, b)
	}
}

// testPower: the rail reads sanely after a step and the instrumentation
// hooks are accepted (possibly as no-ops).
func testPower(t *testing.T, f Fixture) {
	dev := f.Device
	for i := 0; i < 5; i++ {
		f.Step()
	}
	p, cpu := dev.LastPowerW(), dev.LastCPUPowerW()
	if p < 0 || cpu < 0 {
		t.Fatalf("negative power: device %v, cpu %v", p, cpu)
	}
	if cpu > p {
		t.Fatalf("CPU power %v exceeds device power %v", cpu, p)
	}
	dev.SetPerfOverhead(0.04, 0.015)
	dev.AddOverlayEnergyJ(1e-3)
	dev.SetPerfOverhead(0, 0)
	f.Step()
}
