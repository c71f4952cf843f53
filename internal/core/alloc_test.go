package core

import (
	"testing"
	"time"

	"aspeo/internal/obs"
	"aspeo/internal/sim"
	"aspeo/internal/workload"
)

// steadyCell builds a cell pinned into the controller's steady state:
// the target sits far above the table's reach, so the regulator clamps
// the demand to the maximum speedup on every cycle — the quantized
// target never moves, every optimize() after the first is a cache hit,
// and measurement noise cannot perturb the allocation. That is the
// fault-free cache-hit steady state whose allocation budget the hot
// path pins to zero.
//
// With a non-nil sink the cell is traced: Options.Trace is on and every
// span reaches the sink.
func steadyCell(tb testing.TB, sink obs.Sink) (*sim.Engine, *Controller) {
	tb.Helper()
	ph, err := sim.NewPhone(sim.Config{
		Foreground: workload.Spotify(), Load: workload.NoLoad, Seed: 7,
		ScreenOn: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	eng := sim.NewEngine(ph)
	tab := syntheticTable(0.09)
	opts := DefaultOptions(tab, 100*tab.BaseGIPS*tab.MaxSpeedup())
	opts.Seed = 7
	if sink != nil {
		opts.Trace = true
		ph.AttachSpanSink(sink)
	}
	ctl, err := New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	if err := ctl.Install(eng); err != nil {
		tb.Fatal(err)
	}
	return eng, ctl
}

// The fault-free cache-hit steady state must not allocate: scratch
// buffers, value strings and the single-entry optimize memo are all
// reused, so a control cycle is heap-silent once warm. This is the
// regression pin for the hot-path work — any new per-cycle allocation
// (a map rebuild, a fresh attr set, a fmt call) fails it.
func TestSteadyStateCycleZeroAllocs(t *testing.T) {
	eng, ctl := steadyCell(t, nil)
	eng.Run(30*time.Second, false) // warm: caches filled, buffers grown

	allocs := testing.AllocsPerRun(10, func() {
		eng.Run(2*time.Second, false) // one control cycle
	})
	if allocs != 0 {
		t.Fatalf("steady-state control cycle allocates %.1f objects, want 0", allocs)
	}
	if hits := ctl.AllocCacheHits(); hits == 0 {
		t.Fatal("cell never hit the allocation cache; the test is not measuring the steady state")
	}
}

// Decision tracing keeps the steady state heap-silent too: the
// controller builds every span in its scratch array, and a flight
// recorder that has wrapped reuses its storage for the copies it keeps.
func TestSteadyStateTracedCycleZeroAllocs(t *testing.T) {
	rec := obs.NewRecorder(16)
	eng, ctl := steadyCell(t, rec)
	eng.Run(30*time.Second, false) // 15 cycles, 75 spans: wrapped several times

	allocs := testing.AllocsPerRun(10, func() {
		eng.Run(2*time.Second, false)
	})
	if allocs != 0 {
		t.Fatalf("traced steady-state control cycle allocates %.1f objects, want 0", allocs)
	}
	if rec.Dropped() == 0 || ctl.AllocCacheHits() == 0 {
		t.Fatal("recorder never wrapped or cell never hit the cache; the test is not measuring the steady state")
	}
}

// BenchmarkControllerCycle measures one steady-state control cycle end
// to end (engine, device, perf sampling, controller), untraced and
// traced into a wrapped flight recorder. `make bench` runs it with
// -benchtime=1x to keep it compiling; run it with real benchtime for
// numbers. ReportAllocs keeps the 0 allocs/op visible.
func BenchmarkControllerCycle(b *testing.B) {
	for _, c := range []struct {
		name string
		sink obs.Sink
	}{{"untraced", nil}, {"traced", obs.NewRecorder(0)}} {
		b.Run(c.name, func(b *testing.B) {
			eng, _ := steadyCell(b, c.sink)
			eng.Run(30*time.Second, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Run(2*time.Second, false)
			}
		})
	}
}

// AllocationLog must return a copy: a caller sorting or mutating the
// returned slice — or holding it across further cycles — must never
// corrupt, or be corrupted by, the controller's own log.
func TestAllocationLogReturnsCopy(t *testing.T) {
	ph, err := sim.NewPhone(sim.Config{
		Foreground: workload.Spotify(), Load: workload.NoLoad, Seed: 3,
		ScreenOn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(ph)
	opts := DefaultOptions(syntheticTable(0.09), 0.12)
	opts.Seed = 3
	opts.LogAllocations = true
	ctl, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Install(eng); err != nil {
		t.Fatal(err)
	}
	eng.Run(10*time.Second, false)

	got := ctl.AllocationLog()
	if len(got) == 0 {
		t.Fatal("no allocation records after 10 s")
	}
	want := got[0]
	got[0].Target = -99
	got[0].Alloc.ExpectedSpeedup = -1
	if again := ctl.AllocationLog(); again[0] != want {
		t.Fatalf("mutating the returned log reached the controller: %+v", again[0])
	}

	// The snapshot must also be stable against the controller appending
	// more cycles after it was taken.
	snap := ctl.AllocationLog()
	n := len(snap)
	eng.Run(10*time.Second, false)
	if len(snap) != n {
		t.Fatalf("snapshot grew from %d to %d with the controller", n, len(snap))
	}
	if snap[0] != want {
		t.Fatalf("snapshot mutated by later cycles: %+v", snap[0])
	}
	if len(ctl.AllocationLog()) <= n {
		t.Fatal("controller log did not grow; the aliasing check proved nothing")
	}
}

// An un-logged controller returns nil, not an empty copy.
func TestAllocationLogNilWhenDisabled(t *testing.T) {
	ctl, err := New(DefaultOptions(syntheticTable(0.09), 0.12))
	if err != nil {
		t.Fatal(err)
	}
	if got := ctl.AllocationLog(); got != nil {
		t.Fatalf("AllocationLog = %v without LogAllocations, want nil", got)
	}
}
