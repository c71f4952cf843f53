package replay_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"aspeo/internal/core"
	"aspeo/internal/obs"
	"aspeo/internal/platform/replay"
	"aspeo/internal/profile"
	"aspeo/internal/sim"
	"aspeo/internal/trace"
	"aspeo/internal/workload"
)

// goldenTable builds a synthetic coordinated profile with a strictly
// convex power/speedup frontier, so the optimizer's choice is unique.
func goldenTable(base float64) *profile.Table {
	t := &profile.Table{App: "golden", Load: "BL", Mode: profile.Coordinated, BaseGIPS: base}
	s, p, step := 1.0, 1.6, 0.012
	for f := 0; f < 9; f++ {
		for bw := 0; bw < 13; bw++ {
			t.Entries = append(t.Entries, profile.Entry{
				FreqIdx: 2 * f, BWIdx: bw,
				Speedup: s, PowerW: p, GIPS: s * base,
			})
			s += 0.02
			p += step
			step += 0.0004
		}
	}
	return t
}

// The golden replay property, the platform layer's acceptance test: a
// full-rate trace recorded from a live simulated run, serialized through
// JSON and replayed through platform/replay, drives a fresh controller
// (same options, same seed) to the exact same allocation sequence,
// cycle for cycle. The replay backend reconstructs the controller's
// whole observation surface bit-for-bit; nothing in the decision path
// may depend on the backend behind the platform interfaces.
func TestReplayGolden(t *testing.T) {
	tab := goldenTable(0.8)
	target := 0.5 * (tab.MinSpeedup() + tab.MaxSpeedup()) * tab.BaseGIPS
	opts := core.DefaultOptions(tab, target)
	opts.Seed = 42
	opts.LogAllocations = true
	opts.Trace = true
	const session = 30 * time.Second

	// Live run: full-rate recording attached.
	ph, err := sim.NewPhone(sim.Config{
		Foreground: workload.Spotify(), Load: workload.BaselineLoad,
		Seed: 42, ScreenOn: true, WiFiOn: true, TraceEvery: sim.DefaultStep,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(ph)
	liveTrace := obs.NewTrace()
	ph.AttachSpanSink(liveTrace)
	live, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Install(eng); err != nil {
		t.Fatal(err)
	}
	eng.Run(session, false)
	liveLog := live.AllocationLog()
	if len(liveLog) < 10 {
		t.Fatalf("live run logged only %d allocation cycles", len(liveLog))
	}

	// Round-trip the recording through the JSON wire format — the same
	// path `aspeo-run -record` and `make smoke-replay` exercise.
	var buf bytes.Buffer
	if err := ph.Recorder().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	pts, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Replayed run: a fresh controller over the trace-driven device.
	reng, err := replay.NewEngine(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	replayTrace := obs.NewTrace()
	reng.Device().(*replay.Device).AttachSpanSink(replayTrace)
	replayed, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := replayed.Install(reng); err != nil {
		t.Fatal(err)
	}
	reng.Run(session, false)
	replayLog := replayed.AllocationLog()

	if len(replayLog) != len(liveLog) {
		t.Fatalf("replay logged %d cycles, live logged %d", len(replayLog), len(liveLog))
	}
	for i := range liveLog {
		if !reflect.DeepEqual(liveLog[i], replayLog[i]) {
			t.Fatalf("allocation cycle %d diverged:\nlive:   %+v\nreplay: %+v",
				i, liveLog[i], replayLog[i])
		}
	}

	// The decision traces must agree too — the span stream is part of
	// the platform contract (Telemetry.RecordSpan records identically on
	// any backend), so `aspeo-trace diff` of live vs replay is zero
	// divergent cycles with per-stage attributes equal.
	if len(liveTrace.Spans()) == 0 {
		t.Fatal("live run emitted no spans")
	}
	if res := obs.Diff(liveTrace.Spans(), replayTrace.Spans()); !res.Identical() {
		t.Fatalf("live and replay traces diverged at cycle %d:\n%v",
			res.FirstDivergent, res.Deltas)
	}
}
