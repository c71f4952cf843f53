package core

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"aspeo/internal/fault"
	"aspeo/internal/governor"
	"aspeo/internal/obs"
	"aspeo/internal/perftool"
	"aspeo/internal/sysfs"
	"aspeo/internal/workload"
)

// Tracing is observation only: a traced run must be decision-for-decision
// identical to an untraced run of the same seed — same allocation log,
// same health ledger, same final estimates.
func TestTracingDoesNotPerturbController(t *testing.T) {
	tab := syntheticTable(0.13)
	plan := fault.Plan{WriteFailProb: 0.2, SpikeProb: 0.05}
	run := func(traced bool) (*Controller, []obs.Span) {
		eng, ctl, _ := installController(t, workload.Spotify(), tab, 0.3, plan,
			func(o *Options) { o.LogAllocations = true; o.Trace = traced })
		var tr *obs.Trace
		if traced {
			tr = obs.NewTrace()
			eng.Phone().AttachSpanSink(tr)
		}
		eng.Run(30*time.Second, false)
		if tr == nil {
			return ctl, nil
		}
		return ctl, tr.Spans()
	}
	plain, _ := run(false)
	traced, spans := run(true)

	if !reflect.DeepEqual(plain.AllocationLog(), traced.AllocationLog()) {
		t.Fatal("tracing changed the controller's allocation decisions")
	}
	if plain.Health() != traced.Health() {
		t.Fatalf("tracing changed the health ledger:\nplain  %+v\ntraced %+v",
			plain.Health(), traced.Health())
	}
	if len(spans) == 0 {
		t.Fatal("traced run emitted no spans")
	}
}

// Every emitted span must be well formed: a known stage, a positive
// cycle ordinal, a non-decreasing backend timestamp, and unique
// attribute keys.
func TestSpanWellformedness(t *testing.T) {
	tab := syntheticTable(0.13)
	eng, _, _ := installController(t, workload.Spotify(), tab, 0.3, fault.Plan{},
		func(o *Options) { o.Trace = true })
	tr := obs.NewTrace()
	eng.Phone().AttachSpanSink(tr)
	eng.Run(20*time.Second, false)

	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans emitted")
	}
	valid := map[string]bool{
		obs.StageCycle: true, obs.StageMeasure: true, obs.StageKalman: true,
		obs.StageOptimize: true, obs.StageSchedule: true, obs.StageLadder: true,
	}
	stageSeen := map[string]bool{}
	var prevAt time.Duration
	for i, s := range spans {
		if !valid[s.Stage] {
			t.Fatalf("span %d has unknown stage %q", i, s.Stage)
		}
		stageSeen[s.Stage] = true
		if s.Cycle < 1 {
			t.Fatalf("span %d has cycle %d", i, s.Cycle)
		}
		if s.At < prevAt {
			t.Fatalf("span %d timestamp went backward: %v after %v", i, s.At, prevAt)
		}
		prevAt = s.At
		for j := 1; j < len(s.Attrs); j++ {
			if s.Attrs[j-1].Key >= s.Attrs[j].Key {
				t.Fatalf("span %d attrs not unique and sorted: %q before %q", i, s.Attrs[j-1].Key, s.Attrs[j].Key)
			}
		}
	}
	for _, stage := range []string{obs.StageCycle, obs.StageMeasure,
		obs.StageKalman, obs.StageOptimize, obs.StageSchedule} {
		if !stageSeen[stage] {
			t.Fatalf("healthy run never emitted a %q span", stage)
		}
	}
}

// A run that walks the degradation ladder must narrate it: ladder spans
// for degrade and relinquish, gate verdicts on rejected measurements,
// safe-schedule spans while degraded — and the health ledger's
// LastTransition must record the final rung.
func TestLadderSpansUnderForcedFaults(t *testing.T) {
	tab := syntheticTable(0.13)
	plan := fault.Plan{StuckFiles: []fault.StuckFile{
		{Path: sysfs.CPUScalingSetSpeed, From: 6 * time.Second},
	}}
	eng, ctl, _ := installController(t, workload.Spotify(), tab, 0.3, plan,
		func(o *Options) { o.Trace = true })
	governor.Defaults(eng)
	rec := obs.NewRecorder(0) // the flight recorder is a plain sink
	eng.Phone().AttachSpanSink(rec)
	eng.Run(60*time.Second, false)

	if !ctl.Health().Relinquished {
		t.Fatal("scenario never relinquished; test proves nothing")
	}
	if lt := ctl.Health().LastTransition; !strings.HasPrefix(lt, "relinquished@") {
		t.Fatalf("LastTransition = %q, want relinquished@<cycle>", lt)
	}

	sum := obs.Summarize(rec.Snapshot())
	var sawDegraded, sawRelinquished bool
	for _, tr := range sum.LadderTransitions {
		if strings.HasPrefix(tr, "degraded@") {
			sawDegraded = true
		}
		if strings.HasPrefix(tr, "relinquished@") {
			sawRelinquished = true
		}
	}
	if !sawDegraded || !sawRelinquished {
		t.Fatalf("ladder transitions %v missing degrade or relinquish", sum.LadderTransitions)
	}
	var sawSafe bool
	for _, s := range rec.Snapshot() {
		if safe, _ := s.Attrs.Get("safe"); s.Stage == obs.StageSchedule && safe.Bool() {
			sawSafe = true
			break
		}
	}
	if !sawSafe {
		t.Fatal("degraded cycles never emitted a safe-schedule span")
	}
}

// Gate rejections must carry their verdict into the measure span.
func TestGateVerdictInMeasureSpan(t *testing.T) {
	tab := syntheticTable(0.13)
	plan := fault.Plan{SpikeProb: 0.3}
	eng, ctl, _ := installController(t, workload.Spotify(), tab, 0.3, plan,
		func(o *Options) { o.Trace = true })
	tr := obs.NewTrace()
	eng.Phone().AttachSpanSink(tr)
	eng.Run(40*time.Second, false)

	if ctl.Health().RejectedSamples == 0 {
		t.Fatal("scenario never gated a sample; test proves nothing")
	}
	for _, s := range tr.Spans() {
		if s.Stage == obs.StageMeasure {
			if v, _ := s.Attrs.Get("gate_verdict"); v.Str() != "" {
				return
			}
		}
	}
	t.Fatal("no measure span carries a gate_verdict despite rejections")
}

// Regression: one non-finite attribute used to lose the whole dump
// (encoding/json rejects NaN, and WriteNDJSON returned before flushing).
// A perf reading that comes back NaN once is gated as non-finite; the
// trace carrying it must still write completely and round-trip.
func TestNonFiniteMeasurementTraceDumps(t *testing.T) {
	tab := syntheticTable(0.13)
	eng, ctl, _ := installController(t, workload.Spotify(), tab, 0.3, fault.Plan{},
		func(o *Options) { o.Trace = true })
	injected := false
	ctl.Perf().SetFaultHook(func(r perftool.Reading) (perftool.Reading, bool) {
		if !injected && r.EndedAt >= 10*time.Second {
			injected = true
			r.GIPS = math.NaN()
		}
		return r, true
	})
	tr := obs.NewTrace()
	eng.Phone().AttachSpanSink(tr)
	eng.Run(30*time.Second, false)

	if ctl.Health().NonFiniteSamples != 1 {
		t.Fatalf("NonFiniteSamples = %d, want 1", ctl.Health().NonFiniteSamples)
	}
	spans := tr.Spans()
	var dump bytes.Buffer
	if err := obs.WriteNDJSON(&dump, spans); err != nil {
		t.Fatal(err)
	}
	written := dump.String()
	if n := strings.Count(written, "\n"); n != len(spans) {
		t.Fatalf("dump has %d lines for %d spans", n, len(spans))
	}
	if !strings.Contains(written, `"gate_verdict":"non-finite"`) || !strings.Contains(written, `"NaN"`) {
		t.Fatal("dump lacks the non-finite measure span")
	}
	back, err := obs.ReadNDJSON(strings.NewReader(written))
	if err != nil {
		t.Fatal(err)
	}
	if res := obs.Diff(spans, back); !res.Identical() {
		t.Fatalf("round trip diverged at cycle %d: %v", res.FirstDivergent, res.Deltas)
	}
	var again bytes.Buffer
	if err := obs.WriteNDJSON(&again, back); err != nil {
		t.Fatal(err)
	}
	if again.String() != written {
		t.Fatal("rewriting the read-back trace changed its bytes")
	}
}
