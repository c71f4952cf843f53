package experiment_test

// External test package: these tests compare traced and untraced runs
// through report.RunSummary, and report imports experiment — so they
// live outside the package to keep the import graph acyclic, exactly
// like the fleet golden test.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"aspeo/internal/experiment"
	"aspeo/internal/obs"
	"aspeo/internal/profile"
	"aspeo/internal/report"
)

// traceProfile writes a synthetic coordinated profile to a temp file so
// controller sessions skip on-the-fly profiling (same shape as the fleet
// golden fixture: strictly convex frontier, unique optimizer choice).
func traceProfile(t *testing.T) (path string, target float64) {
	t.Helper()
	tab := &profile.Table{App: "golden", Load: "BL", Mode: profile.Coordinated, BaseGIPS: 0.8}
	s, p, step := 1.0, 1.6, 0.012
	for f := 0; f < 9; f++ {
		for bw := 0; bw < 13; bw++ {
			tab.Entries = append(tab.Entries, profile.Entry{
				FreqIdx: 2 * f, BWIdx: bw,
				Speedup: s, PowerW: p, GIPS: s * tab.BaseGIPS,
			})
			s += 0.02
			p += step
			step += 0.0004
		}
	}
	path = filepath.Join(t.TempDir(), "golden.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, 0.5 * (tab.MinSpeedup() + tab.MaxSpeedup()) * tab.BaseGIPS
}

func traceSpec(prof string, target float64, seed int64, sink obs.Sink) experiment.SessionSpec {
	return experiment.SessionSpec{
		App: "spotify", Load: "BL", Controller: true,
		Profile: prof, TargetGIPS: target, Seed: seed,
		RunFor: 30 * time.Second, LogAllocations: true,
		Trace: sink,
	}
}

func runTraced(t *testing.T, spec experiment.SessionSpec) (report.RunSummary, *experiment.Session) {
	t.Helper()
	sess, err := experiment.NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Run(nil)
	return report.NewRunSummary(sess, st), sess
}

// TestTracingGoldenIdentity is the tentpole acceptance test: enabling
// decision tracing must not change the run. Summary JSON and the
// controller's allocation log compare byte-for-byte and
// record-for-record against an untraced run of the same seed.
func TestTracingGoldenIdentity(t *testing.T) {
	prof, target := traceProfile(t)

	plainSum, plainSess := runTraced(t, traceSpec(prof, target, 42, nil))
	tr := obs.NewTrace()
	tracedSum, tracedSess := runTraced(t, traceSpec(prof, target, 42, tr))

	plainJSON, err := json.Marshal(plainSum)
	if err != nil {
		t.Fatal(err)
	}
	tracedJSON, err := json.Marshal(tracedSum)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainJSON, tracedJSON) {
		t.Fatalf("tracing changed the summary:\nplain:  %s\ntraced: %s", plainJSON, tracedJSON)
	}

	plainLog := plainSess.Controller.AllocationLog()
	tracedLog := tracedSess.Controller.AllocationLog()
	if len(plainLog) < 10 {
		t.Fatalf("run logged only %d allocation cycles", len(plainLog))
	}
	if !reflect.DeepEqual(plainLog, tracedLog) {
		t.Fatal("tracing changed the allocation log")
	}
	if len(tr.Spans()) == 0 {
		t.Fatal("traced run emitted no spans")
	}
}

// TestTraceSmoke is the smoke-trace target's substance: two runs of the
// same seed must produce traces with zero divergent cycles (including
// across an NDJSON round trip, the aspeo-trace diff path), and two
// different seeds must diverge at a definite first cycle.
func TestTraceSmoke(t *testing.T) {
	prof, target := traceProfile(t)

	trA := obs.NewTrace()
	runTraced(t, traceSpec(prof, target, 42, trA))
	trB := obs.NewTrace()
	runTraced(t, traceSpec(prof, target, 42, trB))

	if res := obs.Diff(trA.Spans(), trB.Spans()); !res.Identical() {
		t.Fatalf("same-seed traces diverged at cycle %d: %v", res.FirstDivergent, res.Deltas)
	}

	// The on-disk representation is part of the determinism contract:
	// a written-and-reread trace still diffs clean against the live one.
	var buf bytes.Buffer
	if err := obs.WriteNDJSON(&buf, trA.Spans()); err != nil {
		t.Fatal(err)
	}
	reread, err := obs.ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res := obs.Diff(trA.Spans(), reread); !res.Identical() {
		t.Fatalf("NDJSON round trip diverged at cycle %d: %v", res.FirstDivergent, res.Deltas)
	}

	trC := obs.NewTrace()
	runTraced(t, traceSpec(prof, target, 43, trC))
	res := obs.Diff(trA.Spans(), trC.Spans())
	if res.Identical() {
		t.Fatal("different seeds produced identical traces")
	}
	if res.FirstDivergent < 1 {
		t.Fatalf("FirstDivergent = %d, want a definite cycle", res.FirstDivergent)
	}
	if len(res.Deltas) == 0 {
		t.Fatal("divergence reported without attribute deltas")
	}
}

// TestTraceGolden pins the NDJSON dump format byte for byte: a traced
// stuck-perf cell (gate verdicts, a degrade and a relinquish on the
// ladder, last_transition on the cycle spans) must reproduce the
// committed dump and its `aspeo-trace summary` text exactly.
func TestTraceGolden(t *testing.T) {
	prof, target := traceProfile(t)
	tr := obs.NewTrace()
	spec := traceSpec(prof, target, 42, tr)
	spec.Faults = "stuck-perf"
	spec.RunFor = 60 * time.Second
	runTraced(t, spec)

	var dump, summary bytes.Buffer
	if err := obs.WriteNDJSON(&dump, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	obs.WriteSummary(&summary, obs.Summarize(tr.Spans()))
	for _, c := range []struct {
		file string
		got  []byte
	}{
		{"trace_stuck_perf.ndjson", dump.Bytes()},
		{"trace_stuck_perf.summary.txt", summary.Bytes()},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want) {
			t.Fatalf("%s: output differs from the golden\ngot:\n%s", c.file, c.got)
		}
	}
}
