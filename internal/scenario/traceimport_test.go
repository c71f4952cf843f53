package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aspeo/internal/experiment"
	"aspeo/internal/sim"
	"aspeo/internal/trace"
	"aspeo/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// syntheticTracePoints builds a small two-level trace: ~3s around 0.4
// GIPS, then ~3s around 1.2 GIPS, sampled every 100ms with exact
// cumulative counters.
func syntheticTracePoints() []trace.Point {
	var pts []trace.Point
	cum := 0.0
	for i := 0; i <= 60; i++ {
		t := time.Duration(i) * 100 * time.Millisecond
		g := 0.4
		if i >= 30 {
			g = 1.2
		}
		pts = append(pts, trace.Point{T: t, GIPS: g, CumInstr: cum})
		cum += g * 1e9 * 0.1
	}
	return pts
}

func TestImportTraceMergesSteadyWindows(t *testing.T) {
	w, err := ImportTrace("short", syntheticTracePoints())
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "trace:short" {
		t.Errorf("name %q", w.Name)
	}
	// Two demand levels → two merged phases.
	if len(w.Phases) != 2 {
		t.Fatalf("got %d phases, want 2 (merged levels): %+v", len(w.Phases), w.Phases)
	}
	if w.Phases[0].DemandGIPS > w.Phases[1].DemandGIPS {
		t.Errorf("levels out of order: %v then %v", w.Phases[0].DemandGIPS, w.Phases[1].DemandGIPS)
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("imported spec invalid: %v", err)
	}
}

func TestImportTraceDeterministic(t *testing.T) {
	w1, err := ImportTrace("a", syntheticTracePoints())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := ImportTrace("a", syntheticTracePoints())
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(w1)
	b2, _ := json.Marshal(w2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("same trace imported twice differs")
	}
}

func TestImportTraceRejectsGarbage(t *testing.T) {
	if _, err := ImportTrace("", syntheticTracePoints()); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := ImportTrace("x", nil); err == nil {
		t.Error("empty trace accepted")
	}
	pts := syntheticTracePoints()
	pts[5].T = pts[4].T // non-monotonic
	if _, err := ImportTrace("x", pts); err == nil || !strings.Contains(err.Error(), "non-monotonic") {
		t.Errorf("non-monotonic trace: got %v", err)
	}
}

// TestImportTraceRejectsHugeSpan: the span sizes the import's work, so
// a trace longer than MaxTraceSpan — or whose span overflows a Duration
// — is an error naming the trace, not an out-of-memory crash.
func TestImportTraceRejectsHugeSpan(t *testing.T) {
	for _, pts := range [][]trace.Point{
		{{T: 0, GIPS: 1}, {T: 1 << 62, GIPS: 1}},
		{{T: -1 << 62, GIPS: 1}, {T: 1 << 62, GIPS: 1}},
		{{T: 0, GIPS: 1}, {T: MaxTraceSpan + 1, GIPS: 1}},
	} {
		_, err := ImportTrace("huge", pts)
		if err == nil || !strings.Contains(err.Error(), `"huge"`) || !strings.Contains(err.Error(), "import limit") {
			t.Errorf("span %v: got %v, want an import-limit error naming the trace", pts[1].T-pts[0].T, err)
		}
	}
	if _, err := ImportTrace("day", []trace.Point{{T: 0, GIPS: 1}, {T: MaxTraceSpan, GIPS: 1}}); err != nil {
		t.Errorf("a trace spanning exactly MaxTraceSpan: %v", err)
	}
}

// TestRecordRoundTrip is the end-to-end golden: run a real session with
// full-rate recording (the aspeo-run -record path), import the trace as
// a workload, and run a scenario session generated from it. The
// imported spec is golden-checked byte for byte; regenerate with
// `go test ./internal/scenario -run RoundTrip -update`.
func TestRecordRoundTrip(t *testing.T) {
	// 1. Record: a short governor-mode run at full rate.
	sess, err := experiment.NewSession(experiment.SessionSpec{
		App: "spotify", Load: "BL", Governor: "interactive",
		Seed: 7, RunFor: 5 * time.Second, TraceEvery: sim.DefaultStep,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess.Run(nil)
	var buf bytes.Buffer
	if err := sess.Harness.Phone.Recorder().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	// 2. Import: the recorded JSON becomes a runnable workload.
	pts, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ImportTrace("recorded", pts)
	if err != nil {
		t.Fatal(err)
	}

	got, err := json.MarshalIndent(w, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "import_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("imported spec differs from golden (run with -update after intended changes)\ngot:  %d bytes\nwant: %d bytes", len(got), len(want))
	}

	// 3. Run: a scenario over the imported trace generates sessions the
	// experiment layer accepts and completes.
	sc := &Spec{
		Name: "replay", Seed: 3, Sessions: 2, HorizonS: 60,
		Cohorts:        []Cohort{{Name: "r", Weight: 1, Apps: []string{"trace:recorded"}, RunForS: 2}},
		TraceWorkloads: map[string]*workload.Spec{"recorded": w},
	}
	g, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	run, err := experiment.NewSession(g.Sessions[0].SessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := run.Run(nil)
	if st.Duration <= 0 {
		t.Fatalf("replayed session did not run: %+v", st)
	}
}
