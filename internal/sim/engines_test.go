package sim_test

// Session-level golden equivalence: the event-queue core must reproduce
// the literal reference loop (Engine.RunReference) bit for bit on every
// observable surface of a full experiment session — summary JSON, the
// controller's allocation log, and full-rate trace recordings. Like the
// tracing and kill-restore goldens, these tests compare serialized
// bytes, not tolerances.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"aspeo/internal/experiment"
	"aspeo/internal/profile"
	"aspeo/internal/report"
	"aspeo/internal/sim"
	"aspeo/internal/trace"
)

// engineProfile writes the synthetic convex coordinated profile shared
// by the golden suites, so controller sessions skip on-the-fly
// profiling.
func engineProfile(t *testing.T) (path string, target float64) {
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

// runOnEngine runs the spec — on the event core, or on the reference
// loop when reference is set — with the event core's invariant
// enforcement on, and returns every observable surface: summary bytes,
// the controller allocation log, and the full-rate trace (nil unless
// TraceEvery was set). The spec must set RunFor.
func runOnEngine(t *testing.T, spec experiment.SessionSpec, reference bool) ([]byte, []interface{}, []trace.Point) {
	t.Helper()
	sess, err := experiment.NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng := sess.Harness.Engine
	eng.SetDebugInvariants(true)
	var st sim.Stats
	if reference {
		st = eng.RunReference(spec.RunFor, sess.App.DeadlineCritical)
	} else {
		st = sess.Run(nil)
	}
	raw, err := json.Marshal(report.NewRunSummary(sess, st))
	if err != nil {
		t.Fatal(err)
	}
	var log []interface{}
	if sess.Controller != nil {
		for _, r := range sess.Controller.AllocationLog() {
			log = append(log, r)
		}
	}
	var pts []trace.Point
	if rec := sess.Harness.Phone.Recorder(); rec != nil {
		pts = append(pts, rec.Points()...)
	}
	return raw, log, pts
}

// checkEngineEquivalence asserts the event core and the reference loop
// produce byte-identical outputs for the spec.
func checkEngineEquivalence(t *testing.T, spec experiment.SessionSpec) {
	t.Helper()
	evRaw, evLog, evPts := runOnEngine(t, spec, false)
	refRaw, refLog, refPts := runOnEngine(t, spec, true)
	if !bytes.Equal(evRaw, refRaw) {
		t.Fatalf("summary diverges from the reference loop:\nevent     %s\nreference %s", evRaw, refRaw)
	}
	if !reflect.DeepEqual(evLog, refLog) {
		t.Fatalf("allocation log diverges from the reference loop:\nevent     %d records %v\nreference %d records %v",
			len(evLog), evLog, len(refLog), refLog)
	}
	if len(evPts) != len(refPts) {
		t.Fatalf("trace length diverges: event %d points, reference %d", len(evPts), len(refPts))
	}
	for i := range evPts {
		if evPts[i] != refPts[i] {
			t.Fatalf("trace diverges at point %d:\nevent     %+v\nreference %+v", i, evPts[i], refPts[i])
		}
	}
}

// TestEngineEquivalenceController: the paper controller on a stored
// profile — the standard evaluation cell.
func TestEngineEquivalenceController(t *testing.T) {
	prof, target := engineProfile(t)
	checkEngineEquivalence(t, experiment.SessionSpec{
		App: "spotify", Load: "BL", Controller: true,
		Profile: prof, TargetGIPS: target, Seed: 7,
		RunFor: 60 * time.Second, LogAllocations: true,
	})
}

// TestEngineEquivalenceGovernor: stock kernel governors, the fastest
// actor cadence (20 ms sampling) — maximal event-queue churn.
func TestEngineEquivalenceGovernor(t *testing.T) {
	checkEngineEquivalence(t, experiment.SessionSpec{
		App: "wechat", Load: "HL", Governor: "interactive", Seed: 7,
		RunFor: 30 * time.Second,
	})
}

// TestEngineEquivalenceFaults: the combined chaos scenario layered on
// the controller — fault firings are scheduled events too.
func TestEngineEquivalenceFaults(t *testing.T) {
	prof, target := engineProfile(t)
	checkEngineEquivalence(t, experiment.SessionSpec{
		App: "spotify", Load: "BL", Controller: true,
		Profile: prof, TargetGIPS: target, Seed: 11,
		RunFor: 60 * time.Second, LogAllocations: true,
		Faults: "combined",
	})
}

// TestEngineEquivalenceTraced: full-rate trace recording (every engine
// step) — the strictest observable surface, one point per step.
func TestEngineEquivalenceTraced(t *testing.T) {
	checkEngineEquivalence(t, experiment.SessionSpec{
		App: "ebook", Load: "NL", Governor: "interactive", Seed: 3,
		RunFor: 10 * time.Second, TraceEvery: sim.DefaultStep,
	})
}
