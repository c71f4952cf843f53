package experiment_test

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
)

// storedProfile writes a synthetic coordinated profile with a strictly
// convex frontier so controller sessions skip on-the-fly profiling.
func storedProfile(t *testing.T) (path string, target float64) {
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

// runToEnd runs a fresh session from the spec (with checkpointing
// stripped) and returns its summary bytes and allocation log — the
// reference an interrupted-and-restored run must reproduce exactly.
func runToEnd(t *testing.T, spec experiment.SessionSpec) ([]byte, []interface{}) {
	t.Helper()
	spec.CheckpointEvery = 0
	spec.OnCheckpoint = nil
	sess, err := experiment.NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Run(nil)
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
	return raw, log
}

// killRestore runs the spec with checkpointing, interrupts ("kills")
// the run after `afterCkpts` snapshots have landed, rebuilds a fresh
// session from the same spec, restores the last snapshot — edited by
// plant first, when non-nil — and runs it to completion, returning the
// restored run's summary and log.
func killRestore(t *testing.T, spec experiment.SessionSpec, afterCkpts int,
	plant func(*testing.T, *experiment.CellState)) ([]byte, []interface{}) {
	t.Helper()
	var last *experiment.CellState
	sink := func(cs *experiment.CellState) error { last = cs; return nil }
	spec.OnCheckpoint = sink

	first, err := experiment.NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The interrupt polls BEFORE the checkpoint hook each iteration, so
	// the kill lands one loop iteration after the target snapshot — the
	// cell has advanced past the checkpoint, and restore must rewind it.
	st := first.Run(func() bool { return first.CheckpointStats().Captured >= afterCkpts })
	if got := first.CheckpointStats(); got.Captured < afterCkpts || got.Failures != 0 {
		t.Fatalf("checkpoint stats before kill: %+v", got)
	}
	if last == nil {
		t.Fatal("no checkpoint captured before the kill")
	}
	if st.Duration >= spec.RunFor {
		t.Fatalf("kill did not interrupt: ran %v of %v", st.Duration, spec.RunFor)
	}

	if plant != nil {
		plant(t, last)
	}
	second, err := experiment.NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.RestoreState(last); err != nil {
		t.Fatal(err)
	}
	if !second.Restored() {
		t.Fatal("Restored() false after RestoreState")
	}
	st2 := second.Run(nil)
	raw, err := json.Marshal(report.NewRunSummary(second, st2))
	if err != nil {
		t.Fatal(err)
	}
	var log []interface{}
	if second.Controller != nil {
		for _, r := range second.Controller.AllocationLog() {
			log = append(log, r)
		}
	}
	return raw, log
}

func checkGolden(t *testing.T, spec experiment.SessionSpec, afterCkpts int,
	plant func(*testing.T, *experiment.CellState)) {
	t.Helper()
	wantJSON, wantLog := runToEnd(t, spec)
	gotJSON, gotLog := killRestore(t, spec, afterCkpts, plant)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("restored summary diverged:\nuninterrupted: %s\nrestored:      %s", wantJSON, gotJSON)
	}
	if len(wantLog) != len(gotLog) {
		t.Fatalf("restored run logged %d allocation cycles, uninterrupted %d", len(gotLog), len(wantLog))
	}
	for i := range wantLog {
		if !reflect.DeepEqual(wantLog[i], gotLog[i]) {
			t.Fatalf("allocation cycle %d diverged:\nuninterrupted: %+v\nrestored:      %+v",
				i, wantLog[i], gotLog[i])
		}
	}
}

// TestKillRestoreControllerGolden is the checkpoint acceptance test: a
// controller session killed mid-run and restored from its last snapshot
// finishes with byte-identical summary JSON and an identical allocation
// log, cycle for cycle — also when the snapshot carries the keys older
// controllers wrote.
func TestKillRestoreControllerGolden(t *testing.T) {
	prof, target := storedProfile(t)
	spec := experiment.SessionSpec{
		App: "spotify", Load: "BL", Controller: true,
		Profile: prof, TargetGIPS: target, Seed: 42,
		RunFor: 30 * time.Second, LogAllocations: true,
		CheckpointEvery: 3,
	}
	checkGolden(t, spec, 2, nil)
	checkGolden(t, spec, 2, plantLegacyControllerKeys)
}

// plantLegacyControllerKeys adds to the controller's snapshot the keys
// controllers wrote before the allocation cache was removed — the
// cache, its single-entry memo, the hit counter and the last solve
// path — filled with values such a controller would have held.
func plantLegacyControllerKeys(t *testing.T, cs *experiment.CellState) {
	t.Helper()
	for i := range cs.Actors {
		if cs.Actors[i].Name != "aspeo-controller" {
			continue
		}
		var st map[string]json.RawMessage
		if err := json.Unmarshal(cs.Actors[i].State, &st); err != nil {
			t.Fatal(err)
		}
		qt, alloc := st["s_prev"], st["last_alloc"]
		for k, v := range map[string]string{
			"alloc_cache":      `[{"qt":` + string(qt) + `,"alloc":` + string(alloc) + `}]`,
			"alloc_cache_hits": `7`,
			"memo_qt":          string(qt),
			"memo_alloc":       string(alloc),
			"memo_ok":          `true`,
			"last_solve_path":  `"cache"`,
		} {
			if _, ok := st[k]; ok {
				t.Fatalf("controller snapshot still writes %q", k)
			}
			st[k] = json.RawMessage(v)
		}
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		cs.Actors[i].State = raw
		return
	}
	t.Fatal("snapshot has no controller actor")
}

// TestKillRestoreGovernorGolden covers the stock-governor path: the
// interactive governor's timer state, tunable files, perf tool RNG and
// ring all come back bit-exactly.
func TestKillRestoreGovernorGolden(t *testing.T) {
	checkGolden(t, experiment.SessionSpec{
		App: "wechat", Load: "HL", Governor: "interactive", Seed: 7,
		RunFor:          20 * time.Second,
		CheckpointEvery: 4,
	}, 2, nil)
}

// TestKillRestoreFaultsGolden adds a fault scenario on top of the
// controller: the injector's RNG, schedule and hijack counts restore
// mid-torment without perturbing the stream.
func TestKillRestoreFaultsGolden(t *testing.T) {
	prof, target := storedProfile(t)
	checkGolden(t, experiment.SessionSpec{
		App: "spotify", Load: "BL", Controller: true,
		Profile: prof, TargetGIPS: target, Seed: 1234,
		Faults: "combined",
		RunFor: 30 * time.Second, LogAllocations: true,
		CheckpointEvery: 2,
	}, 3, nil)
}

// TestCheckpointSinkFailureDoesNotKillRun: losing durability is counted,
// not fatal — the session completes and reports the failures.
func TestCheckpointSinkFailureDoesNotKillRun(t *testing.T) {
	prof, target := storedProfile(t)
	spec := experiment.SessionSpec{
		App: "spotify", Load: "BL", Controller: true,
		Profile: prof, TargetGIPS: target, Seed: 42,
		RunFor: 10 * time.Second, CheckpointEvery: 2,
		OnCheckpoint: func(*experiment.CellState) error {
			return os.ErrPermission
		},
	}
	sess, err := experiment.NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Run(nil)
	if st.Duration != 10*time.Second {
		t.Fatalf("run duration %v, want full 10s", st.Duration)
	}
	stats := sess.CheckpointStats()
	if stats.Failures == 0 || stats.Captured != 0 || stats.LastErr == "" {
		t.Fatalf("checkpoint stats %+v, want only failures", stats)
	}
}

// TestCheckpointSpecValidation: checkpointing without a sink or with
// trace recording is rejected up front, not at the first capture.
func TestCheckpointSpecValidation(t *testing.T) {
	base := experiment.SessionSpec{App: "spotify", Load: "BL", Governor: "interactive"}

	s := base
	s.CheckpointEvery = 2
	if err := s.Validate(); err == nil {
		t.Error("CheckpointEvery without sink accepted")
	}
	s.OnCheckpoint = func(*experiment.CellState) error { return nil }
	s.TraceEvery = time.Millisecond
	if err := s.Validate(); err == nil {
		t.Error("checkpointing with trace recording accepted")
	}
	s.TraceEvery = 0
	if err := s.Validate(); err != nil {
		t.Errorf("valid checkpoint spec rejected: %v", err)
	}
	s.CheckpointEvery = -1
	if err := s.Validate(); err == nil {
		t.Error("negative CheckpointEvery accepted")
	}
}
