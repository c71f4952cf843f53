package experiment_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"aspeo/internal/ckpt"
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
	return writeProfile(t, tab), 0.5 * (tab.MinSpeedup() + tab.MaxSpeedup()) * tab.BaseGIPS
}

// writeProfile stores the table in the test's temporary directory and
// returns its path.
func writeProfile(t *testing.T, tab *profile.Table) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), tab.App+".json")
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
	return path
}

// governedProfile writes a synthetic CPU-only (governed-bandwidth)
// profile, the table a CPU-only controller runs on.
func governedProfile(t *testing.T) string {
	t.Helper()
	tab := &profile.Table{App: "governed", Load: "BL", Mode: profile.Governed, BaseGIPS: 0.8}
	for f := 0; f < 9; f++ {
		s := 1 + 0.1*float64(f)
		tab.Entries = append(tab.Entries, profile.Entry{
			FreqIdx: 2 * f, BWIdx: profile.GovernedBW,
			Speedup: s, PowerW: 1.6 + 0.05*float64(f*f), GIPS: s * tab.BaseGIPS,
		})
	}
	return writeProfile(t, tab)
}

// TestCPUOnlySessionRunsOneDevfreq: a CPU-only controller leaves the
// memory bus to exactly one cpubw_hwmon — its own without faults, the
// standby pair's under faults — never two deciding the bus in turn.
func TestCPUOnlySessionRunsOneDevfreq(t *testing.T) {
	prof := governedProfile(t)
	for _, faults := range []string{"", "noisy-perf"} {
		sess, err := experiment.NewSession(experiment.SessionSpec{
			App: "ebook", Load: "BL", Controller: true, CPUOnly: true,
			Profile: prof, TargetGIPS: 1, Seed: 101, Faults: faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		actors, err := sess.Harness.Engine.CheckpointActors()
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		devfreqs := 0
		for _, a := range actors {
			names = append(names, a.Name)
			if a.Name == "devfreq" {
				devfreqs++
			}
		}
		if devfreqs != 1 {
			t.Errorf("faults %q: %d devfreq actors in %v, want 1", faults, devfreqs, names)
		}
	}
}

// builder builds a session cell from a spec: experiment.NewSession, or
// a package-internal builder for a cell no SessionSpec describes.
type builder func(experiment.SessionSpec) (*experiment.Session, error)

// runToEnd runs a fresh session from the spec (with checkpointing
// stripped) and returns its summary bytes and allocation log — the
// reference an interrupted-and-restored run must reproduce exactly.
func runToEnd(t *testing.T, build builder, spec experiment.SessionSpec) ([]byte, []interface{}) {
	t.Helper()
	spec.CheckpointEvery = 0
	spec.OnCheckpoint = nil
	sess, err := build(spec)
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
func killRestore(t *testing.T, build builder, spec experiment.SessionSpec, afterCkpts int,
	plant func(*testing.T, *experiment.CellState)) ([]byte, []interface{}) {
	t.Helper()
	var last *experiment.CellState
	sink := func(cs *experiment.CellState) error { last = cs; return nil }
	spec.OnCheckpoint = sink

	first, err := build(spec)
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
	second, err := build(spec)
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
	checkGoldenBuilt(t, experiment.NewSession, spec, afterCkpts, plant)
}

// checkGoldenBuilt is checkGolden for cells that build runs.
func checkGoldenBuilt(t *testing.T, build builder, spec experiment.SessionSpec, afterCkpts int,
	plant func(*testing.T, *experiment.CellState)) {
	t.Helper()
	wantJSON, wantLog := runToEnd(t, build, spec)
	gotJSON, gotLog := killRestore(t, build, spec, afterCkpts, plant)
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
// controllers and phones wrote.
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
	checkGolden(t, spec, 2, plantLegacyPhoneHealth)
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

// plantLegacyPhoneHealth gives the snapshot the keys older phones and
// engines wrote — the phone's "health" copy of the controller's ledger
// (as of its last cycle) and "cum_traffic_bytes" (the PMU's bus count),
// and the run cursor's "start_cycles" and "start_bus" (zero at this
// session's run entry) — and round-trips the snapshot through a
// checkpoint file, whose decoder must drop them.
func plantLegacyPhoneHealth(t *testing.T, cs *experiment.CellState) {
	t.Helper()
	var ledger json.RawMessage
	for _, a := range cs.Actors {
		if a.Name != "aspeo-controller" {
			continue
		}
		var st map[string]json.RawMessage
		if err := json.Unmarshal(a.State, &st); err != nil {
			t.Fatal(err)
		}
		ledger = st["health"]
	}
	if ledger == nil {
		t.Fatal("snapshot has no controller health ledger")
	}
	raw, err := json.Marshal(cs)
	if err != nil {
		t.Fatal(err)
	}
	var cell, phone, cursor map[string]json.RawMessage
	if err := json.Unmarshal(raw, &cell); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(cell["phone"], &phone); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(cell["cursor"], &cursor); err != nil {
		t.Fatal(err)
	}
	plant := func(obj map[string]json.RawMessage, what, key string, v json.RawMessage) {
		if _, ok := obj[key]; ok {
			t.Fatalf("%s snapshot still writes %q", what, key)
		}
		obj[key] = v
	}
	plant(phone, "phone", "health", ledger)
	plant(phone, "phone", "cum_traffic_bytes", phone["pmu_bus"])
	plant(cursor, "cursor", "start_cycles", json.RawMessage(`0`))
	plant(cursor, "cursor", "start_bus", json.RawMessage(`0`))
	if cell["phone"], err = json.Marshal(phone); err != nil {
		t.Fatal(err)
	}
	if cell["cursor"], err = json.Marshal(cursor); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "legacy.ckpt.json")
	if err := ckpt.Save(ckpt.OS{}, path, "aspeo/session-cell", nil, cell); err != nil {
		t.Fatal(err)
	}
	*cs = experiment.CellState{}
	if err := ckpt.Load(ckpt.OS{}, path, "aspeo/session-cell", nil, cs); err != nil {
		t.Fatal(err)
	}
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

// TestKillRestoreSampledGovernorGolden covers the two sampled cpufreq
// governors: ondemand's and conservative's sampling schedule and load
// baselines come back bit-exactly.
func TestKillRestoreSampledGovernorGolden(t *testing.T) {
	for _, gov := range []string{"ondemand", "conservative"} {
		t.Run(gov, func(t *testing.T) {
			checkGolden(t, experiment.SessionSpec{
				App: "angrybirds", Load: "BL", Governor: gov, Seed: 7,
				RunFor:          20 * time.Second,
				CheckpointEvery: 4,
			}, 2, nil)
		})
	}
}

// TestKillRestoreCPUOnlyGolden covers the CPU-only controller, which
// leaves the bus to a cpubw_hwmon: its own without faults, the standby
// pair's under faults.
func TestKillRestoreCPUOnlyGolden(t *testing.T) {
	prof := governedProfile(t)
	for _, faults := range []string{"", "noisy-perf"} {
		checkGolden(t, experiment.SessionSpec{
			App: "ebook", Load: "BL", Controller: true, CPUOnly: true,
			Profile: prof, TargetGIPS: 1, Seed: 101, Faults: faults,
			RunFor: 30 * time.Second, LogAllocations: true,
			CheckpointEvery: 3,
		}, 2, nil)
	}
}

// TestKillRestorePhaseAwareGolden covers the phase tracker: a
// phase-aware controller on MobileBench, restored from a snapshot
// whose tracker already holds phases, resumes each phase's integrator
// state bit-exactly.
func TestKillRestorePhaseAwareGolden(t *testing.T) {
	prof, _ := storedProfile(t)
	checkGoldenBuilt(t, experiment.NewPhaseAwareSession, experiment.SessionSpec{
		App: "mobilebench", Load: "BL", Controller: true,
		Profile: prof, TargetGIPS: 1, Seed: 42,
		RunFor: 40 * time.Second, LogAllocations: true,
		CheckpointEvery: 3,
	}, 3, requireTrackerPhases)
}

// requireTrackerPhases edits nothing: it fails the test unless the
// controller's snapshot carries a tracker with at least two phases.
func requireTrackerPhases(t *testing.T, cs *experiment.CellState) {
	t.Helper()
	for _, a := range cs.Actors {
		if a.Name != "aspeo-controller" {
			continue
		}
		var st struct {
			Tracker *struct {
				Phases []json.RawMessage `json:"phases"`
			} `json:"tracker"`
		}
		if err := json.Unmarshal(a.State, &st); err != nil {
			t.Fatal(err)
		}
		if st.Tracker == nil || len(st.Tracker.Phases) < 2 {
			t.Fatalf("controller snapshot tracker %s, want at least two phases", a.State)
		}
		return
	}
	t.Fatal("snapshot has no controller actor")
}

// TestKillRestoreRejectsOutOfRangeController plants out-of-range
// positions into a controller snapshot. Restore must refuse each with
// an error; accepted, they panic the resumed run at its next cycle (a
// ring position) or its next slot (a ladder index). A negative
// bandwidth index stays legal: the controller skips that write.
func TestKillRestoreRejectsOutOfRangeController(t *testing.T) {
	spec := experiment.SessionSpec{
		App: "spotify", Load: "BL", Controller: true, Quick: true, Seed: 7,
		RunFor: 60 * time.Second, CheckpointEvery: 3,
	}
	var snaps []*experiment.CellState
	spec.OnCheckpoint = func(cs *experiment.CellState) error { snaps = append(snaps, cs); return nil }
	sess, err := experiment.NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	sess.Run(func() bool { return len(snaps) >= 2 })
	if len(snaps) < 2 {
		t.Fatalf("%d checkpoints captured, want 2", len(snaps))
	}
	for _, tc := range []struct {
		name   string
		edit   func(st map[string]json.RawMessage, slots []map[string]json.RawMessage)
		reject bool
	}{
		{"recent_y_pos 99", func(st map[string]json.RawMessage, _ []map[string]json.RawMessage) {
			st["recent_y_pos"] = json.RawMessage(`99`)
		}, true},
		{"recent_y_pos -1", func(st map[string]json.RawMessage, _ []map[string]json.RawMessage) {
			st["recent_y_pos"] = json.RawMessage(`-1`)
		}, true},
		{"recent_y longer than the window", func(st map[string]json.RawMessage, _ []map[string]json.RawMessage) {
			st["recent_y"] = json.RawMessage(`[0.1,0.2,0.3,0.4]`)
		}, true},
		{"freq_idx 99", func(_ map[string]json.RawMessage, slots []map[string]json.RawMessage) {
			slots[len(slots)-1]["freq_idx"] = json.RawMessage(`99`)
		}, true},
		{"freq_idx -1", func(_ map[string]json.RawMessage, slots []map[string]json.RawMessage) {
			slots[0]["freq_idx"] = json.RawMessage(`-1`)
		}, true},
		{"bw_idx 13", func(_ map[string]json.RawMessage, slots []map[string]json.RawMessage) {
			slots[0]["bw_idx"] = json.RawMessage(`13`)
		}, true},
		{"bw_idx -1", func(_ map[string]json.RawMessage, slots []map[string]json.RawMessage) {
			for _, sl := range slots {
				sl["bw_idx"] = json.RawMessage(`-1`)
			}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs := editControllerState(t, snaps[1], tc.edit)
			sess, err := experiment.NewSession(spec)
			if err != nil {
				t.Fatal(err)
			}
			err = sess.RestoreState(cs)
			switch {
			case tc.reject && err == nil:
				t.Fatal("restore accepted the planted value")
			case !tc.reject && err != nil:
				t.Fatalf("restore rejected a legal value: %v", err)
			case !tc.reject:
				if st := sess.Run(nil); st.Duration != spec.RunFor {
					t.Fatalf("restored run ended at %v, want %v", st.Duration, spec.RunFor)
				}
			}
		})
	}
}

// editControllerState returns a copy of cs whose controller state was
// passed through edit, with its dwell slots decoded alongside.
func editControllerState(t *testing.T, cs *experiment.CellState,
	edit func(st map[string]json.RawMessage, slots []map[string]json.RawMessage)) *experiment.CellState {
	t.Helper()
	raw, err := json.Marshal(cs)
	if err != nil {
		t.Fatal(err)
	}
	out := new(experiment.CellState)
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatal(err)
	}
	for i := range out.Actors {
		if out.Actors[i].Name != "aspeo-controller" {
			continue
		}
		var st map[string]json.RawMessage
		var slots []map[string]json.RawMessage
		if err := json.Unmarshal(out.Actors[i].State, &st); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(st["slots"], &slots); err != nil {
			t.Fatal(err)
		}
		edit(st, slots)
		if st["slots"], err = json.Marshal(slots); err != nil {
			t.Fatal(err)
		}
		if out.Actors[i].State, err = json.Marshal(st); err != nil {
			t.Fatal(err)
		}
		return out
	}
	t.Fatal("snapshot has no controller actor")
	return nil
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

// TestKillRestoreCommittedCheckpoints restores checkpoint files that an
// earlier build of aspeo-run wrote — each the last snapshot of its run,
// made by the command beside it — into a session built from the same
// spec, and requires the resumed run's summary JSON to equal an
// uninterrupted run's byte for byte. The files pin the checkpoint
// format: never regenerate them.
func TestKillRestoreCommittedCheckpoints(t *testing.T) {
	for _, tc := range []struct {
		file string
		cmd  string
		spec experiment.SessionSpec
	}{
		{
			file: "ckpt_ebook_interactive_seed7.json",
			cmd:  "aspeo-run -app ebook -governor interactive -seed 7 -checkpoint <file> -checkpoint-every 5",
			spec: experiment.SessionSpec{App: "ebook", Load: "BL", Governor: "interactive", Seed: 7},
		},
		{
			file: "ckpt_spotify_controller_quick_seed7.json",
			cmd:  "aspeo-run -app spotify -controller -quick -seed 7 -checkpoint <file> -checkpoint-every 10",
			spec: experiment.SessionSpec{App: "spotify", Load: "BL", Governor: "interactive",
				Controller: true, Quick: true, Seed: 7},
		},
	} {
		t.Run(tc.file, func(t *testing.T) {
			want, _ := runToEnd(t, experiment.NewSession, tc.spec)
			cell := new(experiment.CellState)
			if err := ckpt.Load(ckpt.OS{}, filepath.Join("testdata", tc.file), "aspeo/session-cell", nil, cell); err != nil {
				t.Fatal(err)
			}
			sess, err := experiment.NewSession(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.RestoreState(cell); err != nil {
				t.Fatalf("restore %s (written by %q): %v", tc.file, tc.cmd, err)
			}
			if now := sess.Harness.Phone.Now(); now == 0 || now != cell.At {
				t.Fatalf("restored phone clock %v, want the snapshot's %v", now, cell.At)
			}
			st := sess.Run(nil)
			got, err := json.Marshal(report.NewRunSummary(sess, st))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("run restored from %s (written by %q) diverged:\nuninterrupted: %s\nrestored:      %s",
					tc.file, tc.cmd, want, got)
			}
		})
	}
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
