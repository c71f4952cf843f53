package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"aspeo/internal/experiment"
	"aspeo/internal/fleet"
	"aspeo/internal/profile"
	"aspeo/internal/report"
	"aspeo/internal/workload"
)

// goldenProfile writes a synthetic coordinated profile with a strictly
// convex power/speedup frontier (the optimizer's choice is unique) to a
// temp file, so controller sessions skip the expensive on-the-fly
// profiling campaign. The returned target sits mid-frontier.
func goldenProfile(t *testing.T) (path string, target float64) {
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

// waitTerminal blocks until the session lands, failing the test on
// timeout.
func waitTerminal(t *testing.T, m *fleet.Manager, id string, timeout time.Duration) fleet.SessionView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	v, err := m.WaitSession(ctx, id)
	if err != nil {
		t.Fatalf("waiting for %s (state %s): %v", id, v.State, err)
	}
	return v
}

// waitState polls until the session reaches the wanted (non-terminal)
// state.
func waitState(t *testing.T, m *fleet.Manager, id string, want fleet.State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == want {
			return
		}
		if v.State.Terminal() {
			t.Fatalf("session %s terminal (%s) before reaching %s", id, v.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("session %s never reached %s", id, want)
}

func TestFleetLifecycleCompleted(t *testing.T) {
	m := fleet.NewManager(fleet.Options{Workers: 2})
	v, err := m.Submit(fleet.Config{App: "spotify", Seed: 7, RunForS: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.Config.Load != "BL" || v.Config.Governor != "interactive" {
		t.Fatalf("submit view not normalized: %+v", v)
	}

	final := waitTerminal(t, m, v.ID, time.Minute)
	if final.State != fleet.StateCompleted {
		t.Fatalf("state = %s (error %q), want completed", final.State, final.Error)
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Fatalf("timestamps missing: %+v", final)
	}
	if final.Summary == nil {
		t.Fatal("completed session has no summary")
	}
	if got := final.Summary.DurationS; got < 1.9 || got > 2.1 {
		t.Fatalf("summary duration %.3fs, want ~2s", got)
	}
	if final.Summary.Mode != "governor" || final.Summary.Governor != "interactive" {
		t.Fatalf("summary mode/governor = %s/%s", final.Summary.Mode, final.Summary.Governor)
	}

	r := m.Rollup()
	if r.Completed != 1 || r.Submitted != 1 || r.Active() != 0 {
		t.Fatalf("rollup %+v, want 1 completed of 1 submitted", r)
	}
}

func TestFleetStopRunningAndPending(t *testing.T) {
	// One worker: the first session occupies it while the second waits
	// in the queue, so we can stop one of each kind.
	m := fleet.NewManager(fleet.Options{Workers: 1})
	blocker, err := m.Submit(fleet.Config{App: "spotify", Seed: 1, RunForS: 3600})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(fleet.Config{App: "spotify", Seed: 2, RunForS: 3600})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Stop(queued.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, fleet.StateRunning)
	if err := m.Stop(blocker.ID); err != nil {
		t.Fatal(err)
	}

	b := waitTerminal(t, m, blocker.ID, time.Minute)
	if b.State != fleet.StateStopped {
		t.Fatalf("blocker state = %s, want stopped", b.State)
	}
	if b.Summary == nil {
		t.Fatal("stopped running session should keep its partial summary")
	}
	if b.Summary.DurationS >= 3600 {
		t.Fatalf("stop did not interrupt: ran %.0fs", b.Summary.DurationS)
	}

	q := waitTerminal(t, m, queued.ID, time.Minute)
	if q.State != fleet.StateStopped {
		t.Fatalf("queued state = %s, want stopped", q.State)
	}
	if q.Summary != nil {
		t.Fatal("session stopped before start should have no summary")
	}

	r := m.Rollup()
	if r.Stopped != 2 {
		t.Fatalf("rollup stopped = %d, want 2", r.Stopped)
	}
}

func TestFleetRestartOnFailure(t *testing.T) {
	// A missing profile table makes every attempt fail at construction;
	// the session burns its restart budget and lands in failed.
	m := fleet.NewManager(fleet.Options{Workers: 1})
	v, err := m.Submit(fleet.Config{
		App: "spotify", Controller: true,
		Profile: "/nonexistent/profile.json", TargetGIPS: 1,
		MaxRestarts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, v.ID, time.Minute)
	if final.State != fleet.StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if final.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2 (budget exhausted)", final.Restarts)
	}
	if final.Error == "" {
		t.Fatal("failed session carries no error")
	}
	r := m.Rollup()
	if r.Failed != 1 || r.Restarts != 2 {
		t.Fatalf("rollup failed=%d restarts=%d, want 1/2", r.Failed, r.Restarts)
	}
}

func TestFleetSubmitValidates(t *testing.T) {
	m := fleet.NewManager(fleet.Options{Workers: 1})
	touchy := workload.Spotify()
	touchy.Phases[0].TouchRate = 1e6 // above workload.MaxTouchRate
	for _, cfg := range []fleet.Config{
		{App: "no-such-app"},
		{App: "spotify", Load: "XX"},
		{App: "spotify", Governor: "bogus"},
		{App: "spotify", CPUOnly: true},
		{App: "spotify", Faults: "no-such-scenario"},
		{App: "spotify", MaxRestarts: -1},
		{App: "spotify", RunForS: -1},
		{App: "spotify", ArrivalS: -1},
		{App: "spotify", ArrivalS: math.NaN()},
		{App: "spotify", ArrivalS: math.Inf(1)},
		{Workload: touchy},
	} {
		if _, err := m.Submit(cfg); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid config", cfg)
		}
	}
	if got := m.List(""); len(got) != 0 {
		t.Fatalf("rejected submissions left %d sessions in the store", len(got))
	}
	if r := m.Rollup(); r.Submitted != 0 {
		t.Fatalf("rejected submissions counted: %d", r.Submitted)
	}
}

func TestFleetUnknownSession(t *testing.T) {
	m := fleet.NewManager(fleet.Options{Workers: 1})
	if _, err := m.Get("s-999999"); !errors.Is(err, fleet.ErrNotFound) {
		t.Fatalf("Get: %v, want ErrNotFound", err)
	}
	if err := m.Stop("s-999999"); !errors.Is(err, fleet.ErrNotFound) {
		t.Fatalf("Stop: %v, want ErrNotFound", err)
	}
	if _, err := m.AllocationLog("s-999999"); !errors.Is(err, fleet.ErrNotFound) {
		t.Fatalf("AllocationLog: %v, want ErrNotFound", err)
	}
}

func TestFleetDrain(t *testing.T) {
	m := fleet.NewManager(fleet.Options{Workers: 4})
	for i := 0; i < 3; i++ {
		if _, err := m.Submit(fleet.Config{App: "spotify", Seed: int64(i), RunForS: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !m.Draining() {
		t.Fatal("Draining() false after drain")
	}
	if _, err := m.Submit(fleet.Config{App: "spotify"}); !errors.Is(err, fleet.ErrDraining) {
		t.Fatalf("post-drain submit: %v, want ErrDraining", err)
	}
	r := m.Rollup()
	if r.Completed != 3 || r.Active() != 0 {
		t.Fatalf("rollup after drain: %+v, want 3 completed", r)
	}
}

func TestFleetDrainTimeoutStopsSessions(t *testing.T) {
	m := fleet.NewManager(fleet.Options{Workers: 1})
	// Long enough that even the fused-step simulator cannot finish it
	// before the drain timeout below fires; drain's cooperative stop
	// still lands the session promptly once the deadline passes.
	v, err := m.Submit(fleet.Config{App: "spotify", RunForS: 3_600_000})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, fleet.StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: %v, want deadline exceeded", err)
	}
	// Drain only returns after the stopped sessions land.
	got, err := m.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != fleet.StateStopped {
		t.Fatalf("state after timed-out drain = %s, want stopped", got.State)
	}
}

// TestFleetGoldenSingleSession is the determinism acceptance test: a
// 1-session fleet run must be the same computation as the equivalent
// direct (aspeo-run) invocation — identical summary bytes and an
// identical controller decision log, cycle for cycle. Fleet scheduling,
// telemetry publication and stop polling may not perturb a session.
func TestFleetGoldenSingleSession(t *testing.T) {
	prof, target := goldenProfile(t)

	spec := experiment.SessionSpec{
		App: "spotify", Load: "BL", Controller: true,
		Profile: prof, TargetGIPS: target, Seed: 42,
		RunFor: 30 * time.Second, LogAllocations: true,
	}
	sess, err := experiment.NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Run(nil)
	direct := report.NewRunSummary(sess, st)
	directJSON, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	directLog := sess.Controller.AllocationLog()
	if len(directLog) < 10 {
		t.Fatalf("direct run logged only %d allocation cycles", len(directLog))
	}

	m := fleet.NewManager(fleet.Options{Workers: 4})
	v, err := m.Submit(fleet.Config{
		App: "spotify", Load: "BL", Controller: true,
		Profile: prof, TargetGIPS: target, Seed: 42,
		RunForS: 30, LogAllocations: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, v.ID, 2*time.Minute)
	if final.State != fleet.StateCompleted {
		t.Fatalf("fleet session state = %s (error %q)", final.State, final.Error)
	}
	if final.Summary == nil {
		t.Fatal("fleet session has no summary")
	}
	fleetJSON, err := json.Marshal(*final.Summary)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(directJSON, fleetJSON) {
		t.Fatalf("summaries diverged:\ndirect: %s\nfleet:  %s", directJSON, fleetJSON)
	}

	fleetLog, err := m.AllocationLog(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleetLog) != len(directLog) {
		t.Fatalf("fleet logged %d cycles, direct logged %d", len(fleetLog), len(directLog))
	}
	for i := range directLog {
		if !reflect.DeepEqual(directLog[i], fleetLog[i]) {
			t.Fatalf("allocation cycle %d diverged:\ndirect: %+v\nfleet:  %+v",
				i, directLog[i], fleetLog[i])
		}
	}
}

// The fleet's cycle total is the telemetry pipeline's count — no shared
// counter rides the cycle hook — and after a drain it covers every cycle
// each session ran.
func TestFleetCyclesTotalFromTelemetry(t *testing.T) {
	prof, target := goldenProfile(t)
	m := fleet.NewManager(fleet.Options{Workers: 3})
	for i := 0; i < 6; i++ {
		if _, err := m.Submit(fleet.Config{
			App: "spotify", Load: "BL", Controller: true,
			Profile: prof, TargetGIPS: target, Seed: int64(10 + i), RunForS: 10,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, v := range m.List("") {
		if v.State != fleet.StateCompleted || v.LastCycle == nil {
			t.Fatalf("session %s ended %s without cycles (error %q)", v.ID, v.State, v.Error)
		}
		want += v.LastCycle.CyclesRun
	}
	r := m.Rollup()
	if r.CyclesTotal != int(r.Telemetry.Cycles) || r.CyclesTotal != want {
		t.Fatalf("CyclesTotal = %d, Telemetry.Cycles = %d, sessions ran %d cycles",
			r.CyclesTotal, r.Telemetry.Cycles, want)
	}
}

// TestFleetRace64Sessions drives 64 concurrent sessions — a mix of
// governor and controller cells — to completion while reader goroutines
// hammer the status surfaces. Run under -race (make race / make
// smoke-fleet) this is the fleet's data-race acceptance test.
func TestFleetRace64Sessions(t *testing.T) {
	prof, target := goldenProfile(t)
	m := fleet.NewManager(fleet.Options{Workers: 8, Queue: 128})

	const total = 64
	apps := []string{"spotify", "wechat", "ebook", "maps"}
	ids := make([]string, 0, total)
	for i := 0; i < total; i++ {
		cfg := fleet.Config{App: apps[i%len(apps)], Seed: int64(100 + i), RunForS: 2}
		if i%4 == 0 {
			// Every fourth session runs the controller on the stored
			// golden profile (construction stays cheap).
			cfg = fleet.Config{
				App: "spotify", Controller: true,
				Profile: prof, TargetGIPS: target,
				Seed: int64(100 + i), RunForS: 4, LogAllocations: true,
			}
		}
		v, err := m.Submit(cfg)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}

	stopReaders := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopReaders:
					return
				default:
				}
				m.Rollup()
				m.List("")
				if _, err := m.Get(ids[(i+w)%len(ids)]); err != nil {
					t.Errorf("reader Get: %v", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	for _, id := range ids {
		v, err := m.WaitSession(ctx, id)
		if err != nil {
			t.Fatalf("session %s (state %s): %v", id, v.State, err)
		}
		if v.State != fleet.StateCompleted {
			t.Fatalf("session %s ended %s (error %q)", id, v.State, v.Error)
		}
	}
	close(stopReaders)
	wg.Wait()

	r := m.Rollup()
	if r.Completed != total || r.Submitted != total {
		t.Fatalf("rollup completed=%d submitted=%d, want %d/%d", r.Completed, r.Submitted, total, total)
	}
	// 48 governor sessions × 2s + 16 controller sessions × 4s = 160s.
	if sim := r.Telemetry.Totals.SimSeconds; sim < 159 || sim > 161 {
		t.Fatalf("sim seconds total %.1f, want ~160", sim)
	}
	if r.CyclesTotal == 0 {
		t.Fatal("no controller cycles observed by the aggregator")
	}
	if r.Telemetry.Totals.EnergyJ <= 0 {
		t.Fatal("no energy accounted")
	}

	// Controller sessions at distinct seeds must have distinct ids but
	// the same table; spot-check a decision log survived.
	log, err := m.AllocationLog(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(log) == 0 {
		t.Fatal("controller session kept no allocation log")
	}
	if strings.TrimSpace(ids[0]) == "" {
		t.Fatal("empty session id")
	}
}
