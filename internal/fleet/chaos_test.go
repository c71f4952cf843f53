package fleet_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"aspeo/internal/ckpt"
	"aspeo/internal/experiment"
	"aspeo/internal/fault"
	"aspeo/internal/fleet"
	"aspeo/internal/report"
)

// captureFS snoops the bytes of every durable checkpoint as it is
// renamed into place. That lets the kill-restore test "crash" a fleet
// at an exact snapshot without racing the live session: run the fleet
// to completion, then restore a second manager from a captured
// snapshot as if the first process had died right after writing it.
type captureFS struct {
	ckpt.OS
	mu    sync.Mutex
	saved map[string][]byte // final path -> last durable checkpoint bytes
}

func newCaptureFS() *captureFS { return &captureFS{saved: make(map[string][]byte)} }

func (c *captureFS) Rename(oldpath, newpath string) error {
	if err := (ckpt.OS{}).Rename(oldpath, newpath); err != nil {
		return err
	}
	if strings.HasSuffix(newpath, ".ckpt.json") {
		// Only this session's worker writes this path, so the read
		// cannot race a concurrent overwrite.
		if raw, err := os.ReadFile(newpath); err == nil {
			c.mu.Lock()
			c.saved[newpath] = raw
			c.mu.Unlock()
		}
	}
	return nil
}

func (c *captureFS) latest(path string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saved[path]
}

var _ ckpt.FS = (*captureFS)(nil)

// TestFleetKillRestoreGolden is the fleet-level crash-safety acceptance
// test: a manager killed after a checkpoint and restored by a fresh
// manager must finish the session with byte-identical outputs — the
// same summary JSON and the same controller decision log the
// uninterrupted direct run produces.
func TestFleetKillRestoreGolden(t *testing.T) {
	prof, target := goldenProfile(t)

	// Reference: the uninterrupted direct run.
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
	refJSON, err := json.Marshal(report.NewRunSummary(sess, st))
	if err != nil {
		t.Fatal(err)
	}
	refLog := sess.Controller.AllocationLog()
	if len(refLog) == 0 {
		t.Fatal("reference run kept no allocation log")
	}

	// First life: a checkpointing fleet runs the same cell to
	// completion while captureFS snoops every durable snapshot.
	dir1 := t.TempDir()
	capFS := newCaptureFS()
	m1 := fleet.NewManager(fleet.Options{
		Workers: 2, CheckpointDir: dir1, CheckpointEvery: 3, CheckpointFS: capFS,
	})
	cfg := fleet.Config{
		App: "spotify", Load: "BL", Controller: true,
		Profile: prof, TargetGIPS: target, Seed: 42,
		RunForS: 30, LogAllocations: true,
	}
	v1, err := m1.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	final1 := waitTerminal(t, m1, v1.ID, 2*time.Minute)
	if final1.State != fleet.StateCompleted {
		t.Fatalf("first life ended %s (error %q)", final1.State, final1.Error)
	}
	// Checkpointing must be observation-only: the checkpointed run's
	// summary equals the no-checkpoint reference byte for byte.
	got1, err := json.Marshal(*final1.Summary)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSON, got1) {
		t.Fatalf("checkpointing perturbed the run:\nref:   %s\nfleet: %s", refJSON, got1)
	}
	r1 := m1.Rollup()
	if r1.CheckpointsWritten < 2 {
		t.Fatalf("only %d checkpoints written; need >= 2 for a meaningful kill point", r1.CheckpointsWritten)
	}
	ckptFile := filepath.Join(dir1, v1.ID+".ckpt.json")
	if _, err := os.Stat(ckptFile); !os.IsNotExist(err) {
		t.Fatalf("terminal session left its checkpoint behind (stat err %v)", err)
	}
	snap := capFS.latest(ckptFile)
	if snap == nil {
		t.Fatal("captureFS saw no durable checkpoint")
	}

	// Second life: plant the captured snapshot in a fresh directory —
	// exactly what a killed process would have left — and restore. The
	// planted meta also names the since-removed "engine" field, as a
	// checkpoint from an older build would: meta decodes leniently, so
	// the session must resume unchanged.
	dir2 := t.TempDir()
	planted := bytes.Replace(snap, []byte(`"config":{`), []byte(`"config":{"engine":"fixed",`), 1)
	if bytes.Equal(planted, snap) {
		t.Fatal("checkpoint meta carries no config")
	}
	if err := os.WriteFile(filepath.Join(dir2, v1.ID+".ckpt.json"), planted, 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := fleet.NewManager(fleet.Options{Workers: 2, CheckpointDir: dir2, CheckpointEvery: 3})
	views, err := m2.Restore()
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if len(views) != 1 || views[0].ID != v1.ID {
		t.Fatalf("restored views %+v, want one session %s", views, v1.ID)
	}
	final2 := waitTerminal(t, m2, v1.ID, 2*time.Minute)
	if final2.State != fleet.StateCompleted {
		t.Fatalf("restored session ended %s (error %q)", final2.State, final2.Error)
	}
	if final2.Restarts != 0 || final2.Error != "" {
		t.Fatalf("restored session restarts=%d error=%q, want a clean resume", final2.Restarts, final2.Error)
	}

	got2, err := json.Marshal(*final2.Summary)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSON, got2) {
		t.Fatalf("restored summary diverged:\nref:      %s\nrestored: %s", refJSON, got2)
	}
	log2, err := m2.AllocationLog(v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(log2) != len(refLog) {
		t.Fatalf("restored log has %d cycles, reference %d", len(log2), len(refLog))
	}
	for i := range refLog {
		if !reflect.DeepEqual(refLog[i], log2[i]) {
			t.Fatalf("allocation cycle %d diverged:\nref:      %+v\nrestored: %+v", i, refLog[i], log2[i])
		}
	}

	// The restored session resumed past the last cadence point rather
	// than re-running from scratch: a from-scratch second life would
	// have written as many checkpoints as the first.
	if r2 := m2.Rollup(); r2.CheckpointsWritten >= r1.CheckpointsWritten {
		t.Fatalf("second life wrote %d checkpoints (first wrote %d) — it re-ran instead of resuming",
			r2.CheckpointsWritten, r1.CheckpointsWritten)
	}
	if _, err := os.Stat(filepath.Join(dir2, v1.ID+".ckpt.json")); !os.IsNotExist(err) {
		t.Fatalf("restored terminal session left its checkpoint behind (stat err %v)", err)
	}

	// New submissions never collide with restored ids: the ordinal
	// source was bumped above the restored sequence number.
	v2, err := m2.Submit(fleet.Config{App: "spotify", Seed: 9, RunForS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v2.ID <= v1.ID {
		t.Fatalf("post-restore submission got id %s, want one above %s", v2.ID, v1.ID)
	}
}

// TestFleetChaosRecovery is the seeded chaos acceptance test (run under
// -race via make smoke-chaos): 64 concurrent sessions while the plan
// panics every controller worker mid-run and fails chosen checkpoint
// writes. Every session must still terminate cleanly, panics feed the
// restart ladder exactly once each, and the ledger — rollup, counters,
// checkpoint dir — stays consistent.
func TestFleetChaosRecovery(t *testing.T) {
	prof, target := goldenProfile(t)
	ckptDir := t.TempDir()
	flightDir := t.TempDir()
	plan := fault.ProcessPlan{
		PanicAtCycle: 4, // attempt 1 only: budget 1 always recovers
		StallAtCycle: 3, StallFor: time.Millisecond,
		CheckpointFailures: []int{3, 7, 10},
	}
	chaosFS := fault.NewChaosFS(ckpt.OS{}, plan.CheckpointFailures)
	m := fleet.NewManager(fleet.Options{
		Workers: 8, Queue: 128,
		CheckpointDir: ckptDir, CheckpointEvery: 2, CheckpointFS: chaosFS,
		FlightDir: flightDir,
		Chaos:     plan,
	})

	const total = 64
	apps := []string{"spotify", "wechat", "ebook", "maps"}
	ids := make([]string, 0, total)
	controllers := 0
	for i := 0; i < total; i++ {
		cfg := fleet.Config{App: apps[i%len(apps)], Seed: int64(500 + i), RunForS: 2}
		if i%4 == 0 {
			// Every fourth session is a controller cell — the only kind
			// the panic plan can reach (governor cells have no cycles).
			controllers++
			cfg = fleet.Config{
				App: "spotify", Controller: true,
				Profile: prof, TargetGIPS: target,
				Seed: int64(500 + i), RunForS: 12,
				MaxRestarts: 1, LogAllocations: true,
			}
		}
		v, err := m.Submit(cfg)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	sawDump := false
	for i, id := range ids {
		v, err := m.WaitSession(ctx, id)
		if err != nil {
			t.Fatalf("session %s (state %s): %v", id, v.State, err)
		}
		if v.State != fleet.StateCompleted {
			t.Fatalf("session %s ended %s (error %q), want completed despite chaos", id, v.State, v.Error)
		}
		if i%4 == 0 {
			if v.Restarts != 1 {
				t.Errorf("controller session %s restarts = %d, want exactly 1 (one injected panic)", id, v.Restarts)
			}
			if v.Error != "" {
				t.Errorf("recovered session %s still carries error %q", id, v.Error)
			}
			if v.FlightDump != "" {
				sawDump = true
			}
		} else if v.Restarts != 0 {
			t.Errorf("governor session %s restarts = %d, want 0 (plan cannot reach it)", id, v.Restarts)
		}
	}
	if !sawDump {
		t.Error("no panicked attempt left a flight-recorder dump")
	}

	r := m.Rollup()
	if r.Completed != total {
		t.Fatalf("rollup completed = %d, want %d", r.Completed, total)
	}
	if r.PanicsRecovered != controllers {
		t.Fatalf("panics recovered = %d, want %d (one per controller session)", r.PanicsRecovered, controllers)
	}
	if r.Restarts != controllers {
		t.Fatalf("restarts = %d, want %d", r.Restarts, controllers)
	}
	if r.CheckpointsWritten == 0 {
		t.Fatal("chaos fleet wrote no checkpoints")
	}
	// All three planned write failures must have been consumed — the
	// plan's highest ordinal is 10, so at least that many attempts.
	if w := chaosFS.Writes(); w < 10 {
		t.Fatalf("only %d checkpoint writes attempted; failure plan not fully exercised", w)
	}

	var buf bytes.Buffer
	if err := report.WriteMetrics(&buf, r); err != nil {
		t.Fatal(err)
	}
	metrics := buf.String()
	for _, want := range []string{
		fmt.Sprintf(`aspeo_fleet_panics_recovered_total{boundary="worker"} %d`, controllers),
		fmt.Sprintf("aspeo_fleet_checkpoint_failures_total %d", len(plan.CheckpointFailures)),
		"aspeo_fleet_checkpoints_written_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Every terminal session removed its checkpoint.
	ents, err := os.ReadDir(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".ckpt.json") {
			t.Errorf("terminal fleet left checkpoint %s behind", e.Name())
		}
	}
	dumps, err := os.ReadDir(flightDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) == 0 {
		t.Error("flight dir empty after recovered panics")
	}
}

// TestFleetHTTPOverloadAndReadyz exercises the control plane's shedding
// paths: queue-full submissions and excess streams answer 429 with
// Retry-After, and /readyz flips to 503 once the fleet drains.
func TestFleetHTTPOverloadAndReadyz(t *testing.T) {
	m := fleet.NewManager(fleet.Options{Workers: 1, Queue: 1, MaxStreams: 1})
	srv := httptest.NewServer(fleet.NewServer(m))
	defer srv.Close()

	submit := func(seed int64) (int, http.Header, []byte) {
		t.Helper()
		body := fmt.Sprintf(`{"app":"spotify","seed":%d,"run_for_s":3600000}`, seed)
		resp, err := http.Post(srv.URL+"/api/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, raw
	}
	sessionID := func(raw []byte) string {
		t.Helper()
		var out struct {
			Sessions []fleet.SessionView `json:"sessions"`
		}
		if err := json.Unmarshal(raw, &out); err != nil || len(out.Sessions) != 1 {
			t.Fatalf("submit response %s: %v", raw, err)
		}
		return out.Sessions[0].ID
	}

	// Fill the fleet: one session on the only worker, one in the only
	// queue slot, and the third submission is shed.
	code, _, raw := submit(1)
	if code != http.StatusCreated {
		t.Fatalf("first submit: %d %s", code, raw)
	}
	blocker := sessionID(raw)
	waitState(t, m, blocker, fleet.StateRunning)
	code, _, raw = submit(2)
	if code != http.StatusCreated {
		t.Fatalf("queued submit: %d %s", code, raw)
	}
	queued := sessionID(raw)
	code, hdr, raw := submit(3)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d %s, want 429", code, raw)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 shed response missing Retry-After")
	}
	if !strings.Contains(string(raw), "queue") {
		t.Errorf("shed body %s does not name the queue", raw)
	}

	// One stream holds the only slot; the second is shed immediately.
	streamURL := srv.URL + "/api/v1/sessions/" + blocker + "/stream?interval_ms=50"
	resp1, err := http.Get(streamURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp1.Body.Close()
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first stream: %d", resp1.StatusCode)
	}
	// The first NDJSON line proves the handler is inside the semaphore.
	if _, err := bufio.NewReader(resp1.Body).ReadString('\n'); err != nil {
		t.Fatalf("first stream line: %v", err)
	}
	resp2, err := http.Get(streamURL)
	if err != nil {
		t.Fatal(err)
	}
	shedBody, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second stream: %d %s, want 429", resp2.StatusCode, shedBody)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("stream shed response missing Retry-After")
	}

	// Each shed request is counted once, under its reason, on /metrics
	// and in the rollup.
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s %v", path, resp.StatusCode, raw, err)
		}
		return raw
	}
	metrics := string(get("/metrics"))
	for _, want := range []string{
		`aspeo_fleet_requests_shed_total{reason="max_streams"} 1` + "\n",
		`aspeo_fleet_requests_shed_total{reason="queue_full"} 1` + "\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	var rollup report.FleetRollup
	if err := json.Unmarshal(get("/api/v1/rollup"), &rollup); err != nil {
		t.Fatal(err)
	}
	if rollup.ShedQueueFull != 1 || rollup.ShedMaxStreams != 1 {
		t.Errorf("rollup shed_queue_full=%d shed_max_streams=%d, want 1 and 1",
			rollup.ShedQueueFull, rollup.ShedMaxStreams)
	}

	// Ready while serving…
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	readyBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(readyBody), "ready") {
		t.Fatalf("readyz while serving: %d %s", resp.StatusCode, readyBody)
	}

	// …and unready once draining.
	if err := m.Stop(blocker); err != nil {
		t.Fatal(err)
	}
	if err := m.Stop(queued); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/api/v1/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	unreadyBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(unreadyBody), "draining") {
		t.Fatalf("readyz while draining: %d %s, want 503 draining", resp.StatusCode, unreadyBody)
	}
}

// TestFleetReadyzUnwritableCheckpointDir: durability degrading silently
// is exactly what /readyz exists to catch.
func TestFleetReadyzUnwritableCheckpointDir(t *testing.T) {
	occupied := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(occupied, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A checkpoint dir nested under a regular file can never be created.
	m := fleet.NewManager(fleet.Options{Workers: 1, CheckpointDir: filepath.Join(occupied, "ckpt")})
	probs := m.ReadyProblems()
	if len(probs) != 1 || !strings.Contains(probs[0], "checkpoint dir not writable") {
		t.Fatalf("ReadyProblems() = %q, want one unwritable-dir problem", probs)
	}

	srv := httptest.NewServer(fleet.NewServer(m))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "checkpoint dir not writable") {
		t.Fatalf("readyz: %d %s, want 503 naming the checkpoint dir", resp.StatusCode, body)
	}
}
