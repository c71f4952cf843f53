package fleet_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aspeo/internal/fleet"
	"aspeo/internal/report"
)

// TestFleetSmokeHTTP is the control plane's end-to-end smoke test (the
// `make smoke-fleet` target): start the server, submit 8 sessions over
// HTTP, stream one to completion, assert the rollup and metrics, then
// drain and verify intake is closed.
func TestFleetSmokeHTTP(t *testing.T) {
	m := fleet.NewManager(fleet.Options{Workers: 4})
	srv := httptest.NewServer(fleet.NewServer(m))
	defer srv.Close()

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	// Invalid submissions are usage errors, not accepted sessions.
	if code, _ := post("/api/v1/sessions", `{"app":"no-such-app"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown app: status %d, want 400", code)
	}
	if code, _ := post("/api/v1/sessions", `{"app":`); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", code)
	}
	if code, _ := post("/api/v1/sessions", `{"app":"spotify","bogus_field":1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", code)
	}
	if code, _ := post("/api/v1/sessions", `{"app":"spotify","count":-3}`); code != http.StatusBadRequest {
		t.Fatalf("negative count: status %d, want 400", code)
	}
	// There is one simulation core; the removed engine selector is an
	// unknown field like any other.
	if code, body := post("/api/v1/sessions", `{"app":"spotify","engine":"fixed"}`); code != http.StatusBadRequest ||
		!strings.Contains(string(body), "engine") {
		t.Fatalf("engine field: status %d body %s, want 400 naming engine", code, body)
	}

	// Submit 8 sessions at consecutive seeds in one request.
	code, body := post("/api/v1/sessions", `{"app":"spotify","seed":100,"count":8,"run_for_s":2}`)
	if code != http.StatusCreated {
		t.Fatalf("submit: status %d, body %s", code, body)
	}
	var created struct {
		Sessions []fleet.SessionView `json:"sessions"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	if len(created.Sessions) != 8 {
		t.Fatalf("submitted %d sessions, want 8", len(created.Sessions))
	}
	for i, v := range created.Sessions {
		if want := int64(100 + i); v.Config.Seed != want {
			t.Fatalf("session %d seed %d, want %d", i, v.Config.Seed, want)
		}
	}
	first := created.Sessions[0]

	// Inspect one; unknown ids are 404.
	if code, _ := get("/api/v1/sessions/" + first.ID); code != http.StatusOK {
		t.Fatalf("inspect: status %d", code)
	}
	if code, _ := get("/api/v1/sessions/s-999999"); code != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", code)
	}
	if code, _ := get("/api/v1/sessions/s-999999/stream"); code != http.StatusNotFound {
		t.Fatalf("unknown stream: status %d, want 404", code)
	}

	// Stream the first session as NDJSON until it lands; the final line
	// must be terminal.
	streamResp, err := http.Get(srv.URL + "/api/v1/sessions/" + first.ID + "/stream?interval_ms=20")
	if err != nil {
		t.Fatal(err)
	}
	if got := streamResp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("stream content type %q", got)
	}
	var last fleet.SessionView
	lines := 0
	sc := bufio.NewScanner(streamResp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("stream line %d: %v (%s)", lines, err, sc.Text())
		}
		lines++
	}
	streamResp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if lines == 0 || !last.Terminal() {
		t.Fatalf("stream ended after %d lines in state %s, want a terminal final view", lines, last.State)
	}

	// Wait for the whole batch via the rollup.
	var rollup report.FleetRollup
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, body := get("/api/v1/rollup")
		if code != http.StatusOK {
			t.Fatalf("rollup: status %d", code)
		}
		if err := json.Unmarshal(body, &rollup); err != nil {
			t.Fatalf("decoding rollup: %v", err)
		}
		if rollup.Completed == 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never completed: %+v", rollup)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if rollup.Submitted != 8 || rollup.Failed != 0 || rollup.Stopped != 0 {
		t.Fatalf("rollup %+v, want 8 clean completions", rollup)
	}
	if rollup.SimSecondsTotal < 15.9 || rollup.SimSecondsTotal > 16.1 {
		t.Fatalf("sim seconds %.2f, want ~16 (8 sessions × 2s)", rollup.SimSecondsTotal)
	}
	if rollup.EnergyJTotal <= 0 || rollup.MeanGIPS <= 0 {
		t.Fatalf("rollup missing aggregates: %+v", rollup)
	}

	// Prometheus exposition.
	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	metrics := string(body)
	for _, want := range []string{
		"aspeo_fleet_sessions_submitted_total 8",
		`aspeo_fleet_sessions{state="completed"} 8`,
		`aspeo_fleet_sessions{state="running"} 0`,
		"aspeo_fleet_energy_joules_total",
		"# TYPE aspeo_fleet_cycles_total counter",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Stop on a terminal session is accepted (idempotent flag set).
	if code, _ := post("/api/v1/sessions/"+first.ID+"/stop", ""); code != http.StatusAccepted {
		t.Fatalf("stop: status %d, want 202", code)
	}

	// Drain closes intake; the rollup it returns is final.
	code, body = post("/api/v1/drain", "")
	if code != http.StatusOK {
		t.Fatalf("drain: status %d, body %s", code, body)
	}
	if code, body := post("/api/v1/sessions", `{"app":"spotify"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: status %d, body %s, want 503", code, body)
	}
	code, body = get("/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), "draining") {
		t.Fatalf("healthz after drain: %d %s", code, body)
	}

	// The list endpoint still serves history after drain.
	code, body = get("/api/v1/sessions?state=completed")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var views []fleet.SessionView
	if err := json.Unmarshal(body, &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 8 {
		t.Fatalf("listed %d completed sessions, want 8", len(views))
	}
	for i := 1; i < len(views); i++ {
		if views[i-1].ID >= views[i].ID {
			t.Fatalf("list not ordered by submission: %s before %s", views[i-1].ID, views[i].ID)
		}
	}
}
