package fleet_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"aspeo/internal/fleet"
	"aspeo/internal/obs"
	"aspeo/internal/report"
)

// A controller session whose watchdog escalates must leave a flight
// recorder dump on disk — NDJSON containing the ladder transition events
// — with the path surfaced in the session view, and the rollup must
// carry the ladder's last transition into the fleet text block.
func TestFleetFlightRecorderDump(t *testing.T) {
	prof, target := goldenProfile(t)
	dir := t.TempDir()
	m := fleet.NewManager(fleet.Options{Workers: 2, FlightDir: dir})

	// stuck-perf freezes readings for 20 s from t=10 s: the gate rejects
	// the stuck samples, consecutive failures pass the degrade threshold,
	// and the ladder trips well before the 40 s run ends.
	v, err := m.Submit(fleet.Config{
		App: "spotify", Controller: true,
		Profile: prof, TargetGIPS: target, Seed: 42,
		Faults: "stuck-perf", RunForS: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, v.ID, 2*time.Minute)
	cs := final.Summary.Controller
	if cs == nil || cs.Health.WatchdogTrips == 0 {
		t.Fatalf("scenario never tripped the watchdog; test proves nothing: %+v", final.Summary)
	}
	if cs.Health.LastTransition == "" {
		t.Fatal("health ledger lost the last ladder transition")
	}

	if final.FlightDump == "" {
		t.Fatal("escalated session has no flight dump path")
	}
	f, err := os.Open(final.FlightDump)
	if err != nil {
		t.Fatalf("opening flight dump: %v", err)
	}
	defer f.Close()
	spans, err := obs.ReadNDJSON(f)
	if err != nil {
		t.Fatalf("reading flight dump: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("flight dump is empty")
	}
	sum := obs.Summarize(spans)
	if len(sum.LadderTransitions) == 0 {
		t.Fatalf("flight dump carries no ladder transitions (stages %v)", sum.StageCounts)
	}
	var degraded bool
	for _, tr := range sum.LadderTransitions {
		if strings.HasPrefix(tr, "degraded@") {
			degraded = true
		}
	}
	if !degraded {
		t.Fatalf("ladder transitions %v missing the degrade event", sum.LadderTransitions)
	}

	// On-demand snapshot matches the same recorder.
	snap, err := m.TraceSnapshot(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) == 0 {
		t.Fatal("TraceSnapshot returned no spans for a traced session")
	}

	// The rollup carries the transition into the fleet text block.
	var buf bytes.Buffer
	report.Fleet(&buf, m.Rollup())
	if !strings.Contains(buf.String(), "last-transition:") {
		t.Fatalf("fleet text block missing last-transition:\n%s", buf.String())
	}
}

// Flight recording can be disabled fleet-wide.
func TestFleetFlightRecordingDisabled(t *testing.T) {
	prof, target := goldenProfile(t)
	m := fleet.NewManager(fleet.Options{Workers: 1, FlightCap: -1})
	v, err := m.Submit(fleet.Config{
		App: "spotify", Controller: true,
		Profile: prof, TargetGIPS: target, Seed: 7, RunForS: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, v.ID, time.Minute)
	snap, err := m.TraceSnapshot(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatalf("disabled flight recording still captured %d spans", len(snap))
	}
}

// The trace endpoint serves the flight recorder as NDJSON; the metrics
// endpoint renders the rollup's measured-GIPS histogram with the
// exposition content type.
func TestFleetTraceAndMetricsEndpoints(t *testing.T) {
	prof, target := goldenProfile(t)
	m := fleet.NewManager(fleet.Options{Workers: 2})
	srv := httptest.NewServer(fleet.NewServer(m))
	defer srv.Close()

	v, err := m.Submit(fleet.Config{
		App: "spotify", Controller: true,
		Profile: prof, TargetGIPS: target, Seed: 42, RunForS: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, v.ID, time.Minute)

	resp, err := http.Get(srv.URL + "/api/v1/sessions/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("trace content type %q", got)
	}
	spans, err := obs.ReadNDJSON(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("trace body is not span NDJSON: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("trace endpoint returned no spans")
	}

	if _, err := http.Get(srv.URL + "/api/v1/sessions/s-999999/trace"); err != nil {
		t.Fatal(err)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if got := mresp.Header.Get("Content-Type"); got != report.ContentType {
		t.Fatalf("metrics content type %q, want %q", got, report.ContentType)
	}
	metrics := string(mbody)
	for _, want := range []string{
		"# TYPE aspeo_fleet_measured_gips histogram",
		"aspeo_fleet_measured_gips_count",
		"aspeo_fleet_measured_gips_bucket{le=\"+Inf\"}",
		"# TYPE aspeo_fleet_cycles_total counter",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}
