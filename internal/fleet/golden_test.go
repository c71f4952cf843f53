package fleet_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"aspeo/internal/experiment"
	"aspeo/internal/fleet"
	"aspeo/internal/obs/pipeline"
	"aspeo/internal/platform"
	"aspeo/internal/report"
)

// outputGoldenPopulation is the mixed telemetry population plus one
// 40 s controller session per fault scenario, so the ladder's counters,
// a relinquish and a last transition all reach the fleet's outputs.
func outputGoldenPopulation(prof string, target float64) []fleet.Config {
	cfgs := telemetryPopulation(prof, target, 12)
	for i, name := range experiment.FaultScenarioNames() {
		cfgs = append(cfgs, fleet.Config{
			App: "spotify", Cohort: "faults", Controller: true,
			Profile: prof, TargetGIPS: target,
			ArrivalS: float64(12+i) * 0.5, Seed: int64(300 + i),
			RunForS: 40, Faults: name,
		})
	}
	return cfgs
}

// fleetOutputs is everything a drained fleet publishes: the /metrics
// exposition, the rollup JSON and text block, the telemetry stream, and
// every session's final view.
type fleetOutputs struct {
	metrics, rollup, text []byte
	fleet                 report.FleetRollup
	live                  *pipeline.Rollup
	stream                []pipeline.StreamBatch
	views                 []fleet.SessionView
}

// captureFleetOutputs runs the population on one worker with flight
// recording off, drains the fleet, and captures its outputs. The only
// wall-clock quantity, the cycle throughput, is zeroed in the rollup
// and masked in the exposition.
func captureFleetOutputs(t *testing.T, cfgs []fleet.Config) fleetOutputs {
	t.Helper()
	m := fleet.NewManager(fleet.Options{Workers: 1, Queue: len(cfgs) + 8, FlightCap: -1})
	ch, cancelSub := m.Telemetry().Subscribe(16)
	defer cancelSub()
	ids := make([]string, 0, len(cfgs))
	for i, cfg := range cfgs {
		v, err := m.Submit(cfg)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	var out fleetOutputs
	r := m.Rollup()
	r.CyclesPerSec = 0
	rollup, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out.rollup = append(rollup, '\n')
	var text bytes.Buffer
	report.Fleet(&text, r)
	out.text = text.Bytes()
	out.fleet, out.live = r, r.Telemetry

	out.metrics = scrapeMetrics(m)

	for draining := true; draining; {
		select {
		case b := <-ch:
			out.stream = append(out.stream, b)
		default:
			draining = false
		}
	}
	for _, id := range ids {
		v, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		out.views = append(out.views, v)
	}
	return out
}

// scrapeMetrics answers GET /metrics through the fleet's HTTP server,
// with the cycle throughput masked.
func scrapeMetrics(m *fleet.Manager) []byte {
	rec := httptest.NewRecorder()
	fleet.NewServer(m).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return maskMetric(rec.Body.Bytes(), "aspeo_fleet_cycles_per_second")
}

// maskMetric replaces the value of an unlabelled sample with "MASKED".
func maskMetric(expo []byte, name string) []byte {
	prefix := []byte(name + " ")
	lines := bytes.SplitAfter(expo, []byte("\n"))
	for i, l := range lines {
		if bytes.HasPrefix(l, prefix) {
			lines[i] = append(append([]byte{}, prefix...), "MASKED\n"...)
		}
	}
	return bytes.Join(lines, nil)
}

// rollupWithoutEpoch marshals a telemetry rollup with its epoch zeroed:
// the epoch counts Advance calls, which differ between a live fleet and
// an offline replay.
func rollupWithoutEpoch(t *testing.T, r *pipeline.Rollup) []byte {
	t.Helper()
	c := *r
	c.Epoch = 0
	raw, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestFleetOutputGolden pins what a drained fleet publishes — the
// /metrics exposition, the rollup JSON and the text block — byte for
// byte against goldens, and holds the telemetry stream to its contract:
// the committed telemetry_v1.ndjson capture still replays into the live
// rollup, and the rollup's health ledger is exactly the sum of the
// sessions' final ledgers.
func TestFleetOutputGolden(t *testing.T) {
	prof, target := goldenProfile(t)
	out := captureFleetOutputs(t, outputGoldenPopulation(prof, target))

	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"fleet_metrics.txt", out.metrics},
		{"fleet_rollup.json", out.rollup},
		{"fleet_text.txt", out.text},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s: live output differs from the golden\ngot:\n%s", g.file, g.got)
		}
	}

	// The stream captured from this code at the time the goldens were
	// made is never regenerated: older captures must keep replaying.
	f, err := os.Open(filepath.Join("testdata", "telemetry_v1.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	v1, err := pipeline.ReadNDJSON(bufio.NewReader(f))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pipeline.WriteNDJSON(&buf, out.stream); err != nil {
		t.Fatal(err)
	}
	live, err := pipeline.ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := rollupWithoutEpoch(t, out.live)
	for name, batches := range map[string][]pipeline.StreamBatch{"telemetry_v1.ndjson": v1, "live stream": live} {
		if got := rollupWithoutEpoch(t, pipeline.Aggregate(batches, pipeline.Options{})); !bytes.Equal(got, want) {
			t.Errorf("%s replays to a different rollup:\nlive:   %s\nreplay: %s", name, want, got)
		}
	}

	sum, relinquished := checkHealthLedger(t, out)
	if relinquished == 0 || sum.WatchdogTrips == 0 || sum.RejectedSamples == 0 {
		t.Fatalf("population never exercised the ladder (%+v, %d relinquished); the check proves nothing", sum, relinquished)
	}
}

// TestWriteMetricsCheap holds one render of the golden fleet's /metrics
// to a budget of 200 allocations and 16 KiB: a scrape must not cost the
// fleet more than the rollup it renders.
func TestWriteMetricsCheap(t *testing.T) {
	prof, target := goldenProfile(t)
	r := captureFleetOutputs(t, outputGoldenPopulation(prof, target)).fleet
	render := func() {
		if err := report.WriteMetrics(io.Discard, r); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 20
	allocs := testing.AllocsPerRun(runs, render)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		render()
	}
	runtime.ReadMemStats(&m1)
	kib := float64(m1.TotalAlloc-m0.TotalAlloc) / runs / 1024
	t.Logf("one render: %.0f allocations, %.1f KiB", allocs, kib)
	if allocs > 200 || kib > 16 {
		t.Fatalf("one render: %.0f allocations, %.1f KiB; budget 200 and 16 KiB", allocs, kib)
	}
}

// TestFleetMetricsEdgeGolden pins the exposition's edge cases against a
// golden that is never regenerated: cohort names the submit API accepts
// but the exposition must escape (a quote, a backslash, a newline —
// which also sorts a\nb after a\\b), storm cohorts so interference
// rows appear, and non-zero live counters.
func TestFleetMetricsEdgeGolden(t *testing.T) {
	prof, target := goldenProfile(t)
	var cfgs []fleet.Config
	for i, cohort := range []string{"Z", `a"b`, `a\b`, "a\nb", "plain"} {
		for j := 0; j < 2; j++ {
			cfg := fleet.Config{
				App: "spotify", Cohort: cohort, Controller: true,
				Profile: prof, TargetGIPS: target,
				ArrivalS: float64(2*i+j) * 0.5, Seed: int64(400 + 2*i + j),
				RunForS: 4,
			}
			if j == 0 {
				cfg.StormPeriodS, cfg.StormBurstS = 2, 0.5
			}
			cfgs = append(cfgs, cfg)
		}
	}
	m := fleet.NewManager(fleet.Options{Workers: 1, Queue: len(cfgs) + 8, FlightCap: -1})
	for i, cfg := range cfgs {
		if _, err := m.Submit(cfg); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	fleet.AddLiveCounters(m, fleet.LiveCounters{
		HTTPPanics: 1, WorkerPanics: 2, CheckpointsWritten: 1, CheckpointFailures: 3,
		ShedQueueFull: 1, ShedMaxStreams: 2,
	})
	r := m.Rollup()
	if got := [...]int{r.HTTPPanicsRecovered, r.PanicsRecovered, r.CheckpointsWritten,
		r.CheckpointFailures, r.ShedQueueFull, r.ShedMaxStreams}; got != [...]int{1, 2, 1, 3, 1, 2} {
		t.Errorf("rollup live counters %v, want [1 2 1 3 1 2]", got)
	}

	got := scrapeMetrics(m)
	want, err := os.ReadFile(filepath.Join("testdata", "fleet_metrics_edge.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fleet_metrics_edge.txt: live output differs from the golden\ngot:\n%s", got)
	}
}

// TestFleetHealthResidual covers ladder activity an attempt records
// after its last published cycle — here actuation failures in the
// final cycle's dwell slots. Only the session's final record carries
// it to the rollup.
func TestFleetHealthResidual(t *testing.T) {
	prof, target := goldenProfile(t)
	out := captureFleetOutputs(t, []fleet.Config{{
		App: "spotify", Controller: true, Profile: prof, TargetGIPS: target,
		Seed: 5, RunForS: 40, Faults: "combined",
	}})
	v := out.views[0]
	if v.LastCycle == nil || v.Summary == nil || v.Summary.Controller == nil {
		t.Fatalf("session %s has no last cycle or controller summary", v.ID)
	}
	if v.LastCycle.Health.HealthCounts == v.Summary.Controller.Health.HealthCounts {
		t.Fatal("no ladder activity after the last cycle; the test proves nothing")
	}
	checkHealthLedger(t, out)
}

// checkHealthLedger requires the rollup's ladder ledger to equal the sum
// of the sessions' final ledgers counter for counter (no session
// restarts, so each final ledger is the session's whole history), and
// its relinquish count to equal the number of relinquished sessions. It
// returns the sum and the count.
func checkHealthLedger(t *testing.T, out fleetOutputs) (platform.HealthCounts, int) {
	t.Helper()
	var sum platform.HealthCounts
	relinquished := 0
	for _, v := range out.views {
		if v.Restarts != 0 {
			t.Fatalf("session %s restarted; its final ledger is not its whole history", v.ID)
		}
		if v.Summary == nil || v.Summary.Controller == nil {
			continue
		}
		h := v.Summary.Controller.Health
		sum.Add(h.HealthCounts)
		if h.Relinquished {
			relinquished++
		}
	}
	got := out.live.Health
	if got.HealthCounts != sum {
		t.Errorf("rollup health %+v, sum of final ledgers %+v", got.HealthCounts, sum)
	}
	if got.Relinquished != uint64(relinquished) {
		t.Errorf("rollup relinquished %d, sessions relinquished %d", got.Relinquished, relinquished)
	}
	return sum, relinquished
}
