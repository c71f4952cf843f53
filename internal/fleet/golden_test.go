package fleet_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
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
	out.live = r.Telemetry

	rec := httptest.NewRecorder()
	fleet.NewServer(m).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out.metrics = maskMetric(rec.Body.Bytes(), "aspeo_fleet_cycles_per_second")

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
