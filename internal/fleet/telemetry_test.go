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
	"sync"
	"testing"
	"time"

	"aspeo/internal/fleet"
	"aspeo/internal/obs/pipeline"
)

// telemetryPopulation builds a deterministic mixed population: four
// cohorts, staggered arrivals, an ad-storm phase on one cohort, a mix
// of governor and controller sessions. The same configs submitted in
// the same order must produce the same telemetry rollup whatever the
// worker count.
func telemetryPopulation(prof string, target float64, n int) []fleet.Config {
	cohorts := []string{"game", "video", "browser", ""}
	apps := []string{"spotify", "wechat", "ebook", "maps"}
	cfgs := make([]fleet.Config, 0, n)
	for i := 0; i < n; i++ {
		cfg := fleet.Config{
			App:      apps[i%len(apps)],
			Cohort:   cohorts[i%len(cohorts)],
			ArrivalS: float64(i) * 0.5,
			Seed:     int64(200 + i),
			RunForS:  2,
		}
		if cfg.Cohort == "game" {
			cfg.StormPeriodS, cfg.StormBurstS = 2, 0.5
		}
		if i%3 == 0 {
			cfg.App = "spotify"
			cfg.Controller = true
			cfg.Profile = prof
			cfg.TargetGIPS = target
			cfg.RunForS = 4
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// runPopulation submits the configs, waits for every session to land,
// and returns the single rollup taken afterwards. Rollup is called
// exactly once so the epoch counter matches across managers.
func runPopulation(t *testing.T, workers int, cfgs []fleet.Config) *pipeline.Rollup {
	t.Helper()
	m := fleet.NewManager(fleet.Options{Workers: workers, Queue: len(cfgs) + 8})
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
	for _, id := range ids {
		v, err := m.WaitSession(ctx, id)
		if err != nil {
			t.Fatalf("waiting for %s: %v", id, err)
		}
		if v.State != fleet.StateCompleted {
			t.Fatalf("session %s landed %s (error %q)", id, v.State, v.Error)
		}
	}
	return m.Rollup().Telemetry
}

// TestFleetRollupByteIdentity is the acceptance bar for the sharded
// aggregator: the telemetry rollup of the same population is
// byte-identical at 1, 4 and 16 workers. Worker scheduling decides only
// which ring a record passes through — never what the merged totals,
// distributions or analyzer results say.
func TestFleetRollupByteIdentity(t *testing.T) {
	prof, target := goldenProfile(t)
	cfgs := telemetryPopulation(prof, target, 12)

	base := runPopulation(t, 1, cfgs)
	baseJSON, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles == 0 {
		t.Fatal("telemetry saw no cycles (controller sessions missing?)")
	}
	if len(base.Cohorts) != 4 {
		t.Fatalf("telemetry has %d cohorts, want 4", len(base.Cohorts))
	}
	for _, workers := range []int{4, 16} {
		got := runPopulation(t, workers, cfgs)
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(baseJSON, gotJSON) {
			t.Errorf("telemetry rollup at %d workers differs from 1 worker:\n1:  %s\n%d: %s",
				workers, baseJSON, workers, gotJSON)
		}
	}
}

// TestBrownoutGolden seeds a saturating population — controller
// sessions asked for more GIPS than the profile's frontier can deliver
// — and requires the saturation analyzer to report it, deterministically
// across runs. This is the golden `make smoke-telemetry` pins.
func TestBrownoutGolden(t *testing.T) {
	prof, target := goldenProfile(t)
	// Double the attainable mid-frontier target: every window's
	// measured sum lands far below 90% of the asked-for sum.
	saturating := 4 * target
	cfgs := []fleet.Config{
		{App: "spotify", Controller: true, Profile: prof, TargetGIPS: saturating,
			Cohort: "game", Seed: 11, RunForS: 6},
		{App: "spotify", Controller: true, Profile: prof, TargetGIPS: saturating,
			Cohort: "game", ArrivalS: 2, Seed: 12, RunForS: 6},
	}
	a := runPopulation(t, 2, cfgs)
	if a.Saturation == nil {
		t.Fatal("saturating population produced no saturation analysis")
	}
	if len(a.Saturation.Brownouts) == 0 {
		t.Fatal("saturating population produced no brownout events")
	}
	if a.Saturation.WorstDepth <= 0.3 {
		t.Fatalf("worst brownout depth = %v, want > 0.3 (target is 4x attainable)", a.Saturation.WorstDepth)
	}
	if a.Saturation.BrownoutCycles == 0 {
		t.Fatal("brownout events cover no cycles")
	}

	aJSON, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	b := runPopulation(t, 2, cfgs)
	bJSON, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aJSON, bJSON) {
		t.Fatalf("two identical runs produced different telemetry:\na: %s\nb: %s", aJSON, bJSON)
	}
}

// TestTelemetryScrapeUnderLoad hammers the two scrape surfaces — GET
// /metrics and GET /api/v1/rollup — while the fleet runs. Under -race
// this is the proof that scraping takes no session locks and races with
// nothing on the hot path.
func TestTelemetryScrapeUnderLoad(t *testing.T) {
	prof, target := goldenProfile(t)
	m := fleet.NewManager(fleet.Options{Workers: 4, Queue: 64})
	srv := httptest.NewServer(fleet.NewServer(m))
	defer srv.Close()

	cfgs := telemetryPopulation(prof, target, 8)
	ids := make([]string, 0, len(cfgs))
	for i, cfg := range cfgs {
		v, err := m.Submit(cfg)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	scrape := func(path string) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Errorf("GET %s: %v", path, err)
				return
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Errorf("GET %s read: %v", path, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s: status %d", path, resp.StatusCode)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < 2; i++ {
		wg.Add(2)
		go scrape("/metrics")
		go scrape("/api/v1/rollup")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	for _, id := range ids {
		if _, err := m.WaitSession(ctx, id); err != nil {
			t.Fatalf("waiting for %s: %v", id, err)
		}
	}
	close(stop)
	wg.Wait()

	r := m.Rollup()
	if r.Telemetry.Cycles == 0 {
		t.Fatal("final rollup lost the population's cycles")
	}
	if got := r.Telemetry.Totals.Finished; got != uint64(len(cfgs)) {
		t.Fatalf("telemetry finished = %d, want %d", got, len(cfgs))
	}
}

// TestTelemetryPipelineSmoke runs a 64-session population with a live
// NDJSON subscriber attached and proves the captured stream replays —
// through pipeline.Aggregate, the same code `aspeo-trace rollup` runs —
// into the exact live rollup. Run under -race this is the end-to-end
// pipeline smoke `make smoke-telemetry` executes.
func TestTelemetryPipelineSmoke(t *testing.T) {
	prof, target := goldenProfile(t)
	m := fleet.NewManager(fleet.Options{Workers: 8, Queue: 128})
	pipe := m.Telemetry()

	ch, cancelSub := pipe.Subscribe(4096)
	defer cancelSub()

	cfgs := telemetryPopulation(prof, target, 64)
	ids := make([]string, 0, len(cfgs))
	for i, cfg := range cfgs {
		v, err := m.Submit(cfg)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}

	// A ticker goroutine advances the epoch while the fleet runs, like
	// the /api/v1/telemetry handler does, so batches stream out live
	// rather than landing in one final flush.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				pipe.Advance()
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	for _, id := range ids {
		v, err := m.WaitSession(ctx, id)
		if err != nil {
			t.Fatalf("waiting for %s: %v", id, err)
		}
		if v.State != fleet.StateCompleted {
			t.Fatalf("session %s landed %s (error %q)", id, v.State, v.Error)
		}
	}
	close(stop)
	wg.Wait()

	live := m.Rollup().Telemetry
	if live.Cycles == 0 {
		t.Fatal("live rollup has no telemetry")
	}
	if pipe.Dropped() != 0 {
		t.Fatalf("stream dropped %d batches; the capture is not replayable", pipe.Dropped())
	}

	// Drain everything published, round-trip it through NDJSON bytes,
	// and replay.
	var batches []pipeline.StreamBatch
	for draining := true; draining; {
		select {
		case b := <-ch:
			batches = append(batches, b)
		default:
			draining = false
		}
	}
	var buf bytes.Buffer
	if err := pipeline.WriteNDJSON(&buf, batches); err != nil {
		t.Fatal(err)
	}
	decoded, err := pipeline.ReadNDJSON(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	replayed := pipeline.Aggregate(decoded, pipeline.Options{})

	// The epoch counts Advance calls — wall-clock-paced live, replay-
	// paced offline — so it is excluded from the equality check.
	liveCopy := *live
	liveCopy.Epoch = 0
	replayedCopy := *replayed
	replayedCopy.Epoch = 0
	liveJSON, err := json.Marshal(&liveCopy)
	if err != nil {
		t.Fatal(err)
	}
	replayJSON, err := json.Marshal(&replayedCopy)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveJSON, replayJSON) {
		t.Fatalf("replayed stream diverges from live rollup:\nlive:   %s\nreplay: %s", liveJSON, replayJSON)
	}
	if testing.Verbose() {
		fmt.Printf("smoke: %d batches, %d cycles, %d cohorts\n", len(batches), live.Cycles, len(live.Cohorts))
	}
}
