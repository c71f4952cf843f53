package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"aspeo/internal/experiment"
	"aspeo/internal/fleet"
	"aspeo/internal/profile"
	"aspeo/internal/report"
	"aspeo/internal/scenario"
	"aspeo/internal/workload"
)

// Open-loop load, sized from measured capacity (README, "Load against
// capacity"). On the reference machine two workers complete about 370
// fleet-steady sessions and about 750 population-burst sessions per
// second before a backlog grows. fleet-steady offers steadyRate, about
// 16% of that, so latency measures the sessions rather than a queue. It
// is not higher because the fleet keeps every finished session with its
// flight recorder, about 260 KiB each, so a run's memory grows with the
// rate. population-burst replays a compiled population
// popPasses times at popCompress× real time with popRate sessions per
// wall second on average; its busiest second carries 72 to 121 sessions
// across seeds, at most a sixth of capacity.
const (
	steadyRate    = 60.0
	steadyConfigs = 64
	steadyRunForS = 60
	scrapeEvery   = 20 * time.Millisecond
	popRate       = 50.0
	popCompress   = 30.0
	popPasses     = 4
	popRunForS    = 30
	// replicaCells is how many of a fleet workload's configs the traced
	// run replays on directly built, instrumented cells.
	replicaCells = 64
)

// arrival is one scheduled session: its due time relative to the start
// of the measured window (negative during warm-up) and its config.
type arrival struct {
	at  time.Duration
	cfg int
}

// openPlan is one open-loop workload, ready to run.
type openPlan struct {
	m        *fleet.Manager
	workers  int
	arrivals []arrival
	config   func(cfg int) fleet.Config
	key      func(cfg int) string
	// observe runs a live telemetry subscriber and a periodic scrape
	// (rollup, metric refresh, text exposition) beside the sessions.
	observe bool
	// replicas are directly built cells of the same configs for the
	// traced run; specs the sessions' experiment.NewSession inputs.
	replicas []cellSpec
	specs    []experiment.SessionSpec
	flight   bool // the fleet attaches a flight recorder to each session
	cleanup  func()
}

// fleetSteady is steady Poisson arrivals of 60 sim-s controller sessions
// through the fleet: seven apps on stored profiles, four cohorts with
// storm tagging on one, a live stream reader and a scrape every 20 ms.
func fleetSteady(b *bench) error {
	apps := append(workload.Evaluated(), workload.EBook())
	nCfg, runFor, rate := steadyConfigs, steadyRunForS, steadyRate
	if b.cfg.short {
		apps, nCfg, runFor, rate = apps[5:], 4, 10, 20
	}
	var p *openPlan
	err := b.setup(func() error {
		if p != nil {
			p.cleanup()
		}
		var err error
		p, err = b.steadyPlan(apps, nCfg, runFor)
		return err
	})
	if err != nil {
		return err
	}
	defer p.cleanup()
	b.zero("scenario.")
	p.arrivals = poissonArrivals(derive(b.cfg.seed, saltArrivals), rate, b.cfg.warmup, b.cfg.seconds, nCfg)
	return b.openLoop(p)
}

// steadyPlan is fleet-steady's set-up: profile the apps, store the
// tables as the fleet reads them, and start the manager.
func (b *bench) steadyPlan(apps []*workload.Spec, nCfg, runFor int) (*openPlan, error) {
	start := time.Now()
	ts, err := b.profileApps(apps, workload.BaselineLoad)
	if err != nil {
		return nil, err
	}
	dir, paths, err := ts.writeTables()
	cleanup := func() { os.RemoveAll(dir) }
	if err != nil {
		cleanup()
		return nil, err
	}
	tables := make(map[string]*profile.Table, len(paths))
	for name, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			cleanup()
			return nil, err
		}
		tables[name], err = profile.ReadJSON(f)
		f.Close()
		if err != nil {
			cleanup()
			return nil, err
		}
	}
	cohorts := []string{"game", "video", "browser", "reader"}
	cfgs := make([]fleet.Config, nCfg)
	p := &openPlan{
		workers: runtime.NumCPU(), observe: true, flight: true,
		config: func(i int) fleet.Config { return cfgs[i] },
		key:    func(i int) string { return fmt.Sprintf("cfg%02d", i) },
	}
	for i := range cfgs {
		app := apps[i%len(apps)]
		c := fleet.Config{
			App: app.Name, Controller: true,
			Profile: paths[app.Name], TargetGIPS: ts.target[app.Name],
			Seed: derive(b.cfg.seed, saltCell+i), RunForS: float64(runFor),
			Cohort: cohorts[i%len(cohorts)],
		}
		if c.Cohort == "game" {
			c.StormPeriodS, c.StormBurstS = 20, 5
		}
		cfgs[i] = c
		p.specs = append(p.specs, experiment.SessionSpec{
			App: c.App, Load: workload.BaselineLoad.String(), Controller: true,
			Profile: c.Profile, TargetGIPS: c.TargetGIPS, Seed: c.Seed,
			RunFor: time.Duration(runFor) * time.Second,
		})
		if i < replicaCells {
			p.replicas = append(p.replicas, cellSpec{
				key: p.key(i), app: app, load: workload.BaselineLoad, seed: c.Seed,
				runFor: time.Duration(runFor) * time.Second,
				table:  tables[app.Name], target: c.TargetGIPS,
			})
		}
	}
	p.m = fleet.NewManager(fleet.Options{Workers: p.workers})
	p.cleanup = func() { drain(p.m); cleanup() }
	b.set("profile.setup_frac", ts.profiling.Seconds()/time.Since(start).Seconds())
	return p, nil
}

// poissonArrivals draws a Poisson process of the given rate conditioned
// on its count — rate·warmup arrivals in the warm-up and rate·seconds in
// the measured window, each uniform — so every seed offers the same
// number of sessions. Configs cycle in arrival order.
func poissonArrivals(seed int64, rate float64, warmup, seconds time.Duration, nCfg int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	draw := func(from, span time.Duration) {
		n := int(rate*span.Seconds() + 0.5)
		at := make([]float64, n)
		for i := range at {
			at[i] = rng.Float64()
		}
		sort.Float64s(at)
		for _, u := range at {
			out = append(out, arrival{at: from + time.Duration(u*float64(span)), cfg: len(out) % nCfg})
		}
	}
	draw(-warmup, warmup)
	draw(0, seconds)
	return out
}

// populationBurst replays a generated population through the fleet with
// no controller: switcher chains with ad storms and perturbed readers
// under the stock governors, arriving in bursts.
func populationBurst(b *bench) error {
	var p *openPlan
	err := b.setup(func() error {
		if p != nil {
			p.cleanup()
		}
		var err error
		p, err = b.populationPlan()
		return err
	})
	if err != nil {
		return err
	}
	defer p.cleanup()
	b.zero("profile.")
	return b.openLoop(p)
}

// populationPlan is population-burst's set-up: compile the population
// and start the manager. The measured window replays the population's
// horizon popPasses times back to back, so every session recurs and its
// quiet-quartile latency is defined; the warm-up replays the horizon's
// last stretch first.
func (b *bench) populationPlan() (*openPlan, error) {
	pass := b.cfg.seconds / popPasses
	runFor := float64(popRunForS)
	if b.cfg.short {
		runFor = 5
	}
	horizon := popCompress * pass.Seconds()
	spec := &scenario.Spec{
		Name: "population-burst", Seed: derive(b.cfg.seed, saltScenario),
		Sessions: int(popRate*pass.Seconds() + 0.5), HorizonS: horizon,
		Arrival: scenario.Arrival{
			Process: scenario.ProcessBursty, BurstFactor: 3,
			MeanBurstS: 30, MeanCalmS: 90,
		},
		LoadCurve: []scenario.CurveTerm{{PeriodS: horizon, Amplitude: 0.3, Phase: 0.25}},
		Cohorts: []scenario.Cohort{
			{
				Name: "switchers", Weight: 0.6,
				Apps:    []string{"spotify", "ebook", "angrybirds"},
				Chain:   &scenario.Chain{Length: 3, DwellS: 10, DwellJitter: 0.3},
				Loads:   map[string]float64{"BL": 0.7, "HL": 0.3},
				RunForS: runFor,
				AdStorm: &scenario.AdStorm{PeriodS: 20, BurstS: 2, GIPS: 0.3},
			},
			{
				Name: "readers", Weight: 0.4,
				Apps:    []string{"ebook"},
				Perturb: &scenario.Perturb{DemandSigma: 0.25, DurationSigma: 0.2},
				RunForS: runFor,
			},
		},
	}
	start := time.Now()
	g, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	compile := time.Since(start)
	p := &openPlan{
		workers: runtime.NumCPU(),
		config:  func(i int) fleet.Config { return fleet.ConfigFromSession(&g.Sessions[i]) },
		key:     func(i int) string { return fmt.Sprintf("s%05d", i) },
	}
	warm := min(b.cfg.warmup, pass)
	for i := range g.Sessions {
		s := &g.Sessions[i]
		at := time.Duration(s.ArrivalS / popCompress * float64(time.Second))
		for k := time.Duration(0); k < popPasses; k++ {
			p.arrivals = append(p.arrivals, arrival{at: at + k*pass, cfg: i})
		}
		if at >= pass-warm {
			p.arrivals = append(p.arrivals, arrival{at: at - pass, cfg: i})
		}
		p.specs = append(p.specs, s.SessionSpec())
		if i < replicaCells {
			load, err := workload.ParseBGLoad(s.Load)
			if err != nil {
				return nil, err
			}
			p.replicas = append(p.replicas, cellSpec{
				key: p.key(i), app: s.App, load: load, extra: s.ExtraBackground,
				seed: s.Seed, runFor: time.Duration(s.RunForS * float64(time.Second)),
				governor: s.Governor,
			})
		}
	}
	sort.SliceStable(p.arrivals, func(i, j int) bool { return p.arrivals[i].at < p.arrivals[j].at })
	p.m = fleet.NewManager(fleet.Options{Workers: p.workers})
	p.cleanup = func() { drain(p.m) }
	b.set("scenario.setup_frac", compile.Seconds()/time.Since(start).Seconds())
	return p, nil
}

// drainTimeout bounds waiting for sessions to land; a healthy run needs
// milliseconds.
const drainTimeout = 60 * time.Second

func drain(m *fleet.Manager) {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	_ = m.Drain(ctx) // a timed-out drain still stops and waits for every session
}

// observers are the live telemetry consumers beside an open-loop run: a
// stream subscriber counting the cycle records it receives and a scraper
// doing what a /metrics request does.
type observers struct {
	m        *fleet.Manager
	stop     chan struct{}
	wg       sync.WaitGroup
	cancel   func()
	streamed int
	rollup   []time.Duration // Rollup
	expose   []time.Duration // RollupMetrics + WriteText
}

// streamBuffer lets the reader fall a whole second of scrapes behind
// before the pipeline drops a batch.
const streamBuffer = 64

func startObservers(m *fleet.Manager) *observers {
	o := &observers{m: m, stop: make(chan struct{})}
	ch, cancel := m.Telemetry().Subscribe(streamBuffer)
	o.cancel = cancel
	o.wg.Add(2)
	go func() {
		defer o.wg.Done()
		for batch := range ch { // closed by cancel
			o.streamed += len(batch.Cycles)
		}
	}()
	go func() {
		defer o.wg.Done()
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-o.stop:
				return
			case <-tick.C:
				t0 := time.Now()
				r := m.Rollup()
				t1 := time.Now()
				report.RollupMetrics(m.Registry(), r)
				_ = m.Registry().WriteText(io.Discard) // io.Discard cannot fail
				o.rollup = append(o.rollup, t1.Sub(t0))
				o.expose = append(o.expose, time.Since(t1))
			}
		}
	}()
	return o
}

// close stops the scraper, publishes the records still in the rings to
// the subscriber, and waits for both goroutines.
func (o *observers) close() {
	close(o.stop)
	o.m.Rollup()
	o.cancel()
	o.wg.Wait()
}

// sent is one submitted session.
type sent struct {
	id       string
	cfg      int
	due      time.Time
	measured bool
}

// openLoop runs an open-loop workload. Untraced it reports the
// end-to-end metrics over the measured window. Traced it runs the fleet
// for half the budget and spends the rest on a construct-only phase and
// on replicas: the first configs rebuilt as directly built cells, in
// alternating untraced and traced rounds. Every replica's digest must
// equal the fleet's for the same config.
func (b *bench) openLoop(p *openPlan) error {
	window := b.cfg.seconds
	arrivals := p.arrivals
	if b.cfg.trace {
		window /= 2
		n := sort.Search(len(arrivals), func(i int) bool { return arrivals[i].at >= window })
		arrivals = arrivals[:n]
	}
	var o *observers
	if p.observe {
		o = startObservers(p.m)
	}
	heap := newHeapSampler()
	origin := time.Now().Add(b.cfg.warmup + 10*time.Millisecond)
	sents := make([]sent, 0, len(arrivals))
	var late []float64
	var s0 rtSnap
	snapped := false
	for _, a := range arrivals {
		if !snapped && a.at >= 0 {
			time.Sleep(time.Until(origin))
			s0, snapped = snap(), true
		}
		due := origin.Add(a.at)
		time.Sleep(time.Until(due))
		issue := time.Now()
		v, err := p.m.Submit(p.config(a.cfg))
		if err != nil { // refused: a failed operation
			b.op(false)
			b.logf("submit refused: %v", err)
			continue
		}
		if a.at >= 0 {
			late = append(late, ms(issue.Sub(due)))
		}
		sents = append(sents, sent{id: v.ID, cfg: a.cfg, due: due, measured: a.at >= 0})
		heap.sample()
	}
	if !snapped {
		return fmt.Errorf("no session due in the measured window")
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	var lat, queue, busy []float64
	var keys []int
	var simS float64
	cycles, measured := 0, 0
	for _, s := range sents {
		v, err := p.m.WaitSession(ctx, s.id)
		if err != nil {
			return fmt.Errorf("waiting for %s: %w", s.id, err)
		}
		ok := v.State == fleet.StateCompleted && v.Summary != nil
		if ok {
			rs := v.Summary
			cyc := 0
			if rs.Controller != nil {
				cyc = rs.Controller.Cycles
			}
			ok = b.checker.check(p.key(s.cfg), digestOf(rs.DurationS, rs.EnergyJ, rs.GIPS, rs.FreqChanges, rs.BWChanges, cyc))
			if s.measured {
				simS += rs.DurationS
				cycles += cyc
			}
		} else {
			b.logf("session %s landed %s: %s", s.id, v.State, v.Error)
		}
		b.op(ok)
		if !s.measured || v.StartedAt == nil || v.FinishedAt == nil {
			continue
		}
		measured++
		keys = append(keys, s.cfg)
		lat = append(lat, ms(v.FinishedAt.Sub(s.due)))
		queue = append(queue, ms(v.StartedAt.Sub(v.SubmittedAt)))
		busy = append(busy, ms(v.FinishedAt.Sub(*v.StartedAt)))
	}
	heap.sample()
	w := s0.to(snap())
	if o != nil {
		o.close()
	}
	if measured == 0 {
		return fmt.Errorf("no measured session completed")
	}
	b.set("sim_s_per_wall_s", simS/w.wall.Seconds())
	b.latency(lat, quietByKey(keys, lat))
	b.perSession(w, measured)
	b.dist("fleet.queue_ms", queue)
	b.dist("fleet.run_ms", busy)
	b.logf("live heap peak %.0f MiB", float64(heap.peak)/(1<<20))
	b.generatorLate(late)
	if !b.cfg.trace {
		return nil
	}
	b.runtimeLayer(w, heap.peak)
	b.set("fleet.queue_frac", sum(queue)/sum(lat))
	b.set("fleet.worker_busy_frac", sum(busy)/(float64(p.workers)*ms(w.wall)))
	fleetAllocs := 0.0
	if cycles > 0 {
		fleetAllocs = w.mallocs / float64(cycles)
	}
	b.set("fleet.allocs_per_cycle", fleetAllocs)
	drain(p.m)
	b.pipelineLayer(o, w)
	if err := b.construct(p.specs, p.flight, b.cfg.seconds/10); err != nil {
		return err
	}
	plain, traced, tr, _, err := b.alternate(newClosedLoop(b, p.replicas), b.cfg.seconds-window-b.cfg.seconds/10)
	if err != nil {
		return err
	}
	b.tracedCells(plain, traced, tr)
	if cycles > 0 && plain.cycles > 0 {
		// Where the fleet's allocations per cycle go, beyond what the same
		// sessions allocate as directly built, untraced cells.
		cell := plain.mallocs / float64(plain.cycles)
		trace := b.metrics["experiment.trace_allocs_per_cycle"]
		scrapes := b.metrics["pipeline.scrape_allocs"] * (w.wall.Seconds() / scrapeEvery.Seconds()) / float64(cycles)
		b.logf("fleet allocs/cycle %.2f = direct cell %.2f + decision trace %.2f + pipeline scrapes %.2f + fleet session runtime %.2f",
			fleetAllocs, cell, trace, scrapes, fleetAllocs-cell-trace-scrapes)
	}
	return nil
}

// pipelineLayer reports the pipeline rows: the scrape's share of the
// window and its exposition share, how many of the fleet's cycle records
// reached the live stream reader, and the allocations of one scrape,
// measured on the drained fleet where nothing else allocates.
func (b *bench) pipelineLayer(o *observers, w window) {
	if o == nil {
		b.zero("pipeline.")
		return
	}
	var rollup, expose []float64
	for i := range o.rollup {
		rollup = append(rollup, float64(o.rollup[i])/1e3)
		expose = append(expose, float64(o.expose[i])/1e3)
	}
	scrape := sum(rollup) + sum(expose)
	b.set("pipeline.scrape_busy_frac", scrape/1e3/ms(w.wall))
	b.set("pipeline.exposition_frac", sum(expose)/scrape)
	b.set("pipeline.stream_records_per_cycle", float64(o.streamed)/float64(o.m.Rollup().CyclesTotal))
	b.dist("pipeline.rollup_us", rollup)
	b.dist("pipeline.exposition_us", expose)
	const scrapes = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < scrapes; i++ {
		report.RollupMetrics(o.m.Registry(), o.m.Rollup())
		_ = o.m.Registry().WriteText(io.Discard)
	}
	runtime.ReadMemStats(&m1)
	b.set("pipeline.scrape_allocs", float64(m1.Mallocs-m0.Mallocs)/scrapes)
}
