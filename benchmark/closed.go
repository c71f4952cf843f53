package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"aspeo/internal/experiment"
	"aspeo/internal/obs"
	"aspeo/internal/profile"
	"aspeo/internal/workload"
)

// paperCells is the paper's evaluation campaign (Table IV): the six
// evaluated apps plus the eBook reader, each under no, baseline and
// heavier background load, under the controller. As in §V-C every load
// reuses the baseline-load table and target profiled in set-up.
//
// A cell's cost depends on its seed by up to 3×, through the demand
// noise the controller reacts to, so every cell runs under cellSeeds
// seeds: one run's cost then averages many seeds, not one per cell.
func paperCells(b *bench) error {
	apps := append(workload.Evaluated(), workload.EBook())
	loads := []workload.BGLoad{workload.BaselineLoad, workload.NoLoad, workload.HeavierLoad}
	seeds := cellSeeds
	if b.cfg.short {
		apps, loads, seeds = []*workload.Spec{workload.EBook()}, loads[:2], 1
	}
	ts, err := b.profiledSetup(apps, workload.BaselineLoad)
	if err != nil {
		return err
	}
	var cells []cellSpec
	for _, app := range apps {
		for _, load := range loads {
			for k := 0; k < seeds; k++ {
				cells = append(cells, cellSpec{
					key: fmt.Sprintf("%s/%s/%d", app.Name, load, k), app: app, load: load,
					seed:  derive(b.cfg.seed, saltCell+len(cells)),
					table: ts.table[app.Name], target: ts.target[app.Name],
				})
			}
		}
	}
	return b.closedLoop(cells, ts)
}

// cellSeeds is how many seeds each paper cell runs under.
const cellSeeds = 3

// idleDoze is hour-long screen-off sessions with a dozing controller
// that re-decides every 30 s: closed-form simulator spans are nearly all
// the work and the controller is nearly idle.
func idleDoze(b *bench) error {
	apps := []*workload.Spec{workload.SpotifyIdle(), workload.EBookIdle()}
	if b.cfg.short {
		for i, app := range apps {
			apps[i] = app.Clone()
			apps[i].RunFor = 5 * time.Minute
		}
	}
	ts, err := b.profiledSetup(apps, workload.NoLoad)
	if err != nil {
		return err
	}
	cells := make([]cellSpec, len(apps))
	for i, app := range apps {
		cells[i] = cellSpec{
			key: app.Name + "/" + workload.NoLoad.String(), app: app, load: workload.NoLoad,
			seed:  derive(b.cfg.seed, saltCell+i),
			table: ts.table[app.Name], target: ts.target[app.Name],
			doze: 30 * time.Second,
		}
	}
	return b.closedLoop(cells, ts)
}

// tableSet is what set-up profiles for controller sessions: a
// quick-fidelity table and the default-governor target per app.
type tableSet struct {
	table  map[string]*profile.Table
	target map[string]float64
	// profiling is the wall time spent in profile.Run; setup the whole
	// set-up's.
	profiling, setup time.Duration
}

// profiledSetup runs the set-up of a controller workload: profile every
// app and measure its default-governor target, as the paper derives the
// controller's inputs. Profiling uses the quick campaign's fixed seeds,
// so every run's controller works from the same tables and targets: a
// table drawn per run would move a cell's cost by up to 3× from seed to
// seed, which no bound could absorb. --seed drives the sessions.
func (b *bench) profiledSetup(apps []*workload.Spec, load workload.BGLoad) (*tableSet, error) {
	var ts *tableSet
	err := b.setup(func() error {
		start := time.Now()
		var err error
		ts, err = b.profileApps(apps, load)
		if ts != nil {
			ts.setup = time.Since(start)
		}
		return err
	})
	if err == nil {
		b.set("profile.setup_frac", ts.profiling.Seconds()/ts.setup.Seconds())
	}
	return ts, err
}

func (b *bench) profileApps(apps []*workload.Spec, load workload.BGLoad) (*tableSet, error) {
	exp := experiment.Quick()
	if b.cfg.short {
		exp.ProfileWarmup, exp.ProfileWindow = 200*time.Millisecond, time.Second
	}
	ts := &tableSet{table: map[string]*profile.Table{}, target: map[string]float64{}}
	for _, app := range apps {
		start := time.Now()
		tab, err := exp.Profile(app, load, profile.Coordinated)
		if err != nil {
			return nil, fmt.Errorf("profiling %s: %w", app.Name, err)
		}
		ts.profiling += time.Since(start)
		def, err := exp.MeasureDefault(app, load)
		if err != nil {
			return nil, fmt.Errorf("default %s: %w", app.Name, err)
		}
		ts.table[app.Name], ts.target[app.Name] = tab, def.GIPS
	}
	return ts, nil
}

// writeTables stores every table as JSON in a fresh directory under the
// temporary directory and returns the paths by app.
func (ts *tableSet) writeTables() (dir string, paths map[string]string, err error) {
	dir, err = os.MkdirTemp("", "aspeo-benchmark-")
	if err != nil {
		return "", nil, err
	}
	paths = make(map[string]string, len(ts.table))
	for name, tab := range ts.table {
		path := filepath.Join(dir, name+".json")
		f, err := os.Create(path)
		if err != nil {
			return dir, nil, err
		}
		werr := tab.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return dir, nil, werr
		}
		paths[name] = path
	}
	return dir, paths, nil
}

// closedLoop drives cells round-robin on one goroutine: each cell is due
// when the previous one completes.
type closedLoop struct {
	b        *bench
	cells    []cellSpec
	next     int
	prevDone time.Time
	heap     *heapSampler
	// Per cell run: due → completed and due → issued (ms), and which cell.
	lat, late []float64
	key       []int
	simS      []float64 // each cell's simulated seconds
}

func newClosedLoop(b *bench, cells []cellSpec) *closedLoop {
	return &closedLoop{b: b, cells: cells, heap: newHeapSampler(), simS: make([]float64, len(cells))}
}

// one runs the next cell, instrumented when tr is non-nil.
func (l *closedLoop) one(tr *cellTrace) (cellResult, error) {
	i := l.next
	c := &l.cells[i]
	l.next = (l.next + 1) % len(l.cells)
	issue := time.Now()
	res, err := runCell(c, tr)
	if err != nil {
		return res, err
	}
	done := time.Now()
	l.b.op(l.b.checker.check(c.key, res.digest))
	l.lat = append(l.lat, ms(done.Sub(l.prevDone)))
	l.late = append(l.late, ms(issue.Sub(l.prevDone)))
	l.key = append(l.key, i)
	l.simS[i] = res.simS
	l.prevDone = done
	l.heap.sample()
	return res, nil
}

// runFor runs cells until d has elapsed and returns how many ran.
func (l *closedLoop) runFor(d time.Duration) (n int, err error) {
	start := time.Now()
	l.prevDone = start
	for n == 0 || time.Since(start) < d {
		if _, err := l.one(nil); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func (b *bench) closedLoop(cells []cellSpec, ts *tableSet) error {
	l := newClosedLoop(b, cells)
	if _, err := l.runFor(b.cfg.warmup); err != nil {
		return err
	}
	l.lat, l.late, l.key = l.lat[:0], l.late[:0], l.key[:0]
	if b.cfg.trace {
		return b.traceClosed(l, ts)
	}
	s0 := snap()
	n, err := l.runFor(b.cfg.seconds)
	if err != nil {
		return err
	}
	w := s0.to(snap())
	// Throughput of one round of cells, each at its quiet-quartile time.
	quiet := quietByKey(l.key, l.lat)
	simS, wall := 0.0, 0.0
	for c, q := range quiet {
		simS += l.simS[c]
		wall += q / 1e3
	}
	b.set("sim_s_per_wall_s", simS/wall)
	all := 0.0
	for _, c := range l.key {
		all += l.simS[c]
	}
	b.logf("sim_s_per_wall_s over every cell of the window: %.6g", all/w.wall.Seconds())
	b.latency(l.lat, quiet)
	b.perSession(w, n)
	b.generatorLate(l.late)
	return nil
}

// latency reports session_ms: the median across keys of each key's
// quiet-quartile latency, and the 99th percentile of every session's.
func (b *bench) latency(lat []float64, quiet map[int]float64) {
	q := make([]float64, 0, len(quiet))
	for _, x := range quiet {
		q = append(q, x)
	}
	sort.Float64s(q)
	all := append([]float64(nil), lat...)
	sort.Float64s(all)
	b.set("session_ms.p50", quantile(q, 0.50))
	b.set("session_ms.p99", quantile(all, 0.99))
	b.dist("session_ms (quiet quartile by key)", q)
	b.dist("session_ms (every session)", all)
}

// roundStats accumulates whole rounds of one kind (traced or not).
type roundStats struct {
	wall    time.Duration
	cpu     time.Duration
	simS    float64
	mallocs float64
	cycles  int
	cells   int
}

func (r *roundStats) add(w window, simS float64, cycles, cells int) {
	r.wall += w.wall
	r.cpu += w.cpu
	r.simS += simS
	r.mallocs += w.mallocs
	r.cycles += cycles
	r.cells += cells
}

// traceClosed is the traced run of a closed-loop workload: a
// construct-only phase, then whole rounds of the same cells alternating
// untraced and traced, so the tracing overhead is measured under the
// same machine conditions as the split it explains.
func (b *bench) traceClosed(l *closedLoop, ts *tableSet) error {
	dir, paths, err := ts.writeTables()
	defer os.RemoveAll(dir)
	if err != nil {
		return err
	}
	specs := make([]experiment.SessionSpec, len(l.cells))
	for i, c := range l.cells {
		specs[i] = experiment.SessionSpec{
			App: c.app.Name, Load: c.load.String(), Controller: true,
			Profile: paths[c.app.Name], TargetGIPS: c.target, Seed: c.seed,
		}
	}
	budget := b.cfg.seconds / 10
	if err := b.construct(specs, false, budget); err != nil {
		return err
	}
	plain, traced, tr, w, err := b.alternate(l, b.cfg.seconds-budget)
	if err != nil {
		return err
	}
	b.tracedCells(plain, traced, tr)
	b.set("runtime.cpu_ms_per_session", ms(plain.cpu)/float64(plain.cells))
	b.runtimeLayer(w, l.heap.peak)
	b.generatorLate(l.late)
	b.zero("fleet.", "pipeline.", "scenario.")
	return nil
}

// alternate runs whole rounds of the loop's cells for d, odd rounds
// traced.
func (b *bench) alternate(l *closedLoop, d time.Duration) (plain, traced roundStats, tr *cellTrace, w window, err error) {
	l.next = 0
	tr = &cellTrace{}
	start := snap()
	l.prevDone = start.at
	for r := 0; r < 2 || time.Since(start.at) < d; r++ {
		on, stats := (*cellTrace)(nil), &plain
		if r%2 == 1 {
			on, stats = tr, &traced
		}
		s0 := snap()
		simS, cycles := 0.0, 0
		for range l.cells {
			res, err := l.one(on)
			if err != nil {
				return plain, traced, tr, w, err
			}
			simS += res.simS
			cycles += res.cycles
		}
		stats.add(s0.to(snap()), simS, cycles, len(l.cells))
	}
	return plain, traced, tr, start.to(snap()), nil
}

// tracedCells reports the cell-level layer rows, the tracing overhead
// and the tracing's allocations per control cycle.
func (b *bench) tracedCells(plain, traced roundStats, tr *cellTrace) {
	b.cellLayers(&tr.total)
	b.reportTicks(tr)
	b.partition = tr.total.worstPartition
	rate := func(r roundStats) float64 { return r.simS / r.wall.Seconds() }
	b.set("bench.trace_overhead_frac", 1-rate(traced)/rate(plain))
	perCycle := 0.0
	if plain.cycles > 0 && traced.cycles > 0 {
		perCycle = traced.mallocs/float64(traced.cycles) - plain.mallocs/float64(plain.cycles)
	}
	b.set("experiment.trace_allocs_per_cycle", perCycle)
	b.logf("traced vs untraced rounds: %.0f vs %.0f sim_s/s (%d traced cells)", rate(traced), rate(plain), tr.total.cells)
}

// generatorLate reports how late the load generator issued operations.
func (b *bench) generatorLate(late []float64) {
	s := append([]float64(nil), late...)
	sort.Float64s(s)
	b.set("bench.generator_late_ms.p99", quantile(s, 0.99))
	b.dist("bench.generator_late_ms", s)
}

// construct builds sessions through experiment.NewSession without
// running them, for at least d and at least one pass over specs: the
// per-session construction cost (profile read, cell wiring, and the
// flight recorder when the fleet would attach one).
func (b *bench) construct(specs []experiment.SessionSpec, flight bool, d time.Duration) error {
	var us, allocs []float64
	var m0, m1 runtime.MemStats
	start := time.Now()
	for i := 0; i < len(specs) || time.Since(start) < d; i++ {
		spec := specs[i%len(specs)]
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if flight {
			spec.Trace = obs.NewRecorder(0)
		}
		_, err := experiment.NewSession(spec)
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		b.op(err == nil)
		if err != nil {
			return fmt.Errorf("constructing %s: %w", spec.App, err)
		}
		us = append(us, float64(el)/1e3)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
	}
	sort.Float64s(us)
	b.set("experiment.new_session_us.p50", quantile(us, 0.50))
	b.set("experiment.new_session_us.p99", quantile(us, 0.99))
	b.set("experiment.new_session_allocs", sum(allocs)/float64(len(allocs)))
	b.dist("experiment.new_session_us", us)
	return nil
}
