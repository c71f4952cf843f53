package main

import (
	"fmt"
	"time"

	"aspeo/internal/core"
	"aspeo/internal/experiment"
	"aspeo/internal/governor"
	"aspeo/internal/obs"
	"aspeo/internal/perftool"
	"aspeo/internal/platform"
	"aspeo/internal/profile"
	"aspeo/internal/sim"
	"aspeo/internal/sysfs"
	"aspeo/internal/workload"
)

// cellSpec is one simulation cell the benchmark builds itself, wired the
// way experiment.NewSession wires it (controller without faults, or a
// stock governor with perf) but with the runner in the benchmark's hands,
// so a traced cell can be instrumented from outside. The digest check
// against fleet sessions of the same config proves the wiring faithful.
type cellSpec struct {
	key   string // digest key
	app   *workload.Spec
	load  workload.BGLoad
	extra []*workload.Spec
	seed  int64
	// runFor caps the session; 0 runs the app's standard session.
	runFor time.Duration
	// Controller mode when table is set, governor mode otherwise.
	table    *profile.Table
	target   float64
	doze     time.Duration // controller cycle and quantum; 0 keeps the paper's
	governor string
}

// cellResult is what one cell run yields.
type cellResult struct {
	digest string
	simS   float64
	cycles int // control cycles run
}

// runCell builds and runs one cell. A non-nil tr instruments it.
func runCell(c *cellSpec, tr *cellTrace) (cellResult, error) {
	var ctl *core.Controller
	install := func(r platform.Runner) error {
		if tr != nil {
			r = tr.wrap(r)
		}
		if c.table == nil {
			if err := r.Device().WriteFile(sysfs.CPUScalingGovernor, c.governor); err != nil {
				return fmt.Errorf("setting governor: %w", err)
			}
			if err := governor.Defaults(r); err != nil {
				return err
			}
			return r.Register(perftool.MustNew(time.Second, c.seed))
		}
		opts := core.DefaultOptions(c.table, c.target)
		opts.Seed = c.seed
		if c.doze > 0 {
			opts.CycleT, opts.Quantum = c.doze, c.doze
		}
		opts.Trace = tr != nil
		var err error
		if ctl, err = core.New(opts); err != nil {
			return err
		}
		return ctl.Install(r)
	}
	h, err := experiment.NewHarness(experiment.HarnessConfig{
		Foreground: c.app, Load: c.load, ExtraBackground: c.extra,
		Seed: c.seed, Install: install,
	})
	if err != nil {
		return cellResult{}, fmt.Errorf("cell %s: %w", c.key, err)
	}
	if tr != nil {
		h.Phone.AttachSpanSink(tr)
	}
	start := time.Now()
	tr.begin(start)
	var st sim.Stats
	if c.runFor > 0 {
		st = h.Engine.Run(c.runFor, c.app.DeadlineCritical)
	} else {
		st = h.RunSession()
	}
	end := time.Now()
	res := cellResult{simS: st.Duration.Seconds()}
	accepted := 0
	if ctl != nil {
		res.cycles = ctl.Snapshot().CyclesRun
		accepted = ctl.Cycles()
	}
	res.digest = digestOf(st.Duration.Seconds(), st.EnergyJ, st.GIPS, st.FreqChanges, st.BWChanges, accepted)
	tr.finish(end, res, ctl)
	return res, nil
}

// layer is a timed component of a cell, by the actor that runs it.
type layer int

const (
	layerCore layer = iota
	layerPerf
	layerGovernor
	layerOther
	nLayers
)

func layerOf(actorName string) layer {
	switch actorName {
	case "aspeo-controller":
		return layerCore
	case "perf":
		return layerPerf
	case "cpufreq", "devfreq":
		return layerGovernor
	}
	return layerOther
}

// Controller stages, split at the wall time each decision span arrives:
// measure runs from tick start to the measure span (perf window, gate,
// Kalman update), optimize to the optimize span, schedule to the cycle
// span (dwell plan and cycle publish), and actuate from there to tick
// end (the slot's sysfs writes). A quantum tick without a cycle is all
// actuation.
type stage int

const (
	stageMeasure stage = iota
	stageOptimize
	stageSchedule
	stageActuate
	nStages
)

func stageOf(span string) stage {
	switch span {
	case obs.StageMeasure, obs.StageLadder:
		return stageMeasure
	case obs.StageKalman, obs.StageOptimize:
		return stageOptimize
	}
	return stageSchedule
}

// layerTimes accumulates instrumented cells.
type layerTimes struct {
	cells         int
	wall, simSelf time.Duration
	simS          float64
	tick          [nLayers]time.Duration
	ticks         [nLayers]int
	stage         [nStages]time.Duration
	write         time.Duration
	writes        int
	cycles        int
	solve         time.Duration
	cacheHits     int
	// worstPartition is the largest |Σ layer rows − wall| / wall of any
	// one cell.
	worstPartition float64
}

// cellTrace times the layers of instrumented cells from outside: each
// actor's Tick through a runner decorator, sysfs writes through a device
// decorator, and the controller's stages through a span sink that
// stamps the wall time each decision span arrives. A nil *cellTrace is a
// valid no-op, so untraced cells pay nothing.
type cellTrace struct {
	total layerTimes
	cell  layerTimes // the cell in flight

	start, lastEnd time.Time
	inCore         bool
	stamps         []spanStamp
	// Per-tick wall times for the human report: every tick by layer, and
	// the controller ticks that ran a control cycle.
	tickNs  [nLayers][]float64
	cycleNs []float64
}

// maxTickSamples bounds the per-tick samples kept per layer for the
// report's distributions; the layer totals count every tick.
const maxTickSamples = 1 << 17

type spanStamp struct {
	stage string
	at    time.Time
}

func (t *cellTrace) wrap(r platform.Runner) platform.Runner {
	dev := &timedDevice{Device: r.Device(), t: t}
	tr := &timedRunner{Runner: r, dev: dev, t: t}
	if b, ok := r.Device().(platform.BatchWriter); ok {
		// Forward the batched-write capability so the controller keeps its
		// batched actuation path.
		tr.dev = &timedBatchDevice{timedDevice: dev, batch: b}
	}
	return tr
}

func (t *cellTrace) begin(start time.Time) {
	if t == nil {
		return
	}
	t.cell = layerTimes{}
	t.start, t.lastEnd = start, start
}

func (t *cellTrace) finish(end time.Time, res cellResult, ctl *core.Controller) {
	if t == nil {
		return
	}
	c := &t.cell
	c.cells = 1
	c.simSelf += end.Sub(t.lastEnd)
	c.wall = end.Sub(t.start)
	c.simS = res.simS
	c.cycles = res.cycles
	if ctl != nil {
		c.solve = ctl.OptimizerWallTime()
		c.cacheHits = ctl.AllocCacheHits()
	}
	rows := c.simSelf
	for _, d := range c.tick {
		rows += d
	}
	if c.wall > 0 {
		t.total.worstPartition = max(t.total.worstPartition, (rows-c.wall).Abs().Seconds()/c.wall.Seconds())
	}
	t.total.add(c)
}

func (a *layerTimes) add(c *layerTimes) {
	a.cells += c.cells
	a.wall += c.wall
	a.simSelf += c.simSelf
	a.simS += c.simS
	for i := range a.tick {
		a.tick[i] += c.tick[i]
		a.ticks[i] += c.ticks[i]
	}
	for i := range a.stage {
		a.stage[i] += c.stage[i]
	}
	a.write += c.write
	a.writes += c.writes
	a.cycles += c.cycles
	a.solve += c.solve
	a.cacheHits += c.cacheHits
}

// ticked accounts one actor tick; the gap since the previous tick is the
// simulator's own time (event dispatch and span integration).
func (t *cellTrace) ticked(l layer, start, end time.Time) {
	c := &t.cell
	c.simSelf += start.Sub(t.lastEnd)
	c.tick[l] += end.Sub(start)
	c.ticks[l]++
	t.lastEnd = end
	if len(t.tickNs[l]) < maxTickSamples {
		t.tickNs[l] = append(t.tickNs[l], float64(end.Sub(start)))
	}
	if l == layerCore {
		if len(t.stamps) > 0 && len(t.cycleNs) < maxTickSamples {
			t.cycleNs = append(t.cycleNs, float64(end.Sub(start)))
		}
		prev := start
		for _, s := range t.stamps {
			c.stage[stageOf(s.stage)] += s.at.Sub(prev)
			prev = s.at
		}
		c.stage[stageActuate] += end.Sub(prev)
		t.stamps = t.stamps[:0]
		t.inCore = false
	}
}

// Emit implements obs.Sink: it stamps the controller's stage boundaries.
func (t *cellTrace) Emit(s obs.Span) {
	if t.inCore {
		t.stamps = append(t.stamps, spanStamp{s.Stage, time.Now()})
	}
}

type timedRunner struct {
	platform.Runner
	dev platform.Device
	t   *cellTrace
}

func (r *timedRunner) Device() platform.Device { return r.dev }

func (r *timedRunner) Register(a platform.Actor) error {
	return r.Runner.Register(&timedActor{Actor: a, t: r.t, layer: layerOf(a.Name())})
}

type timedActor struct {
	platform.Actor
	t     *cellTrace
	layer layer
}

func (a *timedActor) Tick(now time.Duration, dev platform.Device) {
	start := time.Now()
	a.t.inCore = a.layer == layerCore
	a.Actor.Tick(now, dev)
	a.t.ticked(a.layer, start, time.Now())
}

type timedDevice struct {
	platform.Device
	t *cellTrace
}

func (d *timedDevice) WriteFile(path, value string) error {
	start := time.Now()
	err := d.Device.WriteFile(path, value)
	d.t.cell.write += time.Since(start)
	d.t.cell.writes++
	return err
}

type timedBatchDevice struct {
	*timedDevice
	batch platform.BatchWriter
}

func (d *timedBatchDevice) WriteFiles(writes []platform.FileWrite) error {
	start := time.Now()
	err := d.batch.WriteFiles(writes)
	d.t.cell.write += time.Since(start)
	d.t.cell.writes += len(writes)
	return err
}

// cellLayers reports the cell-level per-layer rows from traced cells.
func (b *bench) cellLayers(t *layerTimes) {
	wall, simS := t.wall.Seconds(), t.simS
	frac := func(d time.Duration) float64 { return d.Seconds() / wall }
	perSimS := func(n int) float64 { return float64(n) / simS }
	perCycle := func(x float64) float64 {
		if t.cycles == 0 {
			return 0
		}
		return x / float64(t.cycles)
	}
	events := 0
	for _, n := range t.ticks {
		events += n
	}
	b.set("sim.self_ns_per_sim_s", float64(t.simSelf)/simS)
	b.set("sim.self_frac", frac(t.simSelf))
	b.set("sim.events_per_sim_s", perSimS(events))
	b.set("core.wall_frac", frac(t.tick[layerCore]))
	b.set("core.measure_frac", frac(t.stage[stageMeasure]))
	b.set("core.optimize_frac", frac(t.stage[stageOptimize]))
	b.set("core.schedule_frac", frac(t.stage[stageSchedule]))
	b.set("core.actuate_frac", frac(t.stage[stageActuate]))
	b.set("core.solve_frac", frac(t.solve))
	b.set("core.cycles_per_s", float64(t.cycles)/wall)
	b.set("core.solve_cache_hit_ratio", perCycle(float64(t.cacheHits)))
	b.set("sysfs.write_frac", frac(t.write))
	b.set("sysfs.writes_per_cycle", perCycle(float64(t.writes)))
	perfNs := 0.0
	if n := t.ticks[layerPerf]; n > 0 {
		perfNs = float64(t.tick[layerPerf]) / float64(n)
	}
	b.set("perftool.tick_ns", perfNs)
	b.set("perftool.wall_frac", frac(t.tick[layerPerf]))
	b.set("perftool.ticks_per_sim_s", perSimS(t.ticks[layerPerf]))
	b.set("governor.wall_frac", frac(t.tick[layerGovernor]))
	b.set("governor.ticks_per_sim_s", perSimS(t.ticks[layerGovernor]))
}

// reportTicks prints the per-tick wall distributions of the traced
// cells, in microseconds.
func (b *bench) reportTicks(t *cellTrace) {
	names := []string{"core.tick_us", "perftool.tick_us", "governor.tick_us", "other.tick_us", "core.cycle_us"}
	for i, ns := range append(t.tickNs[:], t.cycleNs) {
		if len(ns) == 0 {
			continue
		}
		us := make([]float64, len(ns))
		for j, x := range ns {
			us[j] = x / 1e3
		}
		b.dist(names[i], us)
	}
	b.logf("layer rows partition each traced cell's wall within %.3f%% (worst cell)", 100*t.total.worstPartition)
}
