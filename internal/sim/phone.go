// Package sim is the discrete-event simulation engine: a Phone that
// executes workload tasks in 1 ms steps under a chosen (CPU frequency,
// memory bandwidth) configuration, accounts core time and memory
// traffic, evaluates the power model, and exposes the same observation
// and actuation surfaces software has on the real device — sysfs files,
// PMU counters, load statistics and touch events. Its kernel side (the
// sysfs tree, the ladder actuator, the touch queue and the span sink) is
// the platform.Kernel it embeds, the one the replay backend embeds too.
// The Engine ticks the periodic actors (governors, perf tool,
// controller) at their deadlines, found by scanning its one actor
// schedule, and integrates the quiescent intervals between them in
// closed form, bit-identically to stepping them one at a time.
package sim

import (
	"fmt"
	"strconv"
	"time"

	"aspeo/internal/fpacc"
	"aspeo/internal/histogram"
	"aspeo/internal/monsoon"
	"aspeo/internal/perfmodel"
	"aspeo/internal/platform"
	"aspeo/internal/pmu"
	"aspeo/internal/power"
	"aspeo/internal/soc"
	"aspeo/internal/sysfs"
	"aspeo/internal/trace"
	"aspeo/internal/workload"
)

// Config bundles phone construction options.
type Config struct {
	SoC        *soc.SoC
	Power      power.Params
	Foreground *workload.Spec
	Load       workload.BGLoad
	// ExtraBackground appends additional background tasks after the
	// load condition's standard set — the scenario layer's ambient
	// conditions (ad-burst storms, cohort-specific services). Seeded
	// deterministically in slice order, continuing the standard set's
	// seed scheme.
	ExtraBackground []*workload.Spec
	Seed            int64
	ScreenOn        bool
	WiFiOn          bool
	// Recorder decimation; 0 disables trace recording.
	TraceEvery time.Duration
}

// Phone is the simulated device. Its kernel side — the cpufreq/devfreq
// tree, the ladder actuator, the touch queue and the span sink — is the
// embedded platform.Kernel it shares with every backend; the phone adds
// the machine that executes the workload under the kernel's ladder
// position, and its own /proc files.
type Phone struct {
	platform.Kernel

	model *power.Model
	pmu   *pmu.PMU
	mon   *monsoon.Monitor

	load workload.BGLoad

	fg    *workload.Task
	bg    []*workload.Task
	tasks []*workload.Task // fg followed by bg, fixed at construction

	// st is the phone's own dynamic state, the part of its checkpoint
	// that is neither the kernel's nor a sub-object's (checkpoint.go).
	st phoneState

	// plan caches the per-step quantities of the last slow Step for
	// StepSpan's fast path.
	plan stepPlan

	cpuHist *histogram.Residency
	bwHist  *histogram.Residency
	rec     *trace.Recorder
}

// NewPhone builds a phone with the foreground app and the background
// tasks of the load condition, wires the sysfs tree, and leaves the
// governors set to the Android defaults (interactive + cpubw_hwmon).
func NewPhone(cfg Config) (*Phone, error) {
	if cfg.SoC == nil {
		cfg.SoC = soc.Nexus6()
	}
	if err := cfg.SoC.Validate(); err != nil {
		return nil, err
	}
	if cfg.Foreground == nil {
		return nil, fmt.Errorf("sim: no foreground app")
	}
	if err := cfg.Foreground.Validate(); err != nil {
		return nil, err
	}
	if (cfg.Power == power.Params{}) {
		cfg.Power = power.Default()
	}
	model, err := power.New(cfg.Power)
	if err != nil {
		return nil, err
	}

	p := &Phone{
		model:   model,
		pmu:     pmu.New(),
		mon:     monsoon.Default(),
		load:    cfg.Load,
		st:      phoneState{ScreenOn: cfg.ScreenOn, WiFiOn: cfg.WiFiOn},
		fg:      workload.NewTask(cfg.Foreground, cfg.Seed),
		cpuHist: histogram.New("cpu-frequency residency", len(cfg.SoC.CPUFreqs)),
		bwHist:  histogram.New("memory-bandwidth residency", len(cfg.SoC.MemBWs)),
	}
	// Paper §V-A1 reports a 14 mW average actuation overhead while the
	// controller runs (a handful of transitions per 2 s cycle); that
	// corresponds to a few millijoules per CPU frequency transition,
	// charged to the next step whichever path requested it.
	p.Kernel.Init(cfg.SoC, func() { p.st.PendingOverlayJ += 5e-3 })
	// The kernel does not know the load model; /proc reports it.
	p.FS().CreateDynamic(sysfs.ProcLoadAvg, func(string) string {
		return fmt.Sprintf("%.2f %.2f %.2f 2/812 12345", p.load.LoadAvg(), p.load.LoadAvg(), p.load.LoadAvg())
	})
	p.FS().Create(sysfs.ProcMemInfoFreeMB, strconv.Itoa(p.load.FreeMemMB()), false)
	bgSpecs := workload.Background(cfg.Load, cfg.Foreground.Name)
	for _, spec := range cfg.ExtraBackground {
		if spec == nil {
			return nil, fmt.Errorf("sim: nil extra background spec")
		}
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("sim: extra background: %w", err)
		}
		bgSpecs = append(bgSpecs, spec)
	}
	for i, spec := range bgSpecs {
		p.bg = append(p.bg, workload.NewTask(spec, cfg.Seed+int64(1000+i)))
	}
	p.tasks = make([]*workload.Task, 0, 1+len(p.bg))
	p.tasks = append(p.tasks, p.fg)
	p.tasks = append(p.tasks, p.bg...)
	p.plan.tasks = make([]fusedTask, 0, len(p.tasks))
	if cfg.TraceEvery > 0 {
		p.rec = trace.NewRecorder(cfg.TraceEvery)
	}
	return p, nil
}

// --- Accessors ---

// PMU returns the hardware counters.
func (p *Phone) PMU() *pmu.PMU { return p.pmu }

// Monitor returns the attached power monitor.
func (p *Phone) Monitor() *monsoon.Monitor { return p.mon }

// Now returns the simulation clock.
func (p *Phone) Now() time.Duration { return p.st.Now }

// Foreground returns the foreground task.
func (p *Phone) Foreground() *workload.Task { return p.fg }

// BackgroundTasks returns the background tasks.
func (p *Phone) BackgroundTasks() []*workload.Task { return p.bg }

// CPUHistogram returns the CPU-frequency residency accumulated so far.
func (p *Phone) CPUHistogram() *histogram.Residency { return p.cpuHist }

// BWHistogram returns the bandwidth residency accumulated so far.
func (p *Phone) BWHistogram() *histogram.Residency { return p.bwHist }

// Recorder returns the trace recorder (nil when tracing is disabled).
func (p *Phone) Recorder() *trace.Recorder { return p.rec }

// LastPowerW returns the device power of the last step.
func (p *Phone) LastPowerW() float64 { return p.st.LastPowerW }

// LastCPUPowerW returns the CPU component (dynamic + leakage) of the last
// step's power — the heat source for thermal models.
func (p *Phone) LastCPUPowerW() float64 { return p.st.LastCPUPowerW }

// AddOverlayEnergyJ charges a one-shot instrumentation energy cost
// (controller compute, actuation) to the next step.
func (p *Phone) AddOverlayEnergyJ(j float64) {
	if j > 0 {
		p.st.PendingOverlayJ += j
	}
}

// --- Telemetry (governors snapshot and diff) ---

// CumMachineBusySec returns cumulative aggregate machine-busy seconds —
// the basis for the load the governors compute.
func (p *Phone) CumMachineBusySec() float64 { return p.st.CumMachineBusySec }

// CumBusyCoreSec returns cumulative OS-visible busy core-seconds.
func (p *Phone) CumBusyCoreSec() float64 { return p.st.CumBusyCoreSec }

// CumTrafficBytes returns cumulative DRAM traffic: the PMU's bus-access
// counter, which every step and span advances by the step's traffic.
func (p *Phone) CumTrafficBytes() float64 { return p.pmu.Read(pmu.BusAccessBytes) }

// FGDone reports whether the foreground task completed.
func (p *Phone) FGDone() bool { return p.fg.Done() }

// --- Simulation step ---

// Step advances the device by dt: tasks demand work, the machine executes
// within its capacity at the current configuration, and power/energy/
// telemetry are accounted.
//
// Besides advancing the device, Step captures a step plan: the per-step
// quantities it just computed, which StepSpan's fast path replays
// verbatim while the workload's SpanBound contract proves they cannot
// change.
func (p *Phone) Step(dt time.Duration) {
	s := p.SoC()
	freqIdx, bwIdx := p.CurFreqIdx(), p.CurBWIdx()
	f := s.Freq(freqIdx)
	v := s.Voltage(freqIdx)
	bw := s.BW(bwIdx)
	dtSec := dt.Seconds()

	// The perf tool eats a slice of the machine before apps run.
	avail := dtSec * (1 - p.st.PerfOverheadCPU)
	perfBusy := dtSec * p.st.PerfOverheadCPU

	pressure := p.load.BPIPressure()
	var (
		machineUsed  = perfBusy
		activeSec    = perfBusy // perf's own work is compute
		stalledSec   float64
		trafficBytes float64
		instrRetired float64
		auxW         float64
		netBps       float64
	)

	// A step is plan-capturable only when nothing transient is in play:
	// no one-shot overlay energy and no full-rate trace recording (the
	// recorder must see every step individually).
	capture := p.rec == nil && p.st.PendingOverlayJ == 0
	p.plan.valid = false
	if capture {
		p.plan.tasks = p.plan.tasks[:0]
	}

	touches := 0
	for _, task := range p.tasks {
		if task.Done() {
			if capture {
				p.plan.tasks = append(p.plan.tasks, fusedTask{task: task, sp: workload.StepPlan{Done: true}})
			}
			continue
		}
		d := task.Demand(dt)
		tr := d.Traits
		tr.BPI *= pressure
		spi := tr.SecPerInstr(s, f, bw)
		maxInstr := avail / spi
		exec := d.WantedInstr
		if exec > maxInstr {
			exec = maxInstr
		}
		acc := tr.Execute(s, f, bw, exec)
		wall := exec * spi
		avail -= wall
		machineUsed += wall
		activeSec += acc.ActiveSec
		stalledSec += acc.StalledSec
		trafficBytes += acc.TrafficBytes
		instrRetired += exec
		auxW += d.AuxBaseW + d.AuxWPerGIPS*(exec/dtSec)/1e9
		netBps += d.NetBps
		if capture {
			p.plan.tasks = append(p.plan.tasks, fusedTask{
				task: task,
				sp: workload.StepPlan{
					Exec:     exec,
					MaxInstr: maxInstr,
					Served:   exec == d.WantedInstr,
					PhaseIdx: task.PhaseIndex(),
				},
			})
		}
		task.Advance(exec, dt)
		touches += task.Touches(dt)
		if avail <= 0 {
			avail = 0
		}
	}

	// Traffic cannot exceed the provisioned bus bandwidth; speculative
	// prefetches beyond it are simply dropped.
	if maxBytes := bw.BytesPerSec() * dtSec; trafficBytes > maxBytes {
		trafficBytes = maxBytes
	}

	// Clamp OS-visible core time to physical cores.
	maxCoreSec := float64(s.NumCores) * dtSec
	if activeSec+stalledSec > maxCoreSec {
		scale := maxCoreSec / (activeSec + stalledSec)
		activeSec *= scale
		stalledSec *= scale
	}

	in := power.Input{
		FreqGHz:        f.GHz(),
		Voltage:        v,
		ActiveCoreSec:  activeSec / dtSec,
		StalledCoreSec: stalledSec / dtSec,
		CoresOnline:    s.NumCores,
		BWMBps:         bw.MBps(),
		TrafficBps:     trafficBytes / dtSec,
		ScreenOn:       p.st.ScreenOn,
		WiFiOn:         p.st.WiFiOn,
		WiFiBps:        netBps,
		AuxW:           auxW,
		OverlayW:       p.st.StandingOverlay + p.st.PendingOverlayJ/dtSec,
	}
	bd := p.model.Compute(in)
	p.st.LastPowerW = bd.Total()
	p.st.LastCPUPowerW = bd.CPUDynamic + bd.CPULeak
	p.st.PendingOverlayJ = 0
	p.AddTouches(touches)

	p.pmu.Add(pmu.Instructions, instrRetired)
	p.pmu.Add(pmu.Cycles, activeSec*f.Hz())
	p.pmu.Add(pmu.BusAccessBytes, trafficBytes)

	p.st.CumMachineBusySec += machineUsed
	p.st.CumBusyCoreSec += activeSec + stalledSec

	p.cpuHist.Add(freqIdx, dt)
	p.bwHist.Add(bwIdx, dt)
	p.mon.Observe(p.st.LastPowerW, dt)
	if p.rec != nil {
		// T is the step's start time; the cumulative counters are their
		// values AFTER the step — i.e. the PMU/telemetry state an actor
		// observes at time T+dt. Replay backends rely on this offset.
		p.rec.Observe(trace.Point{
			T: p.st.Now, FreqIdx: freqIdx, BWIdx: bwIdx,
			PowerW: p.st.LastPowerW, GIPS: instrRetired / dtSec / 1e9,
			CPUPowerW:       p.st.LastCPUPowerW,
			CumInstr:        p.pmu.Read(pmu.Instructions),
			CumBusySec:      p.st.CumMachineBusySec,
			CumCoreSec:      p.st.CumBusyCoreSec,
			CumTrafficBytes: p.pmu.Read(pmu.BusAccessBytes),
			Touches:         touches,
		})
	}
	p.st.Now += dt

	if capture {
		p.plan.valid = true
		p.plan.dt = dt
		p.plan.freqIdx = freqIdx
		p.plan.bwIdx = bwIdx
		p.plan.perfFrac = p.st.PerfOverheadCPU
		p.plan.standingW = p.st.StandingOverlay
		p.plan.machineUsed = machineUsed
		p.plan.coreSec = activeSec + stalledSec
		p.plan.traffic = trafficBytes
		p.plan.instr = instrRetired
		p.plan.cycles = activeSec * f.Hz()
		p.plan.powerW = p.st.LastPowerW
	}
}

// --- Span fast path ---

// fusedTask is one task's slice of the cached step plan.
type fusedTask struct {
	task *workload.Task
	sp   workload.StepPlan
}

// stepPlan caches what the last slow Step computed, so fastForwardSpan
// can replay it. Replay is bit-identical because every input that fed
// the computation is provably unchanged: the configuration and overlay
// fields below are revalidated before each span, and each task's
// SpanBound proves its demand cannot change for the span length.
type stepPlan struct {
	valid   bool
	dt      time.Duration
	freqIdx int
	bwIdx   int
	// Device-side inputs the plan depends on.
	perfFrac  float64
	standingW float64
	// Per-step accumulator deltas (already clamped).
	machineUsed float64
	coreSec     float64
	traffic     float64
	instr       float64
	cycles      float64
	powerW      float64
	tasks       []fusedTask
}

// planReady reports whether the cached plan may be replayed for steps of
// dt under the current device state.
func (p *Phone) planReady(dt time.Duration) bool {
	pl := &p.plan
	return pl.valid && p.rec == nil &&
		pl.dt == dt &&
		pl.freqIdx == p.CurFreqIdx() && pl.bwIdx == p.CurBWIdx() &&
		pl.perfFrac == p.st.PerfOverheadCPU && pl.standingW == p.st.StandingOverlay &&
		p.st.PendingOverlayJ == 0
}

// spanBudget returns how many steps (≤ limit) the cached plan can be
// replayed before what any task executes could change, by the
// workload's SpanBound contract; 0 sends the next step down the slow
// path.
func (p *Phone) spanBudget(dt time.Duration, limit int) int {
	k := limit
	for i := range p.plan.tasks {
		ft := &p.plan.tasks[i]
		if ft.sp.Done {
			if !ft.task.Done() {
				return 0
			}
			continue
		}
		if k = ft.task.SpanBound(ft.sp, dt, k); k <= 0 {
			return 0
		}
	}
	return k
}

// fastForwardSpan replays the cached plan for k steps, integrating the
// per-step accumulations in closed form: task state and touch draws
// through workload.AdvanceSpan, PMU counters through pmu.AddSpan, the
// power monitor through monsoon.ObserveSpan, and the phone's cumulative
// telemetry through fpacc.AddK — each bit-identical to its sequential
// loop. A phase transition can only occur on the span's final step
// (SpanBound bounds the span to end there).
func (p *Phone) fastForwardSpan(dt time.Duration, k int) {
	pl := &p.plan
	for i := range pl.tasks {
		if ft := &pl.tasks[i]; !ft.sp.Done {
			p.AddTouches(ft.task.AdvanceSpan(ft.sp.Exec, dt, k))
		}
	}
	p.st.CumMachineBusySec = fpacc.AddK(p.st.CumMachineBusySec, pl.machineUsed, k)
	p.st.CumBusyCoreSec = fpacc.AddK(p.st.CumBusyCoreSec, pl.coreSec, k)
	kd := time.Duration(k) * dt
	p.cpuHist.Add(pl.freqIdx, kd)
	p.bwHist.Add(pl.bwIdx, kd)
	p.pmu.AddSpan(pmu.Instructions, pl.instr, k)
	p.pmu.AddSpan(pmu.Cycles, pl.cycles, k)
	p.pmu.AddSpan(pmu.BusAccessBytes, pl.traffic, k)
	p.mon.ObserveSpan(pl.powerW, dt, k)
	p.st.Now += kd
}

// StepSpan advances the device by n steps of dt, bit-identically to n
// individual Step calls, but integrates fused spans in closed form so an
// idle quiescent interval costs O(log n) instead of O(n). Workload-phase
// transitions inside the interval surface as derived micro-events: each
// span is bounded at the next phase boundary, and the slow Step that
// follows re-plans from the new phase. When stopWhenFGDone is set it
// returns as soon as the step that completed the foreground task
// finishes, exactly where a step-at-a-time caller would stop. It returns
// the number of steps executed.
func (p *Phone) StepSpan(dt time.Duration, n int, stopWhenFGDone bool) int {
	ran := 0
	for ran < n {
		if p.planReady(dt) {
			if k := p.spanBudget(dt, n-ran); k > 0 {
				p.fastForwardSpan(dt, k)
				ran += k
				if stopWhenFGDone && p.fg.Done() {
					return ran
				}
				continue
			}
		}
		p.Step(dt)
		ran++
		if stopWhenFGDone && p.fg.Done() {
			return ran
		}
	}
	return ran
}

// traitsOfForeground is a test hook exposing the foreground's current
// traits with load pressure applied.
func (p *Phone) traitsOfForeground() perfmodel.Traits {
	tr := p.fg.Phase().Traits
	tr.BPI *= p.load.BPIPressure()
	return tr
}
