// Package sim is the discrete-event simulation engine: a Phone that
// executes workload tasks in 1 ms steps under a chosen (CPU frequency,
// memory bandwidth) configuration, accounts core time and memory
// traffic, evaluates the power model, and exposes the same observation
// and actuation surfaces software has on the real device — sysfs files,
// PMU counters, load statistics and touch events. The Engine ticks the
// periodic actors (governors, perf tool, controller) from an event queue
// and integrates the quiescent intervals between their deadlines in
// closed form, bit-identically to stepping them one at a time.
package sim

import (
	"fmt"
	"strconv"
	"time"

	"aspeo/internal/fpacc"
	"aspeo/internal/histogram"
	"aspeo/internal/monsoon"
	"aspeo/internal/obs"
	"aspeo/internal/perfmodel"
	"aspeo/internal/platform"
	"aspeo/internal/pmu"
	"aspeo/internal/power"
	"aspeo/internal/soc"
	"aspeo/internal/sysfs"
	"aspeo/internal/trace"
	"aspeo/internal/workload"
)

// Governor names understood by the cpufreq/devfreq trees. The canonical
// definitions live in platform (they are part of the backend contract);
// these aliases keep sim's historical spelling working.
const (
	GovInteractive  = platform.GovInteractive
	GovOndemand     = platform.GovOndemand
	GovUserspace    = platform.GovUserspace
	GovPerformance  = platform.GovPerformance
	GovPowersave    = platform.GovPowersave
	GovCPUBWHwmon   = platform.GovCPUBWHwmon
	GovConservative = platform.GovConservative
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

// Phone is the simulated device.
type Phone struct {
	soc   *soc.SoC
	fs    *sysfs.FS
	model *power.Model
	pmu   *pmu.PMU
	mon   *monsoon.Monitor

	freqIdx    int
	bwIdx      int
	thermalCap int // max allowed freq index (thermal driver); -1 = none
	load       workload.BGLoad

	screenOn bool
	wifiOn   bool

	fg    *workload.Task
	bg    []*workload.Task
	tasks []*workload.Task // fg followed by bg, fixed at construction

	now time.Duration

	// plan caches the per-step quantities of the last slow Step for
	// StepSpan's fast path.
	plan stepPlan

	// Cumulative telemetry counters (governors snapshot and diff).
	cumMachineBusySec float64 // aggregate machine-busy seconds
	cumBusyCoreSec    float64 // OS-visible busy core-seconds
	cumTrafficBytes   float64
	pendingTouches    int
	freqChanges       int
	bwChanges         int
	health            platform.Health // last RecordHealth publication
	spanSink          obs.Sink        // decision-trace sink; nil drops spans

	// Per-step transient state.
	pendingOverlayJ float64 // one-shot overlay energy charged to the next step
	standingOverlay float64 // persistent overlay (perf tool power cost)
	perfOverheadCPU float64 // fraction of machine time eaten by perf

	lastPowerW    float64
	lastCPUPowerW float64
	lastStepIPS   float64

	cpuHist *histogram.Residency
	bwHist  *histogram.Residency
	rec     *trace.Recorder

	fgDropsAtStart float64
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
		thermalCap: -1,
		soc:        cfg.SoC,
		fs:         sysfs.New(),
		model:      model,
		pmu:        pmu.New(),
		mon:        monsoon.Default(),
		load:       cfg.Load,
		screenOn:   cfg.ScreenOn,
		wifiOn:     cfg.WiFiOn,
		fg:         workload.NewTask(cfg.Foreground, cfg.Seed),
		cpuHist:    histogram.New("cpu-frequency residency", len(cfg.SoC.CPUFreqs)),
		bwHist:     histogram.New("memory-bandwidth residency", len(cfg.SoC.MemBWs)),
	}
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
	p.buildSysfs()
	return p, nil
}

// buildSysfs registers the cpufreq/devfreq file protocol.
func (p *Phone) buildSysfs() {
	s := p.soc
	freqList := ""
	for i := range s.CPUFreqs {
		freqList += strconv.Itoa(freqKHz(s.Freq(i))) + " "
	}
	bwList := ""
	for i := range s.MemBWs {
		bwList += strconv.Itoa(int(s.BW(i).MBps())) + " "
	}

	p.fs.Create(sysfs.CPUScalingGovernor, GovInteractive, true)
	p.fs.Create(sysfs.CPUScalingSetSpeed, strconv.Itoa(freqKHz(s.Freq(0))), true)
	p.fs.Create(sysfs.CPUAvailableFreqs, freqList, false)
	p.fs.Create(sysfs.CPUAvailableGovs, "interactive ondemand conservative userspace performance powersave", false)
	p.fs.Create(sysfs.CPUScalingMinFreq, strconv.Itoa(freqKHz(s.Freq(0))), true)
	p.fs.Create(sysfs.CPUScalingMaxFreq, strconv.Itoa(freqKHz(s.Freq(len(s.CPUFreqs)-1))), true)
	p.fs.CreateDynamic(sysfs.CPUScalingCurFreq, func(string) string {
		return strconv.Itoa(freqKHz(s.Freq(p.freqIdx)))
	})
	p.fs.CreateDynamic(sysfs.CPUInfoCurFreq, func(string) string {
		return strconv.Itoa(freqKHz(s.Freq(p.freqIdx)))
	})

	p.fs.Create(sysfs.DevFreqGovernor, GovCPUBWHwmon, true)
	p.fs.Create(sysfs.DevFreqSetFreq, strconv.Itoa(int(s.BW(0).MBps())), true)
	p.fs.Create(sysfs.DevFreqAvailFreqs, bwList, false)
	p.fs.Create(sysfs.DevFreqAvailGovs, "cpubw_hwmon userspace performance powersave", false)
	p.fs.Create(sysfs.DevFreqMinFreq, strconv.Itoa(int(s.BW(0).MBps())), true)
	p.fs.Create(sysfs.DevFreqMaxFreq, strconv.Itoa(int(s.BW(len(s.MemBWs)-1).MBps())), true)
	p.fs.CreateDynamic(sysfs.DevFreqCurFreq, func(string) string {
		return strconv.Itoa(int(s.BW(p.bwIdx).MBps()))
	})

	p.fs.CreateDynamic(sysfs.ProcLoadAvg, func(string) string {
		return fmt.Sprintf("%.2f %.2f %.2f 2/812 12345", p.load.LoadAvg(), p.load.LoadAvg(), p.load.LoadAvg())
	})
	p.fs.Create(sysfs.ProcMemInfoFreeMB, strconv.Itoa(p.load.FreeMemMB()), false)
	p.fs.Create(sysfs.MPDecisionEnabled, "0", true) // hotplug disabled, as in §IV-A
	p.fs.Create(sysfs.TouchBoostEnabled, "0", true) // kernel touch boost disabled

	// Userspace actuation paths: writing setspeed applies only when the
	// matching governor is "userspace", exactly like the kernel.
	p.fs.OnWrite(sysfs.CPUScalingSetSpeed, func(_, _, val string) error {
		gov, _ := p.fs.Read(sysfs.CPUScalingGovernor)
		if gov != GovUserspace {
			return fmt.Errorf("scaling_setspeed: governor is %q, not userspace", gov)
		}
		khz, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("scaling_setspeed: %w", err)
		}
		p.SetFreqIdx(p.soc.NearestFreqIdx(soc.Freq(float64(khz) / 1e6)))
		return nil
	})
	p.fs.OnWrite(sysfs.DevFreqSetFreq, func(_, _, val string) error {
		gov, _ := p.fs.Read(sysfs.DevFreqGovernor)
		if gov != GovUserspace {
			return fmt.Errorf("devfreq set_freq: governor is %q, not userspace", gov)
		}
		mbps, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("devfreq set_freq: %w", err)
		}
		p.SetBWIdx(p.soc.NearestBWIdx(soc.Bandwidth(mbps)))
		return nil
	})
}

// freqKHz converts a ladder frequency to the kHz integer cpufreq uses.
func freqKHz(f soc.Freq) int { return int(f.GHz()*1e6 + 0.5) }

// --- Accessors ---

// SoC returns the chip description.
func (p *Phone) SoC() *soc.SoC { return p.soc }

// FS returns the sysfs tree.
func (p *Phone) FS() *sysfs.FS { return p.fs }

// PMU returns the hardware counters.
func (p *Phone) PMU() *pmu.PMU { return p.pmu }

// Monitor returns the attached power monitor.
func (p *Phone) Monitor() *monsoon.Monitor { return p.mon }

// Now returns the simulation clock.
func (p *Phone) Now() time.Duration { return p.now }

// CurFreqIdx returns the current CPU frequency ladder index.
func (p *Phone) CurFreqIdx() int { return p.freqIdx }

// CurBWIdx returns the current bandwidth ladder index.
func (p *Phone) CurBWIdx() int { return p.bwIdx }

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

// FreqChanges returns how many CPU frequency transitions happened.
func (p *Phone) FreqChanges() int { return p.freqChanges }

// BWChanges returns how many bandwidth transitions happened.
func (p *Phone) BWChanges() int { return p.bwChanges }

// LastPowerW returns the device power of the last step.
func (p *Phone) LastPowerW() float64 { return p.lastPowerW }

// LastStepGIPS returns the instantaneous performance of the last step.
func (p *Phone) LastStepGIPS() float64 { return p.lastStepIPS / 1e9 }

// --- Actuation (governors and sysfs hooks call these) ---

// SetFreqIdx changes the CPU frequency (all four cores, as in §IV-A).
// A thermal cap, when set, bounds the request like the kernel's thermal
// driver bounding policy->max.
func (p *Phone) SetFreqIdx(i int) {
	i = p.soc.ClampFreqIdx(i)
	if p.thermalCap >= 0 && i > p.thermalCap {
		i = p.thermalCap
	}
	if i != p.freqIdx {
		p.freqIdx = i
		p.freqChanges++
		// Paper §V-A1 reports a 14 mW average actuation overhead while
		// the controller runs (a handful of transitions per 2 s cycle);
		// that corresponds to a few millijoules per transition.
		p.pendingOverlayJ += 5e-3
	}
}

// SetBWIdx changes the memory bandwidth vote.
func (p *Phone) SetBWIdx(i int) {
	i = p.soc.ClampBWIdx(i)
	if i != p.bwIdx {
		p.bwIdx = i
		p.bwChanges++
	}
}

// SetThermalCapIdx bounds the CPU frequency to ladder index i (the
// thermal driver's mitigation); pass a negative value to lift the cap.
// An active cap is applied immediately.
func (p *Phone) SetThermalCapIdx(i int) {
	if i < 0 {
		p.thermalCap = -1
		return
	}
	p.thermalCap = p.soc.ClampFreqIdx(i)
	if p.freqIdx > p.thermalCap {
		p.SetFreqIdx(p.thermalCap)
	}
}

// ThermalCapIdx returns the active cap, or -1 when none.
func (p *Phone) ThermalCapIdx() int { return p.thermalCap }

// LastCPUPowerW returns the CPU component (dynamic + leakage) of the last
// step's power — the heat source for thermal models.
func (p *Phone) LastCPUPowerW() float64 { return p.lastCPUPowerW }

// AddOverlayEnergyJ charges a one-shot instrumentation energy cost
// (controller compute, actuation) to the next step.
func (p *Phone) AddOverlayEnergyJ(j float64) {
	if j > 0 {
		p.pendingOverlayJ += j
	}
}

// SetStandingOverlayW sets a persistent instrumentation power draw
// (e.g. the perf tool's sampling cost).
func (p *Phone) SetStandingOverlayW(w float64) { p.standingOverlay = w }

// SetPerfOverheadFrac reserves a fraction of machine time for the perf
// tool's own computation (40% at a 100 ms sampling period, 4% at 1 s —
// paper §IV-B).
func (p *Phone) SetPerfOverheadFrac(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 0.9 {
		f = 0.9
	}
	p.perfOverheadCPU = f
}

// --- Telemetry (governors snapshot and diff) ---

// CumMachineBusySec returns cumulative aggregate machine-busy seconds —
// the basis for the load the governors compute.
func (p *Phone) CumMachineBusySec() float64 { return p.cumMachineBusySec }

// CumBusyCoreSec returns cumulative OS-visible busy core-seconds.
func (p *Phone) CumBusyCoreSec() float64 { return p.cumBusyCoreSec }

// CumTrafficBytes returns cumulative DRAM traffic.
func (p *Phone) CumTrafficBytes() float64 { return p.cumTrafficBytes }

// RecordHealth stores the control software's latest health ledger.
// Observation only: it does not touch the simulation state.
func (p *Phone) RecordHealth(h platform.Health) { p.health = h }

// LastHealth returns the most recently recorded health ledger.
func (p *Phone) LastHealth() platform.Health { return p.health }

// AttachSpanSink installs the decision-trace sink RecordSpan forwards
// to; nil detaches it. Observation only — attaching a sink never alters
// the simulation's trajectory.
func (p *Phone) AttachSpanSink(s obs.Sink) { p.spanSink = s }

// RecordSpan forwards a decision-trace span to the attached sink, or
// drops it when none is attached (platform.Telemetry).
func (p *Phone) RecordSpan(s obs.Span) {
	if p.spanSink != nil {
		p.spanSink.Emit(s)
	}
}

// TakeTouches drains and returns pending input events.
func (p *Phone) TakeTouches() int {
	n := p.pendingTouches
	p.pendingTouches = 0
	return n
}

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
	s := p.soc
	f := s.Freq(p.freqIdx)
	v := s.Voltage(p.freqIdx)
	bw := s.BW(p.bwIdx)
	dtSec := dt.Seconds()

	// The perf tool eats a slice of the machine before apps run.
	avail := dtSec * (1 - p.perfOverheadCPU)
	perfBusy := dtSec * p.perfOverheadCPU

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
	capture := p.rec == nil && p.pendingOverlayJ == 0
	p.plan.valid = false
	if capture {
		p.plan.tasks = p.plan.tasks[:0]
	}

	touchesBefore := p.pendingTouches

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
		p.pendingTouches += task.Touches(dt)
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
		ScreenOn:       p.screenOn,
		WiFiOn:         p.wifiOn,
		WiFiBps:        netBps,
		AuxW:           auxW,
		OverlayW:       p.standingOverlay + p.pendingOverlayJ/dtSec,
	}
	bd := p.model.Compute(in)
	p.lastPowerW = bd.Total()
	p.lastCPUPowerW = bd.CPUDynamic + bd.CPULeak
	p.pendingOverlayJ = 0

	p.pmu.Add(pmu.Instructions, instrRetired)
	p.pmu.Add(pmu.Cycles, activeSec*f.Hz())
	p.pmu.Add(pmu.BusAccessBytes, trafficBytes)

	p.cumMachineBusySec += machineUsed
	p.cumBusyCoreSec += activeSec + stalledSec
	p.cumTrafficBytes += trafficBytes
	p.lastStepIPS = instrRetired / dtSec

	p.cpuHist.Add(p.freqIdx, dt)
	p.bwHist.Add(p.bwIdx, dt)
	p.mon.Observe(p.lastPowerW, dt)
	if p.rec != nil {
		// T is the step's start time; the cumulative counters are their
		// values AFTER the step — i.e. the PMU/telemetry state an actor
		// observes at time T+dt. Replay backends rely on this offset.
		p.rec.Observe(trace.Point{
			T: p.now, FreqIdx: p.freqIdx, BWIdx: p.bwIdx,
			PowerW: p.lastPowerW, GIPS: p.lastStepIPS / 1e9,
			CPUPowerW:       p.lastCPUPowerW,
			CumInstr:        p.pmu.Read(pmu.Instructions),
			CumBusySec:      p.cumMachineBusySec,
			CumCoreSec:      p.cumBusyCoreSec,
			CumTrafficBytes: p.cumTrafficBytes,
			Touches:         p.pendingTouches - touchesBefore,
		})
	}
	p.now += dt

	if capture {
		p.plan.valid = true
		p.plan.dt = dt
		p.plan.freqIdx = p.freqIdx
		p.plan.bwIdx = p.bwIdx
		p.plan.perfFrac = p.perfOverheadCPU
		p.plan.standingW = p.standingOverlay
		p.plan.machineUsed = machineUsed
		p.plan.coreSec = activeSec + stalledSec
		p.plan.traffic = trafficBytes
		p.plan.instr = instrRetired
		p.plan.cycles = activeSec * f.Hz()
		p.plan.powerW = p.lastPowerW
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
		pl.freqIdx == p.freqIdx && pl.bwIdx == p.bwIdx &&
		pl.perfFrac == p.perfOverheadCPU && pl.standingW == p.standingOverlay &&
		p.pendingOverlayJ == 0
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
			p.pendingTouches += ft.task.AdvanceSpan(ft.sp.Exec, dt, k)
		}
	}
	p.cumMachineBusySec = fpacc.AddK(p.cumMachineBusySec, pl.machineUsed, k)
	p.cumBusyCoreSec = fpacc.AddK(p.cumBusyCoreSec, pl.coreSec, k)
	p.cumTrafficBytes = fpacc.AddK(p.cumTrafficBytes, pl.traffic, k)
	kd := time.Duration(k) * dt
	p.cpuHist.Add(p.freqIdx, kd)
	p.bwHist.Add(p.bwIdx, kd)
	p.pmu.AddSpan(pmu.Instructions, pl.instr, k)
	p.pmu.AddSpan(pmu.Cycles, pl.cycles, k)
	p.pmu.AddSpan(pmu.BusAccessBytes, pl.traffic, k)
	p.mon.ObserveSpan(pl.powerW, dt, k)
	p.now += kd
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
