package core

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"aspeo/internal/kalman"
	"aspeo/internal/lp"
	"aspeo/internal/obs"
	"aspeo/internal/perftool"
	"aspeo/internal/platform"
	"aspeo/internal/profile"
	"aspeo/internal/sysfs"
)

// Options configure the online controller.
type Options struct {
	// Table is the application's offline profile (Stage 1 output).
	Table *profile.Table
	// TargetGIPS is the user-specified performance target r, typically
	// the performance measured under the default governors (§III-A).
	TargetGIPS float64
	// CycleT is the control cycle duration (paper: 2 s).
	CycleT time.Duration
	// Quantum is the scheduler's minimum dwell at a configuration
	// (paper: 200 ms).
	Quantum time.Duration
	// PerfPeriod is the perf sampling period (paper: 1 s).
	PerfPeriod time.Duration
	// Seed drives measurement-noise reproduction.
	Seed int64
	// CPUOnly restricts actuation to the CPU frequency, leaving the
	// memory bandwidth to its default governor — the Table V baseline.
	CPUOnly bool
	// UseLP makes the online optimizer call the simplex solver instead
	// of the specialized two-configuration search (results identical).
	UseLP bool
	// Pole ρ ∈ [0,1) damps the integral regulator:
	// s_n = s_{n-1} + (1−ρ)·e_{n-1}/b_{n-1}. ρ = 0 is the deadbeat
	// controller of Eqn. (3); a positive pole trades convergence speed
	// for robustness to the one-cycle measurement delay (POET, the
	// paper's base controller, exposes the same knob). Defaults to 0.5
	// when NaN/unset via DefaultOptions.
	Pole float64
	// PhaseAware enables online phase tracking (§V-B): control cycles
	// are clustered by their performance signature and the integrator
	// keeps independent state per phase, so re-entering a known phase
	// resumes from its converged speedup.
	PhaseAware bool
	// MaxPhases bounds the tracker's cluster count (default 4).
	MaxPhases int
	// EpsilonDominance prunes profile entries that deliver no more than
	// (1+ε)× the speedup of a strictly cheaper entry before optimizing.
	// Demand-paced applications saturate, so the top of their profile
	// is a plateau of performance-equivalent configurations whose
	// measured speedups differ only by noise and interpolation error;
	// without pruning the optimizer can chase a 1%-faster configuration
	// that costs 30% more power. Defaults to 2% when zero; negative
	// disables pruning.
	EpsilonDominance float64
	// Resilience configures the fault-handling ladder (retry →
	// reinstall → safe-config → relinquish). The zero value enables the
	// hardened defaults; set Disabled for the unhardened baseline.
	Resilience Resilience
	// LogAllocations keeps a per-cycle record of every optimizer
	// decision, retrievable via AllocationLog. Used by the replay golden
	// tests to compare two runs decision-for-decision.
	LogAllocations bool
	// OnCycle, when non-nil, receives a CycleSnapshot at the end of
	// every control cycle (degraded and relinquishing cycles included).
	// Observation only: the callback must not touch the controller or
	// the device — the fleet runtime uses it to fold live sessions into
	// rollups. It runs on the cell's goroutine; the subscriber is
	// responsible for its own synchronization.
	OnCycle func(CycleSnapshot)
	// CheckpointEvery, together with OnCheckpoint, asks for a session
	// checkpoint every N control cycles. The controller itself never
	// snapshots anything — it only signals; the session layer captures
	// the whole cell at the next engine-loop boundary, where every actor
	// is quiescent. Observation only and free when unset: the hot path
	// pays two integer compares per cycle.
	CheckpointEvery int
	// OnCheckpoint receives the control-cycle ordinal whenever a
	// checkpoint is due (see CheckpointEvery). Like OnCycle it runs on
	// the cell's goroutine and must not touch the controller or device.
	OnCheckpoint func(cyclesRun int)
	// Trace enables per-stage decision tracing: every control cycle
	// emits measure/kalman/optimize/schedule child spans plus a cycle
	// summary span, and the resilience ladder emits transition events,
	// all through platform.Telemetry.RecordSpan — so any backend (sim,
	// replay, a real-device shim) records the identical stream.
	// Observation only: a traced run is bit-identical to an untraced
	// one, and an untraced run never pays for attribute assembly.
	Trace bool
}

// DefaultOptions returns the paper's operating parameters for the given
// profile table and target.
func DefaultOptions(t *profile.Table, targetGIPS float64) Options {
	return Options{
		Table:      t,
		TargetGIPS: targetGIPS,
		CycleT:     2 * time.Second,
		Quantum:    200 * time.Millisecond,
		PerfPeriod: time.Second,
		Seed:       1,
		Pole:       0.5,
	}
}

// cycleOverheadJ is the regulator+optimizer compute cost per control
// cycle: <10 ms at ~25 mW average over the 2 s cycle (§V-A1).
const cycleOverheadJ = 0.050

// allocCacheMax bounds the controller's allocation cache; targets are
// clamped to the table's speedup range, so in practice a phase settles
// on a handful of quantized targets and the bound is never hit.
const allocCacheMax = 256

// allocCacheScale quantizes cached targets to a 2⁻¹² grid (≈2.4e-4
// speedup resolution — an order of magnitude below the table's
// measurement noise), so a converged regulator re-requesting the same
// operating point skips the solve entirely.
const allocCacheScale = 4096

// AllocationRecord is one entry of the controller's decision log: the
// control-cycle ordinal, the clock when the cycle ran, the speedup the
// regulator demanded, and the allocation the optimizer chose.
type AllocationRecord struct {
	Cycle  int
	At     time.Duration
	Target float64
	Alloc  Allocation
}

// Controller is the online controller K plus the scheduler S of Fig. 2.
// It implements platform.Actor at the scheduler quantum and drives any
// platform.Device.
type Controller struct {
	opt     Options
	entries []profile.Entry // sorted by ascending speedup
	// frontier is the precomputed convex-hull fast path over entries;
	// entries are immutable for the controller's lifetime, so it is
	// built once in New.
	frontier *Frontier
	// allocCache memoizes solved allocations by quantized target. The
	// cached value depends only on the (static) pruned table, so entries
	// never go stale — phase switches merely change which keys are hit.
	allocCache     map[float64]Allocation
	allocCacheHits int
	// memo* is a single-entry fast path in front of allocCache: a
	// converged regulator whose Kalman target moved less than the
	// quantized-cache resolution re-requests the same key cycle after
	// cycle, and the repeat skips even the map hash. A memo hit reports
	// exactly like a map hit (allocCacheHits, lastSolvePath).
	memoQT    float64
	memoAlloc Allocation
	memoOK    bool
	// lpWS is the simplex workspace reused across UseLP-mode solves;
	// lpC/lpS/lpOnes are the matching problem-row scratch vectors.
	lpWS             lp.Workspace
	lpC, lpS, lpOnes []float64
	perf             *perftool.Perf
	kf               *kalman.Filter

	dev platform.Device // the device under control; set by Install
	// batch is dev's optional batched-write capability (nil when absent —
	// notably under fault decoration, which must see every write).
	batch platform.BatchWriter
	// writeBuf is the reusable actuation batch (cpufreq + devfreq).
	writeBuf []platform.FileWrite
	// freqVal/bwVal are the sysfs value strings per ladder index,
	// precomputed on first actuation so the per-quantum hot path never
	// formats integers.
	freqVal, bwVal []string

	sPrev     float64 // speedup applied during the previous cycle
	tracker   *PhaseTracker
	slots     []profile.Entry
	slotIdx   int
	attached  bool
	lastAlloc Allocation
	allocLog  []AllocationRecord

	// Resilience state (resilience.go).
	res              Resilience
	health           Health
	retriesLeft      int  // actuation retry budget for the current cycle
	cycleFailed      bool // an actuation failed unrecovered this cycle
	degraded         bool // watchdog pinned the safe configuration
	recentY          []float64
	recentYPos       int    // ring write position once recentY is full
	outlierRun       int    // consecutive outlier rejections (persistence-accept)
	stockCPUGov      string // governor to hand back on relinquish
	stockBWGov       string
	installedMaxFreq string // legitimate scaling_max_freq value
	cyclesRun        int    // total runCycle invocations (measured or not)

	// Decision-trace state (observation only — nothing below feeds back
	// into the control law).
	gateCause     string // why the gate rejected this cycle's sample
	lastSolvePath string // "lp", "cache" or "frontier"
	// spanAttrs is the scratch array every span's attributes are built
	// in (allocated only when tracing). Sinks borrow a span for the
	// length of Emit and copy what they keep, so one array serves every
	// span and tracing allocates nothing per cycle.
	spanAttrs []obs.Attr

	// Diagnostics.
	cycles       int
	sumAbsErr    float64
	lastMeasured float64
	optWallTime  time.Duration
}

// New validates options and builds a controller.
func New(opt Options) (*Controller, error) {
	if opt.Table == nil {
		return nil, fmt.Errorf("core: nil profile table")
	}
	if err := opt.Table.Validate(); err != nil {
		return nil, err
	}
	if !(opt.TargetGIPS > 0) {
		return nil, fmt.Errorf("core: target %v GIPS invalid", opt.TargetGIPS)
	}
	if opt.CycleT <= 0 || opt.Quantum <= 0 || opt.CycleT%opt.Quantum != 0 {
		return nil, fmt.Errorf("core: cycle %v must be a positive multiple of quantum %v",
			opt.CycleT, opt.Quantum)
	}
	if opt.PerfPeriod < perftool.MinSamplingPeriod {
		return nil, fmt.Errorf("core: perf period %v below device minimum", opt.PerfPeriod)
	}
	if opt.Pole < 0 || opt.Pole >= 1 {
		return nil, fmt.Errorf("core: pole %v outside [0,1)", opt.Pole)
	}
	if opt.CPUOnly != (opt.Table.Mode == profile.Governed) {
		return nil, fmt.Errorf("core: CPUOnly=%v requires a matching profile mode (got %v)",
			opt.CPUOnly, opt.Table.Mode)
	}

	b0 := opt.Table.BaseGIPS
	kf := kalman.MustNew(math.Pow(0.02*b0, 2), math.Pow(0.05*b0, 2))
	kf.Init(b0, math.Pow(0.2*b0, 2))

	eps := opt.EpsilonDominance
	if eps == 0 {
		eps = 0.012
	}
	entries := pruneDominated(opt.Table.SortedBySpeedup(), eps)

	frontier, err := NewFrontier(entries)
	if err != nil {
		return nil, err
	}

	nSlots := int(opt.CycleT / opt.Quantum)
	c := &Controller{
		opt:        opt,
		entries:    entries,
		frontier:   frontier,
		allocCache: make(map[float64]Allocation),
		perf:       perftool.MustNew(opt.PerfPeriod, opt.Seed),
		kf:         kf,
		res:        opt.Resilience.withDefaults(),
		sPrev: clamp(opt.TargetGIPS/b0,
			entries[0].Speedup, entries[len(entries)-1].Speedup),
		slots: make([]profile.Entry, nSlots),
	}
	if n := c.res.StuckWindow - 1; n > 0 {
		c.recentY = make([]float64, 0, n)
	}
	if opt.Trace {
		c.spanAttrs = make([]obs.Attr, 0, 16) // the widest span, "cycle", has 13
	}
	if opt.PhaseAware {
		maxPhases := opt.MaxPhases
		if maxPhases == 0 {
			maxPhases = 4
		}
		tracker, err := NewPhaseTracker(maxPhases, 0.25)
		if err != nil {
			return nil, err
		}
		c.tracker = tracker
	}

	// Until the first measurement arrives, schedule the open-loop guess.
	alloc, err := c.optimize(c.sPrev)
	if err != nil {
		return nil, err
	}
	c.lastAlloc = alloc
	c.fillSlots(alloc)
	return c, nil
}

func clamp(x, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, x)) }

// Install switches the relevant governors to userspace and registers the
// perf reader and the controller on the runner. This is the programmatic
// equivalent of the paper's `echo userspace > scaling_governor` setup.
// The runner's device — possibly a fault-decorated one — becomes the
// device the controller actuates for the rest of its life; a governor
// write that fails or silently doesn't stick (an OEM daemon racing the
// setup) is reported rather than swallowed.
func (c *Controller) Install(r platform.Runner) error {
	dev := r.Device()
	c.bindDevice(dev)
	c.recordInstallState(dev)
	if err := c.installGovernor(dev, sysfs.CPUScalingGovernor, "cpu"); err != nil {
		return err
	}
	if !c.opt.CPUOnly {
		if err := c.installGovernor(dev, sysfs.DevFreqGovernor, "devfreq"); err != nil {
			return err
		}
	}
	if err := r.Register(c.perf); err != nil {
		return err
	}
	if err := r.Register(c); err != nil {
		return err
	}
	c.attached = true
	return nil
}

// bindDevice fixes the device the controller actuates and probes its
// optional batched-write capability. Fault-decorated devices do not
// expose platform.BatchWriter — the assertion fails and apply falls back
// to per-file writes, keeping every write inside the fault model.
func (c *Controller) bindDevice(dev platform.Device) {
	c.dev = dev
	c.batch, _ = dev.(platform.BatchWriter)
	if c.writeBuf == nil {
		c.writeBuf = make([]platform.FileWrite, 0, 2)
	}
}

// installGovernor switches one governor file to userspace and verifies
// the write stuck — the same error path apply uses, so setup failures
// are never silently ignored.
func (c *Controller) installGovernor(dev platform.Device, path, what string) error {
	if err := dev.WriteFile(path, platform.GovUserspace); err != nil {
		return fmt.Errorf("core: set %s governor: %w", what, err)
	}
	got, err := dev.ReadFile(path)
	if err != nil {
		return fmt.Errorf("core: verify %s governor: %w", what, err)
	}
	if got != platform.GovUserspace {
		return fmt.Errorf("core: %s governor write did not stick (have %q)", what, got)
	}
	return nil
}

// Name implements platform.Actor.
func (c *Controller) Name() string { return "aspeo-controller" }

// Period implements platform.Actor: the controller wakes at every
// scheduler quantum; the control law runs on cycle boundaries.
func (c *Controller) Period() time.Duration { return c.opt.Quantum }

// Tick implements platform.Actor. The dev argument is the runner's
// undecorated device; the controller actuates through the device Install
// captured, which carries any fault decoration.
func (c *Controller) Tick(now time.Duration, dev platform.Device) {
	if c.dev == nil {
		c.bindDevice(dev)
	}
	if c.health.Relinquished {
		return // the stock governors own the device again
	}
	if c.slotIdx == 0 {
		c.retriesLeft = c.res.MaxRetriesPerCycle
		c.runCycle(c.dev)
		if c.health.Relinquished {
			return
		}
	}
	if !c.applySlot(c.dev, c.slots[c.slotIdx]) {
		c.cycleFailed = true
	}
	c.slotIdx = (c.slotIdx + 1) % len(c.slots)
}

// runCycle executes one control cycle and publishes its telemetry —
// whatever path the cycle took (closed-loop, degraded, relinquishing),
// the health ledger lands on the device and the OnCycle subscriber sees
// the cycle's snapshot.
func (c *Controller) runCycle(dev platform.Device) {
	c.cycleBody(dev)
	c.publishCycle(dev)
}

// cycleBody executes Eqns. (2)–(7) for one control cycle, wrapped in the
// resilience layer: the previous cycle's verdict (actuation failures,
// governor ownership, measurement validity) feeds the watchdog before
// the optimizer runs.
func (c *Controller) cycleBody(dev platform.Device) {
	c.cyclesRun++
	failing := c.cycleFailed
	c.cycleFailed = false
	ownershipOK := c.checkOwnership(dev)
	if !ownershipOK {
		failing = true
	}
	c.gateCause = ""

	// Trace collection: plain scalar locals populated along the decision
	// path and emitted as spans afterwards. Writes are unconditional
	// (they cost nothing); attributes are only assembled when tracing.
	var (
		trHaveY, trAccepted, trKalman bool
		trY, trZ, trErr               float64
	)

	// The controller consumes the performance of its whole previous
	// cycle (the paper measures twice per 2 s cycle and regulates on
	// the cycle's performance).
	y, ok := c.perf.MeanOver(c.opt.CycleT)
	if ok {
		c.lastMeasured = y

		// z = y_n / s_{n-1} (§III-B3). s_{n-1} is the speedup actually
		// scheduled during the window — the applied allocation's
		// expectation.
		applied := c.lastAlloc.ExpectedSpeedup
		if applied < 1e-9 {
			applied = c.sPrev
		}
		z := math.Inf(1)
		if applied > 1e-9 {
			z = y / applied
		}
		trHaveY, trY, trZ = true, y, z

		accepted := c.gate(y, z)
		if accepted {
			// Kalman update of the base speed. A non-finite measurement
			// that a disabled gate let through is counted as rejected
			// and the regulator falls back to the prior estimate.
			if _, err := c.kf.Update(z); err != nil {
				c.health.NonFiniteSamples++
				c.health.RejectedSamples++
				c.gateCause = "non-finite"
				accepted = false
			} else {
				trKalman = true
			}
		}
		if accepted {
			e := c.opt.TargetGIPS - y // Eqn. (2)
			c.cycles++
			c.sumAbsErr += math.Abs(e)
			trAccepted, trErr = true, e

			// Phase-aware mode: recognize the cycle's phase and resume
			// the integrator from that phase's converged state.
			if c.tracker != nil {
				c.tracker.Classify(y)
				if s, found := c.tracker.Load(); found {
					c.sPrev = s
				}
			}
			b, _ := c.kf.Estimate()
			if b < 1e-6 {
				b = c.opt.Table.BaseGIPS
			}
			// Eqn. (3): adaptive-gain integrator with pole damping,
			// clamped to the speedups the (pruned) table can actually
			// deliver (anti-windup).
			s := c.sPrev + (1-c.opt.Pole)*e/b
			c.sPrev = clamp(s, c.entries[0].Speedup, c.entries[len(c.entries)-1].Speedup)
			if c.tracker != nil {
				c.tracker.Store(c.sPrev)
			}
		} else {
			failing = true
		}
	} else if c.cyclesRun >= 2 {
		// After the first full cycle a healthy perf pipeline always has
		// readings; none means every sample in the window was dropped.
		failing = true
	}

	if c.opt.Trace {
		attrs := append(c.spanAttrs[:0],
			obs.Bool("have_measurement", trHaveY),
			obs.Bool("accepted", trAccepted),
			obs.Bool("ownership_ok", ownershipOK),
		)
		if trHaveY {
			attrs = append(attrs, obs.Float("measured_gips", trY), obs.Float("z", trZ))
		}
		if c.gateCause != "" {
			attrs = append(attrs, obs.String("gate_verdict", c.gateCause))
		}
		if trAccepted {
			attrs = append(attrs, obs.Float("err_gips", trErr))
		}
		c.emitSpan(dev, obs.StageMeasure, attrs)
		if trKalman {
			b, _ := c.kf.Estimate()
			c.emitSpan(dev, obs.StageKalman, append(c.spanAttrs[:0],
				obs.Float("base_estimate_gips", b),
				obs.Float("variance", c.kf.Variance()),
				obs.Float("gain", c.kf.Gain()),
				obs.Int("steps", c.kf.Steps()),
			))
		}
	}

	if c.watchdog(dev, failing) {
		// Degraded (safe schedule installed) or relinquished: skip the
		// optimizer. The watchdog's own compute still costs energy.
		if !c.health.Relinquished {
			dev.AddOverlayEnergyJ(cycleOverheadJ)
		}
		return
	}

	start := time.Now()
	alloc, err := c.optimize(c.sPrev)
	c.optWallTime += time.Since(start)
	if err != nil {
		// Keep the previous schedule; the table was validated so this
		// only happens for pathological targets.
		return
	}
	c.lastAlloc = alloc
	if c.opt.LogAllocations {
		c.allocLog = append(c.allocLog, AllocationRecord{
			Cycle: c.cyclesRun, At: dev.Now(), Target: c.sPrev, Alloc: alloc,
		})
	}
	if c.opt.Trace {
		c.emitSpan(dev, obs.StageOptimize, append(c.spanAttrs[:0],
			obs.Float("target_speedup", c.sPrev),
			obs.String("path", c.lastSolvePath),
			obs.Int("low_freq_idx", alloc.Low.FreqIdx),
			obs.Int("low_bw_idx", alloc.Low.BWIdx),
			obs.Int("high_freq_idx", alloc.High.FreqIdx),
			obs.Int("high_bw_idx", alloc.High.BWIdx),
			obs.Int("tau_low_ns", alloc.TauLow),
			obs.Int("tau_high_ns", alloc.TauHigh),
			obs.Float("expected_speedup", alloc.ExpectedSpeedup),
			obs.Float("expected_power_w", alloc.ExpectedPowerW),
		))
	}
	hiSlots := c.fillSlots(alloc)
	if c.opt.Trace {
		c.emitSpan(dev, obs.StageSchedule, append(c.spanAttrs[:0],
			obs.Bool("safe", false),
			obs.Int("hi_slots", hiSlots),
			obs.Int("n_slots", len(c.slots)),
			obs.Int("quantum_ns", c.opt.Quantum),
		))
	}
	// Charge the regulator+optimizer compute cost (§V-A1).
	dev.AddOverlayEnergyJ(cycleOverheadJ)
}

// emitSpan publishes one decision-trace span through the device's
// telemetry surface. Callers gate on Options.Trace before assembling
// attributes, so an untraced run never builds them, and assemble them in
// c.spanAttrs, which the sink only borrows.
func (c *Controller) emitSpan(dev platform.Device, stage string, attrs obs.Attrs) {
	dev.RecordSpan(obs.Span{Cycle: c.cyclesRun, Stage: stage, At: dev.Now(), Attrs: attrs})
}

// optimize resolves the target through the frontier fast path, with a
// quantized-target memo in front: a converged regulator asks for the
// same operating point cycle after cycle, and within one phase those
// repeats skip the solve entirely. Quantization happens before the
// solve, so a cache hit returns exactly what the solver would.
func (c *Controller) optimize(target float64) (Allocation, error) {
	if c.opt.UseLP {
		c.lastSolvePath = "lp"
		return c.optimizeLP(target)
	}
	qt := math.Round(target*allocCacheScale) / allocCacheScale
	if c.memoOK && qt == c.memoQT {
		// Target moved less than the cache resolution: same key, same
		// allocation, and the same hit accounting as the map below.
		c.allocCacheHits++
		c.lastSolvePath = "cache"
		return c.memoAlloc, nil
	}
	if a, ok := c.allocCache[qt]; ok {
		c.allocCacheHits++
		c.lastSolvePath = "cache"
		c.memoQT, c.memoAlloc, c.memoOK = qt, a, true
		return a, nil
	}
	c.lastSolvePath = "frontier"
	a, err := c.frontier.Optimize(qt, c.opt.CycleT)
	if err != nil {
		return a, err
	}
	if len(c.allocCache) >= allocCacheMax {
		// The memo stays valid across the flush: the solver is a pure
		// function of the immutable pruned table, so a re-solve of the
		// memo key would return the identical allocation.
		clear(c.allocCache)
	}
	c.allocCache[qt] = a
	c.memoQT, c.memoAlloc, c.memoOK = qt, a, true
	return a, nil
}

// fillSlots quantizes the allocation onto the scheduler's dwell grid and
// returns the number of high-configuration slots. The low configuration
// runs first, then the high one — a single transition per cycle, as in
// the paper's scheduler S.
func (c *Controller) fillSlots(a Allocation) int {
	n := len(c.slots)
	hiSlots := int(float64(a.TauHigh)/float64(c.opt.Quantum) + 0.5)
	if hiSlots > n {
		hiSlots = n
	}
	for i := 0; i < n; i++ {
		if i < n-hiSlots {
			c.slots[i] = a.Low
		} else {
			c.slots[i] = a.High
		}
	}
	return hiSlots
}

// apply actuates one slot through the sysfs userspace files. A failed
// write — transient kernel error, or a governor flipped back by an OEM
// daemon — surfaces to the retry/watchdog path in applySlot, which is
// how a hijack is actually detected between ownership checks.
//
// The slot's writes go through the device's batched-write capability
// when it has one — one call per slot instead of one per file — and
// fall back to per-file WriteFile otherwise. Both paths write in the
// same order and stop at the first error, and both use the value
// strings precomputed per ladder index, so the per-quantum hot path
// formats nothing.
func (c *Controller) apply(dev platform.Device, e profile.Entry) error {
	if c.freqVal == nil {
		c.buildValueStrings(dev)
	}
	writeBW := !c.opt.CPUOnly && e.BWIdx >= 0
	if c.batch != nil {
		buf := append(c.writeBuf[:0],
			platform.FileWrite{Path: sysfs.CPUScalingSetSpeed, Value: c.freqVal[e.FreqIdx]})
		if writeBW {
			buf = append(buf, platform.FileWrite{Path: sysfs.DevFreqSetFreq, Value: c.bwVal[e.BWIdx]})
		}
		c.writeBuf = buf
		return c.batch.WriteFiles(buf)
	}
	if err := dev.WriteFile(sysfs.CPUScalingSetSpeed, c.freqVal[e.FreqIdx]); err != nil {
		return err
	}
	if writeBW {
		if err := dev.WriteFile(sysfs.DevFreqSetFreq, c.bwVal[e.BWIdx]); err != nil {
			return err
		}
	}
	return nil
}

// buildValueStrings precomputes the sysfs value text for every ladder
// index — the same strconv.Itoa results apply used to format on every
// write. Built lazily on first actuation, when the device (and hence
// the SoC ladder) is known.
func (c *Controller) buildValueStrings(dev platform.Device) {
	s := dev.SoC()
	c.freqVal = make([]string, len(s.CPUFreqs))
	for i := range c.freqVal {
		c.freqVal[i] = strconv.Itoa(int(s.Freq(i).GHz()*1e6 + 0.5))
	}
	c.bwVal = make([]string, len(s.MemBWs))
	for i := range c.bwVal {
		c.bwVal[i] = strconv.Itoa(int(s.BW(i).MBps()))
	}
}

// Cycles returns how many closed-loop cycles have run.
func (c *Controller) Cycles() int { return c.cycles }

// MeanAbsError returns the mean |r − y| over all cycles, in GIPS.
func (c *Controller) MeanAbsError() float64 {
	if c.cycles == 0 {
		return 0
	}
	return c.sumAbsErr / float64(c.cycles)
}

// LastMeasuredGIPS returns the most recent perf reading consumed.
func (c *Controller) LastMeasuredGIPS() float64 { return c.lastMeasured }

// LastAllocation returns the most recent optimizer decision.
func (c *Controller) LastAllocation() Allocation { return c.lastAlloc }

// AllocationLog returns a copy of the per-cycle decision log (nil
// unless Options.LogAllocations was set). The copy means a caller can
// hold the log across further cycles without the controller's appends
// showing through — or worse, a grow reallocation leaving the caller a
// stale prefix.
func (c *Controller) AllocationLog() []AllocationRecord {
	if c.allocLog == nil {
		return nil
	}
	out := make([]AllocationRecord, len(c.allocLog))
	copy(out, c.allocLog)
	return out
}

// BaseSpeedEstimate returns the Kalman filter's current base speed.
func (c *Controller) BaseSpeedEstimate() float64 {
	b, err := c.kf.Estimate()
	if err != nil {
		return c.opt.Table.BaseGIPS
	}
	return b
}

// CurrentSpeedupSetting returns s_{n}, the regulator's current demand.
func (c *Controller) CurrentSpeedupSetting() float64 { return c.sPrev }

// OptimizerWallTime returns the cumulative host time spent in the energy
// optimizer (for the §V-A1 overhead reproduction).
func (c *Controller) OptimizerWallTime() time.Duration { return c.optWallTime }

// AllocCacheHits returns how many control cycles were served from the
// quantized-target allocation cache without a solve.
func (c *Controller) AllocCacheHits() int { return c.allocCacheHits }

// PhasesDetected returns how many phases the tracker has distinguished;
// 0 when phase awareness is off.
func (c *Controller) PhasesDetected() int {
	if c.tracker == nil {
		return 0
	}
	return c.tracker.Phases()
}
