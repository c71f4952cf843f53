// Package fault is a deterministic, seeded fault injector for the two
// I/O surfaces the online controller depends on: the sysfs actuation
// files and the perf reader.
//
// On a real Nexus 6 neither surface is trustworthy. Sysfs stores return
// transient -EBUSY/-EINVAL, OEM daemons (msm_thermal, mpdecision, touch
// boost) silently rewrite scaling_governor and clamp scaling_max_freq
// out from under userspace DVFS, and PMU-derived perf readings drop
// samples, spike under counter multiplexing, and occasionally stick at a
// stale or zero value (Bokhari et al.; Hoque et al.). A Plan describes
// such a scenario as scheduled events plus seeded probabilistic event
// rates; an Injector executes it against one simulation cell.
//
// Determinism contract: a Plan is an immutable value shared across
// cells; every cell builds its own Injector from (Plan, seed), all rng
// draws happen inside that single-threaded cell, and draw order is fixed
// by the plan (a probability of zero never consumes a draw). A scenario
// therefore replays bit-identically under internal/par at any worker
// count.
package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"aspeo/internal/detrand"
	"aspeo/internal/perftool"
	"aspeo/internal/platform"
	"aspeo/internal/soc"
	"aspeo/internal/sysfs"
)

// Hijack is a scheduled governor-hijack event: a simulated OEM daemon
// rewriting the DVFS policy files behind userspace's back (with root, so
// write hooks and permissions do not apply).
type Hijack struct {
	// At is the first firing time.
	At time.Duration
	// Governor replaces scaling_governor; empty means "interactive".
	Governor string
	// MaxFreqKHz, when positive, clamps scaling_max_freq and the current
	// CPU frequency the way msm_thermal bounds policy->max.
	MaxFreqKHz int
	// Repeat re-fires the event at this period; 0 fires once.
	Repeat time.Duration
}

// StuckFile freezes a sysfs file: every write from From on is rejected
// with EBUSY, the way a wedged firmware interface stops accepting
// stores while still reading back its last value.
type StuckFile struct {
	Path string
	From time.Duration
}

// Plan is one fault scenario. The zero value injects nothing.
type Plan struct {
	// --- sysfs faults ---

	// WriteFailProb is the per-write probability of a transient
	// EBUSY/EINVAL rejection on the faultable paths.
	WriteFailProb float64
	// WriteFailPaths restricts probabilistic write failures; nil means
	// the two actuation files (scaling_setspeed, devfreq set_freq).
	WriteFailPaths []string
	// WriteFailFrom/WriteFailUntil bound the failure window; both zero
	// means the whole run.
	WriteFailFrom  time.Duration
	WriteFailUntil time.Duration
	// Hijacks are the scheduled governor-hijack events.
	Hijacks []Hijack
	// StuckFiles are the frozen sysfs nodes.
	StuckFiles []StuckFile

	// --- perf faults ---

	// DropProb is the per-sample probability that a completed reading is
	// discarded before publication.
	DropProb float64
	// SpikeProb/SpikeFactor inject counter-multiplexing spikes: the
	// reading's GIPS is multiplied by SpikeFactor (default 4).
	SpikeProb   float64
	SpikeFactor float64
	// ZeroProb is the per-sample probability of a zero reading (counter
	// wrap / lost event group).
	ZeroProb float64
	// StuckReadFrom/StuckReadFor freeze readings at the last published
	// value for the given window; StuckReadFor 0 disables.
	StuckReadFrom time.Duration
	StuckReadFor  time.Duration
}

// Validate rejects malformed plans.
func (p Plan) Validate() error {
	probs := [...]struct {
		name string
		v    float64
	}{
		{"WriteFailProb", p.WriteFailProb}, {"DropProb", p.DropProb},
		{"SpikeProb", p.SpikeProb}, {"ZeroProb", p.ZeroProb},
	}
	for _, pr := range probs {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("fault: %s %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.SpikeFactor < 0 {
		return fmt.Errorf("fault: negative spike factor %v", p.SpikeFactor)
	}
	if p.WriteFailUntil != 0 && p.WriteFailUntil < p.WriteFailFrom {
		return fmt.Errorf("fault: write-failure window ends (%v) before it starts (%v)",
			p.WriteFailUntil, p.WriteFailFrom)
	}
	for _, h := range p.Hijacks {
		if h.At < 0 || h.Repeat < 0 {
			return fmt.Errorf("fault: negative hijack time in %+v", h)
		}
	}
	for _, s := range p.StuckFiles {
		if s.Path == "" {
			return fmt.Errorf("fault: stuck file with empty path")
		}
	}
	if p.StuckReadFor < 0 || p.StuckReadFrom < 0 {
		return fmt.Errorf("fault: negative stuck-read window")
	}
	return nil
}

// Active reports whether the plan injects anything at all.
func (p Plan) Active() bool {
	return p.WriteFailProb > 0 || len(p.Hijacks) > 0 || len(p.StuckFiles) > 0 ||
		p.DropProb > 0 || p.SpikeProb > 0 || p.ZeroProb > 0 || p.StuckReadFor > 0
}

// Counts tallies the faults an Injector actually delivered; the
// resilience tests match them against the controller's Health counters.
type Counts struct {
	WriteFailures  int // probabilistic EBUSY/EINVAL rejections
	StuckWrites    int // rejections by frozen files
	Hijacks        int // governor-hijack events fired
	DroppedSamples int
	Spikes         int
	ZeroReads      int
	StuckReads     int
}

// Injector executes one Plan against one simulation cell. It implements
// platform.Actor for the scheduled events and the scenario clock;
// register it before the actors it torments so its clock leads theirs,
// then compose it onto the cell's I/O surfaces with WrapRunner (or
// WrapActuator) and WrapPerf. The injector is backend-agnostic: it
// decorates platform interfaces, so one Plan torments the simulator, the
// replay backend, or a real device identically.
type Injector struct {
	plan   Plan
	rng    *rand.Rand
	rngSrc *detrand.Source
	st     injectorState // the dynamic state a checkpoint carries (state.go)
}

// NewInjector validates the plan and builds an injector. Cells of one
// campaign pass their own seeds so probabilistic faults vary per seed
// while staying reproducible.
func NewInjector(plan Plan, seed int64) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	rng, src := detrand.New(seed)
	in := &Injector{
		plan:   plan,
		rng:    rng,
		rngSrc: src,
		st:     injectorState{NextFire: make([]time.Duration, len(plan.Hijacks))},
	}
	for i, h := range plan.Hijacks {
		in.st.NextFire[i] = h.At
	}
	return in, nil
}

// MustNewInjector is NewInjector but panics on invalid plans.
func MustNewInjector(plan Plan, seed int64) *Injector {
	in, err := NewInjector(plan, seed)
	if err != nil {
		panic(err)
	}
	return in
}

// WrapActuator decorates a device so every userspace sysfs write passes
// through the injector: frozen files reject, faultable paths fail with
// the planned probability. Root-semantics SetFile and all reads pass
// through untouched, exactly like the kernel: faults hit the store path,
// not the readback.
func WrapActuator(dev platform.Device, in *Injector) platform.Device {
	return &faultDevice{Device: dev, in: in}
}

type faultDevice struct {
	platform.Device
	in *Injector
}

// WriteFile implements platform.SysfsView with fault interception.
func (d *faultDevice) WriteFile(path, value string) error {
	if err := d.in.interceptWrite(path, value); err != nil {
		return err
	}
	return d.Device.WriteFile(path, value)
}

// WrapPerf installs the injector's reading hook on a perf reader and
// returns it, so wiring reads as one composition expression.
func WrapPerf(p *perftool.Perf, in *Injector) *perftool.Perf {
	p.SetFaultHook(in.interceptReading)
	return p
}

// WrapRunner returns a runner whose Device carries the injector's write
// decoration: actors installed through it (the controller, stock
// governors) actuate through the faulty surface while the runner's
// scheduling is untouched.
func WrapRunner(r platform.Runner, in *Injector) platform.Runner {
	return &faultRunner{Runner: r, dev: WrapActuator(r.Device(), in)}
}

type faultRunner struct {
	platform.Runner
	dev platform.Device
}

// Device implements platform.Runner.
func (r *faultRunner) Device() platform.Device { return r.dev }

// Counts returns the faults delivered so far.
func (in *Injector) Counts() Counts { return in.st.Counts }

// Name implements platform.Actor.
func (in *Injector) Name() string { return "fault-injector" }

// Period implements platform.Actor: the injector's clock advances at the
// sysfs-daemon granularity (100 ms), finer than every control period.
func (in *Injector) Period() time.Duration { return 100 * time.Millisecond }

// Tick implements platform.Actor: advance the scenario clock and fire
// due hijack events.
func (in *Injector) Tick(now time.Duration, dev platform.Device) {
	in.st.Now = now
	for i := range in.plan.Hijacks {
		if in.st.NextFire[i] < 0 || now < in.st.NextFire[i] {
			continue
		}
		in.fireHijack(dev, in.plan.Hijacks[i])
		if r := in.plan.Hijacks[i].Repeat; r > 0 {
			in.st.NextFire[i] = now + r
		} else {
			in.st.NextFire[i] = -1
		}
	}
}

// fireHijack performs one governor-hijack event with root semantics
// (SetFile bypasses hooks, permissions and any fault decoration).
func (in *Injector) fireHijack(dev platform.Device, h Hijack) {
	gov := h.Governor
	if gov == "" {
		gov = platform.GovInteractive
	}
	dev.SetFile(sysfs.CPUScalingGovernor, gov)
	if h.MaxFreqKHz > 0 {
		dev.SetFile(sysfs.CPUScalingMaxFreq, strconv.Itoa(h.MaxFreqKHz))
		// msm_thermal clamps the running frequency too, not just the
		// policy bound.
		capIdx := dev.SoC().NearestFreqIdx(soc.FreqFromKHz(h.MaxFreqKHz))
		if dev.CurFreqIdx() > capIdx {
			dev.SetFreqIdx(capIdx)
		}
	}
	in.st.Counts.Hijacks++
}

// interceptWrite vets one userspace write (the WrapActuator hot path):
// frozen files reject every write; faultable paths fail with the planned
// probability inside the failure window, alternating EBUSY and EINVAL
// deterministically.
func (in *Injector) interceptWrite(path, _ string) error {
	for _, s := range in.plan.StuckFiles {
		if s.Path == path && in.st.Now >= s.From {
			in.st.Counts.StuckWrites++
			return sysfs.ErrBusy
		}
	}
	if in.plan.WriteFailProb > 0 && in.writeFaultable(path) && in.windowActive() {
		if in.rng.Float64() < in.plan.WriteFailProb {
			in.st.Counts.WriteFailures++
			if in.st.Counts.WriteFailures%2 == 1 {
				return sysfs.ErrBusy
			}
			return sysfs.ErrInvalid
		}
	}
	return nil
}

func (in *Injector) writeFaultable(path string) bool {
	paths := in.plan.WriteFailPaths
	if paths == nil {
		paths = []string{sysfs.CPUScalingSetSpeed, sysfs.DevFreqSetFreq}
	}
	for _, p := range paths {
		if p == path {
			return true
		}
	}
	return false
}

func (in *Injector) windowActive() bool {
	if in.st.Now < in.plan.WriteFailFrom {
		return false
	}
	return in.plan.WriteFailUntil == 0 || in.st.Now < in.plan.WriteFailUntil
}

// interceptReading is the perftool.FaultHook. Evaluation order is fixed
// by the plan — stuck window, drop, zero, spike — and a zero probability
// never consumes an rng draw, so replays are bit-identical.
func (in *Injector) interceptReading(r perftool.Reading) (perftool.Reading, bool) {
	if in.plan.StuckReadFor > 0 && in.st.HaveLast &&
		r.EndedAt >= in.plan.StuckReadFrom &&
		r.EndedAt < in.plan.StuckReadFrom+in.plan.StuckReadFor {
		in.st.Counts.StuckReads++
		r.GIPS = in.st.LastGIPS
		return r, true
	}
	if in.plan.DropProb > 0 && in.rng.Float64() < in.plan.DropProb {
		in.st.Counts.DroppedSamples++
		return r, false
	}
	if in.plan.ZeroProb > 0 && in.rng.Float64() < in.plan.ZeroProb {
		in.st.Counts.ZeroReads++
		r.GIPS = 0
		return r, true
	}
	if in.plan.SpikeProb > 0 && in.rng.Float64() < in.plan.SpikeProb {
		in.st.Counts.Spikes++
		f := in.plan.SpikeFactor
		if f == 0 {
			f = 4
		}
		r.GIPS *= f
		return r, true
	}
	in.st.LastGIPS = r.GIPS
	in.st.HaveLast = true
	return r, true
}
