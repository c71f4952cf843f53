// Package perftool emulates the Linux perf tool as the paper uses it: a
// sampled reader of the PMU instruction counter from which the GIPS
// performance metric is derived (paper §III-B2, §IV-B).
//
// The emulation reproduces the measured costs that shaped the paper's
// controller design:
//
//   - the minimum sampling period on the Nexus 6 is 100 ms;
//   - the computation overhead is ~40 ms of CPU per sample — 40% of the
//     machine at a 100 ms period, 4% at the 1 s period the controller
//     uses (this is why the paper settles on a 2 s control cycle);
//   - the power overhead at a 1 s period is ~15 mW;
//   - a reading takes ~1.04 s to be reported, so the controller consumes
//     the previous window's measurement;
//   - PMU-derived readings carry noise, especially over short windows.
package perftool

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"aspeo/internal/detrand"
	"aspeo/internal/platform"
	"aspeo/internal/pmu"
)

// MinSamplingPeriod is the shortest period perf supports on the device.
const MinSamplingPeriod = 100 * time.Millisecond

// cpuSecondsPerSample is the compute cost of collecting and reporting one
// sample (≈40 ms of CPU), the source of the 40%-at-100 ms figure.
const cpuSecondsPerSample = 0.040

// powerPerSampleJ is the energy cost of one sample: 15 mW at a 1 s
// period.
const powerPerSampleJ = 0.015

// noiseSigma is the relative standard deviation of a GIPS reading over a
// 1-second window; shorter windows are proportionally noisier (§V-B:
// "PMU-based performance measurements could have high variations" for
// short durations).
const noiseSigma = 0.02

// Reading is one completed measurement.
type Reading struct {
	GIPS    float64
	Window  time.Duration // the interval the reading covers
	EndedAt time.Duration // when the window closed
	Seq     int
}

// historyLen bounds the reading ring buffer (enough for several control
// cycles at any sane period).
const historyLen = 64

// FaultHook intercepts a completed raw reading before it is published.
// It may rewrite the reading (spikes, stuck counters) or drop it
// entirely by returning keep=false — the reading then never reaches
// Last or MeanOver, as when perf's ring buffer overflows on the device.
// Installed by internal/fault; nil means pass-through.
type FaultHook func(r Reading) (out Reading, keep bool)

// Perf is the sampling reader. It implements platform.Actor and reads
// any platform.Device.
type Perf struct {
	period time.Duration
	rng    *rand.Rand
	rngSrc *detrand.Source

	prev pmu.Snapshot
	// history is a fixed ring of the most recent readings: st.HistPos
	// is the next write slot, st.HistN the live count (== historyLen
	// once wrapped). A ring instead of an append-and-reslice window
	// keeps the per-sample steady state allocation-free.
	history [historyLen]Reading
	st      perfState // the rest of the dynamic state a checkpoint carries (state.go)

	hook FaultHook
}

// New creates a perf reader with the given sampling period.
func New(period time.Duration, seed int64) (*Perf, error) {
	if period < MinSamplingPeriod {
		return nil, fmt.Errorf("perftool: period %v below device minimum %v", period, MinSamplingPeriod)
	}
	rng, src := detrand.New(seed)
	return &Perf{period: period, rng: rng, rngSrc: src}, nil
}

// MustNew is New but panics on invalid periods.
func MustNew(period time.Duration, seed int64) *Perf {
	p, err := New(period, seed)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements platform.Actor.
func (p *Perf) Name() string { return "perf" }

// Period implements platform.Actor.
func (p *Perf) Period() time.Duration { return p.period }

// OverheadFrac returns the fraction of machine time the sampling costs at
// this period.
func (p *Perf) OverheadFrac() float64 {
	f := cpuSecondsPerSample / p.period.Seconds()
	if f > 0.9 {
		f = 0.9
	}
	return f
}

// Tick implements platform.Actor: close the current window, produce a
// reading, and charge the instrumentation costs to the device.
func (p *Perf) Tick(now time.Duration, dev platform.Device) {
	if !p.st.Attached {
		// First tick: install the standing CPU and power overheads.
		// Each sample costs ~15 mJ, so the average power overhead is
		// 15 mW at the 1 s period the paper reports.
		dev.SetPerfOverhead(p.OverheadFrac(), powerPerSampleJ/p.period.Seconds())
		p.st.Attached = true
	}
	snap := dev.PMUSnapshot()
	if !p.st.Initialized {
		p.st.Initialized = true
		p.prev, p.st.PrevAt = snap, now
		return
	}
	window := now - p.st.PrevAt
	if window <= 0 {
		return
	}
	instr := snap.Delta(p.prev, pmu.Instructions)
	p.prev, p.st.PrevAt = snap, now

	gips := instr / window.Seconds() / 1e9
	// Noise scales with 1/sqrt(window): short windows are unreliable.
	sigma := noiseSigma / math.Sqrt(math.Max(window.Seconds(), 1e-3))
	gips *= 1 + sigma*p.rng.NormFloat64()
	if gips < 0 {
		gips = 0
	}
	r := Reading{GIPS: gips, Window: window, EndedAt: now, Seq: p.st.Seq + 1}
	if p.hook != nil {
		var keep bool
		if r, keep = p.hook(r); !keep {
			p.st.Dropped++
			return
		}
	}
	p.st.Seq++
	r.Seq = p.st.Seq
	p.st.Last = r
	p.history[p.st.HistPos] = r
	p.st.HistPos = (p.st.HistPos + 1) % historyLen
	if p.st.HistN < historyLen {
		p.st.HistN++
	}
}

// SetFaultHook installs (or, with nil, removes) the reading interceptor.
func (p *Perf) SetFaultHook(h FaultHook) { p.hook = h }

// Dropped returns how many completed readings the fault hook discarded.
func (p *Perf) Dropped() int { return p.st.Dropped }

// Detach removes the instrumentation costs from the device (perf
// stopped).
func (p *Perf) Detach(dev platform.Device) {
	dev.SetPerfOverhead(0, 0)
	p.st.Attached = false
}

// Last returns the most recent completed reading; ok is false before the
// first window closes.
func (p *Perf) Last() (Reading, bool) {
	return p.st.Last, p.st.Seq > 0
}

// MeanOver returns the time-weighted mean GIPS of the readings covering
// (approximately) the trailing `span` — what a controller with a control
// cycle longer than the sampling period consumes. Readings whose window
// closed before the span began — stale survivors of dropped samples —
// are excluded, so ok is false for a non-positive span, before the first
// window closes, and when every sample inside the span was dropped.
func (p *Perf) MeanOver(span time.Duration) (float64, bool) {
	if span <= 0 || p.st.HistN == 0 {
		return 0, false
	}
	cutoff := p.st.PrevAt - span
	var sum, weight float64
	covered := time.Duration(0)
	for k := 0; k < p.st.HistN && covered < span; k++ {
		r := &p.history[(p.st.HistPos-1-k+2*historyLen)%historyLen]
		if r.EndedAt <= cutoff {
			break // window entirely before the span: stale
		}
		w := r.Window.Seconds()
		sum += r.GIPS * w
		weight += w
		covered += r.Window
	}
	if weight == 0 {
		return 0, false
	}
	return sum / weight, true
}
