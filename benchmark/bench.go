package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// bench is one run's state: its configuration, the operation counts and
// metrics every workload reports through, and the digest checker.
type bench struct {
	cfg       config
	log       io.Writer
	checker   *digestChecker
	attempted int
	failed    int
	metrics   map[string]float64
	// partition is the worst traced cell's |Σ layer rows − wall| / wall.
	partition float64
}

func newBench(cfg config, log io.Writer) *bench {
	return &bench{
		cfg:     cfg,
		log:     log,
		checker: newDigestChecker(cfg),
		metrics: make(map[string]float64),
	}
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, "benchmark: "+format+"\n", args...)
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// zero reports 0 for every per-layer metric under the given module
// prefixes: layers the workload does not run.
func (b *bench) zero(prefixes ...string) {
	for _, def := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(def.name, p) {
				b.metrics[def.name] = 0
			}
		}
	}
}

// op records one attempted operation and whether it failed.
func (b *bench) op(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

// Set-up repeats at least minSetups times (once in short mode) and, for
// cheap set-ups, until setupBudget has passed (at most maxSetups times),
// so the median of a millisecond set-up is not at the mercy of one
// scheduler hiccup.
const (
	minSetups   = 3
	setupBudget = time.Second
	maxSetups   = 25
)

// setup runs fn repeatedly and reports the median wall time as setup_s.
// Each repetition redoes the whole set-up from scratch, so work moved
// into set-up shows.
func (b *bench) setup(fn func() error) error {
	var secs []float64
	n := minSetups
	start := time.Now()
	if b.cfg.short {
		n = 1
	}
	cheap := func() bool { return !b.cfg.short && time.Since(start) < setupBudget && len(secs) < maxSetups }
	for len(secs) < n || cheap() {
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	b.set("setup_s", median(secs))
	b.logf("set-up median %.4f s of %d: %s", median(secs), len(secs), fmtFloats(secs))
	return nil
}

// derive returns an independent non-negative seed for one input of the
// run, so every input that varies derives from --seed alone: a
// splitmix64 finalizer over (seed, salt).
func derive(seed int64, salt int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(salt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// Seed salts: one per kind of input.
const (
	saltArrivals = 3
	saltScenario = 4
	saltCell     = 1000 // + cell or config index
)

// rtSnap is a process-wide resource snapshot taken at a window edge.
type rtSnap struct {
	at            time.Time
	cpu           time.Duration // user + system CPU of the process
	mallocs       uint64
	allocBytes    uint64
	gcCycles      uint32
	gcCPU, allCPU float64 // runtime/metrics CPU-class estimates, seconds
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// snap takes a snapshot. ReadMemStats stops the world briefly; it is
// only called at window edges, never per operation of a timed loop.
func snap() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(cpuSamples))
	copy(s, cpuSamples)
	metrics.Read(s)
	return rtSnap{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcCPU:      s[0].Value.Float64(),
		allCPU:     s[1].Value.Float64(),
	}
}

// window is the difference of two snapshots.
type window struct {
	wall, cpu      time.Duration
	mallocs, bytes float64
	gcCycles       float64
	gcCPU, allCPU  float64
}

func (s0 rtSnap) to(s1 rtSnap) window {
	return window{
		wall:     s1.at.Sub(s0.at),
		cpu:      s1.cpu - s0.cpu,
		mallocs:  float64(s1.mallocs - s0.mallocs),
		bytes:    float64(s1.allocBytes - s0.allocBytes),
		gcCycles: float64(s1.gcCycles - s0.gcCycles),
		gcCPU:    s1.gcCPU - s0.gcCPU,
		allCPU:   s1.allCPU - s0.allCPU,
	}
}

// perSession reports the window's allocation and CPU costs divided over
// n sessions.
func (b *bench) perSession(w window, n int) {
	b.set("allocs_per_session", w.mallocs/float64(n))
	b.set("alloc_kb_per_session", w.bytes/1024/float64(n))
	b.set("runtime.cpu_ms_per_session", ms(w.cpu)/float64(n))
	b.logf("cpu_ms_per_session %.4g", ms(w.cpu)/float64(n))
}

// runtimeLayer reports the runtime.* rows over a window.
func (b *bench) runtimeLayer(w window, heapPeak uint64) {
	gcFrac := 0.0
	if w.allCPU > 0 {
		gcFrac = w.gcCPU / w.allCPU
	}
	b.set("runtime.gc_cpu_frac", gcFrac)
	b.set("runtime.gc_cycles_per_s", w.gcCycles/w.wall.Seconds())
	b.set("runtime.heap_peak_mb", float64(heapPeak)/(1<<20))
}

// heapSampler tracks the peak of the live heap between window edges
// from a cheap runtime/metrics read.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// dist prints one sampled distribution for the human report: median,
// quartiles, the highest percentile with at least ten samples beyond
// it, and the sample count.
func (b *bench) dist(name string, v []float64) {
	if len(v) == 0 {
		b.logf("%-34s (no samples)", name)
		return
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	line := fmt.Sprintf("%-34s p50 %.4g  p25 %.4g  p75 %.4g", name, quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75))
	if p, x, ok := tail(s); ok {
		line += fmt.Sprintf("  p%.4g %.4g", 100*p, x)
	}
	b.logf("%s  (n=%d)", line, len(s))
}
