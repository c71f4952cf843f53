// Package histogram accumulates residency histograms: the percentage of
// time the device spends at each CPU frequency or memory bandwidth index.
// These are the quantities plotted in the paper's Figures 1, 4 and 5.
package histogram

import (
	"fmt"
	"strings"
	"time"
)

// Residency tracks time spent per ladder index.
type Residency struct {
	name    string
	buckets []time.Duration
	total   time.Duration
}

// New creates a residency histogram with n ladder steps.
func New(name string, n int) *Residency {
	if n <= 0 {
		panic(fmt.Sprintf("histogram: %d buckets", n))
	}
	return &Residency{name: name, buckets: make([]time.Duration, n)}
}

// Name returns the histogram's label.
func (r *Residency) Name() string { return r.name }

// Len returns the number of ladder steps.
func (r *Residency) Len() int { return len(r.buckets) }

// Add accounts dt of residency at ladder index idx. Out-of-range indices
// panic: they indicate a simulator bug, not bad input.
func (r *Residency) Add(idx int, dt time.Duration) {
	if idx < 0 || idx >= len(r.buckets) {
		panic(fmt.Sprintf("histogram %s: index %d out of %d", r.name, idx, len(r.buckets)))
	}
	if dt <= 0 {
		return
	}
	r.buckets[idx] += dt
	r.total += dt
}

// Total returns the accumulated observation time.
func (r *Residency) Total() time.Duration { return r.total }

// Percent returns the share of time at index idx, in percent of the
// total observation time (0 if nothing was observed).
func (r *Residency) Percent(idx int) float64 {
	if r.total == 0 {
		return 0
	}
	return 100 * float64(r.buckets[idx]) / float64(r.total)
}

// Percents returns the full distribution in percent.
func (r *Residency) Percents() []float64 {
	out := make([]float64, len(r.buckets))
	for i := range r.buckets {
		out[i] = r.Percent(i)
	}
	return out
}

// ArgMax returns the index with the largest residency.
func (r *Residency) ArgMax() int {
	best := 0
	for i := range r.buckets {
		if r.buckets[i] > r.buckets[best] {
			best = i
		}
	}
	return best
}

// TopShare returns the combined share (percent) of the k highest ladder
// indices; e.g. TopShare(1) is residency at the maximum frequency.
func (r *Residency) TopShare(k int) float64 {
	if k <= 0 {
		return 0
	}
	s := 0.0
	for i := len(r.buckets) - k; i < len(r.buckets); i++ {
		if i >= 0 {
			s += r.Percent(i)
		}
	}
	return s
}

// Dist is a fixed-bucket distribution of scalar observations — the
// bucket/sum/count shape Prometheus histograms expose, kept here beside
// Residency so every histogram in the repo shares one home. A value v
// lands in the first bucket whose upper bound satisfies v <= bound;
// values above every bound land in the implicit +Inf overflow bucket.
type Dist struct {
	bounds []float64 // strictly increasing upper bounds
	counts []uint64  // len(bounds)+1; last is the +Inf overflow
	sum    float64
	n      uint64
}

// NewDist creates a distribution over the given upper bounds, which must
// be finite and strictly increasing. Like New, invalid bounds panic:
// they are a programming error, not bad input.
func NewDist(bounds []float64) *Dist {
	if len(bounds) == 0 {
		panic("histogram: Dist needs at least one bucket bound")
	}
	for i, b := range bounds {
		if b != b || b > 1e308 || b < -1e308 {
			panic(fmt.Sprintf("histogram: Dist bound %v not finite", b))
		}
		if i > 0 && bounds[i-1] >= b {
			panic(fmt.Sprintf("histogram: Dist bounds not increasing at %d", i))
		}
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	return &Dist{bounds: own, counts: make([]uint64, len(bounds)+1)}
}

// Observe accounts one value. NaN observations are ignored.
func (d *Dist) Observe(v float64) {
	if v != v {
		return
	}
	i := len(d.bounds) // overflow bucket
	for j, b := range d.bounds {
		if v <= b {
			i = j
			break
		}
	}
	d.counts[i]++
	d.sum += v
	d.n++
}

// Bounds returns the configured upper bounds (excluding +Inf).
func (d *Dist) Bounds() []float64 {
	out := make([]float64, len(d.bounds))
	copy(out, d.bounds)
	return out
}

// Quantile returns an upper estimate of the q-quantile: the upper bound
// of the first bucket at which the cumulative count reaches q·Total().
// q is clamped to [0, 1], and a distribution with no observations
// returns 0. Observations that landed in the +Inf overflow bucket
// report the highest finite bound — the histogram cannot resolve beyond
// it, so callers should size their top bound past the values they care
// about.
func (d *Dist) Quantile(q float64) float64 {
	if d.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(d.n)
	var c float64
	for i, b := range d.bounds {
		c += float64(d.counts[i])
		if c >= rank {
			return b
		}
	}
	return d.bounds[len(d.bounds)-1]
}

// Total returns the observation count.
func (d *Dist) Total() uint64 { return d.n }

// Sum returns the sum of all observed values.
func (d *Dist) Sum() float64 { return d.sum }

// Counts returns a copy of the raw per-bucket counts, length
// len(Bounds())+1 with the +Inf overflow bucket last. Together with
// Bounds and Sum this is a Dist's complete serializable state.
func (d *Dist) Counts() []uint64 {
	out := make([]uint64, len(d.counts))
	copy(out, d.counts)
	return out
}

// Merge folds another distribution into d. The two must share identical
// bounds — merging histograms over different buckets has no meaning and
// errors rather than guessing. Bucket counts and the observation count
// add exactly (integers); the sums add as float64, so Merge is
// commutative and associative whenever the sums are (exactly, when
// every observation was quantized — see obs/pipeline — and within one
// ULP otherwise).
func (d *Dist) Merge(o *Dist) error {
	if len(d.bounds) != len(o.bounds) {
		return fmt.Errorf("histogram: merging Dist with %d bounds into %d", len(o.bounds), len(d.bounds))
	}
	for i := range d.bounds {
		if d.bounds[i] != o.bounds[i] {
			return fmt.Errorf("histogram: merging Dist with bound[%d]=%v into %v", i, o.bounds[i], d.bounds[i])
		}
	}
	for i := range d.counts {
		d.counts[i] += o.counts[i]
	}
	d.sum += o.sum
	d.n += o.n
	return nil
}

// SetCounts overwrites the distribution's state from a snapshot: raw
// per-bucket counts (length len(Bounds())+1, overflow last) and the
// value sum. The observation count is the counts' total. It rebuilds a
// Dist from a serialized snapshot (pipeline.DistSnapshot.Dist).
func (d *Dist) SetCounts(counts []uint64, sum float64) error {
	if len(counts) != len(d.counts) {
		return fmt.Errorf("histogram: SetCounts with %d buckets, want %d", len(counts), len(d.counts))
	}
	var n uint64
	for i, c := range counts {
		d.counts[i] = c
		n += c
	}
	d.sum = sum
	d.n = n
	return nil
}

// Render draws the histogram as ASCII art, one row per ladder index
// (1-based labels, like the paper's figures).
func (r *Residency) Render(width int) string {
	if width <= 0 {
		width = 50
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (total %.1fs)\n", r.name, r.total.Seconds())
	for i := range r.buckets {
		pct := r.Percent(i)
		bar := strings.Repeat("#", int(pct/100*float64(width)+0.5))
		fmt.Fprintf(&b, "%3d |%-*s| %5.1f%%\n", i+1, width, bar, pct)
	}
	return b.String()
}
