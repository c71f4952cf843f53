package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of ascending samples: the
// smallest sample with at least a q share of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(n))) - 1
	return sorted[min(max(k, 0), n-1)]
}

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tail returns the highest percentile of ascending samples that has at
// least minBeyond samples above it — 1−10/n — and its nearest-rank
// value. ok is false below minBeyond+1 samples.
func tail(sorted []float64) (p, v float64, ok bool) {
	n := len(sorted)
	if n <= minBeyond {
		return 0, 0, false
	}
	return 1 - float64(minBeyond)/float64(n), sorted[n-1-minBeyond], true
}

// quietByKey groups samples by key and returns each key's lower quartile
// (nearest rank): how the key's repeated, identical runs went in the
// quieter stretches of the window. On a shared machine whose speed
// swings over seconds, its run-to-run spread is about half that of the
// same statistic over every sample, and it still moves with any change
// to the work itself.
func quietByKey(keys []int, v []float64) map[int]float64 {
	by := make(map[int][]float64)
	for i, k := range keys {
		by[k] = append(by[k], v[i])
	}
	out := make(map[int]float64, len(by))
	for k, s := range by {
		sort.Float64s(s)
		out[k] = quantile(s, 0.25)
	}
	return out
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// median is the middle sample, or the mean of the two middle samples.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spreadStats summarizes repeated runs of one metric.
type spreadStats struct {
	Median, Q1, Q3 float64
	N              int
}

// quartiles returns Q1 and Q3 exactly as Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), so a spread computed here matches one computed
// there.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func summarize(v []float64) spreadStats {
	q1, q3 := quartiles(v)
	return spreadStats{Median: median(v), Q1: q1, Q3: q3, N: len(v)}
}

// Spread is the quartile distance as a share of the median.
func (s spreadStats) Spread() float64 { return (s.Q3 - s.Q1) / math.Abs(s.Median) }

// Verdicts of compare.
const (
	verdictBetter     = "better"
	verdictSame       = "no regression"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compare judges a change's runs against the parent's for one metric
// with the benchmark's bound (a share of the parent's median):
//
//   - worse: the change's median is worse than the parent's by more
//     than the bound;
//   - unresolved: either side's spread exceeds the bound, so the bound
//     cannot be checked — unless every change run reads better than
//     every parent run;
//   - better: the medians differ, in the good direction, by more than
//     the parent's own quartile distance;
//   - no regression otherwise.
func compare(base, cur []float64, bound float64, higherBetter bool) string {
	b, c := summarize(base), summarize(cur)
	sign := 1.0 // +1 when larger is worse
	if higherBetter {
		sign = -1
	}
	if b.Spread() > bound || c.Spread() > bound {
		if allBetter(base, cur, sign) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	worse := sign * (c.Median - b.Median)
	switch {
	case worse > bound*math.Abs(b.Median):
		return verdictWorse
	case -worse > b.Q3-b.Q1:
		return verdictBetter
	}
	return verdictSame
}

// allBetter reports whether every change run beats every parent run.
func allBetter(base, cur []float64, sign float64) bool {
	if len(base) == 0 || len(cur) == 0 {
		return false
	}
	worstCur, bestBase := math.Inf(-1), math.Inf(1)
	for _, x := range cur {
		worstCur = math.Max(worstCur, sign*x)
	}
	for _, x := range base {
		bestBase = math.Min(bestBase, sign*x)
	}
	return worstCur < bestBase
}
