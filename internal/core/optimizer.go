// Package core implements the paper's contribution: the application-
// specific, performance-aware energy controller (paper §III-B).
//
// Each control cycle of T = 2 s the controller
//
//  1. measures application performance y_n in GIPS through the perf tool
//     (Eqn. 2: e_n = r − y_n),
//  2. updates its Kalman estimate of the application base speed b_n and
//     integrates the error into a required speedup
//     s_n = s_{n−1} + e_{n−1}/b_{n−1} (Eqn. 3 — an adaptive-gain
//     integral regulator),
//  3. solves the energy-minimization linear program (Eqns. 4–7) over the
//     offline profiling table, whose optimum uses at most two
//     configurations c_l and c_h, and
//  4. schedules c_l for τ_l seconds and c_h for τ_h seconds by writing
//     the cpufreq/devfreq userspace sysfs files, on a 200 ms quantum.
package core

import (
	"errors"
	"time"

	"aspeo/internal/profile"
)

// Allocation is the energy optimizer's decision for one control cycle:
// run Low for TauLow, then High for TauHigh (TauLow + TauHigh = T). When
// a single configuration suffices, Low == High and TauHigh == 0.
type Allocation struct {
	Low, High profile.Entry
	TauLow    time.Duration
	TauHigh   time.Duration
	// ExpectedPowerW is the table-predicted average power of the mix.
	ExpectedPowerW float64
	// ExpectedSpeedup is the table-predicted average speedup.
	ExpectedSpeedup float64
}

// Errors returned by the optimizer.
var (
	ErrEmptyTable = errors.New("core: empty profile table")
	ErrBadTarget  = errors.New("core: target speedup must be positive and finite")
)

// pruneDominated removes entries that are ε-dominated: entry A is pruned
// when some entry B has strictly lower power and speedup(B) ≥
// speedup(A)/(1+ε). With ε = 0 this is plain Pareto pruning; a small
// positive ε additionally collapses the saturation plateau of demand-
// paced applications, whose measured speedups differ only by noise.
// entries must be sorted by ascending speedup; the result keeps that
// order and is never empty.
func pruneDominated(entries []profile.Entry, eps float64) []profile.Entry {
	if eps < 0 || len(entries) <= 1 {
		return entries
	}
	keep := make([]profile.Entry, 0, len(entries))
	for i, e := range entries {
		dominated := false
		for j, other := range entries {
			if i == j {
				continue
			}
			if other.PowerW < e.PowerW && other.Speedup >= e.Speedup/(1+eps) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, e)
		}
	}
	if len(keep) == 0 {
		return entries
	}
	return keep
}

func singleConfig(e profile.Entry, T time.Duration) Allocation {
	return Allocation{
		Low: e, High: e, TauLow: T, TauHigh: 0,
		ExpectedPowerW: e.PowerW, ExpectedSpeedup: e.Speedup,
	}
}
