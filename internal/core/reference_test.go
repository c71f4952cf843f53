package core

import (
	"fmt"
	"math"
	"time"

	"aspeo/internal/lp"
	"aspeo/internal/profile"
)

// The two reference optimizers the frontier is checked against. The
// controller solves through Frontier.Optimize only; these stay beside
// the tests that compare with them.

// Optimize solves the paper's energy LP by direct search: because the
// optimum of Eqns. (4)–(7) is a basic solution with at most two nonzero
// durations bracketing the required speedup (Fig. 3), it suffices to
// examine every (below, above) pair — O(N²), as the paper notes.
//
// entries must be sorted by ascending speedup (profile.Table.SortedBySpeedup).
func Optimize(entries []profile.Entry, target float64, T time.Duration) (Allocation, error) {
	if len(entries) == 0 {
		return Allocation{}, ErrEmptyTable
	}
	if !(target > 0) || math.IsInf(target, 0) {
		return Allocation{}, fmt.Errorf("%w: %v", ErrBadTarget, target)
	}

	minS, maxS := entries[0].Speedup, entries[len(entries)-1].Speedup

	// Below the table: no configuration is slow enough, so pick the
	// cheapest one (it still over-delivers performance).
	if target <= minS {
		best := entries[0]
		for _, e := range entries {
			if e.PowerW < best.PowerW {
				best = e
			}
		}
		return singleConfig(best, T), nil
	}
	// Above the table: saturate at the fastest configuration. Profiled
	// speedups of a demand-paced app are flat past the saturation knee,
	// so configurations within a small tolerance of the maximum deliver
	// the same performance — pick the cheapest of them.
	if target >= maxS {
		tol := 0.01 * maxS
		best := entries[len(entries)-1]
		for _, e := range entries {
			if e.Speedup >= maxS-tol && e.PowerW < best.PowerW {
				best = e
			}
		}
		return singleConfig(best, T), nil
	}

	bestEnergy := math.Inf(1)
	var best Allocation
	for _, lo := range entries {
		if lo.Speedup > target {
			continue
		}
		for _, hi := range entries {
			if hi.Speedup < target || hi.Speedup <= lo.Speedup {
				continue
			}
			// τ_h from the performance constraint Sᵀu = s_n·T.
			frac := (target - lo.Speedup) / (hi.Speedup - lo.Speedup)
			energy := (lo.PowerW*(1-frac) + hi.PowerW*frac) * T.Seconds()
			if energy < bestEnergy {
				bestEnergy = energy
				tauHigh := time.Duration(float64(T) * frac)
				best = Allocation{
					Low: lo, High: hi,
					TauLow:          T - tauHigh,
					TauHigh:         tauHigh,
					ExpectedPowerW:  energy / T.Seconds(),
					ExpectedSpeedup: target,
				}
			}
		}
	}
	if math.IsInf(bestEnergy, 1) {
		// target strictly inside (minS, maxS) guarantees a pair exists;
		// reaching here means equal speedups bracket it exactly. The
		// tolerance is relative to the target so large-speedup tables
		// (where 1e-9 is below one ulp) still match their exact entry.
		tol := 1e-9 * math.Max(1, math.Abs(target))
		for _, e := range entries {
			if math.Abs(e.Speedup-target) < tol {
				return singleConfig(e, T), nil
			}
		}
		return Allocation{}, fmt.Errorf("core: no feasible pair for target %v", target)
	}
	return best, nil
}

// OptimizeLP solves the same problem with the general simplex solver from
// internal/lp — the formulation of Eqns. (4)–(7) verbatim. It exists to
// cross-validate Optimize and Frontier.Optimize (they must agree on the
// optimal energy) and to demonstrate the LP formulation; the frontier is
// what the online controller uses.
func OptimizeLP(entries []profile.Entry, target float64, T time.Duration) (Allocation, error) {
	if len(entries) == 0 {
		return Allocation{}, ErrEmptyTable
	}
	if !(target > 0) || math.IsInf(target, 0) {
		return Allocation{}, fmt.Errorf("%w: %v", ErrBadTarget, target)
	}
	minS, maxS := entries[0].Speedup, entries[len(entries)-1].Speedup
	clamped := math.Max(minS, math.Min(maxS, target))

	n := len(entries)
	c, sRow, ones := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, e := range entries {
		c[i] = e.PowerW
		sRow[i] = e.Speedup
		ones[i] = 1
	}
	Tsec := T.Seconds()
	sol, err := lp.Solve(&lp.Problem{
		C:   c,
		A:   [][]float64{sRow, ones},
		B:   []float64{clamped * Tsec, Tsec},
		Rel: []lp.Relation{lp.EQ, lp.EQ},
	})
	if err != nil {
		return Allocation{}, fmt.Errorf("core: lp solve: %w", err)
	}

	// Extract the (at most two) nonzero durations.
	type pick struct {
		e   profile.Entry
		tau float64
	}
	var picks []pick
	for i, u := range sol.X {
		if u > 1e-7 {
			picks = append(picks, pick{entries[i], u})
		}
	}
	switch len(picks) {
	case 0:
		return Allocation{}, fmt.Errorf("core: lp returned empty allocation")
	case 1:
		a := singleConfig(picks[0].e, T)
		a.ExpectedPowerW = sol.Objective / Tsec
		return a, nil
	case 2:
		lo, hi := picks[0], picks[1]
		if lo.e.Speedup > hi.e.Speedup {
			lo, hi = hi, lo
		}
		return Allocation{
			Low: lo.e, High: hi.e,
			TauLow:          time.Duration(lo.tau * float64(time.Second)),
			TauHigh:         time.Duration(hi.tau * float64(time.Second)),
			ExpectedPowerW:  sol.Objective / Tsec,
			ExpectedSpeedup: clamped,
		}, nil
	default:
		return Allocation{}, fmt.Errorf("core: lp basic solution has %d nonzeros, expected <= 2", len(picks))
	}
}
