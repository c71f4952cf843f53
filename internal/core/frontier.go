package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"aspeo/internal/profile"
)

// Frontier is the optimizer's fast path: the lower convex hull of the
// profile table's (speedup, power) points, precomputed once per table.
//
// The energy LP of Eqns. (4)–(7) mixes at most two configurations
// bracketing the required speedup, and its optimal energy at any target
// is the lower convex envelope of the (speedup, power) point set
// evaluated at that target. The O(N²) pair scan of the reference
// Optimize (reference_test.go) searches that envelope implicitly on
// every call; Frontier materializes it once (O(N) on the speedup-sorted
// entries via Andrew's monotone chain), so each control cycle reduces
// to a binary search for the bracketing hull segment — O(log H) with
// H ≤ N hull vertices.
//
// The controller builds its Frontier at construction, after ε-dominance
// pruning; the profile table (and hence the hull) is immutable for the
// controller's lifetime, so it is never rebuilt. Callers that swap
// tables (e.g. load-model adaptation) build a new Frontier.
type Frontier struct {
	hull []profile.Entry // lower-hull vertices, strictly ascending speedup
	// cheapest is the minimum-power entry of the whole table: the
	// below-table fallback (any entry over-delivers performance there).
	cheapest profile.Entry
	// satCheapest is the cheapest entry within 1% of the maximum
	// speedup: the saturation fallback above the table.
	satCheapest profile.Entry
	minS, maxS  float64
}

// NewFrontier builds the hull from entries sorted by ascending speedup
// (profile.Table.SortedBySpeedup). It replicates Optimize's fallback
// selections exactly so the two paths agree on every target.
func NewFrontier(entries []profile.Entry) (*Frontier, error) {
	if len(entries) == 0 {
		return nil, ErrEmptyTable
	}
	if !sort.SliceIsSorted(entries, func(i, j int) bool {
		return entries[i].Speedup < entries[j].Speedup
	}) {
		return nil, fmt.Errorf("core: frontier input not sorted by speedup")
	}

	f := &Frontier{
		minS: entries[0].Speedup,
		maxS: entries[len(entries)-1].Speedup,
	}

	// Fallback entries, with Optimize's exact tie-breaking (strict <
	// keeps the earliest minimum).
	f.cheapest = entries[0]
	for _, e := range entries {
		if e.PowerW < f.cheapest.PowerW {
			f.cheapest = e
		}
	}
	tol := 0.01 * f.maxS
	f.satCheapest = entries[len(entries)-1]
	for _, e := range entries {
		if e.Speedup >= f.maxS-tol && e.PowerW < f.satCheapest.PowerW {
			f.satCheapest = e
		}
	}

	// Collapse duplicate speedups to their cheapest entry: vertical
	// stacks contribute only their lowest point to the lower envelope.
	pts := make([]profile.Entry, 0, len(entries))
	for _, e := range entries {
		if n := len(pts); n > 0 && pts[n-1].Speedup == e.Speedup {
			if e.PowerW < pts[n-1].PowerW {
				pts[n-1] = e
			}
			continue
		}
		pts = append(pts, e)
	}

	// Andrew's monotone chain, lower hull only. cross ≤ 0 means the
	// middle vertex lies on or above the segment joining its neighbours,
	// so it cannot support the envelope.
	hull := make([]profile.Entry, 0, len(pts))
	for _, e := range pts {
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], e) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, e)
	}
	f.hull = hull
	return f, nil
}

// cross is the z-component of (b−a) × (c−a) in the (speedup, power)
// plane; positive when b lies strictly below the segment a→c.
func cross(a, b, c profile.Entry) float64 {
	return (b.Speedup-a.Speedup)*(c.PowerW-a.PowerW) -
		(b.PowerW-a.PowerW)*(c.Speedup-a.Speedup)
}

// Len returns the number of hull vertices.
func (f *Frontier) Len() int { return len(f.hull) }

// Optimize solves the energy LP for the target by binary-searching the
// hull for the bracketing segment. It agrees with the O(N²) Optimize on
// every target: identical fallbacks outside [minS, maxS], and the same
// optimal energy (the convex envelope) inside.
func (f *Frontier) Optimize(target float64, T time.Duration) (Allocation, error) {
	if !(target > 0) || math.IsInf(target, 0) {
		return Allocation{}, fmt.Errorf("%w: %v", ErrBadTarget, target)
	}
	if target <= f.minS {
		return singleConfig(f.cheapest, T), nil
	}
	if target >= f.maxS {
		return singleConfig(f.satCheapest, T), nil
	}

	// Largest hull index with hull[i].Speedup <= target; the segment
	// [i, i+1] brackets the target. sort.Search returns the first index
	// with Speedup > target, which is ≥ 1 (minS < target) and ≤ len−1
	// (target < maxS).
	i := sort.Search(len(f.hull), func(i int) bool {
		return f.hull[i].Speedup > target
	})
	lo, hi := f.hull[i-1], f.hull[i]

	// τ_h from the performance constraint Sᵀu = s_n·T, energy as the
	// power mix — the same arithmetic as Optimize's inner loop.
	frac := (target - lo.Speedup) / (hi.Speedup - lo.Speedup)
	energy := (lo.PowerW*(1-frac) + hi.PowerW*frac) * T.Seconds()
	tauHigh := time.Duration(float64(T) * frac)
	return Allocation{
		Low: lo, High: hi,
		TauLow:          T - tauHigh,
		TauHigh:         tauHigh,
		ExpectedPowerW:  energy / T.Seconds(),
		ExpectedSpeedup: target,
	}, nil
}
