// Package fpacc fast-forwards sequential floating-point accumulation.
//
// The simulator's bit-exactness contract forbids replacing a per-step
// accumulation loop (`for i := 0; i < k; i++ { a += c }`) with the
// closed form `a + c*k`: IEEE-754 addition is not associative, and every
// golden test in the repo pins the sequentially-rounded result. What the
// contract does allow is computing the *same sequentially-rounded
// result* faster. AddK does exactly that.
//
// The key observation: within one binade [2^e, 2^(e+1)) every double is
// a multiple of the binade's ulp u, and the rounded increment
// fl(a+c) − a depends only on c's sub-ulp remainder and (for round-to-
// nearest-even ties) the parity of the landing mantissa — not on a
// itself. Two consecutive equal increments therefore prove a constant-
// increment regime that holds until the accumulator approaches the top
// of the binade, and the whole regime telescopes exactly:
// a + inc·j is computed without rounding error because every quantity is
// a multiple of u and stays below 2^(e+1). The loop collapses to one
// probe-and-jump per binade — logarithmic in k — while returning the
// bit-identical sequential result.
//
// The simulation engine (internal/sim) uses AddK to integrate monitor
// energy, PMU counters and task progress over variable-length quiescent
// intervals in closed form; its tests keep the literal per-step loop as
// the reference and compare the two byte for byte.
package fpacc

import "math"

// AddK returns the bit-identical result of
//
//	for i := 0; i < k; i++ { a += c }
//
// in time logarithmic in k for the regime the simulator uses
// (non-negative accumulator, positive finite increment). Outside that
// regime it degrades gracefully: zero/NaN/Inf increments absorb in one
// add, the negative regime is handled by sign symmetry, and anything
// else falls back to the literal loop.
func AddK(a, c float64, k int) float64 {
	if k <= 0 {
		return a
	}
	if c == 0 || math.IsNaN(c) || math.IsNaN(a) || math.IsInf(c, 0) || math.IsInf(a, 0) {
		// One add is idempotent for all of these: -0+0 = +0 then stable,
		// NaN and ±Inf are absorbing.
		return a + c
	}
	if c > 0 && a >= 0 {
		return addKPos(a, c, k)
	}
	if c < 0 && a <= 0 {
		// Round-to-nearest-even is symmetric under negation.
		return -addKPos(-a, -c, k)
	}
	// Mixed signs (accumulator decaying through zero): not a regime the
	// simulator produces; run the literal loop.
	for i := 0; i < k; i++ {
		a += c
	}
	return a
}

// addKPos is AddK for a >= 0, 0 < c < +Inf.
func addKPos(a, c float64, k int) float64 {
	for k > 0 {
		// Probe two real steps. Each probe IS a step of the sequential
		// loop, so committing it is always correct.
		a1 := a + c
		if a1 == a {
			return a // absorbed: every further add is a no-op
		}
		k--
		if k == 0 {
			return a1
		}
		a2 := a1 + c
		if a2 == a1 {
			return a1
		}
		k--
		if k == 0 || math.IsInf(a2, 0) {
			return a2 // +Inf absorbs all further adds
		}
		// inc2 is exact by Sterbenz (a1 >= c > 0 implies a2 <= 2·a1).
		inc2 := a2 - a1
		if sameBinade(a1, a2) && a1-a == inc2 {
			// Two equal increments with both evidence steps on the jump
			// range's grid: constant regime. (inc1 = a1-a may be inexact
			// when a is many binades below c; the binade check rejects
			// exactly those cases.)
			a = a2
			k = jump(&a, c, inc2, k)
			continue
		}
		// Increment changed (or evidence straddled a binade boundary):
		// probe once more. A round-to-even tie takes at most one
		// odd-parity step before the landing parity chain stabilizes, so
		// inc3 == inc2 re-establishes a constant regime from a2 on.
		a3 := a2 + c
		if a3 == a2 {
			return a2
		}
		k--
		if k == 0 || math.IsInf(a3, 0) {
			return a3
		}
		inc3 := a3 - a2
		a = a3
		if sameBinade(a2, a3) && inc3 == inc2 {
			k = jump(&a, c, inc3, k)
		}
		// Otherwise: a binade boundary inside the probe window; the
		// outer loop re-probes from a3 (three steps of progress made).
	}
	return a
}

// jump advances *pa by up to k constant increments of inc, staying a
// safe margin below the top of *pa's binade so that every skipped
// addition provably rounds to the same increment, and returns the steps
// remaining. All quantities in the jumped range are multiples of the
// binade ulp and stay below the binade top, so a + inc·j is exact.
func jump(pa *float64, c, inc float64, k int) int {
	a := *pa
	_, exp := math.Frexp(a)
	top := math.Ldexp(1, exp)
	// Margin: results <= top − 3c − 4·inc keep every skipped addition's
	// real sum strictly inside the binade even after the float rounding
	// of the margin arithmetic itself (inc >= ulp covers the slack).
	lim := top - 4*(c+inc)
	if !(lim > a) {
		return k
	}
	q := (lim - a) / inc
	var j int
	if q >= float64(k) {
		j = k
	} else {
		j = int(q)
	}
	for j > 0 && a+inc*float64(j) > lim {
		j--
	}
	if j <= 0 {
		return k
	}
	*pa = a + inc*float64(j)
	return k - j
}

// sameBinade reports whether x and y share a floating-point exponent —
// i.e. lie on the same ulp grid. (For subnormals the grid is uniform,
// so equal Frexp exponents remain a sufficient condition.)
func sameBinade(x, y float64) bool {
	_, ex := math.Frexp(x)
	_, ey := math.Frexp(y)
	return ex == ey
}
