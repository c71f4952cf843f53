// Package pipeline is the fleet-scale telemetry pipeline: per-worker
// SPSC ring buffers on the session hot path, per-worker rollup shards
// with a provably commutative/associative merge, epoch snapshots for
// scrape paths, and population analyzers (saturation brownouts,
// storm-interference correlation) over the batched record stream.
//
// # Why rings and shards
//
// The fleet's previous telemetry path took a per-session mutex on every
// control cycle and walked every session lock on every rollup — the
// measurement path distorting the system being measured, exactly the
// failure mode the in-situ Android measurement literature warns about.
// Here the hot path is one lock-free push of a fixed-size record into
// the worker's own single-producer/single-consumer ring; a collector
// drains rings in batches into per-worker shards, and scrape paths read
// merged epoch snapshots. Sessions are never locked by observers.
//
// # Determinism contract
//
// A merged rollup is byte-identical at any worker count, ring capacity
// or drain schedule. Integer aggregates (counts, health deltas) commute
// trivially; float aggregates commute because every observed scalar is
// quantized to the dyadic grid 2^-17 before accumulation (Quantize), so
// every partial sum is exactly representable in float64 as long as its
// magnitude stays under 2^36 ≈ 6.9e10 — far beyond any fleet's sums —
// making float addition exact and therefore order- and
// partition-independent. The property tests in this package hold the
// merge to that claim.
//
// When a producer's ring fills, the producer folds its own ring into
// its own shard (the amortized backpressure path) and retries the push:
// records are never dropped, which the byte-identity contract requires.
package pipeline

import (
	"math"

	"aspeo/internal/platform"
)

// qBits is the quantization grid: observations are rounded to multiples
// of 2^-17 ≈ 7.6e-6 before accumulation. Fine enough that rollup means
// and distributions are unaffected at reporting precision, coarse
// enough that sums of fleet magnitude stay exactly representable.
const qBits = 17

// qMax bounds quantized magnitudes at 2^36: partial sums of values on
// the 2^-17 grid stay exact up to 2^53-ulp territory only while the sum
// itself is below 2^36. One pathological observation must not void the
// whole rollup's exactness, so values beyond the bound clamp to it.
const qMax = 1 << 36

// Quantize rounds v to the dyadic grid 2^-17, clamping to ±2^36 and
// mapping non-finite values to 0 (degenerate telemetry must not poison
// an aggregate). Sums of quantized values are exact — the foundation of
// the merge's commutativity/associativity.
func Quantize(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	if v > qMax {
		return qMax
	}
	if v < -qMax {
		return -qMax
	}
	return math.Ldexp(math.Round(math.Ldexp(v, qBits)), -qBits)
}

// CycleRecord is the compact fixed-size record one control cycle
// appends to its worker's ring: no pointers, no strings, no slices —
// a ring slot is one flat copy.
type CycleRecord struct {
	// Session is the session's fleet ordinal (unique per process).
	Session uint64
	// Cohort is the interned cohort id (Pipeline.CohortID).
	Cohort uint32
	// Storm marks cycles that ran while the session's ad-storm burst
	// window was active (precomputed by the producer from the session's
	// storm phase — the consumer never needs per-session config).
	Storm bool
	// T is scenario time in seconds: the session's arrival offset plus
	// the cycle's session-local clock. Window analyzers bucket on it.
	T float64
	// MeasuredGIPS, TargetGIPS and PowerW are the cycle's raw
	// telemetry; quantization happens at fold time.
	MeasuredGIPS float64
	TargetGIPS   float64
	PowerW       float64
	// Health is the ladder counters' change since the previous cycle of
	// this attempt. Changes sum exactly (integers), so shard merges
	// reproduce the sum of last-seen ledgers however records were
	// partitioned.
	Health platform.HealthCounts
}

// FinalRecord is a session's terminal record. Finals bypass the ring —
// they are rare (once per session) and fold under the shard lock before
// the session's done channel closes, so a rollup taken after a session
// lands always includes it. Bypassing the ring is also what lets finals
// carry a string.
type FinalRecord struct {
	// Session is the session's fleet ordinal.
	Session uint64
	// Cohort is the interned cohort id.
	Cohort uint32
	// HasSummary distinguishes sessions that produced a run summary
	// from ones that died in construction; only the former contribute
	// to the finished-session aggregates.
	HasSummary bool
	// Controller marks controller-mode sessions (the MeanAbsErrGIPS
	// denominator).
	Controller bool
	// Finished-session aggregates, raw (quantized at fold time).
	DurationS      float64
	EnergyJ        float64
	DroppedInstr   float64
	GIPS           float64
	MeanAbsErrGIPS float64
	// Health is the residual change of the ladder counters since the
	// last cycle record of each attempt (for governor sessions: the
	// whole ledger).
	Health platform.HealthCounts
	// Relinquished marks sessions whose final attempt handed the device
	// back to the stock governors.
	Relinquished bool
	// LastTransition is the final attempt's last ladder transition
	// ("degraded@41"); the merged rollup keeps the one from the highest
	// session ordinal — a deterministic stand-in for "most recent".
	LastTransition string
}
