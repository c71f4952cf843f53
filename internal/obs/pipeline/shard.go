package pipeline

import (
	"sync"

	"aspeo/internal/histogram"
	"aspeo/internal/platform"
)

// winCell is one analyzer time window of one cohort: exact integer
// counts plus quantized-exact float sums, so window merges commute.
type winCell struct {
	Cycles      uint64
	SlackCycles uint64 // cycles with a positive target (slack defined)
	StormCycles uint64
	Arrivals    uint64
	MeasuredSum float64
	TargetSum   float64
	SlackSum    float64
	PowerSum    float64
}

func (w *winCell) merge(o *winCell) {
	w.Cycles += o.Cycles
	w.SlackCycles += o.SlackCycles
	w.StormCycles += o.StormCycles
	w.Arrivals += o.Arrivals
	w.MeasuredSum += o.MeasuredSum
	w.TargetSum += o.TargetSum
	w.SlackSum += o.SlackSum
	w.PowerSum += o.PowerSum
}

// Distribution bucket bounds. GIPSBounds must match the fleet's
// aspeo_fleet_measured_gips registration so epoch snapshots load
// straight into the scrape histogram.
var (
	// SlackBounds bucket slack percent: (measured-target)/target · 100.
	SlackBounds = []float64{-100, -50, -25, -10, -5, -1, 0, 1, 5, 10, 25, 50, 100}
	// PowerBounds bucket device power in watts.
	PowerBounds = []float64{0.5, 1, 1.5, 2, 2.5, 3, 4, 5, 7.5, 10}
	// GIPSBounds bucket measured performance.
	GIPSBounds = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32}
)

// cohortAgg is one cohort's aggregate state within one shard (and, in
// merged form, across all shards). Every field either sums exactly
// (integers, quantized floats, bucket counts) or resolves by a
// deterministic max rule (lastTransition), so merging aggs in any
// grouping or order produces identical state.
type cohortAgg struct {
	cycles      uint64
	slackCycles uint64
	stormCycles uint64
	arrivals    uint64

	measuredSum  float64
	targetSum    float64
	powerSum     float64
	slackSum     float64
	stormSlack   float64 // slack sum over storm-active cycles
	stormSlackN  uint64  // slack observations under storm
	slack, pow   *histogram.Dist
	gips         *histogram.Dist
	health       platform.HealthCounts
	relinquished uint64

	// Finished-session totals (final records with a run summary).
	finals       uint64
	ctlFinals    uint64
	simS         float64
	energyJ      float64
	droppedInstr float64
	finalGIPS    float64
	absErr       float64

	// Highest-ordinal final that carried a ladder transition.
	lastTransSeq uint64
	lastTrans    string

	wins []winCell
}

func newCohortAgg() *cohortAgg {
	return &cohortAgg{
		slack: histogram.NewDist(SlackBounds),
		pow:   histogram.NewDist(PowerBounds),
		gips:  histogram.NewDist(GIPSBounds),
	}
}

// shard is one worker's half of the pipeline: the SPSC ring the worker
// pushes into and the aggregate state its records fold into. mu guards
// the aggregate state and the consumer side of the ring; the producer
// takes it only on the amortized overflow path.
type shard struct {
	mu      sync.Mutex
	ring    *ring
	cohorts []*cohortAgg // indexed by interned cohort id

	// pending stream payloads, accumulated only while subscribers
	// exist; the collector moves them into the next epoch batch.
	pendCycles   []CycleRecord
	pendFinals   []FinalRecord
	pendArrivals []arrival
}

type arrival struct {
	cohort uint32
	t      float64
}

// agg returns the shard's aggregate cell for a cohort id, growing the
// index as cohorts intern.
func (sh *shard) agg(cohort uint32) *cohortAgg {
	for int(cohort) >= len(sh.cohorts) {
		sh.cohorts = append(sh.cohorts, nil)
	}
	if sh.cohorts[cohort] == nil {
		sh.cohorts[cohort] = newCohortAgg()
	}
	return sh.cohorts[cohort]
}

// win returns the window cell for scenario time t, clamping to the
// window bound so one runaway timestamp cannot grow the slice without
// limit. The clamp happens in float, before the conversion: a huge t
// would overflow int to a negative index. NaN and non-positive times
// land in the first window.
func (a *cohortAgg) win(t, windowS float64, maxWindows int) *winCell {
	w := 0
	if t > 0 {
		w = maxWindows - 1
		if f := t / windowS; f < float64(w) {
			w = int(f)
		}
	}
	for w >= len(a.wins) {
		a.wins = append(a.wins, winCell{})
	}
	return &a.wins[w]
}

// foldCycle folds one cycle record into the shard. Callers hold sh.mu.
// All float accumulation goes through Quantize — the exactness step the
// commutativity proof rests on.
func (sh *shard) foldCycle(rec *CycleRecord, windowS float64, maxWindows int) {
	a := sh.agg(rec.Cohort)
	qm := Quantize(rec.MeasuredGIPS)
	qt := Quantize(rec.TargetGIPS)
	qp := Quantize(rec.PowerW)

	a.cycles++
	a.measuredSum += qm
	a.targetSum += qt
	a.powerSum += qp
	a.gips.Observe(qm)
	a.pow.Observe(qp)
	a.health.Add(rec.Health)

	w := a.win(rec.T, windowS, maxWindows)
	w.Cycles++
	w.MeasuredSum += qm
	w.TargetSum += qt
	w.PowerSum += qp
	if rec.Storm {
		a.stormCycles++
		w.StormCycles++
	}
	if rec.TargetGIPS > 0 {
		qs := Quantize(100 * (rec.MeasuredGIPS - rec.TargetGIPS) / rec.TargetGIPS)
		a.slackCycles++
		a.slackSum += qs
		a.slack.Observe(qs)
		w.SlackCycles++
		w.SlackSum += qs
		if rec.Storm {
			a.stormSlack += qs
			a.stormSlackN++
		}
	}
}

// foldFinal folds one terminal-session record. Callers hold sh.mu.
func (sh *shard) foldFinal(fin *FinalRecord) {
	a := sh.agg(fin.Cohort)
	if fin.Relinquished {
		a.relinquished++
	}
	a.health.Add(fin.Health)
	if fin.LastTransition != "" && fin.Session > a.lastTransSeq {
		a.lastTransSeq = fin.Session
		a.lastTrans = fin.LastTransition
	}
	if !fin.HasSummary {
		return
	}
	a.finals++
	a.simS += Quantize(fin.DurationS)
	a.energyJ += Quantize(fin.EnergyJ)
	a.droppedInstr += Quantize(fin.DroppedInstr)
	a.finalGIPS += Quantize(fin.GIPS)
	if fin.Controller {
		a.ctlFinals++
		a.absErr += Quantize(fin.MeanAbsErrGIPS)
	}
}

// foldArrival counts one session arrival. Callers hold sh.mu.
func (sh *shard) foldArrival(cohort uint32, t, windowS float64, maxWindows int) {
	a := sh.agg(cohort)
	a.arrivals++
	a.win(t, windowS, maxWindows).Arrivals++
}

// merge folds another cohort's aggregate into a. Exact in every field:
// integer adds, quantized float adds, bucket-count adds, and the
// highest-ordinal rule for the transition string.
func (a *cohortAgg) merge(o *cohortAgg) {
	a.cycles += o.cycles
	a.slackCycles += o.slackCycles
	a.stormCycles += o.stormCycles
	a.arrivals += o.arrivals
	a.measuredSum += o.measuredSum
	a.targetSum += o.targetSum
	a.powerSum += o.powerSum
	a.slackSum += o.slackSum
	a.stormSlack += o.stormSlack
	a.stormSlackN += o.stormSlackN
	if err := a.slack.Merge(o.slack); err != nil {
		panic(err) // bounds are package constants; a mismatch is a bug
	}
	if err := a.pow.Merge(o.pow); err != nil {
		panic(err)
	}
	if err := a.gips.Merge(o.gips); err != nil {
		panic(err)
	}
	a.health.Add(o.health)
	a.relinquished += o.relinquished
	a.finals += o.finals
	a.ctlFinals += o.ctlFinals
	a.simS += o.simS
	a.energyJ += o.energyJ
	a.droppedInstr += o.droppedInstr
	a.finalGIPS += o.finalGIPS
	a.absErr += o.absErr
	if o.lastTrans != "" && o.lastTransSeq > a.lastTransSeq {
		a.lastTransSeq = o.lastTransSeq
		a.lastTrans = o.lastTrans
	}
	for len(a.wins) < len(o.wins) {
		a.wins = append(a.wins, winCell{})
	}
	for i := range o.wins {
		a.wins[i].merge(&o.wins[i])
	}
}
