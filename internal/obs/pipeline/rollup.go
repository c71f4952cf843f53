package pipeline

import (
	"sort"

	"aspeo/internal/histogram"
	"aspeo/internal/platform"
)

// DistSnapshot is a histogram.Dist's complete serializable state: the
// bucket bounds, raw per-bucket counts (+Inf overflow last) and the
// value sum. Quantized accumulation makes it exact, so snapshots of
// merged shards are byte-identical at any worker count.
type DistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
}

func snapshotDist(d *histogram.Dist) DistSnapshot {
	return DistSnapshot{Bounds: d.Bounds(), Counts: d.Counts(), Sum: d.Sum()}
}

// Dist reconstructs the snapshot as a histogram.Dist (for quantile
// queries on a scraped or deserialized snapshot).
func (s DistSnapshot) Dist() *histogram.Dist {
	d := histogram.NewDist(s.Bounds)
	if err := d.SetCounts(s.Counts, s.Sum); err != nil {
		panic(err) // a snapshot is self-consistent by construction
	}
	return d
}

// Total returns the snapshot's observation count.
func (s DistSnapshot) Total() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Mean returns the snapshot's mean value (0 when empty).
func (s DistSnapshot) Mean() float64 {
	n := s.Total()
	if n == 0 {
		return 0
	}
	return s.Sum / float64(n)
}

// HealthTotals is the fleet-wide ladder ledger: exact integer sums of
// per-record deltas across every session and attempt (cumulative across
// restart attempts — a richer ledger than the pre-pipeline rollup,
// which only saw each session's final attempt).
type HealthTotals struct {
	platform.HealthCounts
	// Relinquished counts sessions whose final attempt handed the
	// device back.
	Relinquished uint64 `json:"relinquished"`
	// LastTransition is the ladder transition reported by the
	// highest-ordinal finished session that fired one — a deterministic
	// stand-in for "most recent across the fleet".
	LastTransition string `json:"last_transition,omitempty"`
}

// Totals are the finished-session aggregates (final records that
// carried a run summary).
type Totals struct {
	Finished           uint64  `json:"finished"`
	ControllerFinished uint64  `json:"controller_finished"`
	SimSeconds         float64 `json:"sim_seconds"`
	EnergyJ            float64 `json:"energy_j"`
	DroppedInstr       float64 `json:"dropped_instr"`
	// MeanGIPS averages finished sessions' whole-run GIPS;
	// MeanAbsErrGIPS averages finished controller sessions' tracking
	// error.
	MeanGIPS       float64 `json:"mean_gips"`
	MeanAbsErrGIPS float64 `json:"mean_abs_err_gips"`
}

// CohortStats is one cohort's population aggregate.
type CohortStats struct {
	Name string `json:"name"`
	// Sessions counts arrivals observed; Finished counts final records
	// with a run summary; Cycles counts control cycles folded.
	Sessions uint64 `json:"sessions"`
	Finished uint64 `json:"finished"`
	Cycles   uint64 `json:"cycles"`
	// Per-cycle population means.
	MeanGIPS   float64 `json:"mean_gips"`
	MeanPowerW float64 `json:"mean_power_w"`
	// Slack statistics cover cycles with a positive target (controller
	// sessions): slack% = 100·(measured−target)/target.
	MeanSlackPct float64 `json:"mean_slack_pct"`
	P50SlackPct  float64 `json:"p50_slack_pct"`
	P95SlackPct  float64 `json:"p95_slack_pct"`
	// Population distributions.
	Slack DistSnapshot `json:"slack_pct"`
	Power DistSnapshot `json:"power_w"`
	GIPS  DistSnapshot `json:"measured_gips"`
}

// Rollup is one epoch snapshot: the merged, analyzed population
// aggregate the scrape paths serve from. Every field is a deterministic
// function of the records folded — no wall-clock, no worker-count
// dependence — so two fleets running the same sessions produce
// byte-identical rollup JSON regardless of parallelism.
type Rollup struct {
	Epoch    uint64  `json:"epoch"`
	WindowS  float64 `json:"window_s"`
	Cycles   uint64  `json:"cycles"`
	Sessions uint64  `json:"sessions"`

	Totals Totals       `json:"totals"`
	Health HealthTotals `json:"health"`

	// Fleet-wide population distributions (all cohorts merged).
	Slack DistSnapshot `json:"slack_pct"`
	Power DistSnapshot `json:"power_w"`
	GIPS  DistSnapshot `json:"measured_gips"`

	// Cohorts are sorted by name.
	Cohorts []CohortStats `json:"cohorts,omitempty"`

	Saturation   *Saturation    `json:"saturation,omitempty"`
	Interference []Interference `json:"interference,omitempty"`
}

// Cohort returns the named cohort's stats, or nil.
func (r *Rollup) Cohort(name string) *CohortStats {
	for i := range r.Cohorts {
		if r.Cohorts[i].Name == name {
			return &r.Cohorts[i]
		}
	}
	return nil
}

// assemble builds the epoch snapshot from merged per-cohort aggregates.
// Iteration is in sorted cohort-name order everywhere, so assembly is
// deterministic.
func (p *Pipeline) assemble(epoch uint64, merged []*cohortAgg) *Rollup {
	names := p.cohortNames()
	r := &Rollup{Epoch: epoch, WindowS: p.opts.WindowS}

	var aggs []namedAgg
	for id, a := range merged {
		if a == nil || id >= len(names) {
			continue
		}
		aggs = append(aggs, namedAgg{names[id], a})
	}
	sort.Slice(aggs, func(i, j int) bool { return aggs[i].name < aggs[j].name })

	pop := newCohortAgg()
	for _, na := range aggs {
		a := na.a
		pop.merge(a)
		cs := CohortStats{
			Name:     na.name,
			Sessions: a.arrivals,
			Finished: a.finals,
			Cycles:   a.cycles,
			Slack:    snapshotDist(a.slack),
			Power:    snapshotDist(a.pow),
			GIPS:     snapshotDist(a.gips),
		}
		if a.cycles > 0 {
			cs.MeanGIPS = a.measuredSum / float64(a.cycles)
			cs.MeanPowerW = a.powerSum / float64(a.cycles)
		}
		if a.slackCycles > 0 {
			cs.MeanSlackPct = a.slackSum / float64(a.slackCycles)
			cs.P50SlackPct = a.slack.Quantile(0.50)
			cs.P95SlackPct = a.slack.Quantile(0.95)
		}
		r.Cohorts = append(r.Cohorts, cs)
	}

	r.Cycles = pop.cycles
	r.Sessions = pop.arrivals
	r.Slack = snapshotDist(pop.slack)
	r.Power = snapshotDist(pop.pow)
	r.GIPS = snapshotDist(pop.gips)
	r.Totals = Totals{
		Finished:           pop.finals,
		ControllerFinished: pop.ctlFinals,
		SimSeconds:         pop.simS,
		EnergyJ:            pop.energyJ,
		DroppedInstr:       pop.droppedInstr,
	}
	if pop.finals > 0 {
		r.Totals.MeanGIPS = pop.finalGIPS / float64(pop.finals)
	}
	if pop.ctlFinals > 0 {
		r.Totals.MeanAbsErrGIPS = pop.absErr / float64(pop.ctlFinals)
	}
	r.Health = HealthTotals{
		HealthCounts:   pop.health,
		Relinquished:   pop.relinquished,
		LastTransition: pop.lastTrans,
	}

	r.Saturation = analyzeSaturation(pop.wins, p.opts)
	r.Interference = analyzeInterference(aggs, pop.wins)
	return r
}

// namedAgg pairs a cohort's merged aggregate with its name for the
// assembly and analyzer passes.
type namedAgg struct {
	name string
	a    *cohortAgg
}
