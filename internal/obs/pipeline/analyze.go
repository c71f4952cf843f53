package pipeline

import "math"

// Saturation is the brownout analyzer's output: population-wide windows
// where measured GIPS fell below the threshold fraction of the target.
type Saturation struct {
	WindowS   float64 `json:"window_s"`
	Threshold float64 `json:"threshold"`
	// Brownouts are the detected events, in time order.
	Brownouts []Brownout `json:"brownouts,omitempty"`
	// WorstDepth is the deepest per-window deficit seen anywhere;
	// BrownoutCycles counts control cycles that ran inside brownout
	// windows.
	WorstDepth     float64 `json:"worst_depth,omitempty"`
	BrownoutCycles uint64  `json:"brownout_cycles,omitempty"`
}

// Brownout is one saturation event: a maximal run of consecutive
// brownout windows.
type Brownout struct {
	// OnsetS is the event's start in scenario seconds; WidthS its
	// duration (a whole number of windows).
	OnsetS float64 `json:"onset_s"`
	WidthS float64 `json:"width_s"`
	// Depth is the event's worst per-window deficit: 1 − measured/target
	// GIPS sums, in (0, 1].
	Depth float64 `json:"depth"`
	// Cycles counts control cycles inside the event's windows.
	Cycles uint64 `json:"cycles"`
}

// analyzeSaturation scans the merged population windows for brownouts.
// Windows without a target (no controller cycles) never brown out. The
// scan is a deterministic function of exact window sums.
func analyzeSaturation(wins []winCell, o Options) *Saturation {
	s := &Saturation{WindowS: o.WindowS, Threshold: brownoutFrac}
	var cur *Brownout
	for i := range wins {
		w := &wins[i]
		brown := w.TargetSum > 0 && w.MeasuredSum < brownoutFrac*w.TargetSum
		if !brown {
			cur = nil
			continue
		}
		depth := 1 - w.MeasuredSum/w.TargetSum
		s.BrownoutCycles += w.Cycles
		if depth > s.WorstDepth {
			s.WorstDepth = depth
		}
		if cur == nil {
			s.Brownouts = append(s.Brownouts, Brownout{OnsetS: float64(i) * o.WindowS})
			cur = &s.Brownouts[len(s.Brownouts)-1]
		}
		cur.WidthS += o.WindowS
		cur.Cycles += w.Cycles
		if depth > cur.Depth {
			cur.Depth = depth
		}
	}
	if len(s.Brownouts) == 0 {
		return nil
	}
	return s
}

// Interference is one cohort's storm-interference rollup: how the
// cohort's slack behaves while its ad-storm burst windows are active
// versus calm, and how its per-window slack correlates with concurrent
// population arrivals (bursty-arrival interference).
type Interference struct {
	Cohort string `json:"cohort"`
	// StormCycles/CalmCycles split the cohort's slack-bearing cycles by
	// storm activity.
	StormCycles uint64 `json:"storm_cycles"`
	CalmCycles  uint64 `json:"calm_cycles"`
	// Mean slack% in each regime, and the collapse (calm − storm): a
	// positive collapse means the storm costs the cohort slack.
	StormMeanSlackPct float64 `json:"storm_mean_slack_pct"`
	CalmMeanSlackPct  float64 `json:"calm_mean_slack_pct"`
	SlackCollapsePct  float64 `json:"slack_collapse_pct"`
	// ArrivalSlackCorr is the Pearson correlation between the
	// population's per-window arrival counts and this cohort's
	// per-window mean slack, over windows where the cohort has slack
	// observations (0 when degenerate).
	ArrivalSlackCorr float64 `json:"arrival_slack_corr"`
}

// analyzeInterference emits one rollup per cohort with slack
// observations, in sorted cohort order. popWins supplies the
// population-wide arrival series.
func analyzeInterference(aggs []namedAgg, popWins []winCell) []Interference {
	var out []Interference
	for _, na := range aggs {
		a := na.a
		if a.slackCycles == 0 {
			continue
		}
		inf := Interference{
			Cohort:      na.name,
			StormCycles: a.stormSlackN,
			CalmCycles:  a.slackCycles - a.stormSlackN,
		}
		if a.stormSlackN > 0 {
			inf.StormMeanSlackPct = a.stormSlack / float64(a.stormSlackN)
		}
		if inf.CalmCycles > 0 {
			inf.CalmMeanSlackPct = (a.slackSum - a.stormSlack) / float64(inf.CalmCycles)
		}
		if a.stormSlackN > 0 && inf.CalmCycles > 0 {
			inf.SlackCollapsePct = inf.CalmMeanSlackPct - inf.StormMeanSlackPct
		}
		inf.ArrivalSlackCorr = arrivalSlackCorr(a.wins, popWins)
		out = append(out, inf)
	}
	return out
}

// arrivalSlackCorr computes the Pearson correlation between population
// arrivals per window and the cohort's mean slack per window, over the
// cohort's slack-bearing windows. Inputs are exact sums, iteration
// order is fixed, so the result is deterministic (not exact — it
// involves divisions and a square root — but identical at any worker
// count).
func arrivalSlackCorr(cohortWins, popWins []winCell) float64 {
	var n float64
	var sumX, sumY, sumXX, sumYY, sumXY float64
	for i := range cohortWins {
		w := &cohortWins[i]
		if w.SlackCycles == 0 {
			continue
		}
		var x float64
		if i < len(popWins) {
			x = float64(popWins[i].Arrivals)
		}
		y := w.SlackSum / float64(w.SlackCycles)
		n++
		sumX += x
		sumY += y
		sumXX += x * x
		sumYY += y * y
		sumXY += x * y
	}
	if n < 2 {
		return 0
	}
	cov := sumXY - sumX*sumY/n
	varX := sumXX - sumX*sumX/n
	varY := sumYY - sumY*sumY/n
	if varX <= 0 || varY <= 0 {
		return 0
	}
	return cov / math.Sqrt(varX*varY)
}
