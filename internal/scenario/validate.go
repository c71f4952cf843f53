package scenario

import (
	"fmt"
	"math"
	"strings"

	"aspeo/internal/experiment"
	"aspeo/internal/governor"
	"aspeo/internal/workload"
)

// maxSessions bounds one scenario's population. Larger campaigns
// compose scenarios (or page through seeds); an accidental extra zero
// should fail the spec load, not OOM the compiler.
const maxSessions = 1 << 20

// Chain synthesis bounds: segments per session and mean dwell per
// segment (one day). Past these a "chain" is a data-entry mistake, and
// the synthesized phase list would grow without bound.
const (
	maxChainLength = 256
	maxDwellS      = 86400
)

// Validate checks the whole spec and returns the first problem found,
// named by its field path ("cohorts[2].apps[0]: unknown app ..."), so
// hand-edited specs fail loudly at load time — the flag-validation
// discipline applied to declarative input.
func (s *Spec) Validate() error {
	if s.Sessions < 1 {
		return fmt.Errorf("sessions: %d, want >= 1", s.Sessions)
	}
	if s.Sessions > maxSessions {
		return fmt.Errorf("sessions: %d exceeds the %d bound", s.Sessions, maxSessions)
	}
	if s.HorizonS < 0 || !finite(s.HorizonS) {
		return fmt.Errorf("horizon_s: %v, want >= 0 and finite", s.HorizonS)
	}
	if err := s.Arrival.validate(); err != nil {
		return fmt.Errorf("arrival.%w", err)
	}
	var ampSum float64
	for i, ct := range s.LoadCurve {
		if ct.PeriodS <= 0 || !finite(ct.PeriodS) {
			return fmt.Errorf("load_curve[%d].period_s: %v, want > 0", i, ct.PeriodS)
		}
		if math.Abs(ct.Amplitude) > 1 || !finite(ct.Amplitude) {
			return fmt.Errorf("load_curve[%d].amplitude: %v, want in [-1, 1]", i, ct.Amplitude)
		}
		if ct.Phase < 0 || ct.Phase >= 1 || !finite(ct.Phase) {
			return fmt.Errorf("load_curve[%d].phase: %v, want in [0, 1)", i, ct.Phase)
		}
		ampSum += math.Abs(ct.Amplitude)
	}
	if ampSum > 0.95 {
		return fmt.Errorf("load_curve: |amplitude| sum %.3f > 0.95 (the curve must stay positive)", ampSum)
	}
	for name := range s.Traces {
		if name == "" {
			return fmt.Errorf("traces: empty workload name")
		}
	}
	if len(s.Cohorts) == 0 {
		return fmt.Errorf("cohorts: none defined")
	}
	var weightSum float64
	for i, c := range s.Cohorts {
		if err := s.validateCohort(&c); err != nil {
			return fmt.Errorf("cohorts[%d].%w", i, err)
		}
		weightSum += c.Weight
	}
	if weightSum <= 0 {
		return fmt.Errorf("cohorts: total weight %v, want > 0", weightSum)
	}
	for i, a := range s.Assertions {
		if err := a.validate(s); err != nil {
			return fmt.Errorf("assertions[%d].%w", i, err)
		}
	}
	return nil
}

func (a Arrival) validate() error {
	switch a.Process {
	case "", ProcessFixed, ProcessPoisson:
		if a.BurstFactor != 0 || a.MeanBurstS != 0 || a.MeanCalmS != 0 {
			return fmt.Errorf("process: burst parameters set but process is %q, want %q", a.Process, ProcessBursty)
		}
	case ProcessBursty:
		if !(a.BurstFactor > 1) || !finite(a.BurstFactor) {
			return fmt.Errorf("burst_factor: %v, want > 1", a.BurstFactor)
		}
		if a.MeanBurstS <= 0 || !finite(a.MeanBurstS) {
			return fmt.Errorf("mean_burst_s: %v, want > 0", a.MeanBurstS)
		}
		if a.MeanCalmS <= 0 || !finite(a.MeanCalmS) {
			return fmt.Errorf("mean_calm_s: %v, want > 0", a.MeanCalmS)
		}
	default:
		return fmt.Errorf("process: unknown process %q (want %s, %s or %s)",
			a.Process, ProcessFixed, ProcessPoisson, ProcessBursty)
	}
	return nil
}

func (s *Spec) validateCohort(c *Cohort) error {
	if c.Name == "" {
		return fmt.Errorf("name: empty")
	}
	if !(c.Weight > 0) || !finite(c.Weight) {
		return fmt.Errorf("weight: %v, want > 0", c.Weight)
	}
	if len(c.Apps) == 0 {
		return fmt.Errorf("apps: none listed")
	}
	for j, app := range c.Apps {
		if tn, ok := strings.CutPrefix(app, "trace:"); ok {
			if _, inFiles := s.Traces[tn]; !inFiles {
				if _, inMem := s.TraceWorkloads[tn]; !inMem {
					return fmt.Errorf("apps[%d]: trace workload %q not declared in traces", j, tn)
				}
			}
			continue
		}
		if _, err := workload.ByName(app); err != nil {
			return fmt.Errorf("apps[%d]: %w", j, err)
		}
	}
	if ch := c.Chain; ch != nil {
		if ch.Length < 0 || ch.Length == 1 || ch.Length > maxChainLength {
			return fmt.Errorf("chain.length: %d, want 0 (default) or in [2, %d]", ch.Length, maxChainLength)
		}
		if ch.DwellS < 0 || ch.DwellS > maxDwellS || !finite(ch.DwellS) {
			return fmt.Errorf("chain.dwell_s: %v, want in [0, %v]", ch.DwellS, float64(maxDwellS))
		}
		if ch.DwellJitter < 0 || ch.DwellJitter > 2 || !finite(ch.DwellJitter) {
			return fmt.Errorf("chain.dwell_jitter: %v, want in [0, 2]", ch.DwellJitter)
		}
	}
	var loadSum float64
	for name, w := range c.Loads {
		if _, err := workload.ParseBGLoad(name); err != nil {
			return fmt.Errorf("loads: %w", err)
		}
		if !(w > 0) || !finite(w) {
			return fmt.Errorf("loads[%s]: weight %v, want > 0", name, w)
		}
		loadSum += w
	}
	if len(c.Loads) > 0 && loadSum <= 0 {
		return fmt.Errorf("loads: total weight %v, want > 0", loadSum)
	}
	if !c.Controller && c.Governor != "" {
		ok := false
		for _, g := range governor.CPUFreqPolicies() {
			if c.Governor == g {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("governor: unknown governor %q (want one of: %s)",
				c.Governor, strings.Join(governor.CPUFreqPolicies(), ", "))
		}
	}
	if c.Controller && c.Governor != "" {
		return fmt.Errorf("governor: %q set on a controller cohort", c.Governor)
	}
	if c.TargetGIPS < 0 || !finite(c.TargetGIPS) {
		return fmt.Errorf("target_gips: %v, want >= 0 and finite", c.TargetGIPS)
	}
	if c.TargetGIPS > 0 && !c.Controller {
		return fmt.Errorf("target_gips: %v set on a non-controller cohort", c.TargetGIPS)
	}
	if c.Faults != "" {
		if _, err := experiment.FaultScenarioByName(c.Faults); err != nil {
			return fmt.Errorf("faults: %w", err)
		}
	}
	if c.RunForS < 0 || !finite(c.RunForS) {
		return fmt.Errorf("run_for_s: %v, want >= 0", c.RunForS)
	}
	if c.MaxRestarts < 0 {
		return fmt.Errorf("max_restarts: %d, want >= 0", c.MaxRestarts)
	}
	if p := c.Perturb; p != nil {
		if p.DemandSigma < 0 || p.DemandSigma > 1.5 || !finite(p.DemandSigma) {
			return fmt.Errorf("perturb.demand_sigma: %v, want in [0, 1.5]", p.DemandSigma)
		}
		if p.DurationSigma < 0 || p.DurationSigma > 1.5 || !finite(p.DurationSigma) {
			return fmt.Errorf("perturb.duration_sigma: %v, want in [0, 1.5]", p.DurationSigma)
		}
	}
	if st := c.AdStorm; st != nil {
		if st.BurstS <= 0 || !finite(st.BurstS) {
			return fmt.Errorf("ad_storm.burst_s: %v, want > 0", st.BurstS)
		}
		if st.PeriodS <= st.BurstS || !finite(st.PeriodS) {
			return fmt.Errorf("ad_storm.period_s: %v, want > burst_s (%v)", st.PeriodS, st.BurstS)
		}
		if !(st.GIPS > 0) || !finite(st.GIPS) {
			return fmt.Errorf("ad_storm.gips: %v, want > 0", st.GIPS)
		}
		if st.NetBps < 0 || st.AuxW < 0 || !finite(st.NetBps) || !finite(st.AuxW) {
			return fmt.Errorf("ad_storm: negative traffic or power")
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
