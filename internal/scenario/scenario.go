// Package scenario is the generative workload layer: a declarative
// scenario DSL (JSON specs or the programmatic builder — the Spec
// struct itself) that composes arrival processes, diurnal load curves,
// user cohorts, app-switch chains, ad-burst storms, parameter
// perturbations and imported traces over the existing workload models,
// and compiles them into seeded, deterministic experiment.SessionSpec
// streams.
//
// The paper evaluates 6 hand-calibrated apps under 3 fixed background
// loads; realistic Android usage is bursty, diurnal and
// cohort-structured (Hoque et al., in-situ Android measurement), and
// app behaviour varies widely with tunable parameters within one app
// (Xu et al., app parameter energy profiling). This package opens that
// scenario-diversity axis: one spec describes a whole population —
// "60% gamers switching between AngryBirds and Spotify under evening
// surge traffic, 40% readers on perturbed eBook sessions" — and the
// compiler turns it into concrete sessions the fleet runtime executes.
//
// # Determinism contract
//
// Compile(seed) is a pure function of the spec: the same spec and seed
// produce the byte-identical session stream at any worker count.
// Arrival times are drawn sequentially from one master stream (they
// are inherently ordered); everything per-session — cohort membership,
// chain composition, dwells, perturbations, storm phases, simulation
// seeds — derives from a per-index rng keyed by mix(seed, index), so
// parallel synthesis is order-independent. Two different seeds produce
// different streams (property-tested).
//
// # Spec schema (JSON)
//
// All durations in the JSON schema are seconds (floats); see DESIGN.md
// §16 for the full schema and defaults. Specs are decoded strictly:
// unknown fields and type mismatches are load-time errors carrying the
// offending field path, never silent defaults.
package scenario

import (
	"time"

	"aspeo/internal/workload"
)

// Defaults applied by Parse/ApplyDefaults for zero-valued knobs.
const (
	// DefaultHorizonS is the arrival window when horizon_s is 0: one
	// hour of population arrival.
	DefaultHorizonS = 3600.0
	// DefaultChainLength is the number of app segments when a chain is
	// requested without a length.
	DefaultChainLength = 2
	// DefaultDwellS is the mean per-app dwell when a chain is requested
	// without one: half a minute of foreground attention, the scale of
	// the short interactive sessions in-situ studies report.
	DefaultDwellS = 30.0
)

// Spec is one declarative scenario: a population of sessions described
// by cohorts, shaped in time by an arrival process and load curve.
type Spec struct {
	// Name labels the scenario in summaries and emitted streams.
	Name string `json:"name"`
	// Seed drives the whole generation. Same seed, same stream.
	Seed int64 `json:"seed"`
	// Sessions is the population size to generate.
	Sessions int `json:"sessions"`
	// HorizonS is the arrival window in seconds (default 3600): the
	// base arrival rate is Sessions/HorizonS, modulated by the curve.
	HorizonS float64 `json:"horizon_s,omitempty"`
	// Arrival selects the arrival process (default fixed).
	Arrival Arrival `json:"arrival,omitempty"`
	// LoadCurve modulates the arrival intensity over time: a sum of
	// sinusoidal terms (diurnal cycle, lunch-break ripple, ...).
	LoadCurve []CurveTerm `json:"load_curve,omitempty"`
	// Cohorts partition the population; each session joins one cohort
	// by weighted draw.
	Cohorts []Cohort `json:"cohorts"`
	// Assertions are checked against the fleet's final telemetry rollup
	// after the population lands (aspeo-fleet -oneshot, aspeo-run
	// -scenario); any failure is reported with its field path and the
	// process exits non-zero.
	Assertions []Assertion `json:"assertions,omitempty"`
	// Traces names recorded aspeo-run -record traces to import as
	// first-class workloads: map of workload name to trace JSON path
	// (relative paths resolve against the spec file's directory).
	// Cohort app lists reference them as "trace:<name>".
	Traces map[string]string `json:"traces,omitempty"`

	// TraceWorkloads holds the imported trace workloads after
	// ResolveTraces (or direct population by programmatic builders).
	// Not part of the JSON schema.
	TraceWorkloads map[string]*workload.Spec `json:"-"`
}

// Arrival selects and parameterizes the arrival process.
type Arrival struct {
	// Process is "fixed" (default: deterministic spacing that follows
	// the load curve exactly), "poisson" (inhomogeneous Poisson via
	// thinning against the curve), or "bursty" (poisson modulated by a
	// two-state burst/calm process — an MMPP).
	Process string `json:"process,omitempty"`
	// BurstFactor multiplies the arrival rate while the burst state is
	// active (bursty only; must be > 1).
	BurstFactor float64 `json:"burst_factor,omitempty"`
	// MeanBurstS and MeanCalmS are the exponential mean dwells of the
	// burst and calm states in seconds (bursty only).
	MeanBurstS float64 `json:"mean_burst_s,omitempty"`
	MeanCalmS  float64 `json:"mean_calm_s,omitempty"`
}

// Arrival process names.
const (
	ProcessFixed   = "fixed"
	ProcessPoisson = "poisson"
	ProcessBursty  = "bursty"
)

// CurveTerm is one sinusoidal component of the load curve. The curve's
// value at time t is
//
//	factor(t) = 1 + Σ_j Amplitude_j · sin(2π·(t/PeriodS_j + Phase_j))
//
// clamped below at a small positive floor. Validation bounds the
// amplitude sum so the factor stays positive: a diurnal cycle is one
// term with PeriodS = 86400.
type CurveTerm struct {
	// PeriodS is the term's period in seconds.
	PeriodS float64 `json:"period_s"`
	// Amplitude in [-1, 1]; the sum of |Amplitude| over terms must stay
	// ≤ 0.95.
	Amplitude float64 `json:"amplitude"`
	// Phase is the term's phase offset as a fraction of the period.
	Phase float64 `json:"phase,omitempty"`
}

// Cohort describes one population segment: which apps its members run,
// under which conditions, and how their parameters vary.
type Cohort struct {
	// Name labels the cohort in summaries and generated sessions.
	Name string `json:"name"`
	// Weight is the cohort's share of the population (relative).
	Weight float64 `json:"weight"`
	// Apps is the cohort's app pool: library workload names
	// (workload.Names) or "trace:<name>" references into Traces. A
	// single-app pool without a chain runs that app; otherwise sessions
	// synthesize app-switch chains over the pool.
	Apps []string `json:"apps"`
	// Chain switches between pool apps within one session; nil with a
	// multi-app pool uses the defaults (DefaultChainLength segments of
	// DefaultDwellS mean dwell).
	Chain *Chain `json:"chain,omitempty"`
	// Loads weights the background conditions (keys NL/BL/HL); default
	// is all-BL.
	Loads map[string]float64 `json:"loads,omitempty"`
	// Controller runs cohort sessions under the energy controller;
	// otherwise Governor (default interactive) applies.
	Controller bool   `json:"controller,omitempty"`
	CPUOnly    bool   `json:"cpu_only,omitempty"`
	Governor   string `json:"governor,omitempty"`
	// TargetGIPS overrides the controller's performance target for every
	// cohort session (controller cohorts only; 0 keeps the profiled
	// default). A target past what the device can deliver is how a spec
	// provokes saturation for the brownout analyzer.
	TargetGIPS float64 `json:"target_gips,omitempty"`
	// Quick selects reduced-fidelity on-the-fly profiling for
	// controller sessions (recommended for generated workloads, which
	// have no stored profile tables).
	Quick bool `json:"quick,omitempty"`
	// Faults names a fault scenario injected into every cohort session.
	Faults string `json:"faults,omitempty"`
	// RunForS caps each session at a fixed simulated duration; 0 keeps
	// the workload's standard session semantics.
	RunForS float64 `json:"run_for_s,omitempty"`
	// MaxRestarts is the fleet restart budget per session.
	MaxRestarts int `json:"max_restarts,omitempty"`
	// Perturb varies app parameters per session (Xu et al.: the same
	// app spans a wide energy range across its tunable parameters).
	Perturb *Perturb `json:"perturb,omitempty"`
	// AdStorm adds an ambient ad-burst background task to every cohort
	// session: periodic radio-lighting demand bursts.
	AdStorm *AdStorm `json:"ad_storm,omitempty"`
}

// Chain parameterizes app-switch synthesis.
type Chain struct {
	// Length is the number of app segments per session (≥ 2; default
	// DefaultChainLength).
	Length int `json:"length,omitempty"`
	// DwellS is the mean dwell per segment in seconds (default
	// DefaultDwellS).
	DwellS float64 `json:"dwell_s,omitempty"`
	// DwellJitter is the σ of a mean-one lognormal multiplier on each
	// segment's dwell.
	DwellJitter float64 `json:"dwell_jitter,omitempty"`
	// SelfLoop permits consecutive segments of the same app.
	SelfLoop bool `json:"self_loop,omitempty"`
}

// Perturb scales workload parameters per session with mean-one
// lognormal multipliers — every generated session is the same app,
// slightly different: heavier frames, longer pages, denser ads.
type Perturb struct {
	// DemandSigma perturbs paced DemandGIPS and batch InstrBudget.
	DemandSigma float64 `json:"demand_sigma,omitempty"`
	// DurationSigma perturbs phase durations.
	DurationSigma float64 `json:"duration_sigma,omitempty"`
}

// AdStorm describes the ambient ad-burst background task.
type AdStorm struct {
	// PeriodS is the burst cycle length in seconds (> BurstS).
	PeriodS float64 `json:"period_s"`
	// BurstS is the burst duration within each cycle.
	BurstS float64 `json:"burst_s"`
	// GIPS is the burst's paced demand.
	GIPS float64 `json:"gips"`
	// NetBps is network traffic during bursts.
	NetBps float64 `json:"net_bps,omitempty"`
	// AuxW is constant radio/render power during bursts.
	AuxW float64 `json:"aux_w,omitempty"`
}

// horizon returns the arrival window with the default applied.
func (s *Spec) horizon() float64 {
	if s.HorizonS > 0 {
		return s.HorizonS
	}
	return DefaultHorizonS
}

// mix derives a per-index 63-bit seed from the scenario seed — a
// splitmix64-style finalizer, so neighbouring indices land in unrelated
// stream positions and per-session generation is order-independent.
func mix(seed int64, index int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & (1<<63 - 1))
}

// nominalDuration estimates how long one pass of a phase takes — the
// chain synthesizer's budget accounting. Paced and windowed batch
// phases state it; an unwindowed batch is estimated at a 0.5 GIPS
// reference rate (only segment lengths depend on this, never results).
func nominalDuration(p workload.Phase) time.Duration {
	if p.Duration > 0 {
		return p.Duration
	}
	return time.Duration(p.InstrBudget / 0.5e9 * float64(time.Second))
}
