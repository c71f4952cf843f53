package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"aspeo/internal/experiment"
	"aspeo/internal/par"
	"aspeo/internal/workload"
)

// arrivalSalt keys the arrival master stream; far outside the
// per-session index range so the streams never collide.
const arrivalSalt = 1<<30 + 41

// Session is one compiled session: a concrete, self-contained run
// description. Every field is plain data (the workload specs are owned
// clones), so a Generated stream marshals to JSON deterministically —
// the bit-reproducibility contract is checked on these bytes.
type Session struct {
	// Index is the session's position in the arrival order.
	Index int `json:"index"`
	// ArrivalS is the session's arrival time, seconds from scenario
	// start.
	ArrivalS float64 `json:"arrival_s"`
	// Cohort names the cohort the session was drawn into.
	Cohort string `json:"cohort"`
	// Seed drives the session's whole stochastic state.
	Seed int64 `json:"seed"`
	// App is the synthesized foreground workload (owned by this
	// session; never aliased).
	App *workload.Spec `json:"app"`
	// ExtraBackground carries ambient scenario tasks (ad storms).
	ExtraBackground []*workload.Spec `json:"extra_background,omitempty"`

	// Run conditions, mirroring experiment.SessionSpec.
	Load        string  `json:"load"`
	Controller  bool    `json:"controller,omitempty"`
	CPUOnly     bool    `json:"cpu_only,omitempty"`
	Governor    string  `json:"governor,omitempty"`
	TargetGIPS  float64 `json:"target_gips,omitempty"`
	Quick       bool    `json:"quick,omitempty"`
	Faults      string  `json:"faults,omitempty"`
	RunForS     float64 `json:"run_for_s,omitempty"`
	MaxRestarts int     `json:"max_restarts,omitempty"`

	// StormPeriodS/StormBurstS carry the cohort's ad-storm phase so the
	// fleet telemetry pipeline can tag storm-active cycles without
	// reverse-engineering the background workload.
	StormPeriodS float64 `json:"storm_period_s,omitempty"`
	StormBurstS  float64 `json:"storm_burst_s,omitempty"`
}

// SessionSpec converts the compiled session into the experiment layer's
// run description.
func (g *Session) SessionSpec() experiment.SessionSpec {
	return experiment.SessionSpec{
		App:             g.App.Name,
		AppSpec:         g.App,
		ExtraBackground: g.ExtraBackground,
		Load:            g.Load,
		Governor:        g.Governor,
		Controller:      g.Controller,
		CPUOnly:         g.CPUOnly,
		TargetGIPS:      g.TargetGIPS,
		Quick:           g.Quick,
		Seed:            g.Seed,
		Faults:          g.Faults,
		RunFor:          time.Duration(g.RunForS * float64(time.Second)),
	}
}

// Generated is a compiled scenario: the concrete session stream.
type Generated struct {
	Name     string    `json:"name"`
	Seed     int64     `json:"seed"`
	Sessions []Session `json:"sessions"`
}

// Compile compiles the spec with its own seed. See CompileSeed.
func (s *Spec) Compile() (*Generated, error) { return s.CompileSeed(s.Seed) }

// CompileSeed turns the spec into its concrete session stream — a pure
// function of (spec, seed), byte-identical at any worker count. Arrival
// times are drawn first from one sequential master stream; every
// per-session decision then derives from an rng keyed by mix(seed,
// index), so the parallel synthesis stage is order-independent.
//
// Trace references must be resolved (LoadFile does; programmatic
// callers populate TraceWorkloads or call ResolveTraces).
func (s *Spec) CompileSeed(seed int64) (*Generated, error) {
	return s.compile(seed, 0)
}

// compile is CompileSeed with an explicit worker bound (the determinism
// property tests pin it; 0 means GOMAXPROCS).
func (s *Spec) compile(seed int64, workers int) (*Generated, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	for name := range s.Traces {
		if s.TraceWorkloads[name] == nil {
			return nil, fmt.Errorf("scenario %q: trace %q declared but not resolved (use LoadFile or ResolveTraces)", s.Name, name)
		}
	}

	arrivals := s.arrivalTimes(rand.New(rand.NewSource(mix(seed, arrivalSalt))))

	g := &Generated{Name: s.Name, Seed: seed, Sessions: make([]Session, s.Sessions)}
	err := par.ForEach(context.Background(), workers, s.Sessions, func(_ context.Context, i int) error {
		sess, err := s.synthSession(i, seed, arrivals[i])
		if err != nil {
			return err
		}
		g.Sessions[i] = sess
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return g, nil
}

// synthSession generates session i from its own rng stream.
func (s *Spec) synthSession(i int, seed int64, arrival float64) (Session, error) {
	rng := rand.New(rand.NewSource(mix(seed, i)))

	c := s.pickCohort(rng)
	load := "BL"
	if len(c.Loads) > 0 {
		load = pickWeighted(rng, c.Loads)
	}
	app, err := s.synthApp(c, rng)
	if err != nil {
		return Session{}, fmt.Errorf("session %d (cohort %s): %w", i, c.Name, err)
	}

	sess := Session{
		Index:       i,
		ArrivalS:    arrival,
		Cohort:      c.Name,
		Seed:        mix(seed, i) ^ 0x5e55_10, // decision stream and sim seed decoupled
		App:         app,
		Load:        strings.ToUpper(load),
		Controller:  c.Controller,
		CPUOnly:     c.CPUOnly,
		Governor:    c.Governor,
		TargetGIPS:  c.TargetGIPS,
		Quick:       c.Quick,
		Faults:      c.Faults,
		RunForS:     c.RunForS,
		MaxRestarts: c.MaxRestarts,
	}
	if !sess.Controller && sess.Governor == "" {
		sess.Governor = "interactive"
	}
	if st := c.AdStorm; st != nil {
		sess.ExtraBackground = append(sess.ExtraBackground, adStormSpec(st))
		sess.StormPeriodS = st.PeriodS
		sess.StormBurstS = st.BurstS
	}
	return sess, nil
}

// pickCohort draws a cohort by weight from the session's rng.
func (s *Spec) pickCohort(rng *rand.Rand) *Cohort {
	total := 0.0
	for i := range s.Cohorts {
		total += s.Cohorts[i].Weight
	}
	x := rng.Float64() * total
	for i := range s.Cohorts {
		x -= s.Cohorts[i].Weight
		if x < 0 {
			return &s.Cohorts[i]
		}
	}
	return &s.Cohorts[len(s.Cohorts)-1]
}
