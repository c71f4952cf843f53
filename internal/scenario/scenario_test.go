package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"aspeo/internal/workload"
)

// richSpec exercises every generation feature at once: bursty arrivals
// under a load curve, chains, perturbation, storms, trace imports,
// controller and governor cohorts.
func richSpec() *Spec {
	return &Spec{
		Name:     "rich",
		Seed:     42,
		Sessions: 48,
		HorizonS: 900,
		Arrival:  Arrival{Process: ProcessBursty, BurstFactor: 3, MeanBurstS: 30, MeanCalmS: 90},
		LoadCurve: []CurveTerm{
			{PeriodS: 900, Amplitude: 0.4, Phase: 0.75},
			{PeriodS: 300, Amplitude: 0.2},
		},
		Cohorts: []Cohort{
			{
				Name: "gamers", Weight: 0.5,
				Apps:    []string{"angrybirds", "spotify"},
				Chain:   &Chain{Length: 3, DwellS: 15, DwellJitter: 0.3},
				Loads:   map[string]float64{"BL": 0.7, "HL": 0.3},
				RunForS: 30,
				Perturb: &Perturb{DemandSigma: 0.2, DurationSigma: 0.1},
				AdStorm: &AdStorm{PeriodS: 20, BurstS: 2, GIPS: 0.3, NetBps: 1e6, AuxW: 0.2},
			},
			{
				Name: "replayers", Weight: 0.3,
				Apps:    []string{"trace:short"},
				RunForS: 20,
			},
			{
				Name: "readers", Weight: 0.2,
				Apps: []string{"ebook"}, Governor: "powersave", RunForS: 25,
			},
		},
		Traces:         map[string]string{"short": "unused.json"},
		TraceWorkloads: map[string]*workload.Spec{"short": syntheticTraceWorkload()},
	}
}

// syntheticTraceWorkload stands in for a resolved trace import.
func syntheticTraceWorkload() *workload.Spec {
	w, err := ImportTrace("short", syntheticTracePoints())
	if err != nil {
		panic(err)
	}
	return w
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestCompileDeterministicAcrossWorkers is the package's central
// contract: the compiled stream is byte-identical at any worker count.
func TestCompileDeterministicAcrossWorkers(t *testing.T) {
	s := richSpec()
	var ref []byte
	for _, workers := range []int{1, 4, 16} {
		g, err := s.compile(s.Seed, workers)
		if err != nil {
			t.Fatalf("compile(workers=%d): %v", workers, err)
		}
		b := marshal(t, g)
		if ref == nil {
			ref = b
			continue
		}
		if !bytes.Equal(ref, b) {
			t.Fatalf("stream differs between 1 and %d workers", workers)
		}
	}
}

// TestCompileRepeatable: same spec, same seed, same bytes — across
// independent Spec values too (no hidden state in the spec).
func TestCompileRepeatable(t *testing.T) {
	g1, err := richSpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := richSpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, g1), marshal(t, g2)) {
		t.Fatal("two compilations of the same spec differ")
	}
}

// TestCompileSeedSensitivity: a different seed must produce a different
// stream (arrival times and synthesis draws).
func TestCompileSeedSensitivity(t *testing.T) {
	s := richSpec()
	g1, err := s.CompileSeed(42)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := s.CompileSeed(43)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(marshal(t, g1.Sessions), marshal(t, g2.Sessions)) {
		t.Fatal("seeds 42 and 43 produced identical streams")
	}
}

// TestCompiledSessionsRunnable: every generated session must pass the
// experiment layer's validation — the compiler must never emit a spec
// the fleet would reject.
func TestCompiledSessionsRunnable(t *testing.T) {
	g, err := richSpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Sessions) != 48 {
		t.Fatalf("got %d sessions, want 48", len(g.Sessions))
	}
	for i := range g.Sessions {
		sess := &g.Sessions[i]
		if err := sess.SessionSpec().Validate(); err != nil {
			t.Errorf("session %d (%s): %v", i, sess.App.Name, err)
		}
		if sess.ArrivalS < 0 || sess.ArrivalS > 900 {
			t.Errorf("session %d: arrival %v outside horizon", i, sess.ArrivalS)
		}
		if i > 0 && sess.ArrivalS < g.Sessions[i-1].ArrivalS {
			t.Errorf("session %d: arrivals not sorted", i)
		}
	}
}

// TestCompiledSpecsUnaliased: generated workloads must not alias the
// library specs — mutating one session's spec must not leak anywhere.
func TestCompiledSpecsUnaliased(t *testing.T) {
	g, err := richSpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	lib, _ := workload.ByName("ebook")
	before := lib.Phases[0].DemandGIPS
	for i := range g.Sessions {
		for j := range g.Sessions[i].App.Phases {
			g.Sessions[i].App.Phases[j].DemandGIPS *= 7
		}
	}
	if lib.Phases[0].DemandGIPS != before {
		t.Fatal("generated session aliases the library spec")
	}
	// Two sessions of the same cohort must not share phase storage.
	g2, err := richSpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*workload.Phase]bool{}
	for i := range g2.Sessions {
		p := &g2.Sessions[i].App.Phases[0]
		if seen[p] {
			t.Fatal("two sessions share phase storage")
		}
		seen[p] = true
	}
}

// TestFixedArrivalsFollowCurve: the fixed process must place more
// arrivals where the curve is high.
func TestFixedArrivalsFollowCurve(t *testing.T) {
	s := &Spec{
		Name: "curve", Seed: 1, Sessions: 1000, HorizonS: 1000,
		// Phase 0.25 turns the sine into a cosine: factor 1.5 at t=0
		// falling to 0.5 at t=1000, so the first half holds the mass.
		LoadCurve: []CurveTerm{{PeriodS: 2000, Amplitude: 0.5, Phase: 0.25}},
		Cohorts:   []Cohort{{Name: "c", Weight: 1, Apps: []string{"spotify"}}},
	}
	g, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	first := 0
	for i := range g.Sessions {
		if g.Sessions[i].ArrivalS < 500 {
			first++
		}
	}
	if first <= 550 {
		t.Fatalf("first half-horizon got %d/1000 arrivals; want well above 500 (curve peak)", first)
	}
}

// TestValidateFieldPaths: malformed specs must fail with the offending
// field path.
func TestValidateFieldPaths(t *testing.T) {
	cases := []struct {
		mutate  func(*Spec)
		wantSub string
	}{
		{func(s *Spec) { s.Sessions = 0 }, "sessions"},
		{func(s *Spec) { s.Arrival.Process = "lumpy" }, "arrival.process"},
		{func(s *Spec) {
			s.Arrival = Arrival{Process: ProcessBursty, BurstFactor: 0.5, MeanBurstS: 1, MeanCalmS: 1}
		}, "arrival.burst_factor"},
		{func(s *Spec) { s.LoadCurve = []CurveTerm{{PeriodS: -1, Amplitude: 0.1}} }, "load_curve[0].period_s"},
		{func(s *Spec) { s.LoadCurve = []CurveTerm{{PeriodS: 10, Amplitude: 0.6}, {PeriodS: 10, Amplitude: 0.6}} }, "load_curve"},
		{func(s *Spec) { s.Cohorts = nil }, "cohorts"},
		{func(s *Spec) { s.Cohorts[1].Apps = []string{"trace:missing"} }, `cohorts[1].apps[0]`},
		{func(s *Spec) { s.Cohorts[0].Apps[1] = "doom" }, "cohorts[0].apps[1]"},
		{func(s *Spec) { s.Cohorts[0].Weight = -1 }, "cohorts[0].weight"},
		{func(s *Spec) { s.Cohorts[0].Chain.Length = 1 }, "cohorts[0].chain.length"},
		{func(s *Spec) { s.Cohorts[0].Loads = map[string]float64{"XX": 1} }, "cohorts[0].loads"},
		{func(s *Spec) { s.Cohorts[2].Governor = "warp" }, "cohorts[2].governor"},
		{func(s *Spec) { s.Cohorts[2].CPUOnly = true }, "cohorts[2].cpu_only"},
		{func(s *Spec) { s.Cohorts[0].Faults = "gremlins" }, "cohorts[0].faults"},
		{func(s *Spec) { s.Cohorts[0].AdStorm.BurstS = -1 }, "cohorts[0].ad_storm.burst_s"},
		{func(s *Spec) { s.Cohorts[0].Perturb.DemandSigma = 9 }, "cohorts[0].perturb.demand_sigma"},
		{func(s *Spec) { s.Cohorts[0].RunForS = -5 }, "cohorts[0].run_for_s"},
	}
	for i, tc := range cases {
		s := richSpec()
		tc.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("case %d: invalid spec validated", i)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("case %d: error %q does not name %q", i, err, tc.wantSub)
		}
	}
}

// TestParseStrict: unknown fields and type mismatches fail with paths.
func TestParseStrict(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","seed":1,"sessions":4,"cohortz":[]}`)); err == nil || !strings.Contains(err.Error(), "cohortz") {
		t.Errorf("unknown field: got %v", err)
	}
	if _, err := Parse([]byte(`{"name":"x","seed":1,"sessions":"many"}`)); err == nil || !strings.Contains(err.Error(), "sessions") {
		t.Errorf("type mismatch: got %v", err)
	}
	// The removed engine selector is unknown, reported at its path.
	if _, err := Parse([]byte(`{"name":"x","sessions":2,"cohorts":[{"name":"c","weight":1,"apps":["spotify"],"engine":"fixed"}]}`)); err == nil || !strings.Contains(err.Error(), "cohorts[0].engine") {
		t.Errorf("engine field: got %v", err)
	}
	if _, err := Parse([]byte(`{"name":"x","sessions":1,"cohorts":[{"name":"c","weight":1,"apps":["spotify"]}]}{}`)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing content: got %v", err)
	}
	ok := `{"name":"x","sessions":2,"cohorts":[{"name":"c","weight":1,"apps":["spotify"]}]}`
	s, err := Parse([]byte(ok))
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if s.horizon() != DefaultHorizonS {
		t.Errorf("default horizon: got %v", s.horizon())
	}
}

// TestChainProfileIdxs: the chain's profiling ladder is the
// intersection of its constituents', falling back to the union.
func TestChainProfileIdxs(t *testing.T) {
	a := &workload.Spec{ProfileFreqIdxs: []int{2, 3, 4, 5}}
	b := &workload.Spec{ProfileFreqIdxs: []int{4, 5, 6}}
	got := chainFreqIdxs([]*workload.Spec{a, b})
	if len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("intersection: got %v, want [4 5]", got)
	}
	c := &workload.Spec{ProfileFreqIdxs: []int{0, 1}}
	got = chainFreqIdxs([]*workload.Spec{a, c})
	if len(got) != 6 {
		t.Fatalf("union fallback: got %v, want the 6-element union", got)
	}
}

// TestAdStormSpecValid: the synthesized storm passes workload
// validation and is marked background.
func TestAdStormSpecValid(t *testing.T) {
	st := adStormSpec(&AdStorm{PeriodS: 30, BurstS: 3, GIPS: 0.5, NetBps: 1e6, AuxW: 0.3})
	if err := st.Validate(); err != nil {
		t.Fatalf("storm spec invalid: %v", err)
	}
	if !st.Background || !st.Loop {
		t.Fatal("storm must be a looping background spec")
	}
}

// TestSummarize: counts add up and the arrival curve has full mass.
func TestSummarize(t *testing.T) {
	s := richSpec()
	g, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sum := s.Summarize(g)
	for _, rows := range [][]CountRow{sum.Cohorts, sum.Apps, sum.Loads} {
		n := 0
		for _, r := range rows {
			n += r.Count
		}
		if n != len(g.Sessions) {
			t.Errorf("count rows sum to %d, want %d", n, len(g.Sessions))
		}
	}
	arr := 0
	for _, p := range sum.ArrivalCurve {
		arr += p.Arrivals
	}
	if arr != len(g.Sessions) {
		t.Errorf("arrival curve holds %d sessions, want %d", arr, len(g.Sessions))
	}
}

// TestCompileRejectsUnresolvedTraces: declared but unresolved traces
// are a compile-time error, not a mid-generation surprise.
func TestCompileRejectsUnresolvedTraces(t *testing.T) {
	s := richSpec()
	s.TraceWorkloads = nil
	if _, err := s.Compile(); err == nil || !strings.Contains(err.Error(), "not resolved") {
		t.Fatalf("got %v, want unresolved-trace error", err)
	}
}

// TestChainDurations: a chain session's RunFor equals the sum of its
// phase durations (every synthesized phase is duration-bounded).
func TestChainDurations(t *testing.T) {
	s := richSpec()
	g, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Sessions {
		app := g.Sessions[i].App
		if !strings.HasPrefix(app.Name, "chain:") {
			continue
		}
		var total time.Duration
		for _, p := range app.Phases {
			if p.Duration <= 0 {
				t.Fatalf("session %d: chain phase %q has no duration bound", i, p.Name)
			}
			total += p.Duration
		}
		if total != app.RunFor {
			t.Fatalf("session %d: phases sum to %v, RunFor %v", i, total, app.RunFor)
		}
	}
}
