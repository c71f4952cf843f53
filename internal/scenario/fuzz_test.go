package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"aspeo/internal/experiment"
	"aspeo/internal/trace"
)

// FuzzScenarioSpec fuzzes the spec parser and, when a fuzzed spec
// parses, the compiler behind it: whatever bytes arrive, Parse must
// fail cleanly or return a spec whose compilation produces only
// sessions the experiment layer accepts.
func FuzzScenarioSpec(f *testing.F) {
	f.Add([]byte(`{"name":"x","seed":1,"sessions":4,"cohorts":[{"name":"c","weight":1,"apps":["spotify"]}]}`))
	f.Add([]byte(`{"name":"b","sessions":8,"horizon_s":120,
		"arrival":{"process":"bursty","burst_factor":2.5,"mean_burst_s":10,"mean_calm_s":30},
		"load_curve":[{"period_s":120,"amplitude":0.3,"phase":0.5}],
		"cohorts":[{"name":"g","weight":2,"apps":["angrybirds","spotify"],
		 "chain":{"length":2,"dwell_s":5,"dwell_jitter":0.2},
		 "loads":{"BL":1,"HL":1},"run_for_s":10,
		 "perturb":{"demand_sigma":0.3},
		 "ad_storm":{"period_s":20,"burst_s":2,"gips":0.4}}]}`))
	f.Add([]byte(`{"sessions":-1}`))
	f.Add([]byte(`{"name":"x","sessions":2,"cohorts":[{"name":"c","weight":1,"apps":["nope"]}]}`))
	f.Add([]byte(`{"name":"x","sessions":2,"traces":{"t":"p.json"},"cohorts":[{"name":"c","weight":1,"apps":["trace:t"]}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"name":"x","sessions":1e99}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		// Parse accepted it: the spec must survive a JSON round-trip and
		// compile into valid sessions. Bound the work: fuzzing cares
		// about crashes, not 1M-session populations.
		if b, err := json.Marshal(s); err != nil {
			t.Fatalf("parsed spec does not re-marshal: %v", err)
		} else if s2, err := Parse(b); err != nil {
			t.Fatalf("parsed spec does not re-parse: %v (json %s)", err, b)
		} else if s2.Name != s.Name || s2.Sessions != s.Sessions {
			t.Fatalf("round-trip changed the spec")
		}
		if s.Sessions > 32 {
			s.Sessions = 32
		}
		g, err := s.Compile()
		if err != nil {
			// Compile may still reject (e.g. unresolved traces); it must
			// do so with an error, not a panic.
			return
		}
		for i := range g.Sessions {
			if err := g.Sessions[i].SessionSpec().Validate(); err != nil {
				t.Fatalf("compiled session %d invalid: %v", i, err)
			}
		}
	})
}

// FuzzImportTrace fuzzes the last decoder of outside bytes on the
// scenario path — a trace file named by a spec — and the import behind
// it: whatever bytes arrive, trace.ReadJSON then ImportTrace must return
// an error or a workload that validates, never panic or exhaust memory.
func FuzzImportTrace(f *testing.F) {
	sess, err := experiment.NewSession(experiment.SessionSpec{
		App: "spotify", Load: "BL", Governor: "interactive",
		Seed: 7, RunFor: 3 * time.Second, TraceEvery: 250 * time.Millisecond,
	})
	if err != nil {
		f.Fatal(err)
	}
	sess.Run(nil)
	var recorded bytes.Buffer
	if err := sess.Harness.Phone.Recorder().WriteJSON(&recorded); err != nil {
		f.Fatal(err)
	}
	f.Add(recorded.Bytes())
	f.Add([]byte(`[{"t":0,"gips":1},{"t":4611686018427387904,"gips":1}]`))
	f.Add([]byte(`[{"t":0,"gips":1,"cum_instr":-1e308},{"t":2000000000,"gips":1,"cum_instr":1e308}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		pts, err := trace.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		w, err := ImportTrace("fuzz", pts)
		if err != nil {
			return
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("imported workload invalid: %v", err)
		}
		for _, p := range w.Phases {
			if math.IsInf(p.DemandGIPS, 0) {
				t.Fatalf("phase %s: infinite demand", p.Name)
			}
		}
	})
}
