package workload

import (
	"math"
	"strings"
	"testing"
	"time"

	"aspeo/internal/perfmodel"
	"aspeo/internal/soc"
)

var n6 = soc.Nexus6()

func TestAllSpecsValidate(t *testing.T) {
	for _, name := range Names() {
		spec, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestEvaluatedOrderMatchesTableIII(t *testing.T) {
	got := Evaluated()
	want := []string{NameVidCon, NameMobileBench, NameAngryBirds, NameWeChat, NameMXPlayer, NameSpotify}
	if len(got) != len(want) {
		t.Fatalf("Evaluated returned %d specs", len(got))
	}
	for i, s := range got {
		if s.Name != want[i] {
			t.Errorf("Evaluated[%d] = %s, want %s", i, s.Name, want[i])
		}
	}
}

func TestPaperBaseSpeedAnchors(t *testing.T) {
	// Paper §III-B3: at (300 MHz, 762 MBps) AngryBirds runs 0.129 GIPS,
	// VidCon 0.471 GIPS.
	cases := []struct {
		spec *Spec
		want float64
		tol  float64
	}{
		{AngryBirds(), 0.129, 0.015},
		{VidCon(), 0.471, 0.05},
	}
	for _, c := range cases {
		tr := c.spec.Phases[0].Traits
		got := tr.CapacityAt(n6, n6.MinConfig()) / 1e9
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%s base speed = %.4f GIPS, want %.3f ± %.3f",
				c.spec.Name, got, c.want, c.tol)
		}
	}
}

func TestAngryBirdsSpeedupAnchor(t *testing.T) {
	// Paper Table I row 31: speedup 1.837 at (0.8832 GHz, 762 MBps).
	tr := AngryBirds().Phases[0].Traits
	base := tr.CapacityAt(n6, soc.Config{FreqIdx: 0, BWIdx: 0})
	f5 := tr.CapacityAt(n6, soc.Config{FreqIdx: 4, BWIdx: 0})
	if got := f5 / base; math.Abs(got-1.837) > 0.15 {
		t.Errorf("AngryBirds speedup at (f5,bw1) = %.3f, want 1.837 ± 0.15", got)
	}
}

func TestAngryBirdsSaturatesBeyondFreq5(t *testing.T) {
	// Paper §V-A: AngryBirds GIPS does not improve beyond frequency 5
	// (at low bandwidth) while power keeps rising.
	tr := AngryBirds().Phases[0].Traits
	c5 := tr.CapacityAt(n6, soc.Config{FreqIdx: 4, BWIdx: 0})
	c10 := tr.CapacityAt(n6, soc.Config{FreqIdx: 9, BWIdx: 0})
	if gain := c10/c5 - 1; gain > 0.10 {
		t.Errorf("AngryBirds gained %.1f%% from f5→f10 at bw1; paper says <5%%", 100*gain)
	}
}

func TestProfileRestrictionsMatchPaper(t *testing.T) {
	cases := []struct {
		spec    *Spec
		firstF1 int // 1-based first allowed frequency
		lastF1  int
	}{
		{VidCon(), 7, 17},      // 7–18 alternate → 7,9,...,17
		{MobileBench(), 7, 17}, // same restriction
		{AngryBirds(), 1, 9},
		{WeChat(), 3, 17},
		{MXPlayer(), 5, 17},
		{Spotify(), 1, 5},
	}
	for _, c := range cases {
		idxs := c.spec.ProfileFreqIdxs
		if len(idxs) == 0 {
			t.Fatalf("%s: no profile freqs", c.spec.Name)
		}
		if got := idxs[0] + 1; got != c.firstF1 {
			t.Errorf("%s first profiled freq = %d, want %d", c.spec.Name, got, c.firstF1)
		}
		if got := idxs[len(idxs)-1] + 1; got != c.lastF1 {
			t.Errorf("%s last profiled freq = %d, want %d", c.spec.Name, got, c.lastF1)
		}
		if len(idxs) > 9 {
			t.Errorf("%s profiles %d freqs; paper caps at 9", c.spec.Name, len(idxs))
		}
		for i := 1; i < len(idxs); i++ {
			if idxs[i] != idxs[i-1]+2 {
				t.Errorf("%s profile freqs not alternate: %v", c.spec.Name, idxs)
			}
		}
	}
}

func TestDeadlineCriticalFlags(t *testing.T) {
	want := map[string]bool{
		NameVidCon: true, NameMobileBench: true, NameMXPlayer: true,
		NameAngryBirds: false, NameWeChat: false, NameSpotify: false,
	}
	for _, s := range Evaluated() {
		if s.DeadlineCritical != want[s.Name] {
			t.Errorf("%s DeadlineCritical = %v", s.Name, s.DeadlineCritical)
		}
	}
}

func TestRunLengthsMatchPaper(t *testing.T) {
	if got := AngryBirds().RunFor; got != 200*time.Second {
		t.Errorf("AngryBirds RunFor = %v, want 200s", got)
	}
	if got := WeChat().RunFor; got != 100*time.Second {
		t.Errorf("WeChat RunFor = %v, want 100s", got)
	}
	if got := MXPlayer().RunFor; got != 137*time.Second {
		t.Errorf("MXPlayer RunFor = %v, want 137s", got)
	}
	if got := Spotify().RunFor; got != 100*time.Second {
		t.Errorf("Spotify RunFor = %v, want 100s", got)
	}
}

func TestBatchTaskLifecycle(t *testing.T) {
	spec := &Spec{
		Name: "batch1",
		Phases: []Phase{{
			Name: "work", Kind: Batch,
			Traits:      perfmodel.Traits{CPI: 1, BPI: 0.1, Par: 1},
			InstrBudget: 1000,
		}},
		RunFor: time.Minute,
	}
	task := NewTask(spec, 1)
	d := task.Demand(time.Millisecond)
	if d.WantedInstr != 1000 {
		t.Fatalf("initial batch demand = %v", d.WantedInstr)
	}
	task.Advance(600, time.Millisecond)
	if task.Done() {
		t.Fatal("task done too early")
	}
	if d := task.Demand(time.Millisecond); d.WantedInstr != 400 {
		t.Fatalf("remaining = %v, want 400", d.WantedInstr)
	}
	task.Advance(400, time.Millisecond)
	if !task.Done() {
		t.Fatal("task should be done")
	}
	if got := task.TotalExecuted(); got != 1000 {
		t.Fatalf("TotalExecuted = %v", got)
	}
	// A done task demands nothing and generates no touches.
	if d := task.Demand(time.Millisecond); d.WantedInstr != 0 {
		t.Fatalf("done task demand = %v", d.WantedInstr)
	}
	if task.Touches(time.Second) != 0 {
		t.Fatal("done task should not touch")
	}
}

func TestLoopCountStopsLoops(t *testing.T) {
	spec := &Spec{
		Name: "loops",
		Phases: []Phase{{
			Name: "work", Kind: Batch,
			Traits:      perfmodel.Traits{CPI: 1, BPI: 0.1, Par: 1},
			InstrBudget: 100,
		}},
		Loop: true, LoopCount: 3, RunFor: time.Minute,
	}
	task := NewTask(spec, 1)
	for i := 0; i < 3; i++ {
		if task.Done() {
			t.Fatalf("done after %d loops, want 3", i)
		}
		task.Advance(100, time.Millisecond)
	}
	if !task.Done() {
		t.Fatal("task should stop after LoopCount iterations")
	}
}

func TestPacedDemandAveragesToTarget(t *testing.T) {
	spec := &Spec{
		Name: "paced",
		Phases: []Phase{{
			Name: "p", Kind: Paced,
			Traits:   perfmodel.Traits{CPI: 1, BPI: 0.1, Par: 1},
			Duration: time.Hour, DemandGIPS: 0.5, DemandJitter: 1.0,
		}},
		Loop: true, RunFor: time.Hour,
	}
	task := NewTask(spec, 42)
	dt := time.Millisecond
	total := 0.0
	steps := 120000 // 120 s
	for i := 0; i < steps; i++ {
		d := task.Demand(dt)
		// Execute everything wanted: no backlog accumulates.
		task.Advance(d.WantedInstr, dt)
		total += d.WantedInstr
	}
	gotGIPS := total / (float64(steps) * dt.Seconds()) / 1e9
	if math.Abs(gotGIPS-0.5) > 0.05 {
		t.Fatalf("average demand = %.3f GIPS, want 0.5 (lognormal jitter must be mean-one)", gotGIPS)
	}
}

func TestBacklogCarriesUnmetDemand(t *testing.T) {
	spec := &Spec{
		Name: "paced",
		Phases: []Phase{{
			Name: "p", Kind: Paced,
			Traits:   perfmodel.Traits{CPI: 1, BPI: 0.1, Par: 1},
			Duration: time.Hour, DemandGIPS: 1.0,
		}},
		Loop: true, RunFor: time.Hour,
	}
	task := NewTask(spec, 1)
	dt := 100 * time.Millisecond
	d1 := task.Demand(dt)
	task.Advance(0, dt) // starved
	d2 := task.Demand(dt)
	if d2.WantedInstr <= d1.WantedInstr {
		t.Fatalf("backlog not carried: %v then %v", d1.WantedInstr, d2.WantedInstr)
	}
}

func TestBacklogCapDropsWork(t *testing.T) {
	spec := &Spec{
		Name: "paced",
		Phases: []Phase{{
			Name: "p", Kind: Paced,
			Traits:   perfmodel.Traits{CPI: 1, BPI: 0.1, Par: 1},
			Duration: time.Hour, DemandGIPS: 1.0,
		}},
		Loop: true, RunFor: time.Hour,
	}
	task := NewTask(spec, 1)
	dt := 100 * time.Millisecond
	for i := 0; i < 100; i++ { // starve for 10 s
		task.Demand(dt)
		task.Advance(0, dt)
	}
	if task.DroppedInstr() == 0 {
		t.Fatal("long starvation must drop work (frames)")
	}
	// Backlog itself stays bounded at backlogCap seconds of demand.
	d := task.Demand(dt)
	maxWant := 1.0e9*dt.Seconds() + 1.0e9*defaultBacklogSec + 1
	if d.WantedInstr > maxWant {
		t.Fatalf("backlog unbounded: wants %v > %v", d.WantedInstr, maxWant)
	}
}

func TestPhaseTransitions(t *testing.T) {
	spec := AngryBirds()
	task := NewTask(spec, 7)
	if task.Phase().Name != "gameplay" {
		t.Fatalf("initial phase = %s", task.Phase().Name)
	}
	// Run past the 28 s gameplay phase.
	dt := 100 * time.Millisecond
	for i := 0; i < 285; i++ {
		d := task.Demand(dt)
		task.Advance(d.WantedInstr, dt)
	}
	if task.Phase().Name != "advertisement" {
		t.Fatalf("after 28.5s phase = %s, want advertisement", task.Phase().Name)
	}
}

func TestTouchesPoisson(t *testing.T) {
	spec := AngryBirds() // 1.5 touches/s in gameplay
	task := NewTask(spec, 99)
	total := 0
	for i := 0; i < 20000; i++ { // 20 s at 1 ms
		total += task.Touches(time.Millisecond)
	}
	// Expect ~30 touches over 20 s.
	if total < 10 || total > 60 {
		t.Fatalf("touches over 20s = %d, want ≈30", total)
	}
}

func TestBGLoadParsingAndProperties(t *testing.T) {
	for _, c := range []struct {
		s    string
		want BGLoad
	}{{"NL", NoLoad}, {"bl", BaselineLoad}, {"HL", HeavierLoad}} {
		got, err := ParseBGLoad(c.s)
		if err != nil || got != c.want {
			t.Errorf("ParseBGLoad(%q) = %v, %v", c.s, got, err)
		}
	}
	if _, err := ParseBGLoad("xx"); err == nil {
		t.Fatal("expected parse error")
	}
	if NoLoad.FreeMemMB() != 1000 || BaselineLoad.FreeMemMB() != 500 || HeavierLoad.FreeMemMB() != 134 {
		t.Fatal("free memory figures drifted from §V-C")
	}
	if HeavierLoad.BPIPressure() <= BaselineLoad.BPIPressure() {
		t.Fatal("HL must apply memory pressure")
	}
}

func TestBackgroundComposition(t *testing.T) {
	if got := Background(NoLoad, NameAngryBirds); len(got) != 0 {
		t.Fatalf("NL background = %d tasks", len(got))
	}
	bl := Background(BaselineLoad, NameAngryBirds)
	if len(bl) != 2 {
		t.Fatalf("BL background = %d tasks, want 2 (spotify + email)", len(bl))
	}
	hl := Background(HeavierLoad, NameAngryBirds)
	if len(hl) <= len(bl) {
		t.Fatalf("HL (%d tasks) must exceed BL (%d)", len(hl), len(bl))
	}
	for _, s := range hl {
		if !s.Background {
			t.Errorf("%s not marked background", s.Name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestSpotifyForegroundDeduplicated(t *testing.T) {
	for _, s := range Background(BaselineLoad, NameSpotify) {
		if s.Name == "bg-spotify" {
			t.Fatal("foreground Spotify must not also run in background")
		}
	}
}

func TestPhaseValidation(t *testing.T) {
	bad := []Phase{
		{Name: "p", Kind: Paced, Traits: perfmodel.Traits{CPI: 1, Par: 1}, Duration: time.Second}, // no demand
		{Name: "p", Kind: Paced, Traits: perfmodel.Traits{CPI: 1, Par: 1}, DemandGIPS: 1},         // no duration
		{Name: "b", Kind: Batch, Traits: perfmodel.Traits{CPI: 1, Par: 1}},                        // no budget
		{Name: "k", Kind: Kind(9), Traits: perfmodel.Traits{CPI: 1, Par: 1}},                      // bad kind
		{Name: "n", Kind: Batch, Traits: perfmodel.Traits{CPI: 1, Par: 1}, InstrBudget: 1, NetBps: -1},
		{Name: "t", Kind: Batch, Traits: perfmodel.Traits{CPI: 1, Par: 1}, InstrBudget: 1, TouchRate: 1e6},
		{Name: "t", Kind: Batch, Traits: perfmodel.Traits{CPI: 1, Par: 1}, InstrBudget: 1, TouchRate: math.NaN()},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected error for %+v", i, p)
		}
	}
}

// TestTouchRateBound: TouchRate is capped at MaxTouchRate, one event per
// 1 ms step on average, and the error names the phase.
func TestTouchRateBound(t *testing.T) {
	p := Phase{Name: "tap-storm", Kind: Batch, Traits: perfmodel.Traits{CPI: 1, Par: 1}, InstrBudget: 1, TouchRate: MaxTouchRate}
	if err := p.Validate(); err != nil {
		t.Fatalf("TouchRate at the bound rejected: %v", err)
	}
	p.TouchRate = 1e6
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), `"tap-storm"`) {
		t.Fatalf("TouchRate 1e6: err = %v, want an error naming the phase", err)
	}
}

func TestSpecValidation(t *testing.T) {
	ok := AngryBirds()
	ok.Name = ""
	if err := ok.Validate(); err == nil {
		t.Fatal("empty name should fail")
	}
	s := AngryBirds()
	s.Phases = nil
	if err := s.Validate(); err == nil {
		t.Fatal("no phases should fail")
	}
	s = AngryBirds()
	s.RunFor = 0
	if err := s.Validate(); err == nil {
		t.Fatal("zero RunFor should fail")
	}
	s = AngryBirds()
	s.ProfileFreqIdxs = []int{55}
	if err := s.Validate(); err == nil {
		t.Fatal("out-of-range profile index should fail")
	}
}

func TestDeterminismBySeed(t *testing.T) {
	run := func(seed int64) float64 {
		task := NewTask(Spotify(), seed)
		total := 0.0
		for i := 0; i < 5000; i++ {
			d := task.Demand(time.Millisecond)
			task.Advance(d.WantedInstr, time.Millisecond)
			total += d.WantedInstr
		}
		return total
	}
	if run(5) != run(5) {
		t.Fatal("same seed must reproduce the same trace")
	}
	if run(5) == run(6) {
		t.Fatal("different seeds should differ")
	}
}

func TestVidConTotalBudget(t *testing.T) {
	v := VidCon()
	perLoop := v.TotalBatchInstr()
	total := perLoop * float64(v.LoopCount)
	// Default-governor conversion takes ~59 s at ~3.3 GIPS ≈ 190e9.
	if total < 150e9 || total > 250e9 {
		t.Fatalf("VidCon total budget = %.0fe9, want ≈190e9", total/1e9)
	}
}

func TestExtraWorkloadsValidate(t *testing.T) {
	for _, s := range Extras() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if len(s.ProfileFreqIdxs) == 0 || len(s.ProfileFreqIdxs) > 9 {
			t.Errorf("%s profiles %d freqs, outside the paper's budget", s.Name, len(s.ProfileFreqIdxs))
		}
	}
}

func TestExtraWorkloadsResolvable(t *testing.T) {
	for _, name := range []string{NameMaps, NameCamera, NameVideoStream} {
		spec, err := ByName(name)
		if err != nil || spec.Name != name {
			t.Errorf("ByName(%s) = %v, %v", name, spec, err)
		}
	}
}

func TestCameraIsDeadlineCritical(t *testing.T) {
	if !Camera().DeadlineCritical {
		t.Fatal("a fixed-length recording is deadline critical")
	}
	if Camera().LoopCount != 1 {
		t.Fatal("one recording session, then done")
	}
}

func TestExtrasAreControllable(t *testing.T) {
	// Demand of each extra paced phase must be servable inside its
	// profiled frequency range at full bandwidth — otherwise the spec
	// is mis-calibrated and the controller cannot hold any target.
	for _, s := range Extras() {
		top := s.ProfileFreqIdxs[len(s.ProfileFreqIdxs)-1]
		for _, p := range s.Phases {
			if p.Kind != Paced {
				continue
			}
			cap := p.Traits.CapacityAt(n6, soc.Config{FreqIdx: top, BWIdx: 12})
			if cap < p.DemandGIPS*1e9 {
				t.Errorf("%s/%s: demand %.2f GIPS exceeds capacity %.2f at profiled top",
					s.Name, p.Name, p.DemandGIPS, cap/1e9)
			}
		}
	}
}
