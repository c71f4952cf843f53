package pipeline

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aspeo/internal/platform"
)

func TestQuantize(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{1, 1},
		{-2.5, -2.5},
		{math.NaN(), 0},
		{math.Inf(1), 1 << 36},
		{math.Inf(-1), -(1 << 36)},
		{1e300, 1 << 36},
	}
	for _, c := range cases {
		if got := Quantize(c.in); got != c.want {
			t.Errorf("Quantize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Idempotence: a quantized value is on the grid already.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		v := (rng.Float64() - 0.5) * 1e3
		q := Quantize(v)
		if Quantize(q) != q {
			t.Fatalf("Quantize not idempotent at %v: %v -> %v", v, q, Quantize(q))
		}
		if math.Abs(q-v) > math.Ldexp(1, -18)+1e-12 {
			t.Fatalf("Quantize(%v) = %v too far off", v, q)
		}
	}
}

func TestRing(t *testing.T) {
	r := newRing(8)
	for i := 0; i < 8; i++ {
		if !r.push(&CycleRecord{Session: uint64(i)}) {
			t.Fatalf("push %d failed on empty ring", i)
		}
	}
	if r.push(&CycleRecord{}) {
		t.Fatal("push succeeded on full ring")
	}
	var got []uint64
	n := r.drain(func(rec *CycleRecord) { got = append(got, rec.Session) })
	if n != 8 || len(got) != 8 {
		t.Fatalf("drain returned %d records", n)
	}
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("drain order: got[%d] = %d", i, s)
		}
	}
	// Wraparound: interleave pushes and drains past the capacity.
	for round := 0; round < 5; round++ {
		for i := 0; i < 5; i++ {
			if !r.push(&CycleRecord{Session: uint64(round*5 + i)}) {
				t.Fatalf("wrap push failed round %d", round)
			}
		}
		want := uint64(round * 5)
		r.drain(func(rec *CycleRecord) {
			if rec.Session != want {
				t.Fatalf("wrap drain: got %d want %d", rec.Session, want)
			}
			want++
		})
	}
}

// genRecords builds a deterministic pseudo-random record stream: cycles,
// finals and arrivals over several cohorts, with storms, governor
// sessions (no target) and occasional health deltas.
func genRecords(seed int64, n int) (cycles []CycleRecord, finals []FinalRecord, arrivals []StreamArrival, cohorts []string) {
	rng := rand.New(rand.NewSource(seed))
	cohorts = []string{"default", "game", "browser", "video"}
	for s := 0; s < n/50+2; s++ {
		c := cohorts[rng.Intn(len(cohorts))]
		arrivals = append(arrivals, StreamArrival{Cohort: c, T: rng.Float64() * 20})
	}
	for i := 0; i < n; i++ {
		rec := CycleRecord{
			Session:      uint64(rng.Intn(64)),
			Cohort:       uint32(rng.Intn(len(cohorts))),
			T:            rng.Float64() * 30,
			MeasuredGIPS: rng.Float64() * 8,
			PowerW:       0.5 + rng.Float64()*4,
			Storm:        rng.Intn(4) == 0,
		}
		if rng.Intn(3) != 0 {
			rec.TargetGIPS = 0.5 + rng.Float64()*6
		}
		if rng.Intn(10) == 0 {
			rec.Health = platform.HealthCounts{
				RejectedSamples:     rng.Intn(3),
				DegradedCycles:      rng.Intn(2),
				ConsecutiveFailures: rng.Intn(5) - 2,
			}
		}
		cycles = append(cycles, rec)
	}
	for s := 0; s < n/20+2; s++ {
		fin := FinalRecord{
			Session:    uint64(s),
			Cohort:     uint32(rng.Intn(len(cohorts))),
			HasSummary: rng.Intn(5) != 0,
			Controller: rng.Intn(2) == 0,
			DurationS:  rng.Float64() * 30,
			EnergyJ:    rng.Float64() * 100,
			GIPS:       rng.Float64() * 8,
		}
		if fin.Controller {
			fin.MeanAbsErrGIPS = rng.Float64()
		}
		if rng.Intn(6) == 0 {
			fin.Relinquished = true
			fin.LastTransition = "thermal"
		}
		finals = append(finals, fin)
	}
	return
}

// feed pushes a record stream through a pipeline with the given worker
// count, partitioning records round-robin, and returns one rollup.
func feed(workers int, cycles []CycleRecord, finals []FinalRecord, arrivals []StreamArrival, cohorts []string) *Rollup {
	p := New(Options{Workers: workers, RingCap: 64})
	for _, c := range cohorts {
		p.CohortID(c)
	}
	for i, ar := range arrivals {
		p.ObserveArrival(i%workers, p.CohortID(ar.Cohort), ar.T)
	}
	for i := range cycles {
		p.ObserveCycle(i%workers, &cycles[i])
	}
	for i := range finals {
		p.ObserveFinal(i%workers, &finals[i])
	}
	return p.Rollup()
}

// TestRollupByteIdentity is the core determinism property: the same
// record stream partitioned across 1, 4 and 16 shards — exercising the
// ring-overflow fold path via the small RingCap — produces byte-
// identical rollup JSON.
func TestRollupByteIdentity(t *testing.T) {
	for _, seed := range []int64{1, 2, 42} {
		cycles, finals, arrivals, cohorts := genRecords(seed, 5000)
		var want []byte
		for _, workers := range []int{1, 4, 16} {
			r := feed(workers, cycles, finals, arrivals, cohorts)
			got, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("seed %d: %d-worker rollup differs from 1-worker:\n%s\nvs\n%s",
					seed, workers, want, got)
			}
		}
	}
}

// TestMergeCommutativeAssociative checks the shard merge algebra
// directly: folding record subsets into separate aggregates and merging
// them in any order or grouping yields identical state.
func TestMergeCommutativeAssociative(t *testing.T) {
	cycles, finals, _, _ := genRecords(3, 2000)
	build := func(lo, hi int) *shard {
		sh := &shard{ring: newRing(2)}
		for i := lo; i < hi; i++ {
			sh.foldCycle(&cycles[i], 1.0, DefaultMaxWindows)
		}
		for i := range finals {
			if i%3 == lo%3 {
				sh.foldFinal(&finals[i])
			}
		}
		return sh
	}
	agg := func(sh *shard, cohort uint32) *cohortAgg { return sh.agg(cohort) }

	for cohort := uint32(0); cohort < 4; cohort++ {
		a := agg(build(0, 700), cohort)
		b := agg(build(700, 1400), cohort)
		c := agg(build(1400, 2000), cohort)

		// (a+b)+c
		x := newCohortAgg()
		x.merge(a)
		x.merge(b)
		x.merge(c)
		// c+(b+a)
		y := newCohortAgg()
		bc := newCohortAgg()
		bc.merge(b)
		bc.merge(a)
		y.merge(c)
		y.merge(bc)

		if !reflect.DeepEqual(x, y) {
			t.Fatalf("cohort %d: merge not commutative/associative:\n%+v\nvs\n%+v", cohort, x, y)
		}
	}
}

func TestDistMergeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		d1 := newCohortAgg().slack
		d2 := newCohortAgg().slack
		vals := make([]float64, 500)
		for i := range vals {
			vals[i] = Quantize((rng.Float64() - 0.5) * 250)
		}
		for i, v := range vals {
			if i%2 == 0 {
				d1.Observe(v)
			} else {
				d2.Observe(v)
			}
		}
		m1 := newCohortAgg().slack
		if err := m1.Merge(d1); err != nil {
			t.Fatal(err)
		}
		if err := m1.Merge(d2); err != nil {
			t.Fatal(err)
		}
		m2 := newCohortAgg().slack
		if err := m2.Merge(d2); err != nil {
			t.Fatal(err)
		}
		if err := m2.Merge(d1); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m1, m2) {
			t.Fatalf("Dist merge not commutative")
		}
		if m1.Sum() != m1.Sum() || m1.Total() != uint64(len(vals)) {
			t.Fatalf("Dist merge lost observations")
		}
	}
}

func TestBrownoutAnalyzer(t *testing.T) {
	p := New(Options{Workers: 1, WindowS: 1.0, BrownoutThreshold: 0.9})
	id := p.CohortID("sat")
	// Windows 0-4: measured meets target. Windows 5-7: measured at half
	// target (brownout). Windows 8-9: recovered.
	for w := 0; w < 10; w++ {
		for i := 0; i < 10; i++ {
			m := 2.0
			if w >= 5 && w < 8 {
				m = 1.0
			}
			p.ObserveCycle(0, &CycleRecord{
				Cohort: id, T: float64(w) + float64(i)*0.1,
				MeasuredGIPS: m, TargetGIPS: 2.0, PowerW: 1,
			})
		}
	}
	r := p.Rollup()
	if r.Saturation == nil {
		t.Fatal("no saturation detected")
	}
	s := r.Saturation
	if len(s.Brownouts) != 1 {
		t.Fatalf("got %d brownouts, want 1: %+v", len(s.Brownouts), s.Brownouts)
	}
	b := s.Brownouts[0]
	if b.OnsetS != 5 || b.WidthS != 3 {
		t.Fatalf("brownout onset %v width %v, want 5/3", b.OnsetS, b.WidthS)
	}
	if math.Abs(b.Depth-0.5) > 1e-9 {
		t.Fatalf("brownout depth %v, want 0.5", b.Depth)
	}
	if b.Cycles != 30 || s.BrownoutCycles != 30 {
		t.Fatalf("brownout cycles %d/%d, want 30", b.Cycles, s.BrownoutCycles)
	}
}

func TestInterferenceAnalyzer(t *testing.T) {
	p := New(Options{Workers: 2, WindowS: 1.0})
	id := p.CohortID("game")
	// Calm cycles hold slack at +10%; storm cycles collapse it to -20%.
	for i := 0; i < 200; i++ {
		storm := i%4 == 0
		m := 2.2
		if storm {
			m = 1.6
		}
		p.ObserveCycle(i%2, &CycleRecord{
			Cohort: id, T: float64(i) * 0.1,
			MeasuredGIPS: m, TargetGIPS: 2.0, PowerW: 1, Storm: storm,
		})
	}
	r := p.Rollup()
	if len(r.Interference) != 1 {
		t.Fatalf("got %d interference rows, want 1", len(r.Interference))
	}
	inf := r.Interference[0]
	if inf.Cohort != "game" || inf.StormCycles != 50 || inf.CalmCycles != 150 {
		t.Fatalf("unexpected interference row: %+v", inf)
	}
	if math.Abs(inf.CalmMeanSlackPct-10) > 1e-3 || math.Abs(inf.StormMeanSlackPct+20) > 1e-3 {
		t.Fatalf("slack means: %+v", inf)
	}
	if math.Abs(inf.SlackCollapsePct-30) > 1e-3 {
		t.Fatalf("collapse %v, want 30", inf.SlackCollapsePct)
	}
}

// TestStreamRoundTrip: offline aggregation of the captured NDJSON
// stream reproduces the live rollup (epochs aside).
func TestStreamRoundTrip(t *testing.T) {
	cycles, finals, arrivals, cohorts := genRecords(11, 3000)
	p := New(Options{Workers: 4, RingCap: 64})
	for _, c := range cohorts {
		p.CohortID(c)
	}
	ch, cancel := p.Subscribe(64)
	defer cancel()

	var batches []StreamBatch
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := range ch {
			batches = append(batches, b)
		}
	}()

	for i, ar := range arrivals {
		p.ObserveArrival(i%4, p.CohortID(ar.Cohort), ar.T)
	}
	for i := range cycles {
		p.ObserveCycle(i%4, &cycles[i])
		if i%500 == 0 {
			p.Advance()
		}
	}
	for i := range finals {
		p.ObserveFinal(i%4, &finals[i])
	}
	live := p.Rollup()
	cancel()
	wg.Wait()
	if p.Dropped() != 0 {
		t.Fatalf("stream dropped %d batches with an unbounded reader", p.Dropped())
	}

	// Round-trip through NDJSON bytes.
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, batches); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	offline := Aggregate(decoded, Options{})

	live.Epoch, offline.Epoch = 0, 0
	lj, _ := json.Marshal(live)
	oj, _ := json.Marshal(offline)
	if !bytes.Equal(lj, oj) {
		t.Fatalf("offline rollup differs from live:\n%s\nvs\n%s", lj, oj)
	}
}

// TestConcurrentScrape drives producers, rollups and snapshot reads
// concurrently; run under -race this is the scrape-under-load property.
func TestConcurrentScrape(t *testing.T) {
	const workers = 8
	p := New(Options{Workers: workers, RingCap: 128})
	ids := []uint32{p.CohortID("a"), p.CohortID("b")}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				p.ObserveCycle(w, &CycleRecord{
					Session: uint64(w), Cohort: ids[i%2], T: float64(i) * 0.01,
					MeasuredGIPS: 2, TargetGIPS: 2, PowerW: 1,
				})
			}
			p.ObserveFinal(w, &FinalRecord{Session: uint64(w), Cohort: ids[0], HasSummary: true, DurationS: 1, GIPS: 2})
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				p.Rollup()
				p.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	r := p.Rollup()
	if r.Cycles != workers*5000 {
		t.Fatalf("lost cycles: %d, want %d", r.Cycles, workers*5000)
	}
	if r.Totals.Finished != workers {
		t.Fatalf("lost finals: %d, want %d", r.Totals.Finished, workers)
	}
}

// A finite but enormous timestamp lands in the analyzer's last window.
// Converting its window index to int before clamping would overflow
// t_s=1e300 to a negative index and panic Aggregate.
func TestAggregateHugeTimestampLastWindow(t *testing.T) {
	line := `{"epoch":1,"arrivals":[{"cohort":"c","t_s":1e300}],` +
		`"cycles":[{"session":1,"cohort":"c","t_s":1e300,"measured_gips":1,"target_gips":2,"power_w":1}]}`
	batches, err := ReadNDJSON(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	r := Aggregate(batches, Options{})
	if r.Cycles != 1 || r.Sessions != 1 {
		t.Fatalf("rollup folded %d cycles and %d arrivals, want 1 and 1", r.Cycles, r.Sessions)
	}
	s := r.Saturation
	if s == nil || len(s.Brownouts) != 1 {
		t.Fatalf("saturation = %+v, want one brownout window", s)
	}
	last := float64(DefaultMaxWindows-1) * DefaultWindowS
	if b := s.Brownouts[0]; b.OnsetS != last || b.Cycles != 1 {
		t.Fatalf("brownout %+v, want the record alone in the last window (onset %v s)", b, last)
	}
}
