package obs

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

func span(cycle int, stage string, at time.Duration, attrs Attrs) Span {
	return Span{Cycle: cycle, Stage: stage, At: at, Attrs: attrs}
}

func TestRecorderRingBound(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 10; i++ {
		r.Emit(span(i, StageCycle, time.Duration(i), nil))
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(got))
	}
	for i, s := range got {
		if want := 7 + i; s.Cycle != want {
			t.Fatalf("snapshot[%d].Cycle = %d, want %d (oldest-first of the last 4)", i, s.Cycle, want)
		}
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Fatalf("Total=%d Dropped=%d, want 10/6", r.Total(), r.Dropped())
	}
}

func TestRecorderBelowCapacity(t *testing.T) {
	r := NewRecorder(8)
	r.Emit(span(1, StageMeasure, 0, nil))
	r.Emit(span(1, StageOptimize, 1, nil))
	got := r.Snapshot()
	if len(got) != 2 || got[0].Stage != StageMeasure || got[1].Stage != StageOptimize {
		t.Fatalf("snapshot = %+v, want emission order", got)
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d before the ring filled", r.Dropped())
	}
}

func TestRecorderDefaultCap(t *testing.T) {
	for _, cap := range []int{0, -1} {
		r := NewRecorder(cap)
		if r.capacity != DefaultFlightCap {
			t.Fatalf("NewRecorder(%d) capacity = %d, want DefaultFlightCap", cap, r.capacity)
		}
		if len(r.gens) != 0 {
			t.Fatalf("NewRecorder(%d) allocated %d generations before the first span", cap, len(r.gens))
		}
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	in := []Span{
		span(1, StageMeasure, 2*time.Second, Attrs{
			Bool("accepted", true), String("gate_verdict", "outlier"), Float("measured_gips", 0.4375),
		}),
		span(1, StageOptimize, 2*time.Second, Attrs{
			Int("low_freq_idx", 3), Int("tau_low_ns", 1400*time.Millisecond),
		}),
		span(2, StageLadder, 4*time.Second, Attrs{String("transition", "degraded")}),
		span(3, StageCycle, 6*time.Second, nil),
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the trace:\nin  %+v\nout %+v", in, out)
	}
	// Round-tripped and in-memory traces must also diff as identical —
	// the determinism contract aspeo-trace relies on.
	if res := Diff(in, out); !res.Identical() {
		t.Fatalf("Diff(in, roundtrip) diverged at cycle %d: %v", res.FirstDivergent, res.Deltas)
	}
}

func TestNDJSONDeterministicBytes(t *testing.T) {
	spans := []Span{span(1, StageKalman, time.Second, Attrs{
		Float("b", 0.125), Bool("a", true), String("c", "x"),
	})}
	var b1, b2 bytes.Buffer
	if err := WriteNDJSON(&b1, spans); err != nil {
		t.Fatal(err)
	}
	if err := WriteNDJSON(&b2, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two encodings of the same trace differ byte for byte")
	}
}

func TestReadNDJSONBadLine(t *testing.T) {
	_, err := ReadNDJSON(bytes.NewBufferString("{\"cycle\":1}\nnot json\n"))
	if err == nil {
		t.Fatal("malformed line accepted")
	}
	if want := "line 2"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not carry the line number", err)
	}
}

func TestTeeSkipsNils(t *testing.T) {
	var got []Span
	sink := Tee(nil, SinkFunc(func(s Span) { got = append(got, s) }), nil)
	sink.Emit(span(1, StageCycle, 0, nil))
	if len(got) != 1 {
		t.Fatalf("tee delivered %d spans, want 1", len(got))
	}
}

// A nil *Trace or *Recorder wrapped in the Sink interface is not a nil
// interface — Tee must still skip it instead of panicking on Emit.
// (Regression: aspeo-run -trace-out without -flight-out teed a typed-nil
// recorder.)
func TestTeeSkipsTypedNils(t *testing.T) {
	var tr *Trace
	var rec *Recorder
	var got []Span
	sink := Tee(tr, rec, SinkFunc(func(s Span) { got = append(got, s) }))
	sink.Emit(span(1, StageCycle, 0, nil))
	if len(got) != 1 {
		t.Fatalf("tee delivered %d spans, want 1", len(got))
	}
}

func TestTraceConcurrentEmit(t *testing.T) {
	tr := NewTrace()
	rec := NewRecorder(64)
	sink := Tee(tr, rec)
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sink.Emit(span(i, StageCycle, time.Duration(w), nil))
			}
		}(w)
	}
	wg.Wait()
	if n := len(tr.Spans()); n != workers*per {
		t.Fatalf("trace holds %d spans, want %d", n, workers*per)
	}
	if rec.Total() != workers*per {
		t.Fatalf("recorder saw %d spans, want %d", rec.Total(), workers*per)
	}
}

func TestDiffIdentical(t *testing.T) {
	a := []Span{
		span(1, StageMeasure, time.Second, Attrs{Float("measured_gips", 0.4)}),
		span(1, StageCycle, time.Second, nil),
		span(2, StageMeasure, 2*time.Second, Attrs{Float("measured_gips", 0.41)}),
	}
	res := Diff(a, a)
	if !res.Identical() || res.CyclesA != 2 || res.SpansA != 3 {
		t.Fatalf("Diff(a, a) = %+v", res)
	}
}

func TestDiffFirstDivergentCycle(t *testing.T) {
	a := []Span{
		span(1, StageMeasure, time.Second, Attrs{Float("measured_gips", 0.4)}),
		span(2, StageMeasure, 2*time.Second, Attrs{Float("measured_gips", 0.5)}),
		span(3, StageMeasure, 3*time.Second, Attrs{Float("measured_gips", 0.6)}),
	}
	b := []Span{
		span(1, StageMeasure, time.Second, Attrs{Float("measured_gips", 0.4)}),
		span(2, StageMeasure, 2*time.Second, Attrs{Float("measured_gips", 0.55)}),
		span(3, StageMeasure, 3*time.Second, Attrs{Float("measured_gips", 0.7)}),
	}
	res := Diff(a, b)
	if res.FirstDivergent != 2 {
		t.Fatalf("FirstDivergent = %d, want 2", res.FirstDivergent)
	}
	if len(res.Deltas) != 1 || res.Deltas[0].Key != "measured_gips" ||
		res.Deltas[0].A != "0.4" && res.Deltas[0].A != "0.5" {
		t.Fatalf("Deltas = %+v", res.Deltas)
	}
	if res.Deltas[0].A != "0.5" || res.Deltas[0].B != "0.55" {
		t.Fatalf("delta values = %s / %s, want 0.5 / 0.55", res.Deltas[0].A, res.Deltas[0].B)
	}
}

func TestDiffMissingStage(t *testing.T) {
	a := []Span{
		span(1, StageMeasure, time.Second, nil),
		span(1, StageOptimize, time.Second, nil),
	}
	b := []Span{span(1, StageMeasure, time.Second, nil)}
	res := Diff(a, b)
	if res.FirstDivergent != 1 {
		t.Fatalf("FirstDivergent = %d, want 1", res.FirstDivergent)
	}
	if len(res.Deltas) != 1 || res.Deltas[0].Stage != StageOptimize || res.Deltas[0].B != "<none>" {
		t.Fatalf("Deltas = %+v", res.Deltas)
	}
}

func TestDiffOneTraceLonger(t *testing.T) {
	a := []Span{
		span(1, StageCycle, time.Second, nil),
		span(2, StageCycle, 2*time.Second, nil),
	}
	b := a[:1]
	res := Diff(a, b)
	if res.FirstDivergent != 2 {
		t.Fatalf("FirstDivergent = %d, want the first extra cycle", res.FirstDivergent)
	}
	if len(res.Deltas) != 1 || res.Deltas[0].A != "present" || res.Deltas[0].B != "<none>" {
		t.Fatalf("Deltas = %+v", res.Deltas)
	}
}

func TestDiffAttrPresence(t *testing.T) {
	a := []Span{span(1, StageMeasure, time.Second, Attrs{String("gate_verdict", "stuck")})}
	b := []Span{span(1, StageMeasure, time.Second, nil)}
	res := Diff(a, b)
	if res.FirstDivergent != 1 || len(res.Deltas) != 1 {
		t.Fatalf("res = %+v", res)
	}
	d := res.Deltas[0]
	if d.Key != "gate_verdict" || d.A != `"stuck"` || d.B != "<none>" {
		t.Fatalf("delta = %+v", d)
	}
}

func TestSummarize(t *testing.T) {
	spans := []Span{
		span(1, StageMeasure, time.Second, nil),
		span(1, StageCycle, time.Second, Attrs{Bool("degraded", false)}),
		span(2, StageLadder, 2*time.Second, Attrs{String("transition", "degraded")}),
		span(2, StageCycle, 2*time.Second, Attrs{Bool("degraded", true)}),
		span(3, StageLadder, 3*time.Second, Attrs{String("transition", "recovered")}),
	}
	sum := Summarize(spans)
	if sum.Spans != 5 || sum.Cycles != 3 || sum.FirstCycle != 1 || sum.LastCycle != 3 {
		t.Fatalf("summary = %+v", sum)
	}
	want := []string{"degraded@2", "recovered@3"}
	if !reflect.DeepEqual(sum.LadderTransitions, want) {
		t.Fatalf("LadderTransitions = %v, want %v", sum.LadderTransitions, want)
	}
	if got, _ := sum.Final.Get("degraded"); !got.Bool() {
		t.Fatalf("Final = %+v, want the last cycle span's attrs", sum.Final)
	}
	var buf bytes.Buffer
	WriteSummary(&buf, sum)
	for _, want := range []string{"spans=5", "ladder: degraded@2 recovered@3", "final cycle:"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("summary text missing %q:\n%s", want, buf.String())
		}
	}
}

// emitter mimics the controller: every span's attributes are built in
// one scratch array that is rewritten for the next span.
type emitter struct {
	scratch [4]Attr
	n       int
}

// next emits span number n+1 (a varying attribute count, so generations
// hold differently sized spans) and returns the copy a sink should keep.
func (e *emitter) next(sink Sink) Span {
	e.n++
	attrs := append(e.scratch[:0], Int("n", e.n), String("stage", StageCycle))
	if e.n%3 == 0 {
		attrs = append(attrs, Bool("third", true))
	}
	s := span(e.n, StageCycle, time.Duration(e.n), attrs)
	sink.Emit(s)
	return span(e.n, StageCycle, time.Duration(e.n), slices.Clone(attrs))
}

// The recorder holds exactly the last min(total, cap) spans, oldest
// first, with correct Total and Dropped — checked after every emission
// across several wraps, and across generation boundaries at the
// default capacity.
func TestRecorderKeepsLastSpans(t *testing.T) {
	for _, capacity := range []int{1, 3, 4096} {
		r := NewRecorder(capacity)
		var e emitter
		var all []Span
		n := 3*capacity + 2
		for i := 1; i <= n; i++ {
			all = append(all, e.next(r))
			if capacity == 4096 && i%509 != 0 && i != n {
				continue // full snapshots at the default capacity are costly
			}
			want := all[max(0, len(all)-capacity):]
			if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %d after %d spans: snapshot holds %d spans %v..., want the last %d",
					capacity, i, len(got), got[:min(len(got), 2)], len(want))
			}
			if r.Total() != uint64(i) || r.Dropped() != uint64(i-len(want)) {
				t.Fatalf("cap %d after %d spans: Total=%d Dropped=%d, want %d/%d",
					capacity, i, r.Total(), r.Dropped(), i, i-len(want))
			}
		}
	}
}

// Sinks copy what they keep: neither a snapshot nor Trace.Spans may
// change when the emitter rewrites its scratch array or more spans
// arrive — not even once the recorder reuses its storage.
func TestSinksCopyBorrowedAttrs(t *testing.T) {
	rec, tr := NewRecorder(5), NewTrace()
	sink := Tee(rec, tr)
	var e emitter
	var want []Span
	for i := 0; i < 7; i++ {
		want = append(want, e.next(sink))
	}
	snap, spans := rec.Snapshot(), tr.Spans()
	for i := 0; i < 40; i++ {
		e.next(sink)
	}
	e.scratch = [4]Attr{}
	if !reflect.DeepEqual(snap, want[2:]) {
		t.Fatalf("recorder snapshot changed after later emissions:\n%v\nwant %v", snap, want[2:])
	}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("trace spans changed after later emissions:\n%v\nwant %v", spans, want)
	}
	if got := tr.Spans()[:7]; !reflect.DeepEqual(got, want) {
		t.Fatalf("trace lost its early spans:\n%v\nwant %v", got, want)
	}
}

// A recorder that has wrapped reuses its storage: emission allocates
// nothing.
func TestRecorderSteadyStateZeroAllocs(t *testing.T) {
	r := NewRecorder(16)
	var e emitter
	for i := 0; i < 100; i++ {
		e.next(r)
	}
	s := span(1, StageCycle, 0, Attrs{Int("n", 1), String("stage", StageCycle), Bool("third", true)})
	if allocs := testing.AllocsPerRun(100, func() { r.Emit(s) }); allocs != 0 {
		t.Fatalf("Recorder.Emit allocates %.1f objects once wrapped, want 0", allocs)
	}
}

// Storage grows with use: a recorder holding a handful of spans has not
// allocated its capacity.
func TestRecorderGrowsWithUse(t *testing.T) {
	r := NewRecorder(0)
	var e emitter
	for i := 0; i < 10; i++ {
		e.next(r)
	}
	if len(r.gens) != 1 || cap(r.gens[0].spans) >= DefaultFlightCap {
		t.Fatalf("10 spans hold %d generations, span capacity %d", len(r.gens), cap(r.gens[0].spans))
	}
}
