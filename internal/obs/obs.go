// Package obs is the runtime's observability layer: a structured
// decision-trace model (spans), a deterministic bounded flight recorder,
// and a metrics registry with a Prometheus text encoder.
//
// The controller's four-stage decision every control cycle — perf
// measurement, Kalman base-speed update, LP/frontier solve, dwell
// scheduling — used to be opaque: the only windows into it were the
// end-of-cycle CycleSnapshot and hand-rolled metric text. The span model
// makes each stage a first-class record with typed attributes, so "the
// run was 7% over the energy baseline" becomes "the Kalman variance
// collapsed at cycle 41".
//
// Determinism contract: nothing in this package reads the wall clock or
// any other ambient state. Span timestamps are backend-clock values
// supplied by the emitter, ring-buffer eviction depends only on emission
// order, and NDJSON encoding is canonical (sorted attribute keys,
// shortest float form) — so two runs of the same seed produce
// byte-identical traces, and a trace survives a write/read round trip
// losslessly. Emission is observation-only by construction: a Sink can
// see controller state but has no handle to change it.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

// Stage names of the controller's per-cycle decision spans. One "cycle"
// span summarizes the whole control cycle; the others are its children,
// emitted in decision order. "ladder" spans appear only on resilience
// ladder transitions.
const (
	StageCycle    = "cycle"    // end-of-cycle summary (parent span)
	StageMeasure  = "measure"  // perf window consumption + fault gate
	StageKalman   = "kalman"   // base-speed filter update
	StageOptimize = "optimize" // LP/frontier/cache energy solve
	StageSchedule = "schedule" // two-configuration dwell plan
	StageLadder   = "ladder"   // resilience ladder transition event
)

// Span is one record of the decision trace: a stage of one control
// cycle (or a ladder event within it), stamped with the backend clock —
// never the wall clock, so seeded runs trace identically.
type Span struct {
	// Cycle is the control-cycle ordinal (1 = first cycle).
	Cycle int `json:"cycle"`
	// Stage names the decision stage (Stage* constants).
	Stage string `json:"stage"`
	// At is the backend clock when the span was emitted.
	At time.Duration `json:"at_ns"`
	// Attrs carries the stage's typed attributes.
	Attrs Attrs `json:"attrs,omitempty"`
}

// Sink receives emitted spans. Emit borrows the span, as slog.Handler
// borrows a record: its Attrs belong to the emitter, which rewrites
// them as soon as Emit returns (the controller builds every span in one
// reusable scratch array). A sink that retains a span must copy its
// attributes — Trace and Recorder do. Emit must be cheap enough to call
// several times per control cycle.
type Sink interface {
	Emit(Span)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Span)

// Emit implements Sink.
func (f SinkFunc) Emit(s Span) { f(s) }

// Tee fans one emission out to several sinks, in order. Nil sinks are
// skipped — including typed nils like a nil *Trace or *Recorder hiding
// inside the interface, the classic trap when sinks are assembled from
// optional flags.
func Tee(sinks ...Sink) Sink {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		switch v := s.(type) {
		case nil:
		case *Trace:
			if v != nil {
				kept = append(kept, s)
			}
		case *Recorder:
			if v != nil {
				kept = append(kept, s)
			}
		default:
			kept = append(kept, s)
		}
	}
	return SinkFunc(func(s Span) {
		for _, snk := range kept {
			snk.Emit(s)
		}
	})
}

// keepAttrs copies attrs onto the end of *store and returns the copy,
// sorted by key and capacity-limited, so an append to one kept span can
// never reach its neighbour's attributes.
func keepAttrs(store *[]Attr, attrs Attrs) Attrs {
	if len(attrs) == 0 {
		return nil
	}
	n := len(*store)
	*store = append(*store, attrs...)
	kept := Attrs((*store)[n:len(*store):len(*store)])
	if !slices.IsSortedFunc(kept, byKey) {
		slices.SortFunc(kept, byKey)
	}
	return kept
}

// traceChunk is the attribute count of one Trace arena chunk.
const traceChunk = 4096

// Trace is an unbounded span collector — the full decision trace of one
// run, as written by `aspeo-run -trace-out` and consumed by
// `aspeo-trace`. Attributes are copied into an append-only arena of
// fixed-size chunks, so a kept span's attributes are never moved or
// rewritten. Safe for concurrent emission.
type Trace struct {
	mu    sync.Mutex
	spans []Span
	arena []Attr // current chunk; earlier chunks live on in the spans
}

// NewTrace returns an empty trace collector.
func NewTrace() *Trace { return &Trace{} }

// Emit implements Sink, copying the span's attributes.
func (t *Trace) Emit(s Span) {
	t.mu.Lock()
	if cap(t.arena)-len(t.arena) < len(s.Attrs) {
		t.arena = make([]Attr, 0, max(traceChunk, len(s.Attrs)))
	}
	s.Attrs = keepAttrs(&t.arena, s.Attrs)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns the collected spans in emission order. The slice is a
// copy; the attributes are shared with the trace, which never rewrites
// them, and must be treated as read-only.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// WriteNDJSON dumps the trace as NDJSON.
func (t *Trace) WriteNDJSON(w io.Writer) error { return WriteNDJSON(w, t.Spans()) }

// DefaultFlightCap is the flight recorder's default capacity: roughly
// 700 control cycles of full-verbosity tracing — minutes of history
// around a failure. Storage grows with the spans actually recorded, so
// a short session pays for its own spans only (about 2 KiB a cycle); a
// full recorder holds under 2 MiB.
const DefaultFlightCap = 4096

// recorderChunk bounds the spans of one recorder generation, and so the
// storage a full recorder holds beyond its capacity.
const recorderChunk = 512

// Recorder is the flight recorder: the most recent spans, dumped as
// NDJSON when something goes wrong (watchdog escalation, session
// failure) or on demand. Eviction is purely count-based — no wall-clock
// reads — so a seeded run's content is deterministic. Safe for
// concurrent use.
//
// Storage is a queue of generations, each at most recorderChunk spans
// (or the capacity, when smaller) with the attribute storage its spans
// point into. Generations are allocated as spans arrive; once the
// oldest holds only evicted spans it is reset and refilled, so a
// recorder that has wrapped stops allocating.
type Recorder struct {
	mu       sync.Mutex
	capacity int
	chunk    int           // spans per generation
	gens     []*generation // oldest first; the last one fills
	stored   int           // spans held across gens (>= the live ones)
	total    uint64        // spans ever emitted
}

type generation struct {
	spans []Span
	attrs []Attr
}

// NewRecorder returns a flight recorder holding the last capacity spans
// (<= 0 selects DefaultFlightCap).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &Recorder{capacity: capacity, chunk: min(capacity, recorderChunk)}
}

// Emit implements Sink: the span and a copy of its attributes enter the
// recorder, evicting the oldest span once full.
func (r *Recorder) Emit(s Span) {
	r.mu.Lock()
	g := r.filling()
	s.Attrs = keepAttrs(&g.attrs, s.Attrs)
	g.spans = append(g.spans, s)
	r.stored++
	r.total++
	r.mu.Unlock()
}

// filling returns the generation the next span goes into: the newest
// while it has room, else the oldest once every span it holds is evicted
// (the other generations cover the capacity, counting the incoming
// span), else a new one.
func (r *Recorder) filling() *generation {
	n := len(r.gens)
	if n > 0 && len(r.gens[n-1].spans) < r.chunk {
		return r.gens[n-1]
	}
	if n > 0 && r.stored-len(r.gens[0].spans) >= r.capacity-1 {
		g := r.gens[0]
		r.stored -= len(g.spans)
		copy(r.gens, r.gens[1:])
		r.gens[n-1] = g
		g.spans, g.attrs = g.spans[:0], g.attrs[:0]
		return g
	}
	g := &generation{}
	r.gens = append(r.gens, g)
	return g
}

// live returns how many of the stored spans are within the capacity.
func (r *Recorder) live() int { return min(r.stored, r.capacity) }

// Snapshot returns a deep copy of the recorder's current content, the
// last min(Total, capacity) spans, oldest first.
func (r *Recorder) Snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	nAttrs := 0
	for _, g := range r.gens {
		nAttrs += len(g.attrs)
	}
	out := make([]Span, 0, r.live())
	kept := make([]Attr, 0, nAttrs) // enough for every stored span: never regrows
	skip := r.stored - r.live()
	for _, g := range r.gens {
		if skip >= len(g.spans) {
			skip -= len(g.spans)
			continue
		}
		for _, s := range g.spans[skip:] {
			s.Attrs = keepAttrs(&kept, s.Attrs)
			out = append(out, s)
		}
		skip = 0
	}
	return out
}

// Total returns how many spans were ever emitted into the recorder.
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many spans the capacity bound evicted.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(r.live())
}

// WriteNDJSON dumps the recorder's current content as NDJSON, oldest
// first.
func (r *Recorder) WriteNDJSON(w io.Writer) error { return WriteNDJSON(w, r.Snapshot()) }

// WriteNDJSON writes spans as NDJSON: one JSON object per line,
// attribute keys sorted, floats in encoding/json's shortest form and
// non-finite numbers as the strings "NaN", "+Inf" and "-Inf" — the
// canonical flight-recorder dump format.
func WriteNDJSON(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNDJSON reads a span stream written by WriteNDJSON. Blank lines are
// skipped; a malformed line — including an attribute whose value is not
// a number, bool or string — fails with its line number.
func ReadNDJSON(r io.Reader) ([]Span, error) {
	var spans []Span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return spans, nil
}
