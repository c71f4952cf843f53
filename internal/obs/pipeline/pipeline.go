package pipeline

import (
	"sync"
	"sync/atomic"
)

// Options configure a Pipeline. Zero values select the defaults.
type Options struct {
	// Workers is the number of producer shards — one per worker
	// goroutine (<= 0 selects 1).
	Workers int
	// RingCap is the per-worker ring capacity in records, rounded up to
	// a power of two (<= 0 selects 1024). A full ring never drops: the
	// producer folds its own ring and retries.
	RingCap int
	// WindowS is the analyzer window in scenario seconds (<= 0 selects
	// 1.0).
	WindowS float64
	// MaxWindows bounds the analyzer timeline; records beyond it clamp
	// into the last window (<= 0 selects 65536).
	MaxWindows int
}

// Defaults for the zero-valued knobs above.
const (
	DefaultRingCap    = 1024
	DefaultWindowS    = 1.0
	DefaultMaxWindows = 1 << 16
)

// brownoutFrac is the saturation analyzer's trigger: a window browns
// out when the population's measured GIPS sum falls below brownoutFrac
// · target sum.
const brownoutFrac = 0.9

func (o Options) normalized() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.RingCap <= 0 {
		o.RingCap = DefaultRingCap
	}
	if o.WindowS <= 0 {
		o.WindowS = DefaultWindowS
	}
	if o.MaxWindows <= 0 {
		o.MaxWindows = DefaultMaxWindows
	}
	return o
}

// Pipeline is the telemetry pipeline instance: per-worker rings and
// shards, the cohort intern table, the epoch snapshot, and the NDJSON
// stream fan-out. Safe for concurrent use under the worker-identity
// contract: ObserveCycle(w, …) for one w is called by at most one
// goroutine at a time (the pool worker that owns shard w).
type Pipeline struct {
	opts   Options
	shards []*shard

	cmu     sync.Mutex
	cohorts map[string]uint32
	names   []string // cohort id -> name

	epoch     atomic.Uint64
	snap      atomic.Pointer[Rollup]
	advanceMu sync.Mutex // serializes epoch advances

	smu       sync.Mutex
	subs      map[uint64]chan StreamBatch
	subSeq    uint64
	streaming atomic.Bool
	dropped   atomic.Uint64
}

// New builds a pipeline.
func New(o Options) *Pipeline {
	o = o.normalized()
	p := &Pipeline{
		opts:    o,
		shards:  make([]*shard, o.Workers),
		cohorts: make(map[string]uint32),
		subs:    make(map[uint64]chan StreamBatch),
	}
	for i := range p.shards {
		p.shards[i] = &shard{ring: newRing(o.RingCap)}
	}
	return p
}

// Workers returns the pipeline's shard count.
func (p *Pipeline) Workers() int { return len(p.shards) }

// CohortID interns a cohort name, returning its dense id. Intended for
// submit time — the returned id is captured once per session, never
// looked up per cycle. The empty name interns as "default".
func (p *Pipeline) CohortID(name string) uint32 {
	if name == "" {
		name = "default"
	}
	p.cmu.Lock()
	defer p.cmu.Unlock()
	if id, ok := p.cohorts[name]; ok {
		return id
	}
	id := uint32(len(p.names))
	p.cohorts[name] = id
	p.names = append(p.names, name)
	return id
}

// cohortNames snapshots the intern table (id -> name).
func (p *Pipeline) cohortNames() []string {
	p.cmu.Lock()
	defer p.cmu.Unlock()
	out := make([]string, len(p.names))
	copy(out, p.names)
	return out
}

// ObserveCycle appends one cycle record to worker w's ring — the
// session hot path: lock-free and allocation-free in the steady state.
// When the ring is full the producer folds its own ring into its own
// shard under the shard mutex (amortized over RingCap pushes) and
// retries; records are never dropped.
func (p *Pipeline) ObserveCycle(w int, rec *CycleRecord) {
	sh := p.shards[w]
	if sh.ring.push(rec) {
		return
	}
	sh.mu.Lock()
	p.drainLocked(sh)
	sh.ring.push(rec) // the ring is empty now; cannot fail
	sh.mu.Unlock()
}

// ObserveFinal folds a session's terminal record into worker w's shard.
// It must run before the session is reported terminal (before its done
// channel closes), so any rollup taken after a session lands includes
// its final.
func (p *Pipeline) ObserveFinal(w int, fin *FinalRecord) {
	sh := p.shards[w]
	sh.mu.Lock()
	p.drainLocked(sh) // keep ring records ordered before the final
	sh.foldFinal(fin)
	if p.streaming.Load() {
		sh.pendFinals = append(sh.pendFinals, *fin)
	}
	sh.mu.Unlock()
}

// ObserveArrival counts one session arrival at scenario time t. The
// shard index may be any value in [0, Workers()) — arrivals are integer
// counts, so the partition does not affect the merged rollup.
func (p *Pipeline) ObserveArrival(w int, cohort uint32, t float64) {
	sh := p.shards[w%len(p.shards)]
	sh.mu.Lock()
	sh.foldArrival(cohort, t, p.opts.WindowS, p.opts.MaxWindows)
	if p.streaming.Load() {
		sh.pendArrivals = append(sh.pendArrivals, arrival{cohort: cohort, t: t})
	}
	sh.mu.Unlock()
}

// drainLocked folds everything in sh's ring into its aggregates.
// Callers hold sh.mu.
func (p *Pipeline) drainLocked(sh *shard) {
	streaming := p.streaming.Load()
	sh.ring.drain(func(rec *CycleRecord) {
		sh.foldCycle(rec, p.opts.WindowS, p.opts.MaxWindows)
		if streaming {
			sh.pendCycles = append(sh.pendCycles, *rec)
		}
	})
}

// Advance drains every ring into its shard and, when subscribers exist,
// publishes the drained records as one epoch batch. It returns the new
// epoch ordinal. Advance takes shard mutexes only — never a session
// lock.
func (p *Pipeline) Advance() uint64 {
	p.advanceMu.Lock()
	defer p.advanceMu.Unlock()
	return p.advanceLocked()
}

func (p *Pipeline) advanceLocked() uint64 {
	epoch := p.epoch.Add(1)
	var batch StreamBatch
	streaming := p.streaming.Load()
	for _, sh := range p.shards {
		sh.mu.Lock()
		p.drainLocked(sh)
		if streaming {
			batch.append(p, sh)
			sh.pendCycles = sh.pendCycles[:0]
			sh.pendFinals = sh.pendFinals[:0]
			sh.pendArrivals = sh.pendArrivals[:0]
		}
		sh.mu.Unlock()
	}
	if streaming && !batch.empty() {
		batch.Epoch = epoch
		p.publish(batch)
	}
	return epoch
}

// Rollup advances an epoch, merges every shard in fixed order, runs the
// analyzers, publishes the result as the current epoch snapshot, and
// returns it. The merge is commutative and associative (property-
// tested), so the result is byte-identical at any worker count.
func (p *Pipeline) Rollup() *Rollup {
	p.advanceMu.Lock()
	defer p.advanceMu.Unlock()
	epoch := p.advanceLocked()

	merged := make([]*cohortAgg, len(p.cohortNames()))
	for _, sh := range p.shards {
		sh.mu.Lock()
		for id, a := range sh.cohorts {
			if a == nil {
				continue
			}
			for id >= len(merged) {
				merged = append(merged, nil)
			}
			if merged[id] == nil {
				merged[id] = newCohortAgg()
			}
			merged[id].merge(a)
		}
		sh.mu.Unlock()
	}
	r := p.assemble(epoch, merged)
	p.snap.Store(r)
	return r
}

// Snapshot returns the last published epoch snapshot without touching
// any shard or session state — the scrape fast path. It is nil before
// the first Rollup.
func (p *Pipeline) Snapshot() *Rollup { return p.snap.Load() }

// Dropped reports stream batches dropped on slow subscribers.
func (p *Pipeline) Dropped() uint64 { return p.dropped.Load() }

// Subscribe registers a stream subscriber: every epoch batch published
// while it is registered is delivered on the returned channel. A full
// subscriber channel drops the batch (counted; the stream is best
// effort — rollups never lose records, streams may). cancel
// unregisters and closes the channel.
func (p *Pipeline) Subscribe(buf int) (<-chan StreamBatch, func()) {
	if buf <= 0 {
		buf = 16
	}
	ch := make(chan StreamBatch, buf)
	p.smu.Lock()
	p.subSeq++
	id := p.subSeq
	p.subs[id] = ch
	p.streaming.Store(true)
	p.smu.Unlock()
	cancel := func() {
		p.smu.Lock()
		if _, ok := p.subs[id]; ok {
			delete(p.subs, id)
			close(ch)
		}
		p.streaming.Store(len(p.subs) > 0)
		p.smu.Unlock()
	}
	return ch, cancel
}

func (p *Pipeline) publish(b StreamBatch) {
	p.smu.Lock()
	for _, ch := range p.subs {
		select {
		case ch <- b:
		default:
			p.dropped.Add(1)
		}
	}
	p.smu.Unlock()
}
