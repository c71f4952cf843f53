// Package fleet is the concurrent multi-device session runtime: a
// Manager that owns N independent controller-or-governor sessions (each
// one simulation cell from the existing stack — a platform.Device plus
// its actor set, built through experiment.NewSession), schedules them
// across a bounded worker pool (par.Pool), tracks their lifecycle, and
// folds their telemetry into fleet-wide rollups.
//
// The paper's controller manages one phone; the fleet layer is the
// persistent management plane above per-device controllers the ROADMAP's
// north star calls for. Sessions keep the platform backend contract's
// isolation — each is a single-threaded cell sharing nothing mutable —
// so the only synchronized state is the manager's bookkeeping: the
// sharded session store, the per-session status record, and the
// aggregator's counters. Worker scheduling therefore affects wall-clock
// time only, never a session's results: a 1-session fleet run is
// cycle-for-cycle identical to the equivalent aspeo-run invocation (the
// golden test holds this).
//
// Lifecycle: pending → running → completed | failed | stopped. A failing
// session — harness construction error, run error, or a controller that
// walked the PR 2 resilience ladder all the way to relinquish — restarts
// up to its configured budget before landing in failed. Stop is
// cooperative: the engine's interrupt hook ends the run at the next step
// boundary and the partial summary is kept.
package fleet

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aspeo/internal/ckpt"
	"aspeo/internal/core"
	"aspeo/internal/experiment"
	"aspeo/internal/fault"
	"aspeo/internal/obs"
	"aspeo/internal/obs/pipeline"
	"aspeo/internal/par"
	"aspeo/internal/report"
	"aspeo/internal/workload"
)

// State is a session's lifecycle state.
type State string

// Session lifecycle states.
const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateStopped   State = "stopped"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateStopped
}

// Config describes one fleet session — the JSON body of a submit
// request. It mirrors experiment.SessionSpec plus fleet-only policy
// (restart budget). Zero values select the aspeo-run defaults: load BL,
// governor interactive, no restarts.
type Config struct {
	App string `json:"app"`
	// Cohort labels the session in telemetry rollups (scenario cohort
	// name; empty rolls up under "default").
	Cohort string `json:"cohort,omitempty"`
	// ArrivalS is the session's scenario arrival time in seconds — the
	// telemetry pipeline's time base (cycle records land in analyzer
	// windows at ArrivalS + simulated time). Hand-submitted sessions
	// leave it 0.
	ArrivalS float64 `json:"arrival_s,omitempty"`
	// StormPeriodS/StormBurstS describe the cohort's ad-storm phase so
	// cycle records can be tagged storm-active: a cycle at simulated
	// time t is in a storm when mod(t, period) < burst. 0 disables.
	StormPeriodS float64 `json:"storm_period_s,omitempty"`
	StormBurstS  float64 `json:"storm_burst_s,omitempty"`
	// Workload is an inline application definition — a generated
	// scenario workload (chain, perturbation, trace import) that has no
	// library name. App must be empty or match Workload.Name. The spec
	// is plain data and JSON round-trips exactly, so checkpointed
	// sessions restore bit-identically.
	Workload *workload.Spec `json:"workload,omitempty"`
	// ExtraBackground appends ambient background tasks after the load
	// condition's standard set (scenario ad storms).
	ExtraBackground []*workload.Spec `json:"extra_background,omitempty"`
	Load            string           `json:"load,omitempty"`
	Governor        string           `json:"governor,omitempty"`
	Controller      bool             `json:"controller,omitempty"`
	CPUOnly         bool             `json:"cpu_only,omitempty"`
	Profile         string           `json:"profile,omitempty"`
	TargetGIPS      float64          `json:"target_gips,omitempty"`
	Quick           bool             `json:"quick,omitempty"`
	Seed            int64            `json:"seed,omitempty"`
	Faults          string           `json:"faults,omitempty"`
	// RunForS caps the session at a fixed simulated duration (seconds);
	// 0 runs the app's standard session.
	RunForS float64 `json:"run_for_s,omitempty"`
	// MaxRestarts bounds restart-on-failure: a session gets 1 +
	// MaxRestarts attempts before it lands in failed.
	MaxRestarts int `json:"max_restarts,omitempty"`
	// LogAllocations keeps the controller's per-cycle decision log,
	// retrievable via Manager.AllocationLog (golden tests).
	LogAllocations bool `json:"log_allocations,omitempty"`
}

// normalized fills the aspeo-run defaults into zero fields.
func (c Config) normalized() Config {
	if c.Load == "" {
		c.Load = "BL"
	}
	if !c.Controller && c.Governor == "" {
		c.Governor = "interactive"
	}
	return c
}

// spec translates the config into the shared session spec, with the
// seed of one particular attempt.
func (c Config) spec(seed int64) experiment.SessionSpec {
	return experiment.SessionSpec{
		App: c.App, AppSpec: c.Workload, ExtraBackground: c.ExtraBackground,
		Load: c.Load, Governor: c.Governor,
		Controller: c.Controller, CPUOnly: c.CPUOnly,
		Profile: c.Profile, TargetGIPS: c.TargetGIPS, Quick: c.Quick,
		Seed: seed, Faults: c.Faults,
		RunFor:         time.Duration(c.RunForS * float64(time.Second)),
		LogAllocations: c.LogAllocations,
	}
}

// Validate rejects configs aspeo-run would reject, plus fleet-specific
// nonsense.
func (c Config) Validate() error {
	if err := c.normalized().spec(c.Seed).Validate(); err != nil {
		return err
	}
	if c.MaxRestarts < 0 {
		return fmt.Errorf("negative restart budget %d", c.MaxRestarts)
	}
	if c.RunForS < 0 {
		return fmt.Errorf("negative run duration %vs", c.RunForS)
	}
	if !(c.ArrivalS >= 0) || math.IsInf(c.ArrivalS, 1) {
		return fmt.Errorf("arrival time %v must be a finite, non-negative number of seconds", c.ArrivalS)
	}
	return nil
}

// Options configure a Manager.
type Options struct {
	// Workers is the worker-pool size (<= 0 means GOMAXPROCS).
	Workers int
	// Queue is the submission backlog capacity (<= 0 selects 1024).
	Queue int
	// FlightCap sizes each controller session's flight recorder — the
	// bounded ring of recent decision spans kept for postmortems. 0
	// selects obs.DefaultFlightCap; negative disables flight recording.
	FlightCap int
	// FlightDir, when set, receives automatic flight-recorder dumps
	// (NDJSON, one file per escalated attempt) whenever a session's
	// watchdog ladder escalates or the controller relinquishes.
	FlightDir string
	// CheckpointDir, when set, makes sessions crash-safe: each running
	// session's latest snapshot is written atomically to
	// <dir>/<id>.ckpt.json and removed when the session lands in a
	// terminal state. Restore resubmits the sessions found there after
	// a crash.
	CheckpointDir string
	// CheckpointEvery is the snapshot cadence — controller cycles for
	// controller sessions, simulated seconds for governor sessions
	// (<= 0 selects 25).
	CheckpointEvery int
	// CheckpointFS overrides the filesystem checkpoint writes go
	// through (the chaos harness injects failures here); nil selects
	// the real one.
	CheckpointFS ckpt.FS
	// RequestTimeout bounds non-streaming control-plane request
	// handling (<= 0 selects 30s). NDJSON streams and drain are exempt
	// — they are long-lived by design and guard their own writes.
	RequestTimeout time.Duration
	// MaxStreams bounds concurrent NDJSON status streams; excess
	// requests are shed with 429 (<= 0 selects 64).
	MaxStreams int
	// Chaos injects process-level faults — seeded worker panics,
	// stalls, checkpoint-write failures — for the chaos tests. The zero
	// value injects nothing.
	Chaos fault.ProcessPlan
}

// Defaults for the zero-valued knobs above.
const (
	defaultCheckpointEvery = 25
	defaultRequestTimeout  = 30 * time.Second
	defaultMaxStreams      = 64
)

func (o Options) checkpointEvery() int {
	if o.CheckpointEvery <= 0 {
		return defaultCheckpointEvery
	}
	return o.CheckpointEvery
}

func (o Options) requestTimeout() time.Duration {
	if o.RequestTimeout <= 0 {
		return defaultRequestTimeout
	}
	return o.RequestTimeout
}

func (o Options) maxStreams() int {
	if o.MaxStreams <= 0 {
		return defaultMaxStreams
	}
	return o.MaxStreams
}

// numShards spreads the session store over independently locked maps so
// status reads (HTTP handlers, rollups) never contend on one mutex with
// tens of workers publishing cycle telemetry.
const numShards = 16

type shard struct {
	mu sync.RWMutex
	m  map[string]*session
}

// Manager owns the fleet: the session store, the worker pool and the
// telemetry aggregator. Safe for concurrent use.
type Manager struct {
	pool   *par.Pool
	opts   Options
	shards [numShards]shard

	seq       atomic.Uint64 // session ordinal source
	submitted atomic.Int64
	restarts  atomic.Int64
	draining  atomic.Bool

	// Live counters no session record carries, reported in the rollup.
	panics      atomic.Int64 // worker panics recovered
	httpPanics  atomic.Int64 // control-plane handler panics recovered
	ckptDone    atomic.Int64 // checkpoints written durably
	ckptFailed  atomic.Int64 // checkpoint writes that failed
	shedQueue   atomic.Int64 // submissions shed: queue full
	shedStreams atomic.Int64 // streams shed: at MaxStreams

	// Lifecycle population counters, maintained at every transition so
	// Rollup never walks the session store (the scrape path takes no
	// session locks).
	stPending   atomic.Int64
	stRunning   atomic.Int64
	stCompleted atomic.Int64
	stFailed    atomic.Int64
	stStopped   atomic.Int64

	ckptFS    ckpt.FS
	streamSem chan struct{} // bounds concurrent NDJSON streams

	agg aggregator

	// pipe is the fleet's telemetry pipeline: per-worker rings the
	// session hot path pushes cycle records into, sharded commutative
	// aggregation, and the epoch snapshots the scrape paths serve from.
	pipe *pipeline.Pipeline

	shim report.MetricsShim // see Registry
}

// NewManager starts the worker pool and returns a ready manager. It
// panics on an unusable chaos plan — a construction-time configuration
// error, not a runtime condition.
func NewManager(o Options) *Manager {
	if err := o.Chaos.Validate(); err != nil {
		panic(err)
	}
	m := &Manager{pool: par.NewPool(o.Workers, o.Queue), opts: o}
	for i := range m.shards {
		m.shards[i].m = make(map[string]*session)
	}
	m.agg.start = time.Now()
	m.ckptFS = o.CheckpointFS
	if m.ckptFS == nil {
		m.ckptFS = ckpt.OS{}
	}
	m.streamSem = make(chan struct{}, o.maxStreams())
	m.pipe = pipeline.New(pipeline.Options{Workers: m.pool.NumWorkers()})
	return m
}

// Registry returns the shim behind the scrape call shape
// report.RollupMetrics(m.Registry(), r) then m.Registry().WriteText(w).
// It exists only for the repo benchmark, which scrapes that way; the
// /metrics handler calls report.WriteMetrics(w, m.Rollup()).
func (m *Manager) Registry() *report.MetricsShim { return &m.shim }

// Telemetry returns the fleet's telemetry pipeline — the epoch-snapshot
// and NDJSON-stream surface (aspeo-fleet's /api/v1/telemetry, scenario
// assertion evaluation).
func (m *Manager) Telemetry() *pipeline.Pipeline { return m.pipe }

// Errors the control plane maps to HTTP statuses.
var (
	// ErrDraining rejects submissions once a drain has begun.
	ErrDraining = fmt.Errorf("fleet: draining, not accepting sessions")
	// ErrNotFound reports an unknown session id.
	ErrNotFound = fmt.Errorf("fleet: no such session")
)

// Submit validates the config and queues one session. It returns the
// accepted session's view (state pending) without waiting for a worker.
func (m *Manager) Submit(cfg Config) (SessionView, error) {
	if m.draining.Load() {
		return SessionView{}, ErrDraining
	}
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		return SessionView{}, err
	}
	seq := m.seq.Add(1)
	return m.enqueue(&session{id: fmt.Sprintf("s-%06d", seq), seq: seq, cfg: cfg})
}

// enqueue is the one path into the fleet, for new and restored
// sessions alike: it makes s a pending session, registers it under its
// id and hands it to the worker pool, taking it back out when the pool
// refuses it (queue full, pool closed). An accepted session arrives in
// the telemetry pipeline; a restored one arrives anew, because the
// pre-crash pipeline state died with its process.
func (m *Manager) enqueue(s *session) (SessionView, error) {
	s.cohortID = m.pipe.CohortID(s.cfg.Cohort)
	s.state = StatePending
	s.submittedAt = time.Now()
	s.done = make(chan struct{})
	sh := m.shardOf(s.id)
	sh.mu.Lock()
	if _, exists := sh.m[s.id]; exists {
		sh.mu.Unlock()
		return SessionView{}, fmt.Errorf("session %s already present", s.id)
	}
	sh.m[s.id] = s
	sh.mu.Unlock()

	if err := m.pool.SubmitIndexed(func(worker int) { m.runSession(worker, s) }); err != nil {
		sh.mu.Lock()
		delete(sh.m, s.id)
		sh.mu.Unlock()
		return SessionView{}, err
	}
	m.submitted.Add(1)
	m.stPending.Add(1)
	// Arrival partition is free to use any shard — arrivals are integer
	// counts, so the merged rollup is identical either way.
	m.pipe.ObserveArrival(int(s.seq), s.cohortID, s.cfg.ArrivalS)
	return s.view(), nil
}

func (m *Manager) shardOf(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &m.shards[h.Sum32()%numShards]
}

func (m *Manager) lookup(id string) (*session, error) {
	sh := m.shardOf(id)
	sh.mu.RLock()
	s := sh.m[id]
	sh.mu.RUnlock()
	if s == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return s, nil
}

// Get returns one session's status.
func (m *Manager) Get(id string) (SessionView, error) {
	s, err := m.lookup(id)
	if err != nil {
		return SessionView{}, err
	}
	return s.view(), nil
}

// List returns every session (state "" ) or those in one state, ordered
// by submission.
func (m *Manager) List(state State) []SessionView {
	var views []SessionView
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for _, s := range sh.m {
			v := s.view()
			if state == "" || v.State == state {
				views = append(views, v)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(views, func(i, j int) bool { return views[i].seq < views[j].seq })
	return views
}

// Stop requests a session stop: a pending session is skipped when its
// worker picks it up, a running one ends at the next engine step. The
// call does not wait; watch the session or WaitSession for the terminal
// state.
func (m *Manager) Stop(id string) error {
	s, err := m.lookup(id)
	if err != nil {
		return err
	}
	s.stop.Store(true)
	return nil
}

// WaitSession blocks until the session reaches a terminal state or the
// context ends, returning the final view.
func (m *Manager) WaitSession(ctx context.Context, id string) (SessionView, error) {
	s, err := m.lookup(id)
	if err != nil {
		return SessionView{}, err
	}
	select {
	case <-s.done:
		return s.view(), nil
	case <-ctx.Done():
		return s.view(), ctx.Err()
	}
}

// TraceSnapshot returns the session's flight-recorder content — the most
// recent decision spans, oldest first — live or terminal. It is empty
// for governor sessions, before the first cycle, or when flight
// recording is disabled (Options.FlightCap < 0).
func (m *Manager) TraceSnapshot(id string) ([]obs.Span, error) {
	s, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	rec := s.flight
	s.mu.Unlock()
	if rec == nil {
		return nil, nil
	}
	return rec.Snapshot(), nil
}

// AllocationLog returns a completed session's controller decision log
// (Config.LogAllocations must have been set) — the golden tests'
// cycle-for-cycle comparison record.
func (m *Manager) AllocationLog(id string) ([]core.AllocationRecord, error) {
	s, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.allocLog, nil
}

// Drain stops intake and waits for every queued and running session to
// reach a terminal state. If the context ends first, remaining sessions
// are stopped cooperatively and Drain still waits for them to land
// (interrupts take effect within one engine step), then reports the
// context error.
func (m *Manager) Drain(ctx context.Context) error {
	m.draining.Store(true)
	done := make(chan struct{})
	go func() {
		m.pool.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, v := range m.List("") {
			if !v.State.Terminal() {
				_ = m.Stop(v.ID)
			}
		}
		<-done
		return ctx.Err()
	}
}

// Draining reports whether intake is closed.
func (m *Manager) Draining() bool { return m.draining.Load() }

// Rollup folds the fleet into one aggregate: population by state, cycle
// throughput, and the pipeline's merged telemetry. It never takes a
// session lock — lifecycle populations come from the transition
// counters, everything else from the pipeline's epoch rollup — so
// scraping a large fleet under load contends only on the shard mutexes
// for the drain, never with a running session's status record.
func (m *Manager) Rollup() report.FleetRollup {
	t := m.pipe.Rollup()
	r := report.FleetRollup{
		Pending:             int(m.stPending.Load()),
		Running:             int(m.stRunning.Load()),
		Completed:           int(m.stCompleted.Load()),
		Failed:              int(m.stFailed.Load()),
		Stopped:             int(m.stStopped.Load()),
		Submitted:           int(m.submitted.Load()),
		Restarts:            int(m.restarts.Load()),
		PanicsRecovered:     int(m.panics.Load()),
		HTTPPanicsRecovered: int(m.httpPanics.Load()),
		CheckpointsWritten:  int(m.ckptDone.Load()),
		CheckpointFailures:  int(m.ckptFailed.Load()),
		ShedQueueFull:       int(m.shedQueue.Load()),
		ShedMaxStreams:      int(m.shedStreams.Load()),
		Telemetry:           t,
	}
	r.CyclesTotal, r.CyclesPerSec = m.agg.rate(int64(t.Cycles))
	return r
}
