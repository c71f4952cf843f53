package fleet

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"aspeo/internal/ckpt"
	"aspeo/internal/core"
	"aspeo/internal/experiment"
	"aspeo/internal/obs"
	"aspeo/internal/obs/pipeline"
	"aspeo/internal/platform"
	"aspeo/internal/report"
)

// restartSeedStride separates the seeds of a session's restart attempts:
// replaying the exact cell that just failed would fail identically, so a
// retry models what a real re-run faces — the same plan under different
// stochastic conditions. Attempt k runs at Seed + k·stride; the stride
// is a prime far larger than any campaign's seed spacing so attempt
// seeds never collide with sibling sessions'.
const restartSeedStride = 1_000_003

// session is the manager's per-session record. The simulation cell
// itself stays single-threaded on the worker goroutine; mu guards only
// this status record, which HTTP handlers and rollups read concurrently.
type session struct {
	id   string
	seq  uint64
	cfg  Config
	stop atomic.Bool

	// cohortID is the telemetry pipeline's interned cohort, captured at
	// submit so the hot path never touches the intern table.
	cohortID uint32
	// healthResid accumulates the ladder deltas each attempt's final
	// summary carried beyond its last observed cycle; the worker
	// goroutine owns it and the session's final record reports it.
	healthResid pipeline.HealthDelta
	// lastSnap is the most recent cycle snapshot, published lock-free
	// from the cycle hot path and read by views.
	lastSnap atomic.Pointer[core.CycleSnapshot]

	// Restore-on-start: a session resubmitted from a checkpoint resumes
	// from this snapshot on its first attempt. baseAttempt is the
	// attempt ordinal the snapshot was taken under — the restored
	// attempt must rebuild with that attempt's seed to restore into an
	// identical cell. Both are written before the worker starts (the
	// pool submit is the happens-before edge) and only the worker reads
	// them.
	resume      *experiment.CellState
	baseAttempt int

	mu          sync.Mutex
	state       State
	restarts    int
	errMsg      string
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	summary     *report.RunSummary
	allocLog    []core.AllocationRecord
	flight      *obs.Recorder // current attempt's flight recorder
	flightDump  string        // path of the last automatic NDJSON dump

	done chan struct{} // closed on terminal state
}

// SessionView is a session's externally visible status — the fleet
// API's session resource.
type SessionView struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Config   Config `json:"config"`
	Restarts int    `json:"restarts"`
	Error    string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// LastCycle is the controller's most recent per-cycle snapshot
	// (live telemetry; nil for governor sessions or before the first
	// cycle).
	LastCycle *core.CycleSnapshot `json:"last_cycle,omitempty"`
	// Summary is the run's final record, present once terminal (partial
	// for stopped sessions).
	Summary *report.RunSummary `json:"summary,omitempty"`
	// FlightDump is the path of the automatic flight-recorder dump, set
	// when an attempt escalated and the manager has a dump directory.
	FlightDump string `json:"flight_dump,omitempty"`

	seq uint64 // ordering key for List
}

func (s *session) view() SessionView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := SessionView{
		ID: s.id, State: s.state, Config: s.cfg,
		Restarts: s.restarts, Error: s.errMsg,
		SubmittedAt: s.submittedAt, FlightDump: s.flightDump, seq: s.seq,
	}
	if !s.startedAt.IsZero() {
		t := s.startedAt
		v.StartedAt = &t
	}
	if !s.finishedAt.IsZero() {
		t := s.finishedAt
		v.FinishedAt = &t
	}
	if snap := s.lastSnap.Load(); snap != nil {
		c := *snap
		v.LastCycle = &c
	}
	if s.summary != nil {
		sum := *s.summary
		v.Summary = &sum
	}
	return v
}

// Terminal reports whether the view shows a final state.
func (v SessionView) Terminal() bool { return v.State.Terminal() }

// runSession is the worker-side lifecycle: pending → running → one or
// more attempts → terminal state. It owns the simulation cell for the
// session's whole life; everything it shares with readers goes through
// the session mutex. worker is the pool worker index running it — the
// session's telemetry shard for its whole life.
func (m *Manager) runSession(worker int, s *session) {
	// land folds the session's final telemetry record and drops its
	// checkpoint (both before done closes, so a rollup taken after
	// WaitSession always includes the record and the checkpoint is
	// already gone), maintains the lifecycle population counters, and
	// finishes.
	land := func(state State, errMsg string, from *atomic.Int64, to *atomic.Int64) {
		m.foldFinal(worker, s)
		m.removeCheckpoint(s.id)
		from.Add(-1)
		to.Add(1)
		s.finish(state, errMsg)
	}
	if s.stop.Load() {
		land(StateStopped, "stopped before start", &m.stPending, &m.stStopped)
		return
	}
	m.stPending.Add(-1)
	m.stRunning.Add(1)
	s.mu.Lock()
	s.state = StateRunning
	s.startedAt = time.Now()
	s.mu.Unlock()

	for attempt := s.baseAttempt; ; attempt++ {
		failure := m.runAttempt(worker, s, attempt)
		if s.stop.Load() {
			land(StateStopped, "", &m.stRunning, &m.stStopped)
			return
		}
		if failure == "" {
			land(StateCompleted, "", &m.stRunning, &m.stCompleted)
			return
		}
		if attempt >= s.cfg.MaxRestarts {
			land(StateFailed, failure, &m.stRunning, &m.stFailed)
			return
		}
		m.restarts.Add(1)
		s.mu.Lock()
		s.restarts++
		s.errMsg = failure // visible while the retry runs
		s.mu.Unlock()
	}
}

// foldFinal reports the session's terminal record to the telemetry
// pipeline: the run totals when a summary exists, plus the residual
// health deltas the cycle stream did not cover.
func (m *Manager) foldFinal(worker int, s *session) {
	fin := pipeline.FinalRecord{
		Session: s.seq,
		Cohort:  s.cohortID,
		Health:  s.healthResid,
	}
	s.mu.Lock()
	sum := s.summary
	s.mu.Unlock()
	if sum != nil {
		fin.HasSummary = true
		fin.DurationS = sum.DurationS
		fin.EnergyJ = sum.EnergyJ
		fin.DroppedInstr = sum.DroppedInstr
		fin.GIPS = sum.GIPS
		if c := sum.Controller; c != nil {
			fin.Controller = true
			fin.MeanAbsErrGIPS = c.MeanAbsErrGIPS
			fin.Relinquished = c.Health.Relinquished
			fin.LastTransition = c.Health.LastTransition
		}
	}
	m.pipe.ObserveFinal(worker, &fin)
}

// healthDelta computes the per-record ladder delta between two ledgers
// and advances prev. Counters difference exactly; ConsecutiveFailures
// is a level, not a counter, and its deltas (which may be negative)
// reconstruct the sum of last-seen levels when aggregated.
func healthDelta(prev *platform.Health, cur *platform.Health) pipeline.HealthDelta {
	d := pipeline.HealthDelta{
		ActuationFailures:   int32(cur.ActuationFailures - prev.ActuationFailures),
		ActuationRetries:    int32(cur.ActuationRetries - prev.ActuationRetries),
		GovernorReinstalls:  int32(cur.GovernorReinstalls - prev.GovernorReinstalls),
		MaxFreqRestores:     int32(cur.MaxFreqRestores - prev.MaxFreqRestores),
		RejectedSamples:     int32(cur.RejectedSamples - prev.RejectedSamples),
		NonFiniteSamples:    int32(cur.NonFiniteSamples - prev.NonFiniteSamples),
		StuckSamples:        int32(cur.StuckSamples - prev.StuckSamples),
		OutlierSamples:      int32(cur.OutlierSamples - prev.OutlierSamples),
		DegradedCycles:      int32(cur.DegradedCycles - prev.DegradedCycles),
		WatchdogTrips:       int32(cur.WatchdogTrips - prev.WatchdogTrips),
		ConsecutiveFailures: int32(cur.ConsecutiveFailures - prev.ConsecutiveFailures),
	}
	*prev = *cur
	return d
}

// addHealthDelta accumulates d into acc.
func addHealthDelta(acc *pipeline.HealthDelta, d pipeline.HealthDelta) {
	acc.ActuationFailures += d.ActuationFailures
	acc.ActuationRetries += d.ActuationRetries
	acc.GovernorReinstalls += d.GovernorReinstalls
	acc.MaxFreqRestores += d.MaxFreqRestores
	acc.RejectedSamples += d.RejectedSamples
	acc.NonFiniteSamples += d.NonFiniteSamples
	acc.StuckSamples += d.StuckSamples
	acc.OutlierSamples += d.OutlierSamples
	acc.DegradedCycles += d.DegradedCycles
	acc.WatchdogTrips += d.WatchdogTrips
	acc.ConsecutiveFailures += d.ConsecutiveFailures
}

// runAttempt builds and runs one cell. It returns "" on success or a
// failure description: a construction error, a run that died, a worker
// panic (contained here — the deferred recover converts it into an
// ordinary failed attempt feeding the restart ladder), or a controller
// that relinquished the device — the resilience ladder's terminal rung,
// which the fleet treats as session failure (the controller-managed run
// it was asked for did not survive).
func (m *Manager) runAttempt(worker int, s *session, attempt int) (failure string) {
	var rec *obs.Recorder
	defer func() {
		if r := recover(); r != nil {
			failure = fmt.Sprintf("panic: %v", r)
			m.panics.Add(1)
			m.cPanics.With("worker").Inc()
			if rec != nil {
				// The flight recorder holds the decision spans leading up
				// to the panic — exactly the postmortem record FlightDir
				// exists for.
				m.dumpFlight(s, attempt, rec)
			}
		}
	}()

	spec := s.cfg.spec(s.cfg.Seed + int64(attempt)*restartSeedStride)
	// The cycle hook is the fleet's telemetry hot path: one compact
	// record into this worker's ring (lock-free, allocation-free in the
	// steady state) and a lock-free snapshot publish. prevHealth turns
	// the cumulative ladder ledger into per-cycle deltas so shard sums
	// commute; it is worker-local state, one goroutine only.
	var prevHealth platform.Health
	cohort, arrival := s.cohortID, s.cfg.ArrivalS
	stormP, stormB := s.cfg.StormPeriodS, s.cfg.StormBurstS
	spec.OnCycle = func(cs core.CycleSnapshot) {
		at := cs.At.Seconds()
		rec := pipeline.CycleRecord{
			Session:      s.seq,
			Cohort:       cohort,
			T:            arrival + at,
			MeasuredGIPS: cs.MeasuredGIPS,
			TargetGIPS:   cs.TargetGIPS,
			PowerW:       cs.PowerW,
			Health:       healthDelta(&prevHealth, &cs.Health),
		}
		if stormP > 0 {
			rec.Storm = math.Mod(at, stormP) < stormB
		}
		m.pipe.ObserveCycle(worker, &rec)
		snap := cs
		s.lastSnap.Store(&snap)
	}
	if chaos := m.opts.Chaos; !chaos.Zero() {
		inner := spec.OnCycle
		att := attempt + 1 // the plan speaks 1-based attempts
		spec.OnCycle = func(cs core.CycleSnapshot) {
			inner(cs)
			if chaos.ShouldStall(cs.CyclesRun) {
				time.Sleep(chaos.StallFor)
			}
			if chaos.ShouldPanic(att, cs.CyclesRun) {
				panic(fmt.Sprintf("fault: injected worker panic at cycle %d (attempt %d)", cs.CyclesRun, att))
			}
		}
	}
	if m.opts.CheckpointDir != "" {
		path := m.checkpointPath(s.id)
		meta := checkpointMeta{ID: s.id, Seq: s.seq, Config: s.cfg, Attempt: attempt}
		spec.CheckpointEvery = m.opts.checkpointEvery()
		spec.OnCheckpoint = func(cs *experiment.CellState) error {
			if err := ckpt.Save(m.ckptFS, path, checkpointKind, meta, cs); err != nil {
				m.cCkptFail.Inc()
				return err
			}
			m.ckptDone.Add(1)
			m.cCkpt.Inc()
			return nil
		}
	}

	// Each controller attempt gets a fresh flight recorder: the bounded
	// ring of recent decision spans, readable live (TraceSnapshot / the
	// trace endpoint) and dumped to FlightDir when the attempt escalates.
	if s.cfg.Controller && m.opts.FlightCap >= 0 {
		rec = obs.NewRecorder(m.opts.FlightCap)
		spec.Trace = rec
		s.mu.Lock()
		s.flight = rec
		s.mu.Unlock()
	}

	sess, err := experiment.NewSession(spec)
	if err != nil {
		return err.Error()
	}
	if s.resume != nil && attempt == s.baseAttempt {
		cs := s.resume
		s.resume = nil // a failed restore must not replay on the retry
		if err := sess.RestoreState(cs); err != nil {
			return fmt.Sprintf("restoring checkpoint: %v", err)
		}
	}
	st := sess.Run(s.stop.Load)
	sum := report.NewRunSummary(sess, st)
	if c := sum.Controller; c != nil {
		// Ladder activity between the last observed cycle and the final
		// ledger rides on the session's final record, so aggregate health
		// is exact — cumulative across every attempt.
		addHealthDelta(&s.healthResid, healthDelta(&prevHealth, &c.Health))
	}

	s.mu.Lock()
	s.summary = &sum
	if s.cfg.LogAllocations && sess.Controller != nil {
		s.allocLog = sess.Controller.AllocationLog()
	}
	s.mu.Unlock()

	if rec != nil {
		if c := sum.Controller; c != nil && (c.Health.WatchdogTrips > 0 || c.Health.Relinquished) {
			m.dumpFlight(s, attempt, rec)
		}
	}
	if c := sum.Controller; c != nil && c.Health.Relinquished {
		return "controller relinquished the device"
	}
	return ""
}

// dumpFlight writes the attempt's flight-recorder content to the
// manager's dump directory (best effort — a dump failure never fails the
// session) and records the path in the session's status.
func (m *Manager) dumpFlight(s *session, attempt int, rec *obs.Recorder) {
	if m.opts.FlightDir == "" {
		return
	}
	path := filepath.Join(m.opts.FlightDir, fmt.Sprintf("%s-a%d.trace.ndjson", s.id, attempt))
	f, err := os.Create(path)
	if err != nil {
		return
	}
	werr := rec.WriteNDJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return
	}
	s.mu.Lock()
	s.flightDump = path
	s.mu.Unlock()
}

// finish lands the session in a terminal state exactly once.
func (s *session) finish(state State, errMsg string) {
	s.mu.Lock()
	s.state = state
	if errMsg != "" {
		s.errMsg = errMsg
	} else if state != StateFailed {
		s.errMsg = ""
	}
	s.finishedAt = time.Now()
	s.mu.Unlock()
	close(s.done)
}

// aggregator turns the telemetry pipeline's fleet-wide cycle count into
// a stable recent throughput: the rate over the window since the last
// baseline, where the baseline only advances once the window exceeds a
// second — so back-to-back /metrics scrapes don't each measure a
// microscopic window.
type aggregator struct {
	mu         sync.Mutex
	start      time.Time
	baseWall   time.Time
	baseCycles int64
	lastRate   float64
}

// rate reports the cycle total and recent throughput given the current
// fleet-wide cycle count.
func (a *aggregator) rate(cycles int64) (total int, perSec float64) {
	now := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.baseWall.IsZero() {
		a.baseWall = a.start
	}
	if dt := now.Sub(a.baseWall); dt >= time.Second {
		a.lastRate = float64(cycles-a.baseCycles) / dt.Seconds()
		a.baseWall = now
		a.baseCycles = cycles
	} else if a.lastRate == 0 && dt > 0 {
		// Young fleet: report the rate since start rather than 0.
		a.lastRate = float64(cycles-a.baseCycles) / dt.Seconds()
	}
	return int(cycles), a.lastRate
}
