package sim

import (
	"fmt"
	"time"
)

// This file is the event-queue engine core. Instead of marching the
// clock one fixed step at a time and asking every actor "are you due
// yet?", the core keeps a min-heap of future events — one per
// registered actor, plus the run deadline — processes them in
// non-decreasing timestamp order, and integrates each quiescent
// interval between events in closed form (Phone.StepSpan). Workload-
// phase transitions do not need heap entries: they surface as derived
// micro-events inside StepSpan, which bounds every fused span at the
// next phase boundary and re-plans there.
//
// The core maintains two invariants, enforced when Options.
// DebugInvariants is set:
//
//	INV-MONO  (clock monotonicity): events are consumed in
//	          non-decreasing timestamp order, and the device clock
//	          never runs ahead of the next pending event.
//	INV-WORK  (work conservation): every span the device is handed is
//	          integrated to exactly the next event boundary — the
//	          engine neither idles short of it nor overshoots it. The
//	          only sanctioned early exit is foreground completion
//	          under StopWhenFGDone.

// EventKind classifies the typed events the core schedules.
type EventKind uint8

// Event kinds. Actor-driven kinds are assigned at Register time from
// the actor's identity; EvDeadline is the run's terminal event.
const (
	// EvActorTick is a periodic actor with no more specific type.
	EvActorTick EventKind = iota
	// EvControlCycle is the paper controller's T-quantum tick.
	EvControlCycle
	// EvGovernorSample is a kernel governor's sampling-window timer
	// (cpufreq interactive/ondemand/conservative, devfreq cpubw_hwmon).
	EvGovernorSample
	// EvPerfWindow closes a perf-tool measurement window.
	EvPerfWindow
	// EvFaultFiring delivers a scheduled fault-plan step.
	EvFaultFiring
	// EvDeadline ends the run window.
	EvDeadline
)

// String returns a short label for traces and invariant panics.
func (k EventKind) String() string {
	switch k {
	case EvControlCycle:
		return "control-cycle"
	case EvGovernorSample:
		return "governor-sample"
	case EvPerfWindow:
		return "perf-window"
	case EvFaultFiring:
		return "fault-firing"
	case EvDeadline:
		return "deadline"
	}
	return "actor-tick"
}

// classifyActor maps a registered actor to its event kind by the
// actor's published name. Unknown actors schedule as generic ticks —
// classification is cosmetic (traces, invariant messages), never
// semantic: ordering depends only on (time, seq).
func classifyActor(name string) EventKind {
	switch name {
	case "aspeo-controller":
		return EvControlCycle
	case "cpufreq", "devfreq":
		return EvGovernorSample
	case "perf":
		return EvPerfWindow
	case "fault-injector":
		return EvFaultFiring
	}
	return EvActorTick
}

// Event is one scheduled occurrence in the queue.
type Event struct {
	At   time.Duration
	Seq  uint64 // FIFO tiebreak: assigned in push order, strictly increasing
	Kind EventKind
	// Actor is the index into the engine's registration list, or -1 for
	// engine-internal events (the deadline).
	Actor int
}

// eventQueue is a binary min-heap ordered by (At, Seq): earliest
// timestamp first, and stable FIFO — push order — among equal
// timestamps. Implemented directly rather than via container/heap to
// keep Push/Pop allocation-free on the hot path.
type eventQueue struct {
	ev  []Event
	seq uint64
}

func (q *eventQueue) less(a, b Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Seq < b.Seq
}

// Reset empties the queue, keeping capacity.
func (q *eventQueue) Reset() {
	q.ev = q.ev[:0]
	q.seq = 0
}

// Len returns the number of pending events.
func (q *eventQueue) Len() int { return len(q.ev) }

// Push schedules an event, assigning its FIFO sequence number.
func (q *eventQueue) Push(e Event) {
	e.Seq = q.seq
	q.seq++
	q.ev = append(q.ev, e)
	// Sift up.
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.ev[i], q.ev[parent]) {
			break
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

// Peek returns the earliest pending event without removing it. The
// queue must be non-empty.
func (q *eventQueue) Peek() Event { return q.ev[0] }

// Pop removes and returns the earliest pending event. The queue must be
// non-empty.
func (q *eventQueue) Pop() Event {
	top := q.ev[0]
	last := len(q.ev) - 1
	q.ev[0] = q.ev[last]
	q.ev = q.ev[:last]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= len(q.ev) {
			break
		}
		min := l
		if r < len(q.ev) && q.less(q.ev[r], q.ev[l]) {
			min = r
		}
		if !q.less(q.ev[min], q.ev[i]) {
			break
		}
		q.ev[i], q.ev[min] = q.ev[min], q.ev[i]
		i = min
	}
	return top
}

// runEvent is the engine's run loop. It rebuilds the queue from the
// authoritative actor schedule (actors[i].next) at entry, so a cell
// restored via RestoreActors resumes with the exact deadlines the
// checkpoint recorded.
//
// Each loop top is an event boundary: foreground-done check, interrupt
// poll, checkpoint hook (the quiescent point), due actors ticked in
// registration order, then one span to the next event. The observable
// trajectory is that of the literal loop — every 1 ms step, scan the
// actors in registration order, tick those due, and Step the phone once
// — which the package tests keep as the reference oracle.
func (e *Engine) runEvent(cur RunCursor) {
	ph := e.phone
	deadline := cur.Deadline
	stopWhenFGDone := cur.StopWhenFGDone

	e.queue.Reset()
	for i := range e.actors {
		e.queue.Push(Event{At: e.actors[i].next, Kind: e.actors[i].kind, Actor: i})
	}
	e.queue.Push(Event{At: deadline, Kind: EvDeadline, Actor: -1})
	if e.due == nil {
		e.due = make([]int, 0, len(e.actors))
	}
	lastAt := time.Duration(-1 << 62)

	for ph.Now() < deadline {
		if stopWhenFGDone && ph.FGDone() {
			break
		}
		if e.interrupt != nil && e.interrupt() {
			break
		}
		if e.ckptHook != nil {
			// Quiescent point: no actor mid-tick, no span in flight, and
			// actors[i].next consistent with the queue.
			e.ckptHook()
		}
		now := ph.Now()

		// Consume every event due now. Actor events re-arm; the deadline
		// event terminates the loop via the outer condition. Due actors
		// are collected and ticked in registration order — the engine's
		// stable ordering contract for simultaneous events (heap order
		// among equal timestamps is push order, which after re-arms is
		// not registration order; the due set restores it).
		e.due = e.due[:0]
		for e.queue.Len() > 0 && e.queue.Peek().At <= now {
			ev := e.queue.Pop()
			if e.debug && ev.At < lastAt {
				panic(fmt.Sprintf("sim: INV-MONO violated: %s event at %v after boundary %v", ev.Kind, ev.At, lastAt))
			}
			if ev.At > lastAt {
				lastAt = ev.At
			}
			if ev.Actor >= 0 {
				e.due = append(e.due, ev.Actor)
			}
		}
		insertionSort(e.due)
		for _, i := range e.due {
			e.actors[i].actor.Tick(now, ph)
			e.actors[i].next = now + e.actors[i].actor.Period()
			e.queue.Push(Event{At: e.actors[i].next, Kind: e.actors[i].kind, Actor: i})
		}

		// Integrate the quiescent interval to the next event boundary.
		next := deadline
		if e.queue.Len() > 0 && e.queue.Peek().At < next {
			next = e.queue.Peek().At
		}
		if e.debug && next < now {
			panic(fmt.Sprintf("sim: INV-MONO violated: next event %v behind clock %v", next, now))
		}
		n := int((next - now) / e.step)
		if n < 1 {
			n = 1
		}
		ran := ph.StepSpan(e.step, n, stopWhenFGDone)
		if e.debug && ran != n && !(stopWhenFGDone && ph.FGDone()) {
			panic(fmt.Sprintf("sim: INV-WORK violated: span [%v, %v) ran %d/%d steps without a sanctioned early exit", now, next, ran, n))
		}
	}
}

// insertionSort orders the small due-actor index set ascending without
// allocating; len is bounded by the registered actor count (≤ 5 in any
// current session).
func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
