package sim

import "time"

// SetDebugInvariants turns the event core's invariant enforcement
// (INV-WORK, event.go) on or off; every reference-equivalence test turns
// it on.
func (e *Engine) SetDebugInvariants(on bool) { e.debug = on }

// RunReference is the oracle the event core is tested against: Run
// written as the literal loop. Every step it scans the actors in
// registration order, ticks those that are due, and advances the phone
// by exactly one Step — no boundary skipping, no closed-form spans. The
// interrupt and checkpoint hooks are polled where the event core polls
// them: at run entry and at every step where an actor is due. Any
// difference between Run and RunReference on the same cell is an
// event-core bug.
func (e *Engine) RunReference(until time.Duration, stopWhenFGDone bool) Stats {
	cur := e.startRun(until, stopWhenFGDone)
	e.cursor = cur
	ph := e.phone
	for first := true; ph.Now() < cur.Deadline; first = false {
		if stopWhenFGDone && ph.FGDone() {
			break
		}
		now := ph.Now()
		boundary := first
		for i := range e.actors {
			if now >= e.actors[i].next {
				boundary = true
			}
		}
		if boundary {
			if e.interrupt != nil && e.interrupt() {
				break
			}
			if e.ckptHook != nil {
				e.ckptHook()
			}
			for i := range e.actors {
				if now >= e.actors[i].next {
					e.actors[i].actor.Tick(now, ph)
					e.actors[i].next = now + e.actors[i].actor.Period()
				}
			}
		}
		ph.Step(DefaultStep)
	}
	return e.finishRun(cur)
}
