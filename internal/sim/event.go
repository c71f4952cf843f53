package sim

import "fmt"

// This file is the engine's run loop. Instead of marching the clock one
// fixed step at a time and asking every actor "are you due yet?", the
// loop stops only at actor deadlines: at each such boundary it ticks the
// due actors and integrates the quiescent interval up to the next
// deadline in closed form (Phone.StepSpan). The actor schedule,
// actors[i].next, is the one record of those deadlines — the checkpoint
// captures it, and Run and Resume start from it with nothing to
// rebuild. A session registers at most a handful of actors, so one scan
// of the schedule per boundary finds both the due set and the next
// boundary. Workload-phase transitions are not scheduled: they surface
// inside StepSpan, which bounds every fused span at the next phase
// boundary and re-plans there.
//
// With debug invariants on (SetDebugInvariants, used by tests), the loop
// enforces
//
//	INV-WORK  (work conservation): every span the device is handed is
//	          integrated to exactly the next boundary — the engine
//	          neither idles short of it nor overshoots it. The only
//	          sanctioned early exit is foreground completion under
//	          StopWhenFGDone.

// runEvent runs the loop over the cursor's window. Each loop top is a
// boundary: foreground-done check, interrupt poll, checkpoint hook (the
// quiescent point), the due actors ticked in registration order, then
// one span to the next deadline or the run's end. The observable
// trajectory is that of the literal loop — every 1 ms step, scan the
// actors in registration order, tick those due, and Step the phone once
// — which the package tests keep as the reference oracle
// (RunReference).
func (e *Engine) runEvent(cur RunCursor) {
	ph := e.phone
	deadline := cur.Deadline
	stopWhenFGDone := cur.StopWhenFGDone

	for ph.Now() < deadline {
		if stopWhenFGDone && ph.FGDone() {
			break
		}
		if e.interrupt != nil && e.interrupt() {
			break
		}
		if e.ckptHook != nil {
			// Quiescent point: no actor mid-tick, no span in flight.
			e.ckptHook()
		}
		now := ph.Now()

		// A tick moves only the device, never another actor's deadline,
		// so one pass both ticks the due set and finds the next boundary.
		next := deadline
		for i := range e.actors {
			a := &e.actors[i]
			if a.next <= now {
				a.actor.Tick(now, ph)
				a.next = now + a.actor.Period()
			}
			if a.next < next {
				next = a.next
			}
		}

		// A boundary less than one step away still advances the clock by
		// one step, or the loop would never move past it.
		n := int((next - now) / DefaultStep)
		if n < 1 {
			n = 1
		}
		ran := ph.StepSpan(DefaultStep, n, stopWhenFGDone)
		if e.debug && ran != n && !(stopWhenFGDone && ph.FGDone()) {
			panic(fmt.Sprintf("sim: INV-WORK violated: span [%v, %v) ran %d/%d steps without a sanctioned early exit", now, next, ran, n))
		}
	}
}
