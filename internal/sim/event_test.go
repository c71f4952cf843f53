package sim

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aspeo/internal/platform"
	"aspeo/internal/workload"
)

// --- eventQueue properties -------------------------------------------------

// TestEventQueueStableFIFO: events pushed at the same timestamp pop in
// push order, regardless of what else is in the heap.
func TestEventQueueStableFIFO(t *testing.T) {
	var q eventQueue
	// Interleave two timestamps; within each, push order must survive.
	for i := 0; i < 64; i++ {
		q.Push(Event{At: time.Duration(i % 2), Actor: i})
	}
	var got [2][]int
	for q.Len() > 0 {
		ev := q.Pop()
		got[ev.At] = append(got[ev.At], ev.Actor)
	}
	for at := 0; at < 2; at++ {
		for j := 1; j < len(got[at]); j++ {
			if got[at][j] <= got[at][j-1] {
				t.Fatalf("t=%d: pop order %v not push order", at, got[at])
			}
		}
		if len(got[at]) != 32 {
			t.Fatalf("t=%d: popped %d events, want 32", at, len(got[at]))
		}
	}
}

// TestEventQueueOrderingRandomized: under seeded storms of interleaved
// pushes and pops, every popped event is ordered by (At, Seq) — i.e.
// non-decreasing in time, FIFO among equal timestamps — and nothing is
// lost or invented.
func TestEventQueueOrderingRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(0x57047))
	for trial := 0; trial < 200; trial++ {
		var q eventQueue
		pushed, popped := 0, 0
		var last Event
		haveLast := false
		// A small timestamp alphabet forces heavy collision; pops are
		// interleaved with pushes so the heap shape is exercised at every
		// size.
		for op := 0; op < 500; op++ {
			if q.Len() == 0 || rng.Intn(3) != 0 {
				q.Push(Event{At: time.Duration(rng.Intn(8)) * time.Millisecond, Actor: pushed})
				pushed++
				continue
			}
			ev := q.Pop()
			popped++
			// Seq must be the unique global push index ordering; among
			// still-queued events with equal At, the earliest Seq pops
			// first, so consecutive pops with equal At have increasing Seq.
			if haveLast && ev.At == last.At && ev.Seq <= last.Seq {
				t.Fatalf("trial %d: FIFO violated at t=%v: seq %d after %d", trial, ev.At, ev.Seq, last.Seq)
			}
			// NOTE: across a push between two pops, At may step backward
			// only if the push introduced an earlier event — which the heap
			// must surface immediately. Verify against the queue minimum.
			if q.Len() > 0 && q.less(q.Peek(), ev) {
				t.Fatalf("trial %d: popped %v but %v still queued", trial, ev, q.Peek())
			}
			last, haveLast = ev, true
		}
		// Drain with no more pushes: now the pop sequence as a whole must
		// be (At, Seq)-sorted. (During the interleaved phase a push could
		// legitimately introduce an event earlier than the previous pop,
		// so this global check only holds from here on.)
		haveLast = false
		for q.Len() > 0 {
			ev := q.Pop()
			popped++
			if haveLast && (ev.At < last.At || (ev.At == last.At && ev.Seq <= last.Seq)) {
				t.Fatalf("trial %d: drain out of order: %v after %v", trial, ev, last)
			}
			last, haveLast = ev, true
		}
		if popped != pushed {
			t.Fatalf("trial %d: pushed %d, popped %d", trial, pushed, popped)
		}
	}
}

// --- event core vs the reference loop --------------------------------------

// stormActor is a deterministic actor for randomized engine storms: a
// per-actor LCG decides on each tick whether to move the CPU or bus
// configuration. Two fresh instances with the same parameters replay
// the same decisions, so an event-core cell and a reference-loop cell
// see identical actuation sequences iff the two loops tick them at the
// same boundaries in the same order — which is exactly what the test
// asserts through the phones' final state.
type stormActor struct {
	name   string
	period time.Duration
	state  uint64
	ticks  int
	nFreq  int
	nBW    int
}

func (a *stormActor) Name() string          { return a.name }
func (a *stormActor) Period() time.Duration { return a.period }

func (a *stormActor) Tick(_ time.Duration, dev platform.Device) {
	a.ticks++
	a.state = a.state*6364136223846793005 + 1442695040888963407
	switch a.state >> 61 {
	case 0, 1, 2:
		dev.SetFreqIdx(int((a.state >> 8) % uint64(a.nFreq)))
	case 3, 4:
		dev.SetBWIdx(int((a.state >> 8) % uint64(a.nBW)))
	}
}

// phoneStateJSON snapshots the complete dynamic device state as the
// checkpoint codec's canonical bytes — the strictest practical equality
// on two cells.
func phoneStateJSON(t *testing.T, ph *Phone) []byte {
	t.Helper()
	st, err := ph.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCrossBackendStormBitIdentity is the work-conservation and
// monotonicity property test: randomized seeded actor storms (random
// actor counts, periods, phase offsets through the LCG) run on the event
// core, with its invariant enforcement enabled, and on the reference
// loop; the complete device state plus Stats must match bit for bit.
func TestCrossBackendStormBitIdentity(t *testing.T) {
	specs := []func() *workload.Spec{workload.AngryBirds, workload.Spotify, workload.EBook}
	rng := rand.New(rand.NewSource(0xe5709))
	periods := []time.Duration{
		3 * time.Millisecond, 7 * time.Millisecond, 20 * time.Millisecond,
		50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
		time.Second, 2 * time.Second,
	}
	for trial := 0; trial < 12; trial++ {
		spec := specs[trial%len(specs)]()
		nActors := 1 + rng.Intn(4)
		seeds := make([]uint64, nActors)
		pers := make([]time.Duration, nActors)
		for i := range seeds {
			seeds[i] = rng.Uint64()
			pers[i] = periods[rng.Intn(len(periods))]
		}
		runFor := time.Duration(2+rng.Intn(8)) * time.Second

		type result struct {
			stats Stats
			state []byte
			ticks []int
		}
		run := func(reference bool) result {
			ph, err := NewPhone(Config{
				Foreground: spec, Load: workload.BaselineLoad, Seed: int64(trial),
				ScreenOn: true, WiFiOn: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			eng := NewEngineOpts(ph, Options{DebugInvariants: true})
			actors := make([]*stormActor, nActors)
			for i := range actors {
				actors[i] = &stormActor{
					name: "storm", period: pers[i], state: seeds[i],
					nFreq: len(ph.SoC().CPUFreqs), nBW: len(ph.SoC().MemBWs),
				}
				eng.MustRegister(actors[i])
			}
			var st Stats
			if reference {
				st = eng.RunReference(runFor, false)
			} else {
				st = eng.Run(runFor, false)
			}
			ticks := make([]int, nActors)
			for i, a := range actors {
				ticks[i] = a.ticks
			}
			return result{stats: st, state: phoneStateJSON(t, ph), ticks: ticks}
		}

		ev, ref := run(false), run(true)
		if !reflect.DeepEqual(ev.ticks, ref.ticks) {
			t.Fatalf("trial %d: tick counts diverge: event %v reference %v", trial, ev.ticks, ref.ticks)
		}
		if ev.stats != ref.stats {
			t.Fatalf("trial %d: stats diverge:\nevent     %+v\nreference %+v", trial, ev.stats, ref.stats)
		}
		if string(ev.state) != string(ref.state) {
			t.Fatalf("trial %d: device state diverges:\nevent     %s\nreference %s", trial, ev.state, ref.state)
		}
	}
}

// TestInterruptBoundaryParity: the event core polls the interrupt at the
// same boundaries as the reference loop, so an interrupt that fires on
// the Nth poll stops both cells at the identical simulated instant with
// identical Stats.
func TestInterruptBoundaryParity(t *testing.T) {
	for _, polls := range []int{1, 3, 10, 57} {
		run := func(reference bool) (time.Duration, Stats) {
			ph := newTestPhone(t, workload.AngryBirds(), workload.BaselineLoad)
			eng := NewEngineOpts(ph, Options{DebugInvariants: true})
			eng.MustRegister(&FixedConfigActor{FreqIdx: 4, BWIdx: 4})
			n := 0
			eng.SetInterrupt(func() bool {
				n++
				return n >= polls
			})
			var st Stats
			if reference {
				st = eng.RunReference(30*time.Second, false)
			} else {
				st = eng.Run(30*time.Second, false)
			}
			return ph.Now(), st
		}
		evNow, evSt := run(false)
		refNow, refSt := run(true)
		if evNow != refNow {
			t.Fatalf("polls=%d: stop instant diverges: event %v reference %v", polls, evNow, refNow)
		}
		if evSt != refSt {
			t.Fatalf("polls=%d: stats diverge:\nevent     %+v\nreference %+v", polls, evSt, refSt)
		}
	}
}
