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

// TestCrossBackendStormBitIdentity is the work-conservation property
// test: randomized seeded actor storms (random
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
			eng := NewEngine(ph)
			eng.SetDebugInvariants(true)
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
			eng := NewEngine(ph)
			eng.SetDebugInvariants(true)
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

// TestSubStepDeadlineParity: a run whose length is not a whole number of
// steps ends on the step that crosses its deadline, as the reference
// loop does. Its last boundary lies less than one step before the
// deadline, and the span there must still advance the clock one step.
func TestSubStepDeadlineParity(t *testing.T) {
	run := func(reference bool) (time.Duration, Stats, []byte) {
		ph := newTestPhone(t, workload.Spotify(), workload.BaselineLoad)
		eng := NewEngine(ph)
		eng.SetDebugInvariants(true)
		eng.MustRegister(&FixedConfigActor{FreqIdx: 4, BWIdx: 4})
		const until = 2*time.Second + 300*time.Microsecond
		var st Stats
		if reference {
			st = eng.RunReference(until, false)
		} else {
			st = eng.Run(until, false)
		}
		return ph.Now(), st, phoneStateJSON(t, ph)
	}
	evNow, evSt, evState := run(false)
	refNow, refSt, refState := run(true)
	if evNow != refNow {
		t.Fatalf("stop instant diverges: event %v reference %v", evNow, refNow)
	}
	if evSt != refSt {
		t.Fatalf("stats diverge:\nevent     %+v\nreference %+v", evSt, refSt)
	}
	if string(evState) != string(refState) {
		t.Fatalf("device state diverges:\nevent     %s\nreference %s", evState, refState)
	}
}
