package sim

import (
	"math"
	"testing"
	"time"

	"aspeo/internal/governor"
	"aspeo/internal/perfmodel"
	"aspeo/internal/platform"
	"aspeo/internal/pmu"
	"aspeo/internal/workload"
)

// fusionCell builds one simulation cell (phone + engine with invariant
// enforcement + default governors).
func fusionCell(t *testing.T, spec *workload.Spec, load workload.BGLoad, seed int64) (*Phone, *Engine) {
	t.Helper()
	ph, err := NewPhone(Config{
		Foreground: spec, Load: load, Seed: seed,
		ScreenOn: true, WiFiOn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(ph)
	eng.SetDebugInvariants(true)
	if err := governor.Defaults(eng); err != nil {
		t.Fatal(err)
	}
	return ph, eng
}

// eqf compares floats for exact bit-level equality (the fusion contract
// is bit-identity, not approximate equality).
func eqf(t *testing.T, what string, fused, slow float64) {
	t.Helper()
	if math.Float64bits(fused) != math.Float64bits(slow) {
		t.Errorf("%s diverged: fused %v (%x) vs slow %v (%x)",
			what, fused, math.Float64bits(fused), slow, math.Float64bits(slow))
	}
}

// touchHandoff steps from a jitter-free, touch-free paced phase
// straight into a touch phase, so a span can end on the transition
// step and must then draw the new phase's touches — a hand-off no
// library app has but scenario chains produce.
func touchHandoff() *workload.Spec {
	tr := perfmodel.Traits{CPI: 1.5, BPI: 0.5, Par: 1}
	return &workload.Spec{
		Name: "touch-handoff",
		Phases: []workload.Phase{
			{Name: "quiet", Kind: workload.Paced, Traits: tr, Duration: 700 * time.Millisecond, DemandGIPS: 0.1},
			{Name: "touch", Kind: workload.Paced, Traits: tr, Duration: 300 * time.Millisecond, DemandGIPS: 0.2,
				DemandJitter: 0.2, JitterPeriod: 50 * time.Millisecond, TouchRate: 4},
		},
		Loop:   true,
		RunFor: 30 * time.Second,
	}
}

// TestStepFusionBitIdentity runs every evaluated app under the default
// governors twice — once on the event core, whose spans fuse steps in
// closed form, once on the literal step-at-a-time reference loop — and
// requires every observable quantity to match bit for bit. This is the
// test that guards the SpanBound contract: the recorded-trace goldens
// cannot catch fusion bugs because recorded runs always take the slow
// path.
func TestStepFusionBitIdentity(t *testing.T) {
	specs := append(workload.Evaluated(), workload.EBook(), touchHandoff())
	for _, spec := range specs {
		for _, load := range []workload.BGLoad{workload.BaselineLoad, workload.HeavierLoad} {
			spec, load := spec, load
			t.Run(spec.Name+"/"+load.String(), func(t *testing.T) {
				t.Parallel()
				const runFor = 30 * time.Second
				phF, engF := fusionCell(t, spec, load, 707)
				phS, engS := fusionCell(t, spec, load, 707)
				stF := engF.Run(runFor, true)
				stS := engS.RunReference(runFor, true)

				if stF != stS {
					t.Errorf("stats diverged:\nfused %+v\nslow  %+v", stF, stS)
				}
				if phF.Now() != phS.Now() {
					t.Errorf("clock diverged: %v vs %v", phF.Now(), phS.Now())
				}
				for _, c := range []pmu.Counter{pmu.Instructions, pmu.Cycles, pmu.BusAccessBytes} {
					eqf(t, "pmu "+c.String(), phF.PMU().Read(c), phS.PMU().Read(c))
				}
				eqf(t, "energy", phF.Monitor().EnergyJ(), phS.Monitor().EnergyJ())
				eqf(t, "avg power", phF.Monitor().AveragePowerW(), phS.Monitor().AveragePowerW())
				eqf(t, "peak power", phF.Monitor().PeakPowerW(), phS.Monitor().PeakPowerW())
				if phF.Monitor().Samples() != phS.Monitor().Samples() {
					t.Errorf("monsoon samples diverged: %d vs %d",
						phF.Monitor().Samples(), phS.Monitor().Samples())
				}
				eqf(t, "cum busy", phF.CumMachineBusySec(), phS.CumMachineBusySec())
				eqf(t, "cum core", phF.CumBusyCoreSec(), phS.CumBusyCoreSec())
				eqf(t, "cum traffic", phF.CumTrafficBytes(), phS.CumTrafficBytes())
				eqf(t, "fg executed", phF.Foreground().TotalExecuted(), phS.Foreground().TotalExecuted())
				eqf(t, "fg dropped", phF.Foreground().DroppedInstr(), phS.Foreground().DroppedInstr())
				bgF, bgS := phF.BackgroundTasks(), phS.BackgroundTasks()
				for i := range bgF {
					eqf(t, "bg executed", bgF[i].TotalExecuted(), bgS[i].TotalExecuted())
					eqf(t, "bg dropped", bgF[i].DroppedInstr(), bgS[i].DroppedInstr())
					if bgF[i].Now() != bgS[i].Now() {
						t.Errorf("bg %d clock diverged", i)
					}
				}
				for i := 0; i < phF.CPUHistogram().Len(); i++ {
					eqf(t, "cpu residency", phF.CPUHistogram().Percent(i), phS.CPUHistogram().Percent(i))
				}
				for i := 0; i < phF.BWHistogram().Len(); i++ {
					eqf(t, "bw residency", phF.BWHistogram().Percent(i), phS.BWHistogram().Percent(i))
				}
				if phF.TakeTouches() != phS.TakeTouches() {
					t.Error("pending touches diverged")
				}
			})
		}
	}
}

// TestStepFusionConfigChurn exercises plan invalidation: an actor that
// rewrites the configuration on a fixed cadence must leave the event
// core and the reference loop identical, including the overlay energy
// charged per freq transition.
func TestStepFusionConfigChurn(t *testing.T) {
	run := func(fused bool) (Stats, *Phone) {
		ph, err := NewPhone(Config{
			Foreground: workload.EBook(), Load: workload.BaselineLoad, Seed: 99,
			ScreenOn: true, WiFiOn: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(ph)
		eng.SetDebugInvariants(true)
		eng.MustRegister(&churnActor{})
		if !fused {
			return eng.RunReference(20*time.Second, false), ph
		}
		return eng.Run(20*time.Second, false), ph
	}
	stF, phF := run(true)
	stS, phS := run(false)
	if stF != stS {
		t.Errorf("stats diverged:\nfused %+v\nslow  %+v", stF, stS)
	}
	eqf(t, "energy", phF.Monitor().EnergyJ(), phS.Monitor().EnergyJ())
	eqf(t, "instr", phF.PMU().Read(pmu.Instructions), phS.PMU().Read(pmu.Instructions))
}

// churnActor cycles the configuration every 300 ms, hitting freq/bw
// transitions (which invalidate the step plan and charge overlay energy)
// in the middle of would-be fused stretches.
type churnActor struct{ n int }

func (c *churnActor) Name() string          { return "churn" }
func (c *churnActor) Period() time.Duration { return 300 * time.Millisecond }
func (c *churnActor) Tick(_ time.Duration, dev platform.Device) {
	c.n++
	dev.SetFreqIdx(c.n * 5 % 18)
	dev.SetBWIdx(c.n * 3 % 11)
	if c.n%4 == 0 {
		dev.AddOverlayEnergyJ(0.01)
	}
}
