package experiment

import (
	"fmt"
	"strings"
	"time"

	"aspeo/internal/core"
	"aspeo/internal/fault"
	"aspeo/internal/platform"
	"aspeo/internal/profile"
	"aspeo/internal/stats"
	"aspeo/internal/workload"
)

// This file is the fault-resilience campaign: the controller's value
// proposition only holds if a hijacked governor or a flaky PMU cannot
// silently turn "energy optimization" into "performance collapse". Each
// scenario replays one failure mode of a real device against three
// conditions — the stock governors, the unhardened controller (every
// protection off), and the hardened controller — and reports the
// performance slack against the app's fault-free target plus the
// controller's own health ledger.

// FaultScenario names one fault plan.
type FaultScenario struct {
	Name string
	Desc string
	Plan fault.Plan
}

// FaultScenarios returns the campaign's standard scenario set, one per
// failure mode the fault model covers plus a combined worst case.
func FaultScenarios() []FaultScenario {
	return []FaultScenario{
		{
			Name: "transient-writes",
			Desc: "30% of actuation writes fail with EBUSY/EINVAL",
			Plan: fault.Plan{WriteFailProb: 0.3},
		},
		{
			Name: "governor-hijack",
			Desc: "OEM daemon rewrites scaling_governor every 15 s from t=10 s",
			Plan: fault.Plan{Hijacks: []fault.Hijack{
				{At: 10 * time.Second, Repeat: 15 * time.Second},
			}},
		},
		{
			Name: "noisy-perf",
			Desc: "20% of samples dropped, 10% spiked 4x by counter multiplexing",
			Plan: fault.Plan{DropProb: 0.2, SpikeProb: 0.1, SpikeFactor: 4},
		},
		{
			Name: "stuck-perf",
			Desc: "perf readings frozen at a stale value for 20 s from t=10 s",
			Plan: fault.Plan{StuckReadFrom: 10 * time.Second, StuckReadFor: 20 * time.Second},
		},
		{
			Name: "combined",
			Desc: "write failures + periodic hijack + noisy perf together",
			Plan: fault.Plan{
				WriteFailProb: 0.2,
				Hijacks: []fault.Hijack{
					{At: 12 * time.Second, Repeat: 20 * time.Second},
				},
				DropProb: 0.1, SpikeProb: 0.05, ZeroProb: 0.02,
			},
		},
	}
}

// FaultScenarioNames lists the selectable scenario names, in campaign
// order.
func FaultScenarioNames() []string {
	var names []string
	for _, sc := range FaultScenarios() {
		names = append(names, sc.Name)
	}
	return names
}

// FaultScenarioByName resolves a scenario by name.
func FaultScenarioByName(name string) (FaultScenario, error) {
	for _, sc := range FaultScenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return FaultScenario{}, fmt.Errorf("unknown fault scenario %q (have: %s)",
		name, strings.Join(FaultScenarioNames(), ", "))
}

// FaultRow is one (app, scenario) cell of the campaign.
type FaultRow struct {
	App      string
	Scenario string
	// TargetGIPS is the fault-free default-governor performance the
	// controller regulates toward — the slack reference.
	TargetGIPS float64

	Stock      RunResult // default governors under the scenario
	Unhardened RunResult // Options.Unhardened controller
	Hardened   RunResult // full ladder

	// SlackPct is 100·(GIPS − target)/target per condition: how far the
	// delivered performance sits from the fault-free target (negative =
	// slower).
	StockSlackPct      float64
	UnhardenedSlackPct float64
	HardenedSlackPct   float64
	// HardenedVsStockEnergyPct is the hardened controller's energy
	// savings against the stock governors under the same scenario.
	HardenedVsStockEnergyPct float64

	// Health is the hardened controller's ledger and Injected the fault
	// injector's delivered counts, both from the last seed's run.
	Health   core.Health
	Injected fault.Counts
	// UnhardenedHealth shows what the same scenario does without the
	// ladder (its counters stay near zero because nothing fights back).
	UnhardenedHealth core.Health
}

// FaultCampaignResult is the campaign output for the report layer.
type FaultCampaignResult struct {
	Scenarios []FaultScenario
	Rows      []FaultRow
}

// faultPrep is the per-app fault-free reference work.
type faultPrep struct {
	spec   *workload.Spec
	tab    *profile.Table
	target float64
}

// FaultCampaign sweeps scenarios × apps. Per app it first profiles and
// measures the fault-free default-governor performance (the target),
// then fans the (scenario, app) rows over the campaign pool; inside a
// row the three conditions run the same seeds and the same per-seed
// fault sequences, so the comparison isolates the controller's
// hardening.
func (c Config) FaultCampaign(specs []*workload.Spec, scenarios []FaultScenario) (*FaultCampaignResult, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 || len(scenarios) == 0 {
		return nil, fmt.Errorf("experiment: empty fault campaign")
	}
	for _, sc := range scenarios {
		if err := sc.Plan.Validate(); err != nil {
			return nil, fmt.Errorf("experiment: scenario %s: %w", sc.Name, err)
		}
	}

	// Fault-free reference per app: profile + default measurement.
	preps := make([]faultPrep, len(specs))
	err := c.forEachCell(len(specs), func(i int) error {
		spec := specs[i]
		tab, err := c.Profile(spec, workload.BaselineLoad, 0)
		if err != nil {
			return err
		}
		def, err := c.MeasureDefault(spec, workload.BaselineLoad)
		if err != nil {
			return err
		}
		preps[i] = faultPrep{spec: spec, tab: tab, target: def.GIPS}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rows := make([]FaultRow, len(scenarios)*len(specs))
	err = c.forEachCell(len(rows), func(i int) error {
		sc := scenarios[i/len(specs)]
		prep := preps[i%len(specs)]
		row, err := c.faultRow(prep, sc)
		if err != nil {
			return fmt.Errorf("scenario %s, app %s: %w", sc.Name, prep.spec.Name, err)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &FaultCampaignResult{Scenarios: scenarios, Rows: rows}, nil
}

// faultRow runs the three conditions of one (app, scenario) cell. Each
// seed's session gets its own injector built from (plan, seed), so fault
// sequences are reproducible per seed and identical across the row's
// conditions.
func (c Config) faultRow(prep faultPrep, sc FaultScenario) (FaultRow, error) {
	row := FaultRow{App: prep.spec.Name, Scenario: sc.Name, TargetGIPS: prep.target}

	// Stock: the default governors under the scenario. Perf rides along
	// (as in MeasureDefault) so the instrumentation overhead matches.
	var err error
	row.Stock, _, err = c.runSeeds(func(seed int64) (*Session, error) {
		return newSession(SessionSpec{Governor: platform.GovInteractive, Seed: seed},
			prep.spec, workload.BaselineLoad, nil, &sc.Plan)
	})
	if err != nil {
		return row, err
	}

	// The unhardened and hardened controllers differ only in their
	// resilience ladder.
	ctlCondition := func(unhardened bool) (RunResult, *Session, error) {
		opts := core.DefaultOptions(prep.tab, prep.target)
		opts.Unhardened = unhardened
		return c.runSeeds(func(seed int64) (*Session, error) {
			return newSession(SessionSpec{Controller: true, Seed: seed},
				prep.spec, workload.BaselineLoad, &opts, &sc.Plan)
		})
	}
	rr, last, err := ctlCondition(true)
	if err != nil {
		return row, err
	}
	row.Unhardened, row.UnhardenedHealth = rr, last.Controller.Health()
	rr, last, err = ctlCondition(false)
	if err != nil {
		return row, err
	}
	row.Hardened, row.Health, row.Injected = rr, last.Controller.Health(), last.Injector.Counts()

	slack := func(rr RunResult) float64 { return stats.PctDelta(rr.GIPS, prep.target) }
	row.StockSlackPct = slack(row.Stock)
	row.UnhardenedSlackPct = slack(row.Unhardened)
	row.HardenedSlackPct = slack(row.Hardened)
	row.HardenedVsStockEnergyPct = stats.Savings(row.Hardened.EnergyJ, row.Stock.EnergyJ)
	return row, nil
}
