package report

import (
	"strings"
	"testing"

	"aspeo/internal/core"
	"aspeo/internal/experiment"
	"aspeo/internal/fault"
	"aspeo/internal/platform"
	"aspeo/internal/workload"
)

func sampleFaultResult() *experiment.FaultCampaignResult {
	return &experiment.FaultCampaignResult{
		Scenarios: []experiment.FaultScenario{
			{Name: "combined", Desc: "write failures + periodic hijack + noisy perf together"},
		},
		Rows: []experiment.FaultRow{{
			App: workload.NameSpotify, Scenario: "combined", TargetGIPS: 0.1046,
			Stock:         experiment.RunResult{GIPS: 0.1040, EnergyJ: 210},
			Unhardened:    experiment.RunResult{GIPS: 0.0812, EnergyJ: 150},
			Hardened:      experiment.RunResult{GIPS: 0.1043, EnergyJ: 190},
			StockSlackPct: -0.6, UnhardenedSlackPct: -22.4, HardenedSlackPct: -0.3,
			HardenedVsStockEnergyPct: 9.5,
			Health: core.Health{
				HealthCounts: platform.HealthCounts{
					ActuationFailures: 48, ActuationRetries: 29, GovernorReinstalls: 5,
					RejectedSamples: 8, OutlierSamples: 6, StuckSamples: 2,
					WatchdogTrips: 2, DegradedCycles: 5,
				},
				Relinquished: true,
			},
			Injected: fault.Counts{WriteFailures: 48, Hijacks: 5, DroppedSamples: 16, Spikes: 6},
		}},
	}
}

func TestFaultsRendering(t *testing.T) {
	var b strings.Builder
	Faults(&b, sampleFaultResult())
	out := b.String()
	for _, want := range []string{
		"Scenario combined",
		"Spotify",
		"-22.4%", // unhardened slack makes the case for the ladder
		"+9.5%",  // hardened energy standing vs stock
		"48/48 write faults retried-through",
		"5/5 hijacks reinstalled",
		"8 samples gated (6 outlier, 2 stuck, 0 non-finite)",
		"watchdog tripped 2×",
		"RELINQUISHED",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fault report missing %q:\n%s", want, out)
		}
	}
}

func TestFaultsCSV(t *testing.T) {
	var b strings.Builder
	FaultsCSV(&b, sampleFaultResult())
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "combined,spotify,0.1046,") {
		t.Fatalf("CSV row = %q", lines[1])
	}
	if !strings.HasSuffix(lines[1], ",true") {
		t.Fatalf("relinquished flag missing: %q", lines[1])
	}
}
