package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aspeo/internal/workload"
)

// TestCampaignGolden pins the Quick result of every campaign that builds
// simulation cells — Fig. 1, Tables III–V, the §V-A1 overhead
// accounting, the phase and thermal studies, the fault campaign and the
// MobileBench re-profile — to testdata/campaign_quick.json, byte for
// byte, at full float precision. The file was written by the campaigns'
// hand-wired cells, before they shared NewSession's builder; never
// regenerate it: a diff means some cell's wiring changed. The overhead's
// OptimizerTimePerCycle is host wall time and is zeroed.
func TestCampaignGolden(t *testing.T) {
	c := Quick()
	fig1, err := c.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	t3, err := c.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	t4, err := c.TableIV(t3)
	if err != nil {
		t.Fatal(err)
	}
	t5, err := c.TableV(t3)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := c.Overhead(t3.Tables[workload.NameAngryBirds], t3.Targets[workload.NameAngryBirds])
	if err != nil {
		t.Fatal(err)
	}
	ov.OptimizerTimePerCycle = 0
	phase, err := c.PhaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	therm, err := c.ThermalStudy()
	if err != nil {
		t.Fatal(err)
	}
	faults, err := c.FaultCampaign([]*workload.Spec{workload.AngryBirds(), workload.Spotify()}, FaultScenarios())
	if err != nil {
		t.Fatal(err)
	}
	reprof, err := c.ReprofileMobileBenchNL()
	if err != nil {
		t.Fatal(err)
	}

	got, err := json.MarshalIndent(struct {
		Fig1      *Fig1Result
		TableIII  *TableIIIResult
		TableIV   *TableIVResult
		TableV    *TableVResult
		Overhead  *OverheadResult
		Phase     *PhaseResult
		Thermal   *ThermalResult
		Faults    *FaultCampaignResult
		Reprofile Comparison
	}{fig1, t3, t4, t5, ov, phase, therm, faults, reprof}, "", "")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile(filepath.Join("testdata", "campaign_quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("campaign results differ from the golden at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("campaign results differ from the golden in length: got %d lines, want %d", len(gl), len(wl))
}
