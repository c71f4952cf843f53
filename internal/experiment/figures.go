package experiment

import (
	"aspeo/internal/platform"
	"aspeo/internal/workload"
)

// Fig1Result is the eBook CPU-frequency residency histogram under the
// default governor (paper Fig. 1).
type Fig1Result struct {
	ResidencyPct []float64 // per CPU frequency ladder index, percent
}

// Fig1 runs the eBook reader under the default governors with no user
// interaction (the paper's setup: lowest brightness, WiFi on, background
// sync active) and returns the CPU-frequency residency.
func (c Config) Fig1() (*Fig1Result, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	s, err := newSession(SessionSpec{Governor: platform.GovInteractive, Seed: c.Seeds[0]},
		workload.EBook(), workload.BaselineLoad, nil, nil)
	if err != nil {
		return nil, err
	}
	s.Run(nil)
	return &Fig1Result{ResidencyPct: s.Harness.Phone.CPUHistogram().Percents()}, nil
}

// HistPair is one app's residency distributions under the default
// governors and under the controller.
type HistPair struct {
	App string
	Def []float64 // percent per ladder index
	Ctl []float64
}

// Fig4 extracts the CPU-frequency histograms (paper Fig. 4) from a
// completed Table III campaign: one default/controller pair per app.
func Fig4(res *TableIIIResult) []HistPair {
	out := make([]HistPair, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, HistPair{
			App: row.App,
			Def: row.Default.CPUResidPct,
			Ctl: row.Ctl.CPUResidPct,
		})
	}
	return out
}

// Fig5 extracts the memory-bandwidth histograms (paper Fig. 5).
func Fig5(res *TableIIIResult) []HistPair {
	out := make([]HistPair, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, HistPair{
			App: row.App,
			Def: row.Default.BWResidPct,
			Ctl: row.Ctl.BWResidPct,
		})
	}
	return out
}
