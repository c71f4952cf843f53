package core

import (
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"aspeo/internal/ckpt"
	"aspeo/internal/sim"
	"aspeo/internal/workload"
)

// restoreCell builds a fresh controller installed on a simulated phone,
// the cell a checkpointed controller state is restored into.
func restoreCell(tb testing.TB, phaseAware bool) (*sim.Engine, *sim.Phone, *Controller) {
	tb.Helper()
	ph, err := sim.NewPhone(sim.Config{
		Foreground: workload.Spotify(), Load: workload.BaselineLoad, Seed: 7, ScreenOn: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	eng := sim.NewEngine(ph)
	tab := syntheticTable(0.09)
	opts := DefaultOptions(tab, 0.5*(tab.MinSpeedup()+tab.MaxSpeedup())*tab.BaseGIPS)
	opts.Seed = 7
	opts.PhaseAware = phaseAware
	ctl, err := New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	if err := ctl.Install(eng); err != nil {
		tb.Fatal(err)
	}
	return eng, ph, ctl
}

// capturedState runs a restore cell for 20 s and returns its
// controller's checkpoint.
func capturedState(tb testing.TB, phaseAware bool) []byte {
	tb.Helper()
	eng, _, ctl := restoreCell(tb, phaseAware)
	eng.Run(20*time.Second, false)
	raw, err := ctl.CheckpointState()
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// committedState returns the controller's state inside a checkpoint an
// earlier aspeo-run wrote (see TestKillRestoreCommittedCheckpoints).
func committedState(tb testing.TB) []byte {
	tb.Helper()
	var cell struct {
		Actors []struct {
			Name  string          `json:"name"`
			State json.RawMessage `json:"state"`
		} `json:"actors"`
	}
	path := filepath.Join("..", "experiment", "testdata", "ckpt_spotify_controller_quick_seed7.json")
	if err := ckpt.Load(ckpt.OS{}, path, "aspeo/session-cell", nil, &cell); err != nil {
		tb.Fatal(err)
	}
	for _, a := range cell.Actors {
		if a.Name == "aspeo-controller" {
			return a.State
		}
	}
	tb.Fatalf("%s holds no controller state", path)
	return nil
}

// FuzzControllerRestore feeds mutated controller checkpoints to a fresh
// controller and runs it for three control cycles: a restore must
// reject the bytes with an error or leave a controller that runs,
// never one that panics.
func FuzzControllerRestore(f *testing.F) {
	f.Add(capturedState(f, false), false)
	f.Add(capturedState(f, true), true)
	f.Add(committedState(f), false)
	f.Fuzz(func(t *testing.T, raw []byte, phaseAware bool) {
		eng, ph, ctl := restoreCell(t, phaseAware)
		if err := ctl.RestoreState(raw, ph); err != nil {
			return
		}
		eng.Run(6*time.Second, false)
	})
}
