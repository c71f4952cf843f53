package experiment

import (
	"context"

	"aspeo/internal/par"
	"aspeo/internal/sim"
)

// This file is the campaign runner: every paper artifact is a set of
// independent simulation cells — one (app, load, seed) run or one
// offline profiling point — and the runner fans them out over a bounded
// worker pool (Config.Workers; 0 = one worker per CPU).
//
// Determinism: each cell's inputs (its seed from Config.Seeds, its spec,
// its load) are fixed by index before dispatch, every cell constructs
// its own sim.Phone (the engine's one-Phone-per-goroutine contract), and
// results land in index-addressed slots. Serial and parallel campaigns
// therefore produce bit-identical artifacts
// (TestTableIIIParallelMatchesSerial). The first cell error cancels the
// campaign's remaining undispatched cells via context.

// workerCount resolves Config.Workers (0 or negative → GOMAXPROCS).
func (c Config) workerCount() int { return par.Workers(c.Workers) }

// forEachCell fans fn out over n independent cells on the campaign pool.
func (c Config) forEachCell(n int, fn func(i int) error) error {
	return par.ForEach(context.Background(), c.workerCount(), n,
		func(_ context.Context, i int) error { return fn(i) })
}

// runSeeds runs one measurement condition once per Config.Seeds on the
// campaign pool. build(seed) constructs that seed's session, so each run
// gets its own actors. Stats aggregate in seed order; the returned
// session is the last seed's, whose phone supplies the residencies and
// whose controller and injector supply the ledgers callers report.
func (c Config) runSeeds(build func(seed int64) (*Session, error)) (RunResult, *Session, error) {
	all := make([]sim.Stats, len(c.Seeds))
	var last *Session
	err := c.forEachCell(len(c.Seeds), func(i int) error {
		s, err := build(c.Seeds[i])
		if err != nil {
			return err
		}
		all[i] = s.Run(nil)
		if i == len(c.Seeds)-1 {
			last = s
		}
		return nil
	})
	if err != nil {
		return RunResult{}, nil, err
	}
	return aggregate(all, last.Harness.Phone), last, nil
}
