package scenario

import (
	"fmt"
	"math"
	"time"

	"aspeo/internal/perfmodel"
	"aspeo/internal/trace"
	"aspeo/internal/workload"
)

// Trace-import tuning.
const (
	// importWindow is the demand-extraction granularity: each window of
	// trace time becomes (at most) one paced phase.
	importWindow = time.Second
	// importMergeTol merges adjacent windows whose demand differs by
	// less than this relative fraction, so a steady playback trace
	// becomes one long phase, not 300 one-second phases.
	importMergeTol = 0.05
	// importMinGIPS floors each window's demand. A recorded idle window
	// still becomes a valid paced phase (Validate requires positive
	// demand) at a rate too small to matter energetically.
	importMinGIPS = 1e-3
)

// MaxTraceSpan is the longest time span ImportTrace accepts: a day, far
// above the longest library session (an hour). Import works in
// one-second windows, so the span sizes its work and memory; without a
// bound two points 2⁶² ns apart would ask for 4.6e9 windows and kill
// the process.
const MaxTraceSpan = 24 * time.Hour

// importTraits is the neutral architectural profile assigned to
// trace-imported phases. A trace records what the app achieved, not why
// — the CPI/BPI decomposition is unobservable from (t, GIPS) pairs — so
// imports use a mid-road compute profile; the replayed quantity is the
// demand timeline, which IS observable.
var importTraits = perfmodel.Traits{CPI: 2.0, BPI: 1.0, Par: 1.0, Overlap: 0.05}

// importFreqIdxs is the profile ladder for trace imports: alternate
// indices across the full range, the generated-workload compromise
// between table fidelity and profiling cost.
var importFreqIdxs = []int{0, 2, 4, 6, 8, 10, 12, 14, 16}

// ImportTrace converts a recorded run (aspeo-run -record, read with
// trace.ReadJSON) into a runnable workload: the observed performance
// timeline becomes a sequence of paced phases reproducing the recorded
// demand envelope. The import is deterministic — no rng — so the same
// trace always yields the byte-identical spec.
//
// Demand per window prefers the cumulative instruction counter
// (full-rate recordings carry it; deltas are exact) and falls back to
// averaging the instantaneous GIPS samples for decimated or legacy
// traces.
func ImportTrace(name string, pts []trace.Point) (*workload.Spec, error) {
	if name == "" {
		return nil, fmt.Errorf("scenario: trace import needs a name")
	}
	if len(pts) < 2 {
		return nil, fmt.Errorf("scenario: trace %q: %d points, want >= 2", name, len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].T <= pts[i-1].T {
			return nil, fmt.Errorf("scenario: trace %q: non-monotonic time at point %d", name, i)
		}
	}
	// Times are monotonic, so a negative span overflowed a Duration.
	total := pts[len(pts)-1].T - pts[0].T
	if total < 0 || total > MaxTraceSpan {
		return nil, fmt.Errorf("scenario: trace %q: spans more than %v, the import limit", name, MaxTraceSpan)
	}
	if total < importWindow {
		return nil, fmt.Errorf("scenario: trace %q: %v of data, want >= %v", name, total, importWindow)
	}

	demands := windowDemands(pts)
	phases := make([]workload.Phase, 0, len(demands))
	for i, g := range demands {
		if math.IsInf(g, 0) || math.IsNaN(g) {
			// Finite samples can still overflow a window's sum.
			return nil, fmt.Errorf("scenario: trace %q: window %d has non-finite demand", name, i)
		}
		if g < importMinGIPS {
			g = importMinGIPS
		}
		n := len(phases)
		if n > 0 && relDiff(phases[n-1].DemandGIPS, g) < importMergeTol {
			// Extend the previous phase at its demand: the window is
			// statistically the same load level.
			phases[n-1].Duration += importWindow
			continue
		}
		phases = append(phases, workload.Phase{
			Name:       fmt.Sprintf("seg%d", n),
			Kind:       workload.Paced,
			Traits:     importTraits,
			Duration:   importWindow,
			DemandGIPS: g,
		})
	}

	spec := &workload.Spec{
		Name:   "trace:" + name,
		Phases: phases,
		// One pass replays the recording; looping replays it again for
		// sessions longer than the trace.
		Loop:            true,
		RunFor:          time.Duration(len(demands)) * importWindow,
		ProfileFreqIdxs: append([]int(nil), importFreqIdxs...),
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: trace %q: imported spec invalid: %w", name, err)
	}
	return spec, nil
}

// windowDemands slices the trace into importWindow buckets and returns
// the mean demand (GIPS) of each.
func windowDemands(pts []trace.Point) []float64 {
	t0 := pts[0].T
	nWin := int((pts[len(pts)-1].T - t0) / importWindow)
	if nWin < 1 {
		nWin = 1
	}
	useCum := pts[len(pts)-1].CumInstr > pts[0].CumInstr

	demands := make([]float64, 0, nWin)
	lo := 0
	for w := 0; w < nWin; w++ {
		end := t0 + time.Duration(w+1)*importWindow
		hi := lo
		for hi < len(pts)-1 && pts[hi+1].T <= end {
			hi++
		}
		if hi == lo {
			// Sparse decimation left this window empty; carry the last
			// sample's level forward.
			demands = append(demands, pts[lo].GIPS)
			continue
		}
		var g float64
		if useCum {
			dt := (pts[hi].T - pts[lo].T).Seconds()
			g = (pts[hi].CumInstr - pts[lo].CumInstr) / dt / 1e9
		} else {
			sum := 0.0
			for i := lo + 1; i <= hi; i++ {
				sum += pts[i].GIPS
			}
			g = sum / float64(hi-lo)
		}
		demands = append(demands, g)
		lo = hi
	}
	return demands
}

// relDiff is the relative difference of two non-negative levels.
func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
