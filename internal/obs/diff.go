package obs

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Delta is one attribute-level difference between two traces at the
// first divergent cycle. Absent spans or attributes render as "<none>".
type Delta struct {
	Stage string
	Key   string // "" when a whole stage is present on only one side
	A, B  string
}

func (d Delta) String() string {
	if d.Key == "" {
		return fmt.Sprintf("%s: %s != %s", d.Stage, d.A, d.B)
	}
	return fmt.Sprintf("%s.%s: %s != %s", d.Stage, d.Key, d.A, d.B)
}

// DiffResult reports how two decision traces compare cycle by cycle.
type DiffResult struct {
	// CyclesA and CyclesB are each trace's cycle counts.
	CyclesA, CyclesB int
	// SpansA and SpansB are each trace's span counts.
	SpansA, SpansB int
	// FirstDivergent is the first cycle ordinal whose span set differs;
	// 0 means the traces are identical cycle for cycle.
	FirstDivergent int
	// Deltas are the attribute-level differences at FirstDivergent
	// (empty when identical).
	Deltas []Delta
}

// Identical reports whether no divergence was found.
func (r DiffResult) Identical() bool { return r.FirstDivergent == 0 }

// Diff compares two decision traces cycle by cycle and reports the first
// divergent cycle with its per-stage attribute deltas — the one-command
// diagnosis of replay-vs-live or seed-vs-seed divergence. Span order
// within a cycle is part of the comparison (the controller emits stages
// in decision order), as are timestamps and attribute values.
func Diff(a, b []Span) DiffResult {
	ca, cb := groupByCycle(a), groupByCycle(b)
	res := DiffResult{
		CyclesA: len(ca.order), CyclesB: len(cb.order),
		SpansA: len(a), SpansB: len(b),
	}
	n := len(ca.order)
	if len(cb.order) < n {
		n = len(cb.order)
	}
	for i := 0; i < n; i++ {
		cycA, cycB := ca.order[i], cb.order[i]
		if cycA != cycB {
			res.FirstDivergent = min(cycA, cycB)
			res.Deltas = []Delta{{Stage: "cycle-ordinal",
				A: strconv.Itoa(cycA), B: strconv.Itoa(cycB)}}
			return res
		}
		if deltas := diffCycle(ca.spans[cycA], cb.spans[cycB]); len(deltas) > 0 {
			res.FirstDivergent = cycA
			res.Deltas = deltas
			return res
		}
	}
	if len(ca.order) != len(cb.order) {
		// All shared cycles match; one trace simply ran longer.
		longer, side := ca, "A"
		if len(cb.order) > len(ca.order) {
			longer, side = cb, "B"
		}
		res.FirstDivergent = longer.order[n]
		res.Deltas = []Delta{{Stage: "cycle", A: presentIf(side == "A"), B: presentIf(side == "B")}}
	}
	return res
}

func presentIf(p bool) string {
	if p {
		return "present"
	}
	return "<none>"
}

type cycleGroups struct {
	order []int
	spans map[int][]Span
}

func groupByCycle(spans []Span) cycleGroups {
	g := cycleGroups{spans: make(map[int][]Span)}
	for _, s := range spans {
		if _, seen := g.spans[s.Cycle]; !seen {
			g.order = append(g.order, s.Cycle)
		}
		g.spans[s.Cycle] = append(g.spans[s.Cycle], s)
	}
	sort.Ints(g.order)
	return g
}

// diffCycle compares one cycle's span sequences positionally.
func diffCycle(a, b []Span) []Delta {
	var deltas []Delta
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case i >= len(a):
			deltas = append(deltas, Delta{Stage: b[i].Stage, A: "<none>", B: "present"})
		case i >= len(b):
			deltas = append(deltas, Delta{Stage: a[i].Stage, A: "present", B: "<none>"})
		case a[i].Stage != b[i].Stage:
			deltas = append(deltas, Delta{Stage: "stage-order", A: a[i].Stage, B: b[i].Stage})
		default:
			deltas = append(deltas, diffSpan(a[i], b[i])...)
		}
	}
	return deltas
}

func diffSpan(a, b Span) []Delta {
	var deltas []Delta
	if a.At != b.At {
		deltas = append(deltas, Delta{Stage: a.Stage, Key: "at_ns",
			A: strconv.FormatInt(int64(a.At), 10), B: strconv.FormatInt(int64(b.At), 10)})
	}
	keys := make([]string, 0, len(a.Attrs)+len(b.Attrs))
	for _, as := range []Attrs{a.Attrs, b.Attrs} {
		for _, at := range as {
			keys = append(keys, at.Key)
		}
	}
	slices.Sort(keys)
	for _, k := range slices.Compact(keys) {
		sa, sb := renderAttr(a.Attrs, k), renderAttr(b.Attrs, k)
		if sa != sb {
			deltas = append(deltas, Delta{Stage: a.Stage, Key: k, A: sa, B: sb})
		}
	}
	return deltas
}

// renderAttr canonicalizes the attribute named key for comparison and
// display ("<none>" when absent). Numbers render in shortest float form,
// so an in-memory float64 and its JSON round trip compare equal.
func renderAttr(as Attrs, key string) string {
	a, ok := as.Get(key)
	if !ok {
		return "<none>"
	}
	return a.render()
}

// Summary condenses a decision trace for `aspeo-trace summary`.
type Summary struct {
	Spans  int
	Cycles int
	// FirstCycle and LastCycle are the trace's cycle ordinal range.
	FirstCycle, LastCycle int
	// StageCounts maps stage name to span count.
	StageCounts map[string]int
	// LadderTransitions lists ladder events in order, rendered as
	// "degraded@41".
	LadderTransitions []string
	// Final holds the last cycle span's attributes (nil when the trace
	// has no cycle spans).
	Final Attrs
}

// Summarize scans a trace into a Summary.
func Summarize(spans []Span) Summary {
	sum := Summary{Spans: len(spans), StageCounts: make(map[string]int)}
	seen := make(map[int]struct{})
	for _, s := range spans {
		sum.StageCounts[s.Stage]++
		if _, ok := seen[s.Cycle]; !ok {
			seen[s.Cycle] = struct{}{}
			if sum.Cycles == 0 || s.Cycle < sum.FirstCycle {
				sum.FirstCycle = s.Cycle
			}
			if s.Cycle > sum.LastCycle {
				sum.LastCycle = s.Cycle
			}
			sum.Cycles++
		}
		switch s.Stage {
		case StageLadder:
			if t, ok := s.Attrs.Get("transition"); ok && t.kind == kindString {
				sum.LadderTransitions = append(sum.LadderTransitions,
					fmt.Sprintf("%s@%d", t.str, s.Cycle))
			}
		case StageCycle:
			sum.Final = s.Attrs
		}
	}
	return sum
}

// WriteSummary renders the summary as the aspeo-trace text block.
func WriteSummary(w interface{ Write([]byte) (int, error) }, sum Summary) {
	fmt.Fprintf(w, "spans=%d cycles=%d (cycle %d..%d)\n",
		sum.Spans, sum.Cycles, sum.FirstCycle, sum.LastCycle)
	stages := make([]string, 0, len(sum.StageCounts))
	for s := range sum.StageCounts {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	parts := make([]string, 0, len(stages))
	for _, s := range stages {
		parts = append(parts, fmt.Sprintf("%s=%d", s, sum.StageCounts[s]))
	}
	fmt.Fprintf(w, "stages: %s\n", strings.Join(parts, " "))
	if len(sum.LadderTransitions) > 0 {
		fmt.Fprintf(w, "ladder: %s\n", strings.Join(sum.LadderTransitions, " "))
	}
	if sum.Final != nil {
		fmt.Fprintf(w, "final cycle:")
		final := slices.Clone(sum.Final)
		slices.SortFunc(final, byKey)
		for _, a := range final {
			fmt.Fprintf(w, " %s=%s", a.Key, a.render())
		}
		fmt.Fprintln(w)
	}
}
