// Package profile implements the paper's Stage 1: offline profiling of an
// application's performance (speedup) and whole-device power across
// system configurations (paper §III-A, Table I).
//
// Following the paper's space-reduction rule, only the app's allowed
// alternate CPU frequencies × {lowest, highest} memory bandwidth are
// actually run (≤ 9×2 = 18 measurements); the remaining bandwidths are
// filled in by linear interpolation. Each measured point is averaged over
// three seeded runs, mirroring the paper's three-run averaging. Speedups
// are normalized to the application's base speed — its performance at the
// SoC's lowest configuration — which is also what the controller's Kalman
// filter tracks at runtime.
package profile

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"aspeo/internal/governor"
	"aspeo/internal/par"
	"aspeo/internal/perftool"
	"aspeo/internal/platform"
	"aspeo/internal/sim"
	"aspeo/internal/soc"
	"aspeo/internal/stats"
	"aspeo/internal/sysfs"
	"aspeo/internal/workload"
)

// BWMode selects how the memory bandwidth behaves during profiling.
type BWMode int

const (
	// Coordinated profiles bandwidth endpoints and interpolates: the
	// paper's main method, producing (freq, bw) configurations.
	Coordinated BWMode = iota
	// Governed leaves bandwidth to the default cpubw_hwmon governor and
	// profiles CPU frequencies only — the Table V baseline. Entries
	// carry BWIdx = GovernedBW.
	Governed
)

// GovernedBW marks entries whose bandwidth is under the default governor.
const GovernedBW = -1

// Entry is one row of the profiling table.
type Entry struct {
	FreqIdx      int     `json:"freq_idx"` // 0-based ladder index
	BWIdx        int     `json:"bw_idx"`   // 0-based, or GovernedBW
	Speedup      float64 `json:"speedup"`
	PowerW       float64 `json:"power_w"`
	GIPS         float64 `json:"gips"`
	Interpolated bool    `json:"interpolated"`
}

// Config returns the entry's configuration (BWIdx clamped to 0 for
// governed entries, which carry no bandwidth of their own).
func (e Entry) Config() soc.Config {
	bw := e.BWIdx
	if bw < 0 {
		bw = 0
	}
	return soc.Config{FreqIdx: e.FreqIdx, BWIdx: bw}
}

// Table is an application's offline profile. Nothing writes a table
// once ReadJSON or Run returns it: controllers and sessions share one
// table read-only.
type Table struct {
	App      string  `json:"app"`
	Load     string  `json:"load"`
	Mode     BWMode  `json:"mode"`
	BaseGIPS float64 `json:"base_gips"` // speed at the SoC's lowest configuration
	Entries  []Entry `json:"entries"`
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Entries) }

// MinSpeedup returns the smallest speedup in the table.
func (t *Table) MinSpeedup() float64 {
	m := t.Entries[0].Speedup
	for _, e := range t.Entries[1:] {
		if e.Speedup < m {
			m = e.Speedup
		}
	}
	return m
}

// MaxSpeedup returns the largest speedup in the table.
func (t *Table) MaxSpeedup() float64 {
	m := t.Entries[0].Speedup
	for _, e := range t.Entries[1:] {
		if e.Speedup > m {
			m = e.Speedup
		}
	}
	return m
}

// SortedBySpeedup returns a copy of the entries in ascending speedup
// order (the shape the energy optimizer consumes).
func (t *Table) SortedBySpeedup() []Entry {
	out := append([]Entry(nil), t.Entries...)
	sort.Slice(out, func(i, j int) bool { return out[i].Speedup < out[j].Speedup })
	return out
}

// Validate checks structural invariants.
func (t *Table) Validate() error {
	if len(t.Entries) == 0 {
		return fmt.Errorf("profile: empty table for %s", t.App)
	}
	if t.BaseGIPS <= 0 {
		return fmt.Errorf("profile: non-positive base speed for %s", t.App)
	}
	for i, e := range t.Entries {
		if e.Speedup <= 0 || e.PowerW <= 0 {
			return fmt.Errorf("profile: entry %d has non-positive speedup/power", i)
		}
	}
	return nil
}

// WriteJSON serializes the table.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ReadJSON deserializes a table.
func ReadJSON(r io.Reader) (*Table, error) {
	var t Table
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Options configure a profiling campaign.
type Options struct {
	Load   workload.BGLoad
	Mode   BWMode
	Seeds  []int64       // one run per seed, averaged (paper: 3 runs)
	Warmup time.Duration // discarded settling time per configuration
	Window time.Duration // measured interval per configuration
	// Workers bounds the measurement worker pool: every (configuration,
	// seed) point is an independent simulation with its own sim.Phone,
	// so the grid fans out. 0 or negative means one worker per CPU;
	// results are bit-identical for every setting.
	Workers int
}

// DefaultOptions mirrors the paper's protocol: baseline load, three runs.
func DefaultOptions() Options {
	return Options{
		Load:   workload.BaselineLoad,
		Mode:   Coordinated,
		Seeds:  []int64{11, 22, 33},
		Warmup: 4 * time.Second,
		Window: 36 * time.Second,
	}
}

// Measure runs the app for one seed pinned at (freqIdx, bwIdx), with the
// 1 s perf tool every profiled cell carries, and returns its GIPS and
// power over opt.Window after opt.Warmup. Of opt it reads Load, Warmup
// and Window. bwIdx = GovernedBW leaves the bandwidth to the
// hwmon governor. Each call builds its own sim.Phone, so calls are safe
// to fan out across goroutines.
func Measure(spec *workload.Spec, opt Options, freqIdx, bwIdx int, seed int64) (gips, powerW float64, err error) {
	// Profile a looped copy of the app: a finite workload (a 12-site
	// browsing session, a 137 s video) must not run dry inside the
	// measurement window at fast configurations, or the idle tail would
	// dilute the measured GIPS.
	looped := *spec
	looped.Loop = true
	looped.LoopCount = 0
	ph, err := sim.NewPhone(sim.Config{
		Foreground: &looped, Load: opt.Load,
		Seed: seed, ScreenOn: true, WiFiOn: true,
	})
	if err != nil {
		return 0, 0, err
	}
	eng := sim.NewEngine(ph)
	if bwIdx == GovernedBW {
		// Pin the CPU, leave the bus to the stock governor.
		if err := ph.WriteFile(sysfs.DevFreqGovernor, platform.GovCPUBWHwmon); err != nil {
			return 0, 0, err
		}
		eng.MustRegister(governor.NewDevFreq())
		eng.MustRegister(&cpuPin{idx: freqIdx})
	} else {
		eng.MustRegister(&sim.FixedConfigActor{FreqIdx: freqIdx, BWIdx: bwIdx})
	}
	eng.MustRegister(perftool.MustNew(time.Second, seed))
	eng.Run(opt.Warmup, false)
	st := eng.Run(opt.Window, false)
	return st.GIPS, st.AvgPowerW, nil
}

// measurePoint is one profiled configuration.
type measurePoint struct{ fi, bi int }

// measurement is a point's seed-averaged result.
type measurement struct{ gips, powerW float64 }

// measureAll fans the (point × seed) measurement grid out over the
// worker pool and folds each point's seeds into their mean, in seed
// order — bit-identical to the serial per-point loop.
func measureAll(spec *workload.Spec, opt Options, pts []measurePoint) ([]measurement, error) {
	type cellRes struct{ gips, powerW float64 }
	nSeeds := len(opt.Seeds)
	cells, err := par.Map(context.Background(), par.Workers(opt.Workers), len(pts)*nSeeds,
		func(_ context.Context, i int) (cellRes, error) {
			pt := pts[i/nSeeds]
			g, p, err := Measure(spec, opt, pt.fi, pt.bi, opt.Seeds[i%nSeeds])
			if err != nil {
				return cellRes{}, err
			}
			return cellRes{gips: g, powerW: p}, nil
		})
	if err != nil {
		return nil, err
	}
	out := make([]measurement, len(pts))
	for p := range pts {
		gipsS := make([]float64, nSeeds)
		powS := make([]float64, nSeeds)
		for s := 0; s < nSeeds; s++ {
			gipsS[s] = cells[p*nSeeds+s].gips
			powS[s] = cells[p*nSeeds+s].powerW
		}
		out[p] = measurement{gips: stats.Mean(gipsS), powerW: stats.Mean(powS)}
	}
	return out, nil
}

// cpuPin pins only the CPU frequency.
type cpuPin struct{ idx int }

func (c *cpuPin) Name() string          { return "cpu-pin" }
func (c *cpuPin) Period() time.Duration { return 100 * time.Millisecond }

func (c *cpuPin) Tick(_ time.Duration, dev platform.Device) { dev.SetFreqIdx(c.idx) }

// Run profiles the application per the paper's protocol and returns the
// completed table.
func Run(spec *workload.Spec, opt Options) (*Table, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(opt.Seeds) == 0 {
		return nil, fmt.Errorf("profile: no seeds")
	}
	if opt.Window <= 0 || opt.Warmup < 0 {
		return nil, fmt.Errorf("profile: bad warmup/window")
	}
	chip := soc.Nexus6()
	freqs := spec.ProfileFreqIdxs
	if len(freqs) == 0 {
		return nil, fmt.Errorf("profile: %s has no profiled frequencies", spec.Name)
	}

	// Build the measurement plan up front — the base-speed cell plus the
	// per-frequency anchor grid — then fan the whole plan out over the
	// worker pool at once. Bandwidth anchors (Coordinated mode): the
	// paper's measurement budget is at most 9×2 = 18 configurations —
	// every allowed alternate frequency at the lowest and highest
	// bandwidth. When the app's allowed frequency range is narrow enough
	// that a third anchor still fits in the same 18-point budget, we add
	// a mid-ladder anchor (3051 MBps) so the piecewise-linear
	// interpolation can see the memory roofline knee; otherwise we use
	// the paper's two endpoints.
	var anchors []int
	pts := []measurePoint{{fi: 0, bi: 0}} // base speed: the SoC's lowest configuration
	if opt.Mode == Governed {
		for _, fi := range freqs {
			pts = append(pts, measurePoint{fi: fi, bi: GovernedBW})
		}
	} else {
		anchors = []int{0, len(chip.MemBWs) - 1}
		if 3*len(freqs) <= 18 {
			anchors = []int{0, midBWIdx(chip), len(chip.MemBWs) - 1}
		}
		for _, fi := range freqs {
			for _, bi := range anchors {
				pts = append(pts, measurePoint{fi: fi, bi: bi})
			}
		}
	}
	ms, err := measureAll(spec, opt, pts)
	if err != nil {
		return nil, err
	}

	baseGIPS := ms[0].gips
	if baseGIPS <= 0 {
		return nil, fmt.Errorf("profile: %s base speed measured as %v", spec.Name, baseGIPS)
	}
	t := &Table{App: spec.Name, Load: opt.Load.String(), Mode: opt.Mode, BaseGIPS: baseGIPS}

	if opt.Mode == Governed {
		for i := range freqs {
			m := ms[1+i]
			t.Entries = append(t.Entries, Entry{
				FreqIdx: freqs[i], BWIdx: GovernedBW,
				Speedup: m.gips / baseGIPS, PowerW: m.powerW, GIPS: m.gips,
			})
		}
		return t, t.Validate()
	}

	for f := range freqs {
		type point struct {
			bw   int
			gips float64
			pw   float64
		}
		anchored := make([]point, 0, len(anchors))
		for a, bi := range anchors {
			m := ms[1+f*len(anchors)+a]
			anchored = append(anchored, point{bw: bi, gips: m.gips, pw: m.powerW})
		}
		isAnchor := func(bi int) bool {
			for _, a := range anchors {
				if a == bi {
					return true
				}
			}
			return false
		}
		// Piecewise-linear interpolation across the bandwidth ladder
		// (paper §III-A), between consecutive measured anchors.
		seg := 0
		for bi := 0; bi < len(chip.MemBWs); bi++ {
			for seg+1 < len(anchored)-1 && bi > anchored[seg+1].bw {
				seg++
			}
			lo, hi := anchored[seg], anchored[seg+1]
			span := chip.BW(hi.bw).MBps() - chip.BW(lo.bw).MBps()
			frac := (chip.BW(bi).MBps() - chip.BW(lo.bw).MBps()) / span
			g := stats.Lerp(lo.gips, hi.gips, frac)
			p := stats.Lerp(lo.pw, hi.pw, frac)
			t.Entries = append(t.Entries, Entry{
				FreqIdx: freqs[f], BWIdx: bi,
				Speedup: g / baseGIPS, PowerW: p, GIPS: g,
				Interpolated: !isAnchor(bi),
			})
		}
	}
	return t, t.Validate()
}

// midBWIdx returns the ladder index used as the third interpolation
// anchor (3051 MBps on the Nexus 6).
func midBWIdx(chip *soc.SoC) int {
	return len(chip.MemBWs) / 3 // index 4 of 13 → 3051 MBps
}
