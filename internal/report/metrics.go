package report

import (
	"bufio"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	"aspeo/internal/obs/pipeline"
)

// ContentType is the HTTP Content-Type of WriteMetrics output: the
// Prometheus text exposition format, version 0.0.4.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteMetrics renders the rollup in the Prometheus text exposition
// format (version 0.0.4) — the fleet's /metrics page. It writes straight
// from the rollup through one fixed-size buffer: no intermediate metric
// objects, no page assembled in memory.
//
// The page is deterministic. Families appear in a fixed order, each with
// # HELP and # TYPE lines; a family with no series is omitted, so the
// panic and shed counters list only their non-zero series, and the
// cohort histograms and interference gauges appear only when the rollup
// has rows for them. Label values (cohort names come from the submit
// API) are escaped per the format — backslash, double quote, line feed —
// and a family's series are sorted by escaped label value. Bucket and
// _count values print as integers, every other value in the shortest
// 'g' form (strconv.FormatFloat(v, 'g', -1, 64)). Metric names follow
// the Prometheus conventions: a unit suffix, _total on monotonic
// counters.
func WriteMetrics(w io.Writer, r FleetRollup) error {
	e := &exposition{bw: bufio.NewWriter(w)}
	t := r.Telemetry

	e.family("aspeo_fleet_measured_gips", "histogram",
		"Per-cycle measured performance across all controller sessions.")
	e.histogram("aspeo_fleet_measured_gips", "", "", t.GIPS)
	e.nonZero("aspeo_fleet_panics_recovered_total", "boundary",
		"Panics recovered at containment boundaries.",
		count{"http", r.HTTPPanicsRecovered}, count{"worker", r.PanicsRecovered})
	e.scalar("aspeo_fleet_checkpoints_written_total", "counter",
		"Session checkpoints written durably.", float64(r.CheckpointsWritten))
	e.scalar("aspeo_fleet_checkpoint_failures_total", "counter",
		"Session checkpoint writes that failed (the session continued).", float64(r.CheckpointFailures))
	e.nonZero("aspeo_fleet_requests_shed_total", "reason",
		"Control-plane requests shed by overload protection.",
		count{"max_streams", r.ShedMaxStreams}, count{"queue_full", r.ShedQueueFull})

	const sessions = "aspeo_fleet_sessions"
	e.family(sessions, "gauge", "Sessions currently in each lifecycle state.")
	for _, s := range [...]count{
		{"completed", r.Completed}, {"failed", r.Failed}, {"pending", r.Pending},
		{"running", r.Running}, {"stopped", r.Stopped},
	} {
		e.name(sessions, "", "state", s.label)
		e.float(float64(s.n))
	}

	e.scalar("aspeo_fleet_sessions_submitted_total", "counter", "Sessions accepted since start.", float64(r.Submitted))
	e.scalar("aspeo_fleet_session_restarts_total", "counter", "Session restart attempts consumed.", float64(r.Restarts))
	e.scalar("aspeo_fleet_cycles_total", "counter", "Control cycles observed across all controller sessions.", float64(r.CyclesTotal))
	e.scalar("aspeo_fleet_cycles_per_second", "gauge", "Recent fleet control-cycle throughput.", r.CyclesPerSec)
	tot, h := t.Totals, t.Health
	e.scalar("aspeo_fleet_sim_seconds_total", "counter", "Simulated seconds completed by finished sessions.", tot.SimSeconds)
	e.scalar("aspeo_fleet_energy_joules_total", "counter", "Energy consumed by finished sessions.", tot.EnergyJ)
	e.scalar("aspeo_fleet_dropped_instructions_total", "counter", "Foreground instructions dropped by finished sessions.", tot.DroppedInstr)
	e.scalar("aspeo_fleet_mean_gips", "gauge", "Mean GIPS over finished sessions.", tot.MeanGIPS)
	e.scalar("aspeo_fleet_mean_abs_error_gips", "gauge", "Mean |target-measured| GIPS over finished controller sessions.", tot.MeanAbsErrGIPS)
	for _, m := range [...]struct {
		name, help string
		v          int
	}{
		{"aspeo_fleet_health_actuation_failures_total", "Failed sysfs actuation writes.", h.ActuationFailures},
		{"aspeo_fleet_health_actuation_retries_total", "Retry attempts spent on failed writes.", h.ActuationRetries},
		{"aspeo_fleet_health_governor_reinstalls_total", "Governor hijacks repaired.", h.GovernorReinstalls},
		{"aspeo_fleet_health_maxfreq_restores_total", "scaling_max_freq clamps undone.", h.MaxFreqRestores},
		{"aspeo_fleet_health_rejected_samples_total", "Measurements rejected by the validation gate.", h.RejectedSamples},
		{"aspeo_fleet_health_watchdog_trips_total", "Watchdog degrade and relinquish transitions.", h.WatchdogTrips},
		{"aspeo_fleet_health_degraded_cycles_total", "Control cycles spent at the safe configuration.", h.DegradedCycles},
	} {
		e.scalar(m.name, "counter", m.help, float64(m.v))
	}
	e.scalar("aspeo_fleet_relinquished_sessions", "gauge", "Sessions whose controller relinquished the device.", float64(h.Relinquished))

	if len(t.Cohorts) > 0 {
		cohorts := sortedByLabel(t.Cohorts, func(c *pipeline.CohortStats) string { return c.Name })
		for _, f := range [...]struct {
			name, help string
			dist       func(*pipeline.CohortStats) pipeline.DistSnapshot
		}{
			{"aspeo_fleet_cohort_slack_pct", "Per-cycle slack (100·(measured−target)/target) by cohort.",
				func(c *pipeline.CohortStats) pipeline.DistSnapshot { return c.Slack }},
			{"aspeo_fleet_cohort_power_watts", "Per-cycle device power by cohort.",
				func(c *pipeline.CohortStats) pipeline.DistSnapshot { return c.Power }},
			{"aspeo_fleet_cohort_measured_gips", "Per-cycle measured performance by cohort.",
				func(c *pipeline.CohortStats) pipeline.DistSnapshot { return c.GIPS }},
		} {
			e.family(f.name, "histogram", f.help)
			for _, s := range cohorts {
				e.histogram(f.name, "cohort", s.label, f.dist(&t.Cohorts[s.row]))
			}
		}
	}

	brownouts, depth, cycles := 0, 0.0, uint64(0)
	if s := t.Saturation; s != nil {
		brownouts, depth, cycles = len(s.Brownouts), s.WorstDepth, s.BrownoutCycles
	}
	e.scalar("aspeo_fleet_brownouts", "gauge", "Brownout events detected by the saturation analyzer.", float64(brownouts))
	e.scalar("aspeo_fleet_brownout_worst_depth", "gauge", "Deepest per-window GIPS deficit (1 − measured/target).", depth)
	e.scalar("aspeo_fleet_brownout_cycles_total", "counter", "Control cycles that ran inside brownout windows.", float64(cycles))

	if len(t.Interference) > 0 {
		rows := sortedByLabel(t.Interference, func(inf *pipeline.Interference) string { return inf.Cohort })
		for _, f := range [...]struct {
			name, help string
			v          func(*pipeline.Interference) float64
		}{
			{"aspeo_fleet_slack_collapse_pct", "Calm-minus-storm mean slack by cohort (interference analyzer).",
				func(inf *pipeline.Interference) float64 { return inf.SlackCollapsePct }},
			{"aspeo_fleet_arrival_slack_corr", "Correlation of population arrivals with cohort slack.",
				func(inf *pipeline.Interference) float64 { return inf.ArrivalSlackCorr }},
		} {
			e.family(f.name, "gauge", f.help)
			for _, s := range rows {
				e.name(f.name, "", "cohort", s.label)
				e.float(f.v(&t.Interference[s.row]))
			}
		}
	}
	return e.bw.Flush()
}

// exposition writes exposition lines into a buffered writer. Write
// errors stick in the bufio.Writer, so WriteMetrics reports the first
// one from its final Flush.
type exposition struct {
	bw  *bufio.Writer
	num [32]byte // number-formatting scratch
}

func (e *exposition) family(name, typ, help string) {
	e.bw.WriteString("# HELP ")
	e.bw.WriteString(name)
	e.bw.WriteByte(' ')
	e.bw.WriteString(help)
	e.bw.WriteString("\n# TYPE ")
	e.bw.WriteString(name)
	e.bw.WriteByte(' ')
	e.bw.WriteString(typ)
	e.bw.WriteByte('\n')
}

// scalar writes a family of one unlabelled series.
func (e *exposition) scalar(name, typ, help string, v float64) {
	e.family(name, typ, help)
	e.name(name, "", "", "")
	e.float(v)
}

// count is one series of a family with one label: a label value that
// needs no escaping, and its count.
type count struct {
	label string
	n     int
}

// nonZero writes a counter family listing only its non-zero series,
// which must come in label order; with none it omits the family.
func (e *exposition) nonZero(name, label, help string, series ...count) {
	header := false
	for _, s := range series {
		if s.n == 0 {
			continue
		}
		if !header {
			e.family(name, "counter", help)
			header = true
		}
		e.name(name, "", label, s.label)
		e.float(float64(s.n))
	}
}

// histogram writes one histogram series: cumulative buckets, +Inf, sum
// and count. label and value (already escaped) may be empty.
func (e *exposition) histogram(name, label, value string, d pipeline.DistSnapshot) {
	var n uint64
	for i, c := range d.Counts {
		n += c
		e.bw.WriteString(name)
		e.bw.WriteString("_bucket{")
		if label != "" {
			e.pair(label, value)
			e.bw.WriteByte(',')
		}
		e.bw.WriteString(`le="`)
		if i < len(d.Bounds) {
			e.bw.Write(strconv.AppendFloat(e.num[:0], d.Bounds[i], 'g', -1, 64))
		} else {
			e.bw.WriteString("+Inf")
		}
		e.bw.WriteString(`"} `)
		e.uint(n)
	}
	e.name(name, "_sum", label, value)
	e.float(d.Sum)
	e.name(name, "_count", label, value)
	e.uint(n)
}

// name writes a sample's name, suffix and label set, up to the value.
func (e *exposition) name(name, suffix, label, value string) {
	e.bw.WriteString(name)
	e.bw.WriteString(suffix)
	if label != "" {
		e.bw.WriteByte('{')
		e.pair(label, value)
		e.bw.WriteByte('}')
	}
	e.bw.WriteByte(' ')
}

func (e *exposition) pair(label, value string) {
	e.bw.WriteString(label)
	e.bw.WriteString(`="`)
	e.bw.WriteString(value)
	e.bw.WriteByte('"')
}

func (e *exposition) float(v float64) {
	e.bw.Write(strconv.AppendFloat(e.num[:0], v, 'g', -1, 64))
	e.bw.WriteByte('\n')
}

func (e *exposition) uint(n uint64) {
	e.bw.Write(strconv.AppendUint(e.num[:0], n, 10))
	e.bw.WriteByte('\n')
}

// labelled is one series of a labelled family: its escaped label value
// and its row in the rollup.
type labelled struct {
	label string
	row   int
}

// sortedByLabel returns rows' series in exposition order: sorted by
// escaped label value, which differs from the rollup's order when a
// name holds a character the escape rewrites.
func sortedByLabel[T any](rows []T, name func(*T) string) []labelled {
	s := make([]labelled, len(rows))
	for i := range rows {
		s[i] = labelled{escapeLabelValue(name(&rows[i])), i}
	}
	slices.SortFunc(s, func(a, b labelled) int { return strings.Compare(a.label, b.label) })
	return s
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and line feed.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// MetricsShim keeps the call shape RollupMetrics(reg, r) followed by
// reg.WriteText(w). It exists only for the repo benchmark, which
// scrapes that way; everything else calls WriteMetrics. Safe for
// concurrent use.
type MetricsShim struct {
	mu sync.Mutex
	r  FleetRollup
}

// RollupMetrics records r as the rollup the shim's WriteText renders.
func RollupMetrics(s *MetricsShim, r FleetRollup) {
	s.mu.Lock()
	s.r = r
	s.mu.Unlock()
}

// WriteText renders, through WriteMetrics, the rollup last passed to
// RollupMetrics (nothing before the first call).
func (s *MetricsShim) WriteText(w io.Writer) error {
	s.mu.Lock()
	r := s.r
	s.mu.Unlock()
	if r.Telemetry == nil {
		return nil
	}
	return WriteMetrics(w, r)
}
