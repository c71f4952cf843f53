package report

import (
	"errors"
	"strings"
	"testing"

	"aspeo/internal/obs/pipeline"
)

func formatRollup() FleetRollup {
	return FleetRollup{
		Completed: 3, Submitted: 1234567, ShedMaxStreams: 2,
		Telemetry: &pipeline.Rollup{GIPS: pipeline.DistSnapshot{
			Bounds: []float64{0.5, 1}, Counts: []uint64{1000000, 234567, 0}, Sum: 0.25,
		}},
	}
}

func renderMetrics(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	if err := WriteMetrics(&b, formatRollup()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func requireAll(t *testing.T, out string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("exposition missing %q", w)
		}
	}
}

// TestWriteMetricsCounterGauge: counter and gauge series print in the
// shortest 'g' form, zero counters included, each under its HELP/TYPE
// header.
func TestWriteMetricsCounterGauge(t *testing.T) {
	requireAll(t, renderMetrics(t),
		"aspeo_fleet_checkpoint_failures_total 0\n",
		"# TYPE aspeo_fleet_requests_shed_total counter\n"+
			"aspeo_fleet_requests_shed_total{reason=\"max_streams\"} 2\n# HELP aspeo_fleet_sessions ",
		"# TYPE aspeo_fleet_sessions gauge\n",
		"aspeo_fleet_sessions{state=\"completed\"} 3\n",
		"aspeo_fleet_sessions_submitted_total 1.234567e+06\n",
	)
}

// TestWriteMetricsHistogramEncoding: a histogram renders cumulative
// _bucket series ending in +Inf, then _sum and _count; bucket and _count
// values print as integers at any size.
func TestWriteMetricsHistogramEncoding(t *testing.T) {
	requireAll(t, renderMetrics(t),
		"# HELP aspeo_fleet_measured_gips Per-cycle measured performance across all controller sessions.\n"+
			"# TYPE aspeo_fleet_measured_gips histogram\n"+
			"aspeo_fleet_measured_gips_bucket{le=\"0.5\"} 1000000\n"+
			"aspeo_fleet_measured_gips_bucket{le=\"1\"} 1234567\n"+
			"aspeo_fleet_measured_gips_bucket{le=\"+Inf\"} 1234567\n"+
			"aspeo_fleet_measured_gips_sum 0.25\n"+
			"aspeo_fleet_measured_gips_count 1234567\n"+
			"# HELP aspeo_fleet_checkpoints_written_total",
	)
}

// TestWriteMetricsEmptyFamiliesOmitted: families without series — zero
// panic and shed counts, no cohorts, no interference rows — render
// nothing, not even their HELP/TYPE header.
func TestWriteMetricsEmptyFamiliesOmitted(t *testing.T) {
	out := renderMetrics(t)
	for _, absent := range []string{"panics_recovered", "queue_full", "cohort", "slack_collapse"} {
		if strings.Contains(out, absent) {
			t.Errorf("exposition has %q, which has no series", absent)
		}
	}
}

type failingWriter struct{ err error }

func (f failingWriter) Write([]byte) (int, error) { return 0, f.err }

func TestWriteMetricsReportsWriteError(t *testing.T) {
	boom := errors.New("boom")
	if err := WriteMetrics(failingWriter{boom}, formatRollup()); !errors.Is(err, boom) {
		t.Fatalf("WriteMetrics = %v, want the writer's error", err)
	}
}

// TestMetricsShim: the shim renders nothing before RollupMetrics, then
// exactly what WriteMetrics renders for the last rollup recorded.
func TestMetricsShim(t *testing.T) {
	var s MetricsShim
	var before, got, want strings.Builder
	if err := s.WriteText(&before); err != nil || before.Len() != 0 {
		t.Fatalf("WriteText before RollupMetrics = %q, %v; want nothing", before.String(), err)
	}
	r := formatRollup()
	RollupMetrics(&s, r)
	if err := s.WriteText(&got); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetrics(&want, r); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("shim rendered:\n%s\nWriteMetrics renders:\n%s", got.String(), want.String())
	}
}
