package fleet

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aspeo/internal/report"
)

// TestRecoveryBoundary: a panicking handler answers 500 and is counted;
// the process survives.
func TestRecoveryBoundary(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	h := withRecovery(m, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/x", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "internal error: boom") {
		t.Fatalf("body %q does not report the panic", rr.Body.String())
	}
	r := m.Rollup()
	if r.HTTPPanicsRecovered != 1 || r.PanicsRecovered != 0 {
		t.Fatalf("rollup http_panics_recovered=%d panics_recovered=%d, want 1 and 0",
			r.HTTPPanicsRecovered, r.PanicsRecovered)
	}
	var buf strings.Builder
	if err := report.WriteMetrics(&buf, r); err != nil {
		t.Fatal(err)
	}
	if want := `aspeo_fleet_panics_recovered_total{boundary="http"} 1`; !strings.Contains(buf.String(), want) {
		t.Fatalf("metrics missing %q", want)
	}
}

// TestRecoveryBoundaryAbortPropagates: http.ErrAbortHandler is the
// server's own control flow for a dead client and must pass through.
func TestRecoveryBoundaryAbortPropagates(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	h := withRecovery(m, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if r := recover(); r != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler", r)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	t.Fatal("ErrAbortHandler did not propagate")
}
