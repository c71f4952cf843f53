package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"aspeo/internal/jsonx"
	"aspeo/internal/obs"
	"aspeo/internal/par"
	"aspeo/internal/report"
	"aspeo/internal/scenario"
)

// NewServer returns the fleet's HTTP/JSON control plane over a manager
// (stdlib only, as everywhere in this repo):
//
//	POST /api/v1/sessions            submit 1..N sessions
//	POST /api/v1/scenarios           compile a scenario spec, submit its population
//	GET  /api/v1/sessions[?state=]   list sessions
//	GET  /api/v1/sessions/{id}       inspect one session
//	POST /api/v1/sessions/{id}/stop  cooperative stop
//	GET  /api/v1/sessions/{id}/stream  NDJSON live status
//	GET  /api/v1/sessions/{id}/trace   NDJSON flight-recorder snapshot
//	GET  /api/v1/rollup              fleet-wide rollup (JSON)
//	GET  /api/v1/telemetry           NDJSON batched telemetry stream
//	POST /api/v1/drain               stop intake, wait for the fleet
//	GET  /metrics                    Prometheus text exposition
//	GET  /healthz                    liveness
//	GET  /readyz                     readiness (not draining, checkpoint dir writable)
//
// Robustness: every handler runs under a recover boundary (a handler
// panic answers 500 and is counted, never kills the process); queue-full
// submissions answer 429 with Retry-After; concurrent NDJSON streams
// are bounded (Options.MaxStreams, excess shed with 429); non-streaming
// handlers are bounded by Options.RequestTimeout (streams and drain are
// exempt — they are long-lived by design).
func NewServer(m *Manager) http.Handler {
	mux := http.NewServeMux()
	// timed wraps the quick request/response handlers in the per-request
	// deadline. http.TimeoutHandler answers 503 with the JSON body below
	// once the budget is spent, whatever the handler is stuck on.
	timed := func(h http.HandlerFunc) http.Handler {
		return http.TimeoutHandler(h, m.opts.requestTimeout(), `{"error":"request deadline exceeded"}`)
	}
	mux.Handle("POST /api/v1/sessions", timed(func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(m, w, r)
	}))
	mux.Handle("GET /api/v1/sessions", timed(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.List(State(r.URL.Query().Get("state"))))
	}))
	mux.Handle("GET /api/v1/sessions/{id}", timed(func(w http.ResponseWriter, r *http.Request) {
		v, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	}))
	mux.Handle("POST /api/v1/sessions/{id}/stop", timed(func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := m.Stop(id); err != nil {
			writeError(w, err)
			return
		}
		v, _ := m.Get(id)
		writeJSON(w, http.StatusAccepted, v)
	}))
	mux.Handle("POST /api/v1/scenarios", timed(func(w http.ResponseWriter, r *http.Request) {
		handleScenario(m, w, r)
	}))
	mux.HandleFunc("GET /api/v1/sessions/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		handleStream(m, w, r)
	})
	mux.HandleFunc("GET /api/v1/telemetry", func(w http.ResponseWriter, r *http.Request) {
		handleTelemetry(m, w, r)
	})
	mux.Handle("GET /api/v1/sessions/{id}/trace", timed(func(w http.ResponseWriter, r *http.Request) {
		spans, err := m.TraceSnapshot(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		_ = obs.WriteNDJSON(w, spans)
	}))
	mux.Handle("GET /api/v1/rollup", timed(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Rollup())
	}))
	mux.HandleFunc("POST /api/v1/drain", func(w http.ResponseWriter, r *http.Request) {
		// Drain waits for the whole fleet to land, so it outlives the
		// server-wide read/write timeouts by design; exempt this request
		// from them (no-ops when the server sets none).
		rc := http.NewResponseController(w)
		_ = rc.SetReadDeadline(time.Time{})
		_ = rc.SetWriteDeadline(time.Time{})
		if err := m.Drain(r.Context()); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, m.Rollup())
	})
	mux.Handle("GET /metrics", timed(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", report.ContentType)
		_ = report.WriteMetrics(w, m.Rollup())
	}))
	mux.Handle("GET /healthz", timed(func(w http.ResponseWriter, r *http.Request) {
		status := "ok"
		if m.Draining() {
			status = "draining"
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": status})
	}))
	mux.Handle("GET /readyz", timed(func(w http.ResponseWriter, r *http.Request) {
		probs := m.ReadyProblems()
		if len(probs) == 0 {
			writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "unready", "problems": probs,
		})
	}))
	return withRecovery(m, mux)
}

// withRecovery is the control plane's panic boundary: a panicking
// handler answers 500 (when the response has not started) and is
// counted in aspeo_fleet_panics_recovered_total{boundary="http"} —
// one broken request must never take down the fleet process.
func withRecovery(m *Manager, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					// The server's own way of aborting a response
					// (client gone mid-stream); let it propagate.
					panic(rec)
				}
				m.httpPanics.Add(1)
				writeJSON(w, http.StatusInternalServerError,
					errorBody(fmt.Errorf("internal error: %v", rec)))
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// submitRequest is the POST /api/v1/sessions body: one config, fanned
// out to Count sessions with consecutive seeds (a convenience for "run
// this cell N times" fleet campaigns).
type submitRequest struct {
	Config
	// Count submits this many sessions at seeds Seed, Seed+1, …;
	// 0 means 1.
	Count int `json:"count,omitempty"`
}

// maxSubmitCount bounds one request's fan-out; campaigns beyond it
// should batch their submissions.
const maxSubmitCount = 4096

func handleSubmit(m *Manager, w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := jsonx.DecodeStrict(r.Body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody(fmt.Errorf("decoding request: %w", err)))
		return
	}
	if req.Count == 0 {
		req.Count = 1
	}
	if req.Count < 0 || req.Count > maxSubmitCount {
		writeJSON(w, http.StatusBadRequest, errorBody(fmt.Errorf("count %d outside [1, %d]", req.Count, maxSubmitCount)))
		return
	}
	views := make([]SessionView, 0, req.Count)
	for i := 0; i < req.Count; i++ {
		cfg := req.Config
		cfg.Seed += int64(i)
		v, err := m.Submit(cfg)
		if err != nil {
			// Partial acceptance is reported honestly: what landed is
			// in "sessions", what stopped intake in "error".
			status := statusFor(err)
			if status == http.StatusTooManyRequests {
				m.shedQueue.Add(1)
				w.Header().Set("Retry-After", "1")
			}
			writeJSON(w, status, struct {
				Sessions []SessionView `json:"sessions"`
				Error    string        `json:"error"`
			}{views, err.Error()})
			return
		}
		views = append(views, v)
	}
	writeJSON(w, http.StatusCreated, struct {
		Sessions []SessionView `json:"sessions"`
	}{views})
}

// handleScenario is POST /api/v1/scenarios: the body is a declarative
// scenario spec (internal/scenario JSON schema, decoded strictly). The
// server resolves declared trace paths against its own working
// directory (the Config.Profile precedent), compiles the spec, and
// submits the generated population in arrival order. Malformed specs
// answer 400 with the offending field path.
func handleScenario(m *Manager, w http.ResponseWriter, r *http.Request) {
	var spec scenario.Spec
	if err := jsonx.DecodeStrict(r.Body, &spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody(fmt.Errorf("decoding scenario: %w", err)))
		return
	}
	if spec.Sessions > maxSubmitCount {
		writeJSON(w, http.StatusBadRequest, errorBody(fmt.Errorf("scenario sessions %d outside [1, %d]", spec.Sessions, maxSubmitCount)))
		return
	}
	if err := spec.ResolveTraces(""); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody(err))
		return
	}
	g, err := spec.Compile()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody(err))
		return
	}
	views, err := m.SubmitScenario(g)
	if err != nil {
		status := statusFor(err)
		if status == http.StatusTooManyRequests {
			m.shedQueue.Add(1)
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, status, struct {
			Scenario string        `json:"scenario"`
			Sessions []SessionView `json:"sessions"`
			Error    string        `json:"error"`
		}{g.Name, views, err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, struct {
		Scenario string        `json:"scenario"`
		Sessions []SessionView `json:"sessions"`
	}{g.Name, views})
}

// handleStream writes the session's status as NDJSON — one SessionView
// per line — every interval until the session lands in a terminal state
// (the final view is always emitted) or the client goes away.
func handleStream(m *Manager, w http.ResponseWriter, r *http.Request) {
	interval, ok := streamInterval(w, r)
	if !ok || !acquireStream(m, w) {
		return
	}
	defer func() { <-m.streamSem }()
	// A healthy stream lives far past the server-wide read/write
	// timeouts: clear the read deadline (nothing more arrives from the
	// client) and extend the write deadline per emit below.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Time{})
	id := r.PathValue("id")
	s, err := m.lookup(id)
	if err != nil {
		writeError(w, err)
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	// Each write extends its own per-connection deadline, so a healthy
	// stream lives for hours while a stalled client is cut off within a
	// request-timeout of its last successful write.
	enc := json.NewEncoder(w)
	emit := func() bool {
		_ = rc.SetWriteDeadline(time.Now().Add(m.opts.requestTimeout()))
		v := s.view()
		if err := enc.Encode(v); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return !v.Terminal()
	}
	if !emit() {
		return
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			emit()
			return
		case <-ticker.C:
			if !emit() {
				return
			}
		}
	}
}

// handleTelemetry streams the fleet's raw telemetry as NDJSON — one
// pipeline.StreamBatch per line, each holding the arrivals, cycle
// records and finals folded since the previous epoch advance. The
// capture is best-effort by contract (batches are dropped, counted,
// when the client lags) but loss-free in practice at any sane interval;
// the file a client saves replays offline into the exact live rollup
// via `aspeo-trace rollup`.
func handleTelemetry(m *Manager, w http.ResponseWriter, r *http.Request) {
	interval, ok := streamInterval(w, r)
	if !ok || !acquireStream(m, w) {
		return
	}
	defer func() { <-m.streamSem }()
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Time{})
	ch, cancel := m.pipe.Subscribe(64)
	defer cancel()
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	enc := json.NewEncoder(w)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
			// Advancing the epoch publishes everything folded since the
			// last advance to every subscriber; scrape-triggered rollups
			// land on the channel between ticks and drain here too.
			m.pipe.Advance()
			_ = rc.SetWriteDeadline(time.Now().Add(m.opts.requestTimeout()))
			for draining := true; draining; {
				select {
				case b := <-ch:
					if err := enc.Encode(b); err != nil {
						return
					}
				default:
					draining = false
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// The NDJSON streams' emit interval: 500 ms unless the interval_ms query
// asks for another within [20 ms, 1 h]. The upper bound keeps the
// interval far from overflowing a time.Duration, whose wrap to a
// non-positive value would panic time.NewTicker after the 200 header
// was already sent.
const (
	defaultStreamInterval = 500 * time.Millisecond
	minStreamIntervalMS   = 20
	maxStreamIntervalMS   = 3_600_000
)

// streamInterval parses a stream's interval_ms query. An invalid value
// answers 400, before anything else is written, and reports false.
func streamInterval(w http.ResponseWriter, r *http.Request) (time.Duration, bool) {
	q := r.URL.Query().Get("interval_ms")
	if q == "" {
		return defaultStreamInterval, true
	}
	ms, err := strconv.Atoi(q)
	if err != nil || ms < minStreamIntervalMS || ms > maxStreamIntervalMS {
		writeJSON(w, http.StatusBadRequest, errorBody(fmt.Errorf("interval_ms %q: want an integer in [%d, %d]",
			q, minStreamIntervalMS, maxStreamIntervalMS)))
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// acquireStream takes one of the stream slots that session and
// telemetry streams share. Each stream holds a connection and a
// goroutine indefinitely, so an unbounded count is a resource leak an
// impatient dashboard can trigger. Excess is shed, not queued: it
// answers 429 with Retry-After, is counted, and reports false, so the
// client knows immediately and can back off. The caller releases a
// taken slot with <-m.streamSem.
func acquireStream(m *Manager, w http.ResponseWriter) bool {
	select {
	case m.streamSem <- struct{}{}:
		return true
	default:
		m.shedStreams.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests,
			errorBody(fmt.Errorf("too many concurrent streams (max %d)", m.opts.maxStreams())))
		return false
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func errorBody(err error) map[string]string { return map[string]string{"error": err.Error()} }

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, par.ErrQueueFull):
		// Transient backpressure: the queue drains as workers free up,
		// so the right client response is to retry shortly — 429 +
		// Retry-After, not a generic 503.
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, par.ErrPoolClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorBody(err))
}
