// Command aspeo-fleet is the fleet control plane: a long-lived HTTP
// server multiplexing many concurrent controller/governor sessions over
// a bounded worker pool, with live per-session telemetry and
// Prometheus-style fleet metrics.
//
// Usage:
//
//	aspeo-fleet -addr :8080 -workers 8
//
// Then drive it over HTTP:
//
//	curl -XPOST localhost:8080/api/v1/sessions \
//	  -d '{"app":"spotify","load":"BL","seed":101,"count":8,"run_for_s":30}'
//	curl localhost:8080/api/v1/sessions
//	curl localhost:8080/api/v1/sessions/s-000001
//	curl localhost:8080/api/v1/sessions/s-000001/stream
//	curl -XPOST localhost:8080/api/v1/sessions/s-000001/stop
//	curl localhost:8080/api/v1/rollup
//	curl localhost:8080/metrics
//
// SIGTERM/SIGINT drains gracefully: intake closes, queued and running
// sessions finish (bounded by -drain-timeout, after which they are
// stopped cooperatively), then the server exits.
//
// Crash safety: with -checkpoint-dir set, every running session keeps
// its latest snapshot on disk and a fleet restarted with -restore
// resumes them bit-identically:
//
//	aspeo-fleet -addr :8080 -checkpoint-dir /var/lib/aspeo/ckpt -restore
//
// /healthz reports liveness; /readyz reports readiness (not draining,
// checkpoint directory writable).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aspeo/internal/ckpt"
	"aspeo/internal/fleet"
	"aspeo/internal/report"
	"aspeo/internal/scenario"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "concurrent sessions (0 = one per CPU)")
		queue        = flag.Int("queue", 0, "submission backlog capacity (0 = 1024)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a drain waits before stopping sessions cooperatively")
		flightDir    = flag.String("flight-dir", "", "directory for automatic flight-recorder dumps (NDJSON per escalated session attempt); empty disables dumps")
		flightCap    = flag.Int("flight-cap", 0, "per-session flight recorder capacity in spans (0 = default, negative disables recording)")
		ckptDir      = flag.String("checkpoint-dir", "", "directory for per-session crash-safety checkpoints (<id>.ckpt.json, written atomically); empty disables checkpointing")
		ckptEvery    = flag.Int("checkpoint-every", 0, "checkpoint cadence: control cycles (controller sessions) or simulated seconds (governor sessions); 0 = 25")
		restore      = flag.Bool("restore", false, "resume the sessions checkpointed in -checkpoint-dir before serving")
		maxStreams   = flag.Int("max-streams", 0, "max concurrent NDJSON status streams, excess shed with 429 (0 = 64)")
		reqTimeout   = flag.Duration("request-timeout", 0, "per-request deadline for non-streaming endpoints (0 = 30s)")
		scenPath     = flag.String("scenario", "", "compile this scenario spec (see aspeo-gen) and submit its generated population at startup")
		oneshot      = flag.Bool("oneshot", false, "batch mode: run the -scenario population to completion without serving HTTP, print the rollup, evaluate the spec's assertions, and exit non-zero on failure")
		enablePprof  = flag.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/")
	)
	flag.Parse()

	if *oneshot && *scenPath == "" {
		usageError("-oneshot requires -scenario")
	}

	// Validate the durability directories up front: an unwritable dump or
	// checkpoint directory discovered mid-flight would silently cost the
	// fleet its postmortems or crash safety (those writes are best-effort
	// by design). A bad path is a usage error, found before serving.
	if *restore && *ckptDir == "" {
		usageError("-restore requires -checkpoint-dir")
	}
	for _, d := range []struct{ flag, path string }{
		{"-flight-dir", *flightDir},
		{"-checkpoint-dir", *ckptDir},
	} {
		if d.path == "" {
			continue
		}
		if err := ckpt.Probe(ckpt.OS{}, d.path); err != nil {
			usageError("%s %s: %v", d.flag, d.path, err)
		}
	}

	m := fleet.NewManager(fleet.Options{
		Workers: *workers, Queue: *queue,
		FlightCap: *flightCap, FlightDir: *flightDir,
		CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery,
		MaxStreams: *maxStreams, RequestTimeout: *reqTimeout,
	})
	if *restore {
		views, err := m.Restore()
		if err != nil {
			// Per-file restore errors are reported but non-fatal: a
			// damaged checkpoint must not keep the rest of the fleet down.
			fmt.Fprintf(os.Stderr, "aspeo-fleet: restore: %v\n", err)
		}
		for _, v := range views {
			fmt.Fprintf(os.Stderr, "aspeo-fleet: restored session %s (%s, %d restarts)\n", v.ID, v.Config.App, v.Restarts)
		}
		fmt.Fprintf(os.Stderr, "aspeo-fleet: restored %d checkpointed sessions\n", len(views))
	}
	var spec *scenario.Spec
	if *scenPath != "" {
		// The scenario is startup configuration: a spec that does not
		// load, compile, or fit the queue is a usage error found before
		// serving, not a half-submitted population discovered later.
		sc, err := scenario.LoadFile(*scenPath)
		if err != nil {
			usageError("-scenario: %v", err)
		}
		g, err := sc.Compile()
		if err != nil {
			usageError("-scenario: %v", err)
		}
		views, err := m.SubmitScenario(g)
		if err != nil {
			fatal("-scenario %s: %d of %d sessions accepted: %v", *scenPath, len(views), len(g.Sessions), err)
		}
		fmt.Fprintf(os.Stderr, "aspeo-fleet: scenario %s: %d sessions submitted\n", g.Name, len(views))
		spec = sc
	}
	if *oneshot {
		// Batch mode: no HTTP surface — wait for every session to land,
		// print the rollup, and gate the exit status on the scenario's
		// assertions. Ctrl-C stops the remaining sessions cooperatively.
		ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
		defer cancel()
		if err := m.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "aspeo-fleet: interrupted, sessions stopped cooperatively (%v)\n", err)
		}
		r := m.Rollup()
		report.Fleet(os.Stderr, r)
		os.Exit(evaluateAssertions(spec, r))
	}
	handler := fleet.NewServer(m)
	if *enablePprof {
		// The profiling surface is opt-in: registered explicitly on the
		// parent mux (not via the package's init side effect on
		// DefaultServeMux) so the control plane only exposes it when
		// asked.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	// A hardened server: header/read/idle limits bound slow or abusive
	// clients, and the write timeout bounds stalled readers. Long-lived
	// handlers (NDJSON streams, drain) are exempt — they clear or extend
	// their own per-connection deadlines via http.ResponseController.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer cancel()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "aspeo-fleet: listening on %s\n", *addr)

	select {
	case err := <-errc:
		fatal("%v", err)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "aspeo-fleet: draining...")
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer dcancel()
	if err := m.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "aspeo-fleet: drain timed out, sessions stopped cooperatively (%v)\n", err)
	}
	r := m.Rollup()
	report.Fleet(os.Stderr, r)

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("shutdown: %v", err)
	}
	// A scenario's assertions gate the exit status on the drain path
	// too, so a supervised fleet fed a spec reports pass/fail the same
	// way the -oneshot batch invocation does.
	os.Exit(evaluateAssertions(spec, r))
}

// evaluateAssertions checks the scenario spec's assertions (if any)
// against the final rollup's telemetry and reports each failure with
// its field path. Returns the process exit code: 0 when every
// assertion holds or there is nothing to check, 1 otherwise.
func evaluateAssertions(spec *scenario.Spec, r report.FleetRollup) int {
	if spec == nil || len(spec.Assertions) == 0 {
		return 0
	}
	errs := spec.Evaluate(r.Telemetry)
	for _, err := range errs {
		fmt.Fprintf(os.Stderr, "aspeo-fleet: assertion failed: %v\n", err)
	}
	if len(errs) > 0 {
		return 1
	}
	fmt.Fprintf(os.Stderr, "aspeo-fleet: scenario %s: %d assertions passed\n", spec.Name, len(spec.Assertions))
	return 0
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "aspeo-fleet: "+format+"\n", args...)
	os.Exit(1)
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "aspeo-fleet: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
