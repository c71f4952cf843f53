# CI entry points. `make ci` is what .github/workflows/ci.yml runs:
# the gofmt gate, vet (both modules), build, the full test suite under
# the race detector, the benchmark module's tests, the fault-campaign (with the
# paper-campaign golden), record/replay with both backends' platform
# conformance suites, fleet control-plane,
# decision-trace, chaos/kill-restore, event-core reference-equivalence,
# scenario-generator and telemetry-pipeline smoke tests, and — when the
# tools are on PATH — staticcheck and govulncheck.

GO ?= go

.PHONY: ci fmt vet build test race bench bench-test bench-campaign smoke-faults smoke-replay smoke-fleet smoke-trace smoke-chaos smoke-event smoke-gen smoke-telemetry lint vuln fuzz

ci: fmt vet build race bench-test smoke-faults smoke-replay smoke-fleet smoke-trace smoke-chaos smoke-event smoke-gen smoke-telemetry lint vuln

# Fails, listing the offenders, when any Go file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repo benchmark (benchmark/README.md): each of its four workloads
# once at a fixed seed. Every run prints its JSON result as the last
# stdout line. Not part of `ci` — run it on a quiet machine.
bench:
	for w in paper-cells idle-doze fleet-steady population-burst; do \
		bash benchmark/run.sh --workload $$w --seed 101 --seconds 15 --trace 0 || exit 1; \
	done

# The benchmark module's own tests (statistics, result schema, digest
# determinism), under the race detector.
bench-test:
	cd benchmark && $(GO) test -race ./...

# One fault scenario end to end at Quick fidelity: faults delivered,
# ledger populated, hardened slack bounded by the stock governors'. Then
# every Quick paper campaign (Fig. 1, Tables III-V, overhead, phase and
# thermal studies, the fault campaign, the MobileBench re-profile) must
# reproduce its committed full-precision JSON golden byte for byte.
smoke-faults:
	$(GO) test -count=1 -run='TestFaultCampaignSmoke|TestCampaignGolden' ./internal/experiment/

# The platform layer's acceptance path end to end: record a live run at
# full rate, round-trip the trace through the JSON wire format, replay
# it through platform/replay, and require the controller's allocation
# sequence to match cycle for cycle. Then the contract of the
# platform.Kernel both backends embed: the replay device and the
# simulated phone must each pass the platformtest conformance suite.
smoke-replay:
	$(GO) test -count=1 -run='TestReplayGolden|TestReplayConformance' ./internal/platform/replay/
	$(GO) test -count=1 -run=TestPhoneConformance ./internal/sim/

# The fleet control plane end to end, under the race detector: start
# the HTTP server, submit 8 sessions over the API, stream one, assert
# the rollup and /metrics, drain, and verify intake is closed.
smoke-fleet:
	$(GO) test -count=1 -race -run=TestFleetSmokeHTTP ./internal/fleet/

# The decision-trace determinism contract end to end: two runs of the
# same seed diff to zero divergent cycles (including across an NDJSON
# round trip, the aspeo-trace diff path), and two different seeds
# diverge at a definite first cycle with attribute deltas. A traced
# faulted cell must also reproduce the committed NDJSON dump and its
# summary text byte for byte.
smoke-trace:
	$(GO) test -count=1 -run='TestTraceSmoke|TestTraceGolden' ./internal/experiment/

# Durability and chaos, under the race detector: sessions killed after a
# checkpoint restore bit-identically (session- and fleet-level golden
# tests), and a 64-session fleet under a seeded panic + checkpoint-write
# failure plan still lands every session with a consistent ledger.
smoke-chaos:
	$(GO) test -count=1 -race -run='TestKillRestore|TestFleetKillRestoreGolden|TestFleetChaosRecovery' ./internal/experiment/ ./internal/fleet/

# Event-core golden equivalence, under the race detector: the event
# core, which ticks actors at their deadlines and spans the intervals
# between them in closed form, against the literal per-step reference
# loop on controller, governor, fault-injected and full-rate-traced
# sessions (summary JSON, allocation logs, traces — all byte-identical),
# every evaluated app under BL/HL plus configuration churn, randomized
# actor storms, interrupt boundaries and a run deadline that falls
# between two steps; then the workload's span contract at the package
# level: SpanBound and AdvanceSpan against the literal Demand → clamp →
# Advance → Touches loop in every task regime (served, starved to the
# backlog cap, draining, batch, touch phases).
smoke-event:
	$(GO) test -count=1 -race -run='TestEngineEquivalence|TestStepFusion|TestCrossBackendStormBitIdentity|TestInterruptBoundaryParity|TestSubStepDeadlineParity' ./internal/sim/
	$(GO) test -count=1 -race -run='TestAdvanceSpan|TestSpanBound' ./internal/workload/

# The scenario subsystem end to end, under the race detector: the
# shipped example spec compiles to a byte-identical golden session
# stream (the aspeo-gen emission contract), and a generated 16-session
# mixed population — chains, perturbation, ad storms, bursty arrivals —
# submits through the fleet worker pool and lands every session.
smoke-gen:
	$(GO) test -count=1 -race -run='TestExampleScenarioGolden|TestScenarioFleetSmoke' ./cmd/aspeo-gen/ ./internal/fleet/

# The telemetry pipeline end to end, under the race detector: a seeded
# saturating population must report its brownout deterministically
# (byte-identical rollups across runs), a 64-session fleet with a live
# stream subscriber must replay its captured NDJSON into the exact live
# rollup while scrapes hammer the epoch-snapshot path, and a drained
# faulted fleet must reproduce its /metrics, rollup JSON and text
# goldens byte for byte, replay the committed telemetry_v1.ndjson
# capture into its live rollup, and report the sum of its sessions'
# health ledgers — including ladder activity after a session's last
# cycle. A fleet with cohort names that need escaping and non-zero live
# counters must reproduce its /metrics edge golden byte for byte.
smoke-telemetry:
	$(GO) test -count=1 -race -run='TestBrownoutGolden|TestTelemetryPipelineSmoke|TestTelemetryScrapeUnderLoad|TestFleetOutputGolden|TestFleetMetricsEdgeGolden|TestFleetHealthResidual' ./internal/fleet/

# staticcheck and govulncheck run when installed (CI installs them);
# locally they no-op with a note rather than failing the build.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi

vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed, skipping"; \
	fi

# Short fuzz passes: the sysfs path canonicalizer, the scenario spec
# parser/compiler, the recorded-trace decoder and importer, the
# checkpoint envelope decoder, the controller's checkpoint restore
# (mutated snapshots restored into a controller on a simulated phone,
# which then runs three control cycles), the decision-trace NDJSON
# decoder and the telemetry-stream NDJSON decoder (seed corpora in the
# fuzz targets). Not part of `ci` — time-boxed runs belong in a
# dedicated job.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzClean -fuzztime=15s ./internal/sysfs/
	$(GO) test -run='^$$' -fuzz=FuzzScenarioSpec -fuzztime=15s ./internal/scenario/
	$(GO) test -run='^$$' -fuzz=FuzzImportTrace -fuzztime=15s ./internal/scenario/
	$(GO) test -run='^$$' -fuzz=FuzzLoad -fuzztime=15s ./internal/ckpt/
	$(GO) test -run='^$$' -fuzz=FuzzControllerRestore -fuzztime=15s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzReadNDJSON -fuzztime=15s ./internal/obs/
	$(GO) test -run='^$$' -fuzz=FuzzReadNDJSON -fuzztime=15s ./internal/obs/pipeline/

# The campaign-scale benchmarks (quick Table III, serial vs parallel
# with a reported speedup metric). Not part of `ci` — they simulate
# whole app sessions and take minutes on small runners.
bench-campaign:
	$(GO) test -run='^$$' -bench=BenchmarkTableIII -benchtime=1x .
