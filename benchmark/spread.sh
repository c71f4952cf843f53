#!/usr/bin/env bash
# Measures the benchmark's run-to-run spread: runs every workload RUNS
# times untraced, seeds 1..RUNS, interleaving the workloads so machine
# drift spreads over all of them, then prints each end-to-end metric's
# median, quartiles and spread (quartile distance over median) beside
# its bound in BENCHMARK.json.
#
#   bash benchmark/spread.sh [RUNS [SECONDS [WORKLOAD...]]]
#
# Run it from the repository root. Results stay in .bench_build/spread/,
# one file of JSON result lines per workload; --summarize compares such
# files (a parent's against a change's) the same way.
set -euo pipefail

runs=${1:-10}
seconds=${2:-20}
shift $(($# < 2 ? $# : 2))
workloads=${*:-paper-cells idle-doze fleet-steady population-burst}
out=.bench_build/spread
mkdir -p "$out"
for w in $workloads; do : >"$out/$w.jsonl"; done
for seed in $(seq 1 "$runs"); do
	for w in $workloads; do
		bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
			2>>"$out/$w.log" | tail -n 1 >>"$out/$w.jsonl"
	done
done
for w in $workloads; do
	echo "== $w"
	bash benchmark/run.sh --summarize "$out/$w.jsonl"
done
