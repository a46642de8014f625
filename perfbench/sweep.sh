#!/usr/bin/env bash
# Runs one workload once per seed and saves each run's standard output,
# the input `perfbench compare` reads:
#
#   bash perfbench/sweep.sh <workload> <first-seed> <last-seed> <out-dir> [trace] [seconds]
#   bash perfbench/run.sh compare <out-dir>            # medians, quartiles, spread
#   bash perfbench/run.sh compare <dir-a> <dir-b>      # verdicts against the bounds
#
# Without seconds, each run lasts run_seconds from BENCHMARK.json. Run from
# the repository root.
set -euo pipefail
workload=$1 first=$2 last=$3 out=$4 trace=${5:-0}
seconds=()
if [ -n "${6:-}" ]; then
	seconds=(--seconds "$6")
fi
mkdir -p "$out"
for seed in $(seq "$first" "$last"); do
	bash perfbench/run.sh --workload "$workload" --seed "$seed" --trace "$trace" "${seconds[@]}" \
		> "$out/$workload-trace$trace-seed$seed.txt"
done
