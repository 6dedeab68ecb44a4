#!/usr/bin/env bash
# One complete set of runs: RUNS untraced runs per workload, each with
# another seed, plus one traced run per workload, appended to OUT.json.
# Run from the repository root. Compare two sets with
#   cargo run --release --manifest-path benchmark/Cargo.toml -- compare A.json B.json
# usage: benchmark/scripts/run_set.sh OUT.json [RUNS=10] [SECONDS=15]
set -euo pipefail
out=$1
runs=${2:-10}
seconds=${3:-15}
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
for w in study_batch warehouse_trickle analyst_queries etl_stream; do
    for seed in $(seq 1 "$runs"); do
        "${bench[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" | tail -n 1
    done
    "${bench[@]}" --workload "$w" --seed 1 --seconds "$seconds" --trace 1 --out "$out" | tail -n 1 | cut -c1-120
done
