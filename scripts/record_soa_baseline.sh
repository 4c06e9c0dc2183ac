#!/usr/bin/env bash
# Records the SoA kernel benchmark baseline: builds the release preset, runs
# the batch-vs-scalar kernel sweep (bench/perf_soa), and writes the JSON to
# results/BENCH_soa.json. The bench exits nonzero if any batched kernel's
# output ever differs bitwise from the scalar metric, so a recorded baseline
# is also a bit-identity certificate for the machine that produced it.
#
# Usage: scripts/record_soa_baseline.sh [extra perf_soa flags...]
set -euo pipefail

cd "$(dirname "$0")/.."

. scripts/record_baseline_lib.sh
record_baseline perf_soa results/BENCH_soa.json "$@"
