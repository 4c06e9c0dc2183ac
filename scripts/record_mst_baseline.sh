#!/usr/bin/env bash
# Records the EMST benchmark baseline: builds the release preset, runs the
# dense-vs-grid sweep (bench/perf_mst), and writes the JSON to
# results/BENCH_mst.json. The bench exits nonzero if the grid engine's
# output ever diverges from the dense path, so a recorded baseline is also a
# value-identity certificate for the machine that produced it.
#
# Usage: scripts/record_mst_baseline.sh [extra perf_mst flags...]
set -euo pipefail

cd "$(dirname "$0")/.."

. scripts/record_baseline_lib.sh
record_baseline perf_mst results/BENCH_mst.json "$@"
