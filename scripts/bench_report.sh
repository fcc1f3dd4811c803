#!/usr/bin/env bash
# Engine performance report: build (if needed), run the transfer-churn
# microbenchmark (Full vs Incremental reallocation), and write the
# machine-readable summary to BENCH_engine.json.
#
#   scripts/bench_report.sh [output.json]
#
# The default output path is BENCH_engine.json at the repo root. The report
# contains, per mode: wall time, events/sec, flows/sec, calendar push/cancel
# counts and peak pending events — plus calendar_work_ratio (flows walked by
# Incremental / calendar pushes it made) and a "profile" section with the
# per-event-type wall-clock handler-time breakdown of one profiled full
# Table-1 simulation (see docs/observability.md). Exits non-zero if the
# work ratio falls below 2; the ratio is a count, so the exit status is
# deterministic.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$repo/BENCH_engine.json}"

if [ ! -x "$repo/build/bench/bench_micro_engine" ]; then
  echo "== configure + build"
  cmake -B "$repo/build" -S "$repo" >/dev/null
  cmake --build "$repo/build" --target bench_micro_engine >/dev/null
fi

echo "== engine A/B microbenchmark"
"$repo/build/bench/bench_micro_engine" --engine-json="$out"
