#!/usr/bin/env bash
# Engine performance report: build (if needed), run the transfer-churn
# microbenchmark (Full vs Incremental reallocation), and write the
# machine-readable summary to BENCH_engine.json.
#
#   scripts/bench_report.sh [output.json]
#
# The default output path is BENCH_engine.json at the repo root. The report
# contains, per mode: wall time, events/sec, flows/sec, calendar push/cancel
# counts, peak pending events and flows visited per reallocation — plus
# calendar_work_ratio (flows a reschedule-everything walk would touch /
# calendar pushes Incremental made) and a "profile" section with the
# per-event-type wall-clock handler-time breakdown of one profiled full
# Table-1 simulation (see docs/observability.md) and an "es_scan" section
# with the GridView queries per JobDataPresent and per JobLeastLoaded
# decision at 30 and at 1000 sites, and a "setup" section with the best
# Grid and Routing construction times at 30, 300 and 1000 sites (a
# trajectory, not gated). Exits non-zero if the work ratio falls
# below 2, if either mode's peak pending events is not exactly 1 (the
# TransferManager's one calendar entry), or if a policy's 1000-site queries
# per decision exceed twice its 30-site value; all are counts, so the exit
# status is deterministic.
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
