#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

Run from the repository root. Runs every workload of BENCHMARK.json with
--tiny for one second, untraced and traced, and checks that the result line
is well formed: every end-to-end metric (untraced) or per-layer metric
(traced) named in BENCHMARK.json is present, finite and carries the unit
BENCHMARK.json gives it, and the run is correct with no failures. Exits 1
on the first violation.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            where = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            metrics = result["metrics"]
            for m in expected:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{where}: {m['name']} missing")
                elif not isinstance(got.get("value"), (int, float)) or \
                        not math.isfinite(got["value"]):
                    problems.append(f"{where}: {m['name']} not finite: {got.get('value')}")
                elif got.get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit {got.get('unit')} "
                                    f"!= {m['unit']}")
            extra = set(metrics) - {m["name"] for m in expected}
            if extra:
                problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"{where}: {len(metrics)} metrics checked")
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
