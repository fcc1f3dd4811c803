#!/usr/bin/env python3
"""Run workloads repeatedly and print each metric's median and quartiles.

    python3 perfbench/steadiness.py [--workload NAME ...] [--runs 10]
                                    [--trace 0|1] [--held-out-seed N]

Run from the repository root. Each workload runs --runs times for
BENCHMARK.json's run_seconds, each with its own seed (1, 2, ...). For every
metric the script prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), and the spread (q3 - q1) / median.
End-to-end metrics are compared with a third of their bound in
BENCHMARK.json, the steadiness target the bounds were chosen for; setup_s
has no spread requirement. Simulations whose output digest differs from
the committed reference are counted and reported (sims_diverged); they do
not make a run incorrect.

--held-out-seed N draws inputs from outside the pool of seeds that have
reference digests (perfbench's --held-out mode), starting at seed N, so a
claim can be re-checked on inputs not used while it was written.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace, held_out):
    """The run's JSON result, plus its sims_diverged count."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if held_out:
        cmd.append("--held-out")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    diverged = 0
    for line in lines[:-1]:
        if line.startswith(("FAIL", "DIVERGED")):
            print(f"  {workload} seed {seed}: {line}")
        if line.startswith("sims_diverged "):
            diverged = int(line.split()[1])
    result = json.loads(lines[-1])
    if "sims_diverged" in result["metrics"]:
        diverged = int(result["metrics"]["sims_diverged"]["value"])
    return result, diverged


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--held-out-seed", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    held_out = args.held_out_seed is not None
    first = args.held_out_seed if held_out else 1
    steady = True
    for name in names:
        runs = [run_once(name, first + i, bench["run_seconds"], args.trace, held_out)
                for i in range(args.runs)]
        results = [r for r, _ in runs]
        diverged = sum(d for _, d in runs)
        bad = [r for r in results if not r["correct"] or r["failed"]]
        print(f"{name}: {args.runs} runs, seeds {first}..{first + args.runs - 1}"
              f"{' (held out)' if held_out else ''}, {len(bad)} incorrect, "
              f"{diverged} simulations diverged from the reference")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            note = ""
            if metric in bounds:
                target = bounds[metric] / 3
                ok = metric == "setup_s" or spread < target
                steady = steady and ok
                note = f"  bound {bounds[metric]} target < {target:.3f} {'ok' if ok else 'WIDE'}"
            print(f"  {metric:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}{note}")
            print("    values " + " ".join(f"{v:.6g}" for v in values))
        steady = steady and not bad
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
