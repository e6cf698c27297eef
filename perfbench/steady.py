#!/usr/bin/env python3
"""Steadiness check for the benchmark described in BENCHMARK.json.

Runs every workload (or those named) several times, each with its own
seed, and prints each end-to-end metric's median and quartiles next to
its bound. The spread is (q3 - q1) / median, with the quartiles that
Python's statistics.quantiles(values, n=4) gives; a metric is steady
when its spread stays below a third of its bound. setup_s is reported
but its spread is not held to its bound; only its median is compared
between sets of runs.

    python3 perfbench/steady.py                      # 10 seeds per workload
    python3 perfbench/steady.py --runs 5 --workloads mc_update
    python3 perfbench/steady.py --trace              # the traced runs too

Run it from the root of the repository. Exit status 0 when every spread
is within its bound and every run is correct.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", action="store_true",
                        help="also make one traced run per workload")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(command, workload, seed, seconds, False)
            ok &= result["correct"]
            results.append(result)
            print(f"  {workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {args.runs} runs, failed share {sorted(shares)}")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            gated = name != "setup_s"
            verdict = "steady" if spread < spec["bound"] / 3 else (
                "within bound" if spread <= spec["bound"] else "TOO WIDE")
            if gated and spread > spec["bound"]:
                ok = False
            print(f"  {name:<18} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.3f} {spec['bound']:>6} {verdict if gated else '(not gated)'}")
        if args.trace:
            result = run_once(command, workload, args.first_seed, seconds, True)
            ok &= result["correct"]
            print(f"  traced: " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
