#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one build, compared per workload
and end-to-end metric against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py

Run from the repository root. Each set runs every workload ten times, for
BENCHMARK.json's `run_seconds`, with seeds 1000·k + 1 ... 1000·k + 10 for
set k (interleaving the workloads), so no two runs share a seed. For each
workload and metric it prints each set's median, first and third quartile
(`statistics.quantiles(values, n=4)`), the spread (q3 − q1) / median, and
the change of the second set's median from the first, each against the
metric's bound; then the share of failed operations per set. Last, one
traced run per workload gives the tracing overhead: the traced operation
median (`traced.op_ms`) against the untraced `op_ms` median.

Exit status 1 if a spread or the change of a median, in either direction,
exceeds its bound, or if the failed shares of the two sets differ. The
spread of `setup_s` is printed but not held to its bound: set-up is a
second or less, so its run-to-run spread is mostly the host's; its median
change is held to the bound like every other. Raw results go to
perfbench/out/steady.json.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SETS = 2
RUNS = 10


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steady.py: {workload} seed {seed} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    # results[set][workload] = list of result objects
    results = [{w: [] for w in workloads} for _ in range(SETS)]
    for k in range(SETS):
        for i in range(RUNS):
            for w in workloads:
                seed = 1000 * (k + 1) + i + 1
                r = run(bench, w, seed, 0)
                results[k][w].append(r)
                value = {m: v["value"] for m, v in r["metrics"].items()}
                print(f"set {k + 1} run {i + 1} {w} seed {seed}: {value}",
                      file=sys.stderr, flush=True)
    traced = {w: run(bench, w, 999, 1) for w in workloads}

    os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
    with open(os.path.join(ROOT, "perfbench", "out", "steady.json"), "w") as f:
        json.dump({"sets": results, "traced": traced}, f, indent=1)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for k in range(SETS):
                values = [r["metrics"][name]["value"] for r in results[k][w]]
                med, q1, q3, spread = summary(values)
                first = med if first is None else first
                change = (med - first) / first
                if metric["better"] == "higher":
                    change = -change
                spread_ok = name == "setup_s" or spread <= bound
                change_ok = abs(change) <= bound
                ok &= spread_ok and change_ok
                print(f"  {name:<12} set {k + 1}: median {med:.6g} {metric['unit']}"
                      f"  q1 {q1:.6g}  q3 {q3:.6g}"
                      f"  spread {spread:.2%} (bound {bound:.0%}{'' if spread_ok else ' EXCEEDED'})"
                      f"  change {change:+.2%}{'' if change_ok else ' EXCEEDED'}")
        shares = []
        for k in range(SETS):
            attempted = sum(r["attempted"] for r in results[k][w])
            failed = sum(r["failed"] for r in results[k][w])
            shares.append(failed / attempted)
            print(f"  set {k + 1}: {attempted} operations attempted, {failed} failed")
        if shares[0] != shares[1]:
            ok = False
            print("  failed shares differ between sets")
        untraced = statistics.median(
            r["metrics"]["op_ms"]["value"] for s in results for r in s[w])
        t = traced[w]["metrics"]["traced.op_ms"]["value"]
        print(f"  tracing overhead: traced op {t:.6g} ms vs untraced median"
              f" {untraced:.6g} ms ({(t - untraced) / untraced:+.2%})")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
