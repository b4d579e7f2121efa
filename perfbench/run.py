#!/usr/bin/env python3
"""Build and run the perf-taint benchmark.

    python3 perfbench/run.py --workload paper_lulesh|model_milc|serve_loop \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seconds S [--seed N] [--trace 0|1]

Run from the repository root. The script builds the benchmark package
(`perfbench/`) and the `pt-server` binary from source into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload and
passes its output through: the last line of standard output is the JSON
result. `--all` runs the three workloads in turn and prints each result
line after a `# <workload>` header. Set-up, traces and scratch stores go
to `perfbench/out/`.

Exit status: 0 on success, non-zero when the build fails (no result line
then), a check fails (the result line reads `"correct": false` and
standard error names the workload and the check), or a run overruns its
time limit.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["paper_lulesh", "model_milc", "serve_loop"]
# A run measures for --seconds, sets up several times and checks its
# outputs; anything past this is a hang.
RUN_LIMIT_S = 170


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for manifest, extra in [
        ("perfbench/Cargo.toml", []),
        ("Cargo.toml", ["-p", "pt-server", "--bin", "pt-server"]),
    ]:
        cmd = ["cargo", "build", "--release", "--offline", "-q",
               "--manifest-path", os.path.join(ROOT, manifest)] + extra
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_one(workload, seed, seconds, trace):
    release = os.path.join(target_dir(), "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--server-bin", os.path.join(release, "pt-server"),
        "--out", os.path.join(ROOT, "perfbench", "out"),
    ]
    # One malloc arena (inherited by pt-server too): with one arena per
    # thread, which arena a sweep thread's grid point lands in changes from
    # run to run, and so did peak RSS, by up to a fifth.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    # A session of its own, so an overrun can stop the benchmark together
    # with the pt-server it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {workload} overran {RUN_LIMIT_S} s", file=sys.stderr)
        return 1, None
    lines = out.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else None)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("give --workload or --all")
    if not build():
        return 1
    for workload in WORKLOADS if args.all else [args.workload]:
        code, result = run_one(workload, args.seed, args.seconds, args.trace)
        if result is not None:
            if args.all:
                print(f"# {workload}")
            print(result, flush=True)
        if code != 0 or result is None:
            print(f"run.py: {workload} failed (exit {code})", file=sys.stderr)
            return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
