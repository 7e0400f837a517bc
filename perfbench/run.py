#!/usr/bin/env python3
"""Run one workload of the WaTZ benchmark and print its result.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is a workload of BENCHMARK.json, or "all" to run each in turn.

Builds perfbench/main.exe with dune (from the repository's own sources,
shared cache off), runs it, and checks that what it reports matches
BENCHMARK.json: with --trace 0 exactly the end-to-end metrics, with
--trace 1 the per-layer metrics, each in its declared unit. A per-layer
metric that a workload does not exercise is reported as 0. The human
lines come first; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. The exit status is 0 only
when the build, the run and every correctness gate succeeded.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
DEFAULT_SEED = 20221
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no WaTZ sources next to perfbench/ (dune-project and lib/ are missing)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not finish: %s" % e)
    if proc.returncode != 0:
        fail("build failed")


def run_workload(spec, workload, seed, seconds, trace):
    """Run one workload; print its lines and result; return its exit status."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, "spans-%s-seed%d.tsv" % (workload, seed))
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("%s printed no result (exit status %d)" % (workload, proc.returncode))

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if proc.returncode == 0:
        for name, m in metrics.items():
            if units.get(name) != m["unit"]:
                fail("metric %s (%s) is not declared with that unit in BENCHMARK.json" % (name, m["unit"]))
        for name, unit in units.items():
            if name not in metrics:
                if not trace:
                    fail("end-to-end metric %s is missing" % name)
                metrics[name] = {"value": 0, "unit": unit}
        result["metrics"] = {name: metrics[name] for name in units}
    for line in lines[:-1]:
        print(line)
    for name, m in result["metrics"].items():
        print("%s %s = %.6g %s" % (workload, name, m["value"], m["unit"]))
    print(json.dumps(result), flush=True)
    return proc.returncode


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    workloads = names if args.workload == "all" else [args.workload]
    statuses = [run_workload(spec, w, args.seed, args.seconds, args.trace) for w in workloads]
    sys.exit(max(statuses))


if __name__ == "__main__":
    main()
