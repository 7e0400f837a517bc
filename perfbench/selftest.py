#!/usr/bin/env python3
"""The benchmark's own checks, run from the root of the repository:

    python3 perfbench/selftest.py

1. attest-full reports the same minor_words_per_op, to the last digit,
   in two runs on one seed: allocation is counted per domain with
   Gc.minor_words and every storm of a run is the same input.
2. Every workload passes its correctness gates, untraced and traced, on
   the default seed and on one other seed (the traced runs also check
   that the benchmark's own tick loops reproduce the storms' outputs).

Short windows keep it to a few minutes; the numbers are not meant to
be compared with full-length runs.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
OTHER_SEED = 7


def run(workload, seed, trace, seconds=1):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().split("\n")[-1]) if proc.stdout.strip() else None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    print("%-6s %-14s seed %-6d trace %d" % ("ok" if ok else "FAILED", workload, seed, trace), flush=True)
    return ok, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sys.path.insert(0, HERE)
    import run as runner

    default_seed = runner.DEFAULT_SEED
    failures = 0

    words = []
    for _ in range(2):
        ok, result = run("attest-full", default_seed, 0)
        failures += not ok
        if ok:
            words.append(result["metrics"]["minor_words_per_op"]["value"])
    if len(words) == 2 and words[0] == words[1]:
        print("ok     attest-full minor_words_per_op repeats exactly: %r" % words[0])
    else:
        print("FAILED attest-full minor_words_per_op differs between runs: %r" % words)
        failures += 1

    for w in spec["workloads"]:
        for seed in (default_seed, OTHER_SEED):
            for trace in (0, 1):
                if (w["name"], seed, trace) == ("attest-full", default_seed, 0):
                    continue
                ok, _ = run(w["name"], seed, trace)
                failures += not ok
    print("selftest: %d failure(s)" % failures)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
