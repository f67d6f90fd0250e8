#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. A small-size run of each workload, untraced and traced, prints every
   metric BENCHMARK.json names, with its unit, and passes its checks.
2. The correctness check fires on a deliberately wrong pinned count.
3. The per-point binomial check accepts equal rates and rejects a
   clearly worse one.
4. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SCRATCH = os.path.join(".bench_build", "perfbench-selftest")


def bench(args, cwd="."):
    return subprocess.run(
        [sys.executable, os.path.join(os.path.abspath(HERE), "run.py")]
        + args, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def test_metrics_present(spec):
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            p = bench(["--workload", workload, "--seed", "5", "--seconds",
                       "1", "--trace", str(trace), "--size", "small"])
            check(p.returncode == 0, "%s trace=%d exited %d: %s"
                  % (workload, trace, p.returncode, p.stderr[-2000:]))
            r = result_line(p)
            check(r is not None, "%s trace=%d: no result" % (workload, trace))
            check(set(r) == {"correct", "attempted", "failed", "metrics"},
                  "result keys: %s" % sorted(r))
            check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                  "%s trace=%d: checks failed: %s" % (workload, trace, r))
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(got == want, "%s trace=%d: metrics %s, want %s"
                  % (workload, trace, sorted(got), sorted(want)))
            for name, v in r["metrics"].items():
                check(isinstance(v["value"], (int, float))
                      and math.isfinite(v["value"]),
                      "%s: %s is not a finite number" % (workload, name))
            print("ok   %s trace=%d: %d metrics" % (workload, trace,
                                                    len(got)))


def test_wrong_pin_fires():
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    # Claim that the pin seed saw no failures at all: every point's
    # real failure count is then far above the pinned rate.
    for key in pins["uf-scan"]["counts"]:
        pins["uf-scan"]["counts"][key] = 0
    os.makedirs(SCRATCH, exist_ok=True)
    wrong = os.path.join(SCRATCH, "wrong-pins.json")
    with open(wrong, "w") as f:
        json.dump(pins, f)
    p = bench(["--workload", "uf-scan", "--seed", "5", "--seconds", "1",
               "--trace", "0", "--size", "small", "--pins", wrong])
    r = result_line(p)
    check(p.returncode == 0 and r is not None, "wrong-pin run: no result")
    check(not r["correct"] and r["failed"] > 0,
          "wrong pinned counts were not detected: %s" % r)
    print("ok   wrong pinned counts detected (%d of %d failed)"
          % (r["failed"], r["attempted"]))


def test_binomial_check():
    check(not run.worse_than_pin(24576, 150, 24576, 150), "equal rates")
    check(not run.worse_than_pin(2048, 20, 24576, 150), "smaller run")
    check(run.worse_than_pin(24576, 400, 24576, 150), "2.7x worse")
    check(not run.worse_than_pin(24576, 0, 24576, 0), "no failures")
    print("ok   binomial check")


def test_bare_directory_fails():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uf-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    check(p.returncode != 0, "bare directory run exited 0")
    check(result_line(p) is None, "bare directory run printed a result")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok   bare directory exits %d without a result" % p.returncode)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    test_binomial_check()
    test_wrong_pin_fires()
    test_metrics_present(spec)
    test_bare_directory_fails()
    print("all perfbench self-tests passed")


if __name__ == "__main__":
    main()
