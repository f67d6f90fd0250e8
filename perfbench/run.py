#!/usr/bin/env python3
"""Repository benchmark: builds the vlq library and the benchmark driver
from source, runs one workload, checks the results and prints metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout. The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it ("# ..." comments) record the pinned thread count, the trial
budgets and the exact-count drift. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics. Workloads, metric definitions and the layer map are described
in perfbench/README.md.

Extra options (used by perfbench/selftest.py):
    --size small          shrink the trial budgets (same grids)
    --pins FILE           pinned counts to check against
    --write-pins FILE     run the scans at the pin seed and write FILE
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_ROOT = os.path.join(".bench_build", "perfbench-runs")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("uf-scan", "mwpm-compact", "service-preempt")
SCANS = ("uf-scan", "mwpm-compact")

# One-sided false-alarm rate of the per-(point, basis) binomial check.
# A run checks 16 (point, basis) results per repetition; at 1e-6 a full
# acceptance campaign of ~70 runs expects far below one false alarm.
ALPHA = 1e-6
PIN_SEED = 0
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)



def build_jobs():
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return max(1, min(4, n))


def clean_env():
    """The caller's environment without any VLQ_* knob."""
    return {k: v for k, v in os.environ.items() if not k.startswith("VLQ_")}


def build():
    """Configure (once) and build the driver; no-op when up to date."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(build_jobs())
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        # No build type here: the root project's default applies.
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=clean_env())
            if r.returncode != 0:
                # A failed configure must not be cached as configured.
                if cmd[1] == "-S":
                    shutil.rmtree(BUILD_DIR, ignore_errors=True)
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def run_driver(workload, seed, seconds, trace, size):
    work = os.path.join(WORK_ROOT, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work", work, "--size", size]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, env=clean_env(),
                           timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    if r.returncode != 0:
        fail("driver exited with %d" % r.returncode)
    return json.loads(r.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------

def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    v = sorted(values)
    if not v:
        raise ValueError("percentile of no values")
    pos = (len(v) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def binom_sf(k, n, p):
    """P(X >= k) for X ~ Binomial(n, p)."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    logs = []
    for i in range(k, n + 1):
        logs.append(math.lgamma(n + 1) - math.lgamma(i + 1)
                    - math.lgamma(n - i + 1) + i * math.log(p)
                    + (n - i) * math.log1p(-p))
    m = max(logs)
    return min(1.0, math.exp(m) * sum(math.exp(x - m) for x in logs))


def worse_than_pin(trials, failures, pin_trials, pin_failures):
    """One-sided conditional binomial test: is the run's failure rate
    higher than the pinned one? Given the k + K failures of both runs,
    the run's share is Binomial(k + K, n / (n + N)) if the rates agree;
    the check fires when P(X >= k) < ALPHA."""
    total = failures + pin_failures
    share = trials / float(trials + pin_trials)
    return binom_sf(failures, total, share) < ALPHA


# ---------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------

def check_scan_counts(raw, pins, seed):
    """Check every (point, basis) of every repetition. Returns
    (attempted, failed, drift, notes)."""
    pin = pins.get(raw["workload"])
    if pin is None:
        fail("no pinned counts for " + raw["workload"])
    reps = list(raw["reps"])
    if "metrics_rep" in raw:
        reps.append(raw["metrics_rep"]["rep"])
    first = {p["key"]: (p["trials"], p["failures"])
             for p in reps[0]["points"]}
    attempted = failed = 0
    notes = []
    for rep in reps:
        for p in rep["points"]:
            attempted += 1
            bad = False
            if p["trials"] != raw["trials_per_point"]:
                bad = True  # no early stop: the full budget must commit
            if (p["trials"], p["failures"]) != first[p["key"]]:
                bad = True  # the engine is deterministic per seed
            pinned = pin["counts"].get(p["key"])
            if pinned is None:
                bad = True
            elif worse_than_pin(p["trials"], p["failures"], pin["trials"],
                                pinned):
                bad = True
                notes.append("%s: %d/%d worse than pinned %d/%d"
                             % (p["key"], p["failures"], p["trials"],
                                pinned, pin["trials"]))
            failed += bad
    # Exact-count drift is a count, not a failure: an accuracy fix
    # legitimately changes counts at the pin seed.
    drift = None
    if seed == pin["seed"] and raw["trials_per_point"] == pin["trials"]:
        drift = sum(1 for p in reps[0]["points"]
                    if pin["counts"].get(p["key"]) != p["failures"])
    return attempted, failed, drift, notes


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def check_service_rep(raw, events):
    """Per job: a `done` event, no `error`, and per-point counts equal
    to a solo scanThreshold run with the same knobs."""
    attempted = failed = 0
    by_job = {}
    for e in events:
        by_job.setdefault(e["job"], []).append(e)
    for job in raw["jobs"]:
        attempted += 1
        evs = by_job.get(job["id"], [])
        done = [e for e in evs if e["event"] == "done"]
        if not done or any(e["event"] == "error" for e in evs):
            failed += 1
            continue
        solo = {idx: (t, f) for idx, t, f in raw["solo"][job["id"]]}
        points = {}
        for e in evs:
            if e["event"] == "point_done":
                points[e["point"]] = (e["trials"], e["failures"])
        total = (sum(t for t, _ in solo.values()),
                 sum(f for _, f in solo.values()))
        if points != solo or (done[-1]["trials"],
                              done[-1]["failures"]) != total:
            failed += 1
    return attempted, failed


def service_timings(events):
    """Turnaround, queue wait, preemptions and resumes of one rep."""
    queued, done, waits = {}, {}, {}
    waiting_since = {}
    preemptions = resumes = committed = 0
    for e in events:
        job, t = e["job"], e["t"]
        kind = e["event"]
        if kind == "queued":
            queued[job] = t
            waiting_since[job] = t
        elif kind in ("started", "resumed"):
            waits[job] = waits.get(job, 0.0) + t - waiting_since.pop(job, t)
            resumes += kind == "resumed"
        elif kind == "preempted":
            waiting_since[job] = t
            preemptions += 1
        elif kind == "done":
            done[job] = t
            committed += e["trials"]
    turnaround = [done[j] - queued[j] for j in done if j in queued]
    return {"turnaround": turnaround, "waits": list(waits.values()),
            "preemptions": preemptions, "resumes": resumes,
            "committed": committed}


# ---------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------

def end_to_end(raw):
    reps = raw["reps"]
    m = {
        "wall_s": median([r["wall_s"] for r in reps]),
        "cpu_s": median([r["cpu_s"] for r in reps]),
        "setup_s": median([s["total_s"] for s in raw["setup_sweeps"]]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    if raw["workload"] in SCANS:
        m["shots_per_s"] = median([r["committed"] / r["wall_s"]
                                   for r in reps])
        turn = [r["turnaround_s"] for r in reps]
    else:
        timings = [service_timings(read_jsonl(r["events_file"]))
                   for r in reps]
        m["shots_per_s"] = median([t["committed"] / r["wall_s"]
                                   for t, r in zip(timings, reps)])
        turn = [t["turnaround"] for t in timings]
    m["job_turnaround_p50_s"] = median([percentile(t, 50) for t in turn])
    m["job_turnaround_p75_s"] = median([percentile(t, 75) for t in turn])
    return m


def scan_per_layer(raw):
    """Per-layer metrics of a scan from the replay spans and counters."""
    spans = read_jsonl(raw["trace_file"])
    per_rep = {}
    for s in spans:
        per_rep.setdefault(s["rep"], []).append(s)
    rows = []
    for rep_index, replay in enumerate(raw["replays"]):
        ss = per_rep.get(rep_index, [])

        def total(name):
            return sum(s["end_ns"] - s["start_ns"] for s in ss
                       if s["name"] == name) * 1e-9

        decode = [(s["end_ns"] - s["start_ns"]) * 1e-3 for s in ss
                  if s["name"] == "decoder.decode"]
        points = sorted((s for s in ss if s["name"] == "point"),
                        key=lambda s: s["start_ns"])
        start0 = points[0]["start_ns"]
        setup = sum(total(n) for n in ("core.generate", "dem.build",
                                       "dem.sampler_init", "decoder.init"))
        # mc.batch's own time is the failure counting around the calls.
        batches = total("mc.batch")
        shots = replay["shots"]
        rows.append({
            "core.generate_s": total("core.generate"),
            "dem.build_s": total("dem.build"),
            "dem.sampler_init_s": total("dem.sampler_init"),
            "dem.sample_s": total("dem.sample"),
            "dem.sample_ns_per_shot": total("dem.sample") * 1e9 / shots,
            "decoder.init_s": total("decoder.init"),
            "decoder.decode_s": total("decoder.decode"),
            "decoder.decode_ns_per_shot":
                total("decoder.decode") * 1e9 / shots,
            "decoder.batch_p50_us": percentile(decode, 50),
            "decoder.batch_p99_us": percentile(decode, 99),
            "decoder.nontrivial_frac": replay["nontrivial"] / shots,
            "mc.unattributed_s": replay["wall_s"] - setup - batches,
            "service.queue_wait_p50_s": percentile(
                [(p["start_ns"] - start0) * 1e-9 for p in points], 50),
            "wall": replay["wall_s"],
        })
    m = {k: median([r[k] for r in rows]) for k in rows[0] if k != "wall"}
    traced_wall = median([r["wall"] for r in rows])
    counters = load_json(raw["metrics_rep"]["report_file"])["counters"]
    m.update(common_per_layer(raw, counters, traced_wall))
    m["service.preemptions"] = 0
    m["service.resumes"] = 0
    return m


def common_per_layer(raw, counters, traced_wall):
    """Metrics the scans and the service compute the same way."""
    reps = raw["reps"]
    wall = median([r["wall_s"] for r in reps])
    cpu = median([r["cpu_s"] for r in reps])
    fast = counters.get("uf.decode.exact_fastpath", 0)
    growth = counters.get("uf.decode.growth", 0)
    return {
        "decoder.uf_fastpath_frac": fast / (fast + growth)
            if fast + growth else 0.0,
        # cpu / (wall x threads), with the driver's one engine thread.
        "mc.utilization": cpu / wall,
        "mc.useful_shot_frac": counters.get("mc.trials_committed", 0)
            / max(1, counters.get("sampler.shots", 0)),
        "mc.checkpoint_saves": counters.get("checkpoint.saves", 0),
        "mc.checkpoint_save_us": raw["checkpoint_save_us"],
        "obs.trace_overhead_frac": (traced_wall - wall) / wall,
    }


def service_per_layer(raw):
    report = load_json(raw["metrics_rep"]["report_file"])
    counters, hist = report["counters"], report["histograms"]
    traced = raw["metrics_rep"]["rep"]
    timing = service_timings(read_jsonl(traced["events_file"]))
    sweep = raw["setup_sweeps"][0]
    empty = {"count": 0, "sum": 0, "p50": 0, "p99": 0}
    sample = hist.get("sampler.sample_batch", empty)
    decode = hist.get("decode.batch", empty)
    save = hist.get("checkpoint.save", empty)
    shots = max(1, counters.get("sampler.shots", 0))
    decoded = max(1, counters.get("decode.shots", 0))
    m = {
        "core.generate_s": sweep["generate_s"],
        "dem.build_s": sweep["dem_build_s"],
        "dem.sampler_init_s": sweep["sampler_init_s"],
        "dem.sample_s": sample["sum"] * 1e-9,
        "dem.sample_ns_per_shot": sample["sum"] / shots,
        "decoder.init_s": sweep["decoder_init_s"],
        "decoder.decode_s": decode["sum"] * 1e-9,
        "decoder.decode_ns_per_shot": decode["sum"] / decoded,
        "decoder.batch_p50_us": decode["p50"] * 1e-3,
        "decoder.batch_p99_us": decode["p99"] * 1e-3,
        "decoder.nontrivial_frac":
            1.0 - counters.get("decode.trivial_shots", 0) / decoded,
        # Pipeline rebuilds on every resume are not timed by the library,
        # so they land here.
        "mc.unattributed_s": traced["wall_s"]
            - (sample["sum"] + decode["sum"] + save["sum"]) * 1e-9,
        "service.preemptions": timing["preemptions"],
        "service.resumes": timing["resumes"],
        "service.queue_wait_p50_s": percentile(timing["waits"], 50),
    }
    m.update(common_per_layer(raw, counters, traced["wall_s"]))
    return m


def replay_mismatches(raw):
    """(checked, differing) (point, basis) counts of the replays against
    the engine's."""
    engine = {p["key"]: (p["trials"], p["failures"])
              for p in raw["reps"][0]["points"]}
    replayed = [p for r in raw["replays"] for p in r["points"]]
    return len(replayed), sum(engine.get(p["key"]) != (p["trials"],
                                                       p["failures"])
                              for p in replayed)


# ---------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------

def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def write_pins(path):
    pins = {}
    for w in SCANS:
        raw = run_driver(w, PIN_SEED, 0, 0, "full")
        pins[w] = {"seed": PIN_SEED, "trials": raw["trials_per_point"],
                   "counts": {p["key"]: p["failures"]
                              for p in raw["reps"][0]["points"]}}
    with open(path, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--pins", default=os.path.join(HERE, "pins.json"))
    ap.add_argument("--write-pins", metavar="FILE")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    bench = load_json("BENCHMARK.json")
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    build()
    if args.write_pins:
        write_pins(args.write_pins)
        return
    if not args.workload:
        ap.error("--workload is required")
    pins = load_json(args.pins)

    raw = run_driver(args.workload, args.seed, args.seconds, args.trace,
                     args.size)
    notes = []
    if args.workload in SCANS:
        attempted, failed, drift, notes = check_scan_counts(
            raw, pins, args.seed)
    else:
        attempted = failed = 0
        drift = None
        reps = list(raw["reps"])
        if args.trace:
            reps.append(raw["metrics_rep"]["rep"])
        for r in reps:
            a, f = check_service_rep(raw, read_jsonl(r["events_file"]))
            attempted += a
            failed += f

    correct = failed == 0
    if args.trace:
        if args.workload in SCANS:
            checked, differing = replay_mismatches(raw)
            attempted += checked
            failed += differing
            if differing:
                correct = False
                notes.append("replay counts differ from the engine's")
            metrics = {} if differing else scan_per_layer(raw)
        else:
            metrics = service_per_layer(raw)
    else:
        metrics = end_to_end(raw)

    if metrics and set(metrics) != set(units):
        fail("metric names differ from BENCHMARK.json %s: %s"
             % (section, sorted(set(metrics) ^ set(units))))
    for n in notes:
        print("# " + n)
    print("# workload=%s seed=%d threads=%d reps=%d size=%s drift=%s"
          % (args.workload, args.seed, raw["threads"], len(raw["reps"]),
             args.size, "n/a" if drift is None else drift))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
