"""Run one workload of the rbgroups benchmark and print its metrics.

    python3 perfbench/run.py --workload census|classify|extend|construct \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree: the library is imported from its
`src/` directory.  A run repeats cycles until --seconds have passed, and
always finishes the cycle it is in.  A cycle builds the workload's
inputs from fresh objects (the set-up), then makes one pass over the
fixed job list, one job at a time in this one thread.  After the last
cycle the answers of the first pass are checked against independent
computations, and every later pass must give the same answers.

With --trace 0 the last line of stdout is a JSON object holding setup_s,
pass_s, job_p50_ms and peak_rss_mb.  With --trace 1 the library's public
functions are wrapped in spans and the object holds, per function, its
calls in one cycle and its median self time per cycle.  Raw figures of
each run, and the spans of a traced run, are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("census", "classify", "extend", "construct")
SHORT_S = 1e-3     # a job faster than this is timed again over repetitions
REPEAT_S = 3e-3    # that together last at least this long
SAMPLES = 3        # imports and set-ups timed per run, at least


def import_seconds() -> float:
    """Time `import rbgroups` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import rbgroups; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def same(a, b) -> bool:
    """Structural equality of summaries, numpy arrays included."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if hasattr(a, "shape"):
        return hasattr(b, "shape") and a.shape == b.shape and bool((a == b).all())
    return a == b


def retime(job, first: float) -> float:
    """Mean time of back-to-back repetitions of a short job."""
    reps = max(2, math.ceil(REPEAT_S / max(first, 1e-7)))
    t0 = time.perf_counter()
    for _ in range(reps):
        job.run()
    return (time.perf_counter() - t0) / reps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rbgroups" / "__init__.py").is_file():
        print(f"no library source at {SRC}; run from the root of an rbgroups tree",
              file=sys.stderr)
        return 2
    imports = [import_seconds() for _ in range(SAMPLES)]
    sys.path.insert(0, str(SRC))
    import rbgroups
    if not Path(rbgroups.__file__).resolve().is_relative_to(SRC):
        print(f"rbgroups imported from {rbgroups.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    import spans

    build, summarize, check = workloads.WORKLOADS[args.workload]
    workloads.warm(workloads.GROUPS_USED[args.workload])
    tracer = spans.install() if args.trace else None

    def inputs():
        return build(random.Random(f"{args.workload}:{args.seed}"))

    setups, passes, job_times, layer = [], [], [], []
    first_jobs, first = None, None
    faults: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        mark = len(tracer) if tracer else 0
        t0 = time.perf_counter()
        jobs = inputs()
        t1 = time.perf_counter()
        results, times = {}, {}
        for job in jobs:
            t = time.perf_counter()
            try:
                results[job.name] = job.run()
            except Exception:
                failed += 1
                print(f"job {job.name} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                continue
            times[job.name] = time.perf_counter() - t
        t2 = time.perf_counter()
        attempted += len(jobs)
        setups.append(t1 - t0)
        passes.append(t2 - t1)
        if tracer:
            layer.append(tracer.totals(mark, len(tracer)))
        else:
            for job in jobs:
                if times.get(job.name, SHORT_S) < SHORT_S:
                    times[job.name] = retime(job, times[job.name])
        job_times.extend(times.values())
        summaries = {job.name: summarize(job, results[job.name])
                     for job in jobs if job.name in results}
        if first is None:
            first_jobs = [workloads.Job(job.name, None, job.ctx) for job in jobs]
            first = summaries
        else:
            faults += [f"{name}: answer differs from the first pass"
                       for name, s in summaries.items()
                       if name in first and not same(s, first[name])]
        del jobs, results, summaries
        if time.perf_counter() - start >= args.seconds:
            break
    while not tracer and len(setups) < SAMPLES:
        gc.collect()
        t0 = time.perf_counter()
        inputs()
        setups.append(time.perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    try:
        faults += check(first_jobs, first)
    except Exception:
        faults.append("checks raised:\n" + traceback.format_exc())
    for fault in faults:
        print("FAULT", fault, file=sys.stderr)

    raw = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "imports_s": imports, "setups_s": setups,
           "passes_s": passes, "jobs_per_pass": len(first_jobs),
           "job_times_s": job_times, "faults": faults}
    if tracer:
        calls = [c.tolist() for c, _ in layer]
        decisions = [s["via"] for s in first.values() if "via" in s]
        metrics = {}
        for i, name in enumerate(spans.NAMES):
            metrics[f"{name}.calls"] = {"value": calls[0][i], "unit": "count"}
            metrics[f"{name}.self_s"] = {
                "value": statistics.median(float(s[i]) for _, s in layer), "unit": "s"}
        metrics["extension.closure_decided_ratio"] = {
            "value": (sum(v != "census" for v in decisions) / len(decisions)
                      if decisions else 0.0),
            "unit": "ratio"}
        raw["calls_per_cycle"] = calls
        raw["calls_agree"] = all(c == calls[0] for c in calls)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(imports) + statistics.median(setups),
                        "unit": "s"},
            "pass_s": {"value": statistics.median(passes), "unit": "s"},
            "job_p50_ms": {"value": 1e3 * statistics.median(job_times), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    raw["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(raw, indent=1) + "\n")
    if tracer:
        tracer.save(stem.with_suffix(".spans.npz"))

    print(json.dumps({"correct": not faults, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
