"""Check that traced runs count the same calls.

    python3 perfbench/check_calls.py [--seed N] [--seconds S] [workload ...]

Runs the traced benchmark twice per workload (all four by default) with
the same seed and compares every `<module>.<function>.calls` figure.
Exits with 1 if any differs or a run fails its checks, else 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("census", "classify", "extend", "construct")


def traced_calls(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload}: traced run failed its checks\n{done.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    status = 0
    for workload in args.workloads:
        a = traced_calls(workload, args.seed, args.seconds)
        b = traced_calls(workload, args.seed, args.seconds)
        diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        if diff:
            status = 1
            for k in diff:
                print(f"{workload}: {k} {a.get(k)} != {b.get(k)}")
        else:
            print(f"{workload}: {len(a)} call counts identical, "
                  f"{sum(a.values())} calls in one cycle")
    return status


if __name__ == "__main__":
    sys.exit(main())
