#!/usr/bin/env python3
"""Measure every workload over a seed range and summarise it as one entry.

Usage (from the repository root)::

    python3 perfbench/trajectory.py --label baseline --seeds 1-10
    python3 perfbench/trajectory.py --label my-change --seeds 1-10 --append perfbench/trajectory.json

For each workload it makes one untraced ``run.py`` run per seed and one
traced run on the first seed.  Each end-to-end metric gets its median, its
quartiles (``statistics.quantiles(values, n=4)``) and its spread, the
quartile distance as a share of the median, printed against the metric's
bound from ``BENCHMARK.json``.  With ``--append`` the entry (program
fingerprint, environment, every value) is added to a trajectory file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - started
    return result


def environment() -> Dict[str, Any]:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.fingerprint import code_fingerprint

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "program": code_fingerprint(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": f"{platform.system()} {platform.machine()}",
    }


def summarise(values: List[float], bound: float) -> Dict[str, Any]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / q2,
        "bound": bound,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--append", type=Path, help="trajectory file to add the entry to")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    seeds = seed_range(args.seeds)
    workloads = args.workload or [workload["name"] for workload in spec["workloads"]]
    entry: Dict[str, Any] = {
        "label": args.label,
        "recorded": time.strftime("%Y-%m-%d", time.gmtime()),
        "environment": environment(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in workloads:
        results = [run(workload, seed, seconds, 0) for seed in seeds]
        traced = run(workload, seeds[0], seconds, 1)
        summary = {
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "correct": all(result["correct"] for result in results) and traced["correct"],
            "slowest_run_s": max(result["elapsed_s"] for result in results + [traced]),
            "end_to_end": {
                metric["name"]: summarise(
                    [result["metrics"][metric["name"]]["value"] for result in results], metric["bound"]
                )
                for metric in spec["end_to_end"]
            },
            "per_layer": {name: value["value"] for name, value in traced["metrics"].items()},
        }
        entry["workloads"][workload] = summary
        print(f"{workload}: {summary['attempted']} attempted, {summary['failed']} failed, "
              f"correct {summary['correct']}, slowest run {summary['slowest_run_s']:.1f} s")
        for name, stats in summary["end_to_end"].items():
            print(f"  {name:<14} median {stats['median']:<12.6g} spread {stats['spread']:.3f} "
                  f"(bound {stats['bound']})")
    if args.append:
        trajectory = json.loads(args.append.read_text(encoding="utf-8")) if args.append.exists() else []
        trajectory.append(entry)
        args.append.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
        print(f"entry {args.label!r} appended to {args.append}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
