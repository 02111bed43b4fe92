"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfbench/spread.py --workloads verify-100 spectrum-mixed --seeds 1-10 \
        --seconds 35 [--out perfbench/baseline.json]

Run from the repository root.  One run at a time, each in its own process.
For every workload and end-to-end metric it prints the median, the first and
third quartiles (`statistics.quantiles(values, n=4)`) and the spread: the
distance between the quartiles over the median.  With --out it writes every
value as JSON.
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

import numpy

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["run_s"] = time.perf_counter() - start
    result["started"] = time.strftime("%H:%M:%S", time.gmtime(time.time() - result["run_s"]))
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    report = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": 1,  # run.py pins OPENBLAS/OMP/MKL_NUM_THREADS
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds))
            run = runs[-1]
            print(
                f"{workload} seed {seed}: {run['run_s']:.1f} s, correct={run['correct']}, "
                f"failed {run['failed']}/{run['attempted']}",
                flush=True,
            )
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], "values": values, **summary(values)}
            m = metrics[name]
            print(
                f"  {name:12s} median {m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}] "
                f"spread {m['spread']:.3f} {m['unit']}",
                flush=True,
            )
        report["workloads"][workload] = {
            "seeds": list(args.seeds),
            "started": [run["started"] for run in runs],
            "run_s": [run["run_s"] for run in runs],
            "attempted": [run["attempted"] for run in runs],
            "failed": [run["failed"] for run in runs],
            "correct": [run["correct"] for run in runs],
            "metrics": metrics,
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
