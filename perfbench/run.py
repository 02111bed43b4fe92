"""Seeded benchmark of sidigraph: one client, closed loop, in-process.

    python3 perfbench/run.py --workload verify-100 --seed 1 --seconds 35 --trace 0

Run from the repository root.  Workloads: verify-100, ordering-large,
spectrum-mixed (see perfbench/NOTES.md).  A pass runs every operation of the
workload once; passes repeat while the measured work stays nearest to
--seconds.  Every output goes through the workload's correctness gate,
outside the timed region.  With --trace 0 the last stdout line is the JSON of end-to-end
metrics, timed under hostspeed.SpeedProbe and scaled to its reference host
speed; with --trace 1 half the time runs untraced and half traced, and the
JSON holds the per-layer metrics.  BLAS is pinned to one thread.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
OUTDIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 11


def _import_sidigraph():
    """Import sidigraph from this checkout's src/, or exit with an error."""
    if not (SRC / "sidigraph" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sidigraph sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import sidigraph

    if Path(sidigraph.__file__).resolve().parent != (SRC / "sidigraph").resolve():
        sys.exit(f"perfbench: imported sidigraph from {sidigraph.__file__}, not {SRC}")
    return sidigraph


def measure_setup() -> list[tuple[float, float]]:
    """(raw, scaled) seconds for a fresh interpreter to import sidigraph.cli, each run."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import sidigraph.cli"]
    return [
        hostspeed.scaled_call(lambda: subprocess.run(argv, env=env, cwd=ROOT, check=True))
        for _ in range(SETUP_REPEATS)
    ]


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1) of the samples."""
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Loop:
    """Closed loop over passes; collects latencies, verdicts and the numpy
    RuntimeWarnings raised in spectra.py, which are counted instead of printed.

    With a `hostspeed.SpeedProbe`, `latencies` and `pass_walls` are scaled
    to the probe's reference host speed and `raw_walls` keeps the measured
    pass walls; without one, all three are measured times.
    """

    def __init__(self, ops, probe: hostspeed.SpeedProbe | None = None):
        self.ops = ops
        self.probe = probe
        self.latencies: list[float] = []
        self.pass_walls: list[float] = []
        self.raw_walls: list[float] = []
        self.first_verdict: list = [None] * len(ops)
        self.consistent = True
        self.spectra_warnings = 0

    def run(self, seconds: float) -> None:
        """Whole passes while the measured work stays nearest to `seconds`; at least one."""
        timed = 0.0
        while True:
            wall = self.one_pass()
            timed += wall
            if timed + wall / 2 >= seconds:
                return

    def one_pass(self) -> float:
        """Runs every operation once; returns the measured (unscaled) wall."""
        clock = time.perf_counter
        wall = raw_wall = 0.0
        for i, op in enumerate(self.ops):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                mark = self.probe.mark() if self.probe else None
                start = clock()
                result = op.call()
                elapsed = clock() - start
            raw, scaled = self.probe.scaled(mark, elapsed) if self.probe else (elapsed, elapsed)
            self.spectra_warnings += sum(
                1 for w in caught if issubclass(w.category, RuntimeWarning) and Path(w.filename).name == "spectra.py"
            )
            verdict = op.gate(result)
            if self.first_verdict[i] is None:
                self.first_verdict[i] = verdict
            elif verdict != self.first_verdict[i]:
                self.consistent = False
            wall += scaled
            raw_wall += raw
            self.latencies.append(scaled)
        self.pass_walls.append(wall)
        self.raw_walls.append(raw_wall)
        return raw_wall

    def total(self, field: str) -> int:
        """`field` of the verdicts summed over one pass.  Every pass must
        repeat the first pass's verdicts (else `consistent` is false), so the
        counts depend on the seed only, not on how many passes fit."""
        return sum(getattr(verdict, field) for verdict in self.first_verdict)


def end_to_end(loop: Loop, setup: list[tuple[float, float]]) -> dict:
    """Medians over passes of times scaled to the reference host speed;
    ops_per_s is correct operations of a pass over the median wall."""
    wall = statistics.median(loop.pass_walls)
    correct = loop.total("attempted") - loop.total("failed")
    return {
        "setup_s": (statistics.median(scaled for _raw, scaled in setup), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (correct / wall, "1/s"),
        "p50_ms": (1e3 * percentile(loop.latencies, 0.5), "ms"),
        "p90_ms": (1e3 * percentile(loop.latencies, 0.9), "ms"),
        "correct_frac": (correct / loop.total("attempted"), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced: Loop, untraced: Loop) -> dict:
    """Per-pass self times and counts from the traced passes."""
    passes = len(traced.pass_walls)
    self_s = tracer.self_times()
    counts = tracer.counts
    metrics = {}
    for module, functions in tracing.SPANNED.items():
        for fn in functions:
            name = f"{module}.{fn}"
            metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / passes, "s")
            metrics[f"{name}.calls"] = (counts[f"{name}.calls"] / passes, "count")
    for module, functions in tracing.COUNTED.items():
        for fn in functions:
            metrics[f"{module}.{fn}.calls"] = (counts[f"{module}.{fn}.calls"] / passes, "count")
    per_pass = {
        "orderings.enumerate_pairs.pairs": counts["orderings.enumerate_pairs.pairs"],
        "orderings.ordered_sequence.entries": counts["orderings.ordered_sequence.entries"],
        "graphs.CyclePair.constructed": counts["graphs.CyclePair.constructed"],
        "spectra.char_poly.degree_sum": counts["spectra.char_poly.degree_sum"],
        "spectra.root_errors": counts["spectra.poly_roots.raised.RootFindingError"],
        "spectra.runtime_warnings": traced.spectra_warnings,
        "trig.grid_points": counts["trig.certify_monotone.grid_points"],
        "render.bytes_out": sum(counts[f"render.{fn}.bytes_out"] for fn in tracing.SPANNED["render"]),
        "cli.exit_nonzero": counts["cli.main.exit_nonzero"],
    }
    for name, total in per_pass.items():
        unit = "B" if name == "render.bytes_out" else "count"
        metrics[name] = (total / passes, unit)
    eigen_calls = counts["spectra.eigenvalues.calls"]
    checked = traced.total("spectra_checked")
    metrics["spectra.checked"] = (checked, "count")
    metrics["spectra.char_poly.max_degree"] = (tracer.maxima["spectra.char_poly.degree_sum"], "count")
    metrics["spectra.fast_path_ratio"] = (
        counts["spectra.cycle_eigenvalues.calls"] / eigen_calls if eigen_calls else 0.0,
        "ratio",
    )
    metrics["spectra.correct_ratio"] = (
        (checked - traced.total("spectra_failed")) / checked if checked else 0.0,
        "ratio",
    )
    metrics["trace_overhead_s"] = (
        statistics.median(traced.pass_walls) - statistics.median(untraced.pass_walls),
        "s",
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sidigraph = _import_sidigraph()
    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops, ledger = workloads.build_ops(args.workload, args.seed, workdir)
        untraced = Loop(ops)
        if args.trace:
            untraced.run(args.seconds / 2)
            traced = Loop(ops)
            traced.first_verdict = untraced.first_verdict
            tracer = tracing.Tracer()
            tracer.install(sidigraph)
            try:
                traced.run(args.seconds / 2)
            finally:
                tracer.uninstall()
            tracer.write_spans(OUTDIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
            loops = [untraced, traced]
            metrics = per_layer(tracer, traced, untraced)
        else:
            setup = measure_setup()
            with hostspeed.SpeedProbe() as probe:
                untraced.probe = probe
                untraced.run(args.seconds)
            loops = [untraced]
            metrics = end_to_end(untraced, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    attempted = untraced.total("attempted")
    failed = untraced.total("failed")
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {len(ops)} ops/pass, "
        f"measured pass walls (s)={[[round(w, 3) for w in loop.raw_walls] for loop in loops]}, "
        f"latency samples={len(untraced.latencies)}, "
        f"python {platform.python_version()}, numpy {sys.modules['numpy'].__version__}, "
        f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, nproc={os.cpu_count()}"
    )
    if not args.trace:
        print(
            f"# scaled to the reference host speed: pass walls (s)={[round(w, 3) for w in untraced.pass_walls]}, "
            f"setup (s) measured {statistics.median(raw for raw, _ in setup):.4f} -> "
            f"scaled {statistics.median(scaled for _, scaled in setup):.4f}, "
            f"kernel samples={len(probe.samples)} median={statistics.median(probe.samples) * 1e3:.3f} ms "
            f"(reference {hostspeed.REFERENCE_S * 1e3:.3f} ms)"
        )
    for i, op in enumerate(ops):
        verdict = untraced.first_verdict[i]
        if verdict.failed:
            print(f"# failed {verdict.failed}/{verdict.attempted}: {op.name}")
    if ledger is not None:
        for name, (digest, _ok) in ledger.first.items():
            print(f"# sha256 {digest} {name}")
    result = {
        "correct": all(loop.consistent for loop in loops),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
