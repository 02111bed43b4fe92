"""Per-layer tracing of sidigraph from outside the package.

`Tracer.install` rebinds every module-level name in the sidigraph package
that refers to a traced function, so calls between modules and inside one
module both go through the wrapper.  A span wrapper records (name, start,
end, parent) in memory; a count wrapper only counts, for functions too hot
to span.  Self time of a span is its duration minus its child spans.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, function) pairs that get a span each call.
SPANNED = {
    "orderings": (
        "enumerate_pairs",
        "ordered_sequence",
        "predicted_same_sign_chain",
        "predicted_mixed_chain",
        "check_same_sign_chain",
        "check_mixed_chain",
        "check_exact_total_chain",
        "check_splice_inequalities",
        "locate_floating_pair",
        "extremal_pairs",
    ),
    "spectra": ("eigenvalues", "char_poly", "poly_roots", "iota_energy_of_graph"),
    "graphs": ("parse_edge_list", "strong_components", "adjacency_matrix"),
    "trig": ("certify_monotone",),
    "render": ("ordering_to_csv", "ordering_to_svg", "ordering_to_text"),
    "cli": ("main",),
    "verification": ("run_verification",),
}
# Counted only: called hundreds of thousands of times per verify run.
COUNTED = {"cycle_formulas": ("pair_iota",), "spectra": ("cycle_eigenvalues",)}


def _grid_points(fn):
    signature = inspect.signature(fn)

    def extract(args, kwargs, _result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["grid_points"]

    return extract


def _extractors(package) -> dict[str, dict]:
    """Extra counts taken from a call's arguments or result, per span name."""
    return {
        "orderings.enumerate_pairs": {"pairs": lambda a, k, r: len(r)},
        "orderings.ordered_sequence": {"entries": lambda a, k, r: len(r.entries)},
        "spectra.char_poly": {"degree_sum": lambda a, k, r: r.degree},
        "trig.certify_monotone": {"grid_points": _grid_points(package.trig.certify_monotone)},
        "render.ordering_to_csv": {"bytes_out": lambda a, k, r: len(r.encode("utf-8"))},
        "render.ordering_to_svg": {"bytes_out": lambda a, k, r: len(r.encode("utf-8"))},
        "render.ordering_to_text": {"bytes_out": lambda a, k, r: len(r.encode("utf-8"))},
        "cli.main": {"exit_nonzero": lambda a, k, r: int(r != 0)},
    }


class Tracer:
    """Spans and counts of one traced run.  Not thread-safe: one client."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, extract: dict | None = None):
        extract = extract or {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(0.0)
            self._open.append(index)
            self.counts[f"{name}.calls"] += 1
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self.ends[index] = time.perf_counter()
                self._open.pop()
            for key, get in extract.items():
                value = get(args, kwargs, result)
                self.counts[f"{name}.{key}"] += value
                self.maxima[f"{name}.{key}"] = max(self.maxima[f"{name}.{key}"], value)
            return result

        return wrapper

    def count(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the traced functions and CyclePair construction of `package`."""
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        extractors = _extractors(package)
        replacements = {}
        for module_name, functions in SPANNED.items():
            for fn_name in functions:
                original = getattr(getattr(package, module_name), fn_name)
                name = f"{module_name}.{fn_name}"
                replacements[id(original)] = (original, self.span(name, original, extractors.get(name)))
        for module_name, functions in COUNTED.items():
            for fn_name in functions:
                original = getattr(getattr(package, module_name), fn_name)
                replacements[id(original)] = (original, self.count(f"{module_name}.{fn_name}", original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)][1])

        pair_class = package.graphs.CyclePair
        post_init = pair_class.__post_init__
        counts = self.counts

        def counted_post_init(pair):
            counts["graphs.CyclePair.constructed"] += 1
            post_init(pair)

        self._undo.append((pair_class, "__post_init__", post_init))
        pair_class.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            totals[name] += self.ends[i] - self.starts[i] - child[i]
        return dict(totals)

    def write_spans(self, path: Path) -> None:
        """One JSON line per span: name, start and end in seconds, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for i, name in enumerate(self.names):
                out.write(json.dumps([name, self.starts[i], self.ends[i], self.parents[i]]) + "\n")
