"""Seeded inputs and operations of the three workloads.

Every operation goes through a public entry point of sidigraph in-process:
`cli.main` with the arguments a user would type, or
`spectra.iota_energy_of_graph`.  Names are looked up at call time, so the
traced run sees the wrapped functions.  Inputs depend only on the seed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gates

VERIFY_N_MAX = 100

ORDERING_BUDGET_RANGE = (150, 400)
# Twelve orderings (two classes x with/without --include-floating x three
# formats), plus extremal and floating-pair twice each, all of it twice: 32
# queries a pass.  With 16 the costs of the two middle queries sat 24% apart
# and p50_ms jumped between them from run to run.
ORDERING_KINDS = 2 * (
    [
        ("ordering", mixed, floating, fmt)
        for mixed in (False, True)
        for floating in (False, True)
        for fmt in ("csv", "svg", "text")
    ]
    + [("extremal",), ("extremal",), ("floating-pair",), ("floating-pair",)]
)

SPECTRUM_SIZE_RANGE = (16, 128)  # vertices
SPECTRUM_DENSITIES = (1.3, 2.0, 4.0)  # arcs per vertex
SPECTRUM_GRAPHS_PER_CELL = 48


@dataclass
class Op:
    """One operation: a call to time and a gate that judges its result."""

    name: str
    call: Callable[[], object]
    gate: Callable[[object], gates.Verdict]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`sidigraph <argv>` in-process; returns (exit code, stdout)."""
    from sidigraph import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# --- verify-100 -----------------------------------------------------------


def verify_ops() -> list[Op]:
    """One `verify --n-max 100`; the paper's budget range fixes the input."""
    expected = gates.expected_verify_checks(VERIFY_N_MAX)
    return [
        Op(
            f"verify --n-max {VERIFY_N_MAX}",
            lambda: run_cli(["verify", "--n-max", str(VERIFY_N_MAX)]),
            lambda result: gates.gate_verify(*result, expected),
        )
    ]


# --- ordering-large -------------------------------------------------------


def ordering_queries(seed: int) -> list[tuple[tuple, int]]:
    """(kind, budget) for each query of a pass, all distinct.

    The budget range is cut into one stratum per query and each query draws
    its budget inside its own stratum, so every seed gets the same spread of
    family sizes.  Which kind lands in which stratum is fixed (a shuffle
    with seed 0), so seeds differ only in the budgets and the time of a
    pass stays comparable across seeds.  floating-pair needs an even budget.
    """
    kinds = list(ORDERING_KINDS)
    random.Random(0).shuffle(kinds)
    rng = random.Random(seed)
    lo, hi = ORDERING_BUDGET_RANGE
    width = (hi - lo) / len(kinds)
    queries = []
    for i, kind in enumerate(kinds):
        start = lo + round(i * width)
        stop = lo + round((i + 1) * width) - 1
        budget = rng.randint(start, stop)
        if kind[0] == "floating-pair" and budget % 2:
            budget = budget + 1 if budget < stop else budget - 1
        queries.append((kind, budget))
    return queries


def ordering_argv(kind: tuple, budget: int) -> list[str]:
    if kind[0] != "ordering":
        return [kind[0], str(budget)]
    _name, mixed, floating, fmt = kind
    argv = ["ordering", str(budget), "--mixed" if mixed else "--same-sign", "--format", fmt]
    return argv + ["--include-floating"] if floating else argv


def _ordering_output_ok(kind: tuple, budget: int, text: str) -> bool:
    """Gate one output; text that does not parse is a wrong output."""
    try:
        if kind[0] == "extremal":
            return gates.check_extremal(text, budget)
        if kind[0] == "floating-pair":
            return gates.check_floating_pair(text, budget)
        _name, mixed, floating, fmt = kind
        oracle = gates.oracle_ordering(budget, mixed, floating)
        if fmt == "csv":
            return gates.check_ordering_csv(text, oracle)
        if fmt == "svg":
            return gates.check_ordering_svg(text, oracle, budget, mixed)
        return gates.check_ordering_text(text, oracle, budget, mixed)
    except (ValueError, IndexError):
        return False


class OutputLedger:
    """Gates each query's first output in full and later ones by sha256.

    A later output must be byte-identical to the first, checked one.  The
    digests are kept so two commits can be compared byte for byte.
    """

    def __init__(self):
        self.first: dict[str, tuple[str, bool]] = {}

    def gate(self, name: str, kind: tuple, budget: int, result: tuple[int, str]) -> gates.Verdict:
        code, text = result
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if name not in self.first:
            ok = code == 0 and _ordering_output_ok(kind, budget, text)
            self.first[name] = (digest, ok)
        first_digest, ok = self.first[name]
        return gates.Verdict(1, int(code != 0 or digest != first_digest or not ok))


def ordering_ops(seed: int, ledger: OutputLedger) -> list[Op]:
    ops = []
    for kind, budget in ordering_queries(seed):
        argv = ordering_argv(kind, budget)
        name = " ".join(argv)
        ops.append(
            Op(
                name,
                lambda argv=argv: run_cli(argv),
                lambda result, name=name, kind=kind, budget=budget: ledger.gate(name, kind, budget, result),
            )
        )
    return ops


# --- spectrum-mixed -------------------------------------------------------


@dataclass(frozen=True)
class GeneratedGraph:
    n_vertices: int
    arcs: tuple[tuple[int, int, int], ...]
    blocks: tuple[tuple[int, ...], ...]  # strong components, in chain order
    ref_energy: float
    ref_iota: float

    def edge_list(self) -> str:
        lines = [f"n {self.n_vertices}"]
        lines += [f"{t} {h} {'+1' if s > 0 else '-1'}" for t, h, s in self.arcs]
        return "\n".join(lines) + "\n"


def random_graph(rng: random.Random, n: int, density: float, chain: bool) -> GeneratedGraph:
    """Signed digraph with about density*n arcs and known strong components.

    Each block gets a random Hamiltonian cycle, so it is strongly connected;
    the remaining arcs join random vertices within a block or run from an
    earlier block to a later one, so no larger component forms.  A chain has
    2 to 4 blocks of at least 2 vertices.  Vertex ids are shuffled at the
    end, so blocks are not contiguous id ranges.
    """
    if chain:
        k = rng.randint(2, 4)
        cuts = sorted(rng.sample(range(1, n // 2), k - 1))
        bounds = [0] + [2 * c for c in cuts] + [n]
    else:
        bounds = [0, n]
    blocks = [list(range(bounds[i], bounds[i + 1])) for i in range(len(bounds) - 1)]
    block_of = {v: i for i, block in enumerate(blocks) for v in block}
    arcs: set[tuple[int, int]] = set()
    for block in blocks:
        order = block[:]
        rng.shuffle(order)
        arcs.update(zip(order, order[1:] + order[:1]))
    target = round(density * n)
    while len(arcs) < target:
        tail, head = rng.randrange(n), rng.randrange(n)
        if tail != head and block_of[tail] <= block_of[head]:
            arcs.add((tail, head))
    relabel = list(range(n))
    rng.shuffle(relabel)
    signed = tuple(sorted((relabel[t], relabel[h], rng.choice((1, -1))) for t, h in sorted(arcs)))
    new_blocks = tuple(tuple(sorted(relabel[v] for v in block)) for block in blocks)
    energy, iota = gates.reference_energies(n, signed, new_blocks)
    return GeneratedGraph(n, signed, new_blocks, energy, iota)


def spectrum_graphs(seed: int) -> list[GeneratedGraph]:
    """SPECTRUM_GRAPHS_PER_CELL graphs for every density x structure cell.

    The size range is cut into one stratum per graph of a cell and each
    graph draws its size inside its own stratum, so every seed gets the same
    spread of sizes.  (With six fixed sizes the latencies clustered by size,
    and p50_ms jumped between two clusters from seed to seed.)  Graphs come
    in order of size.
    """
    rng = random.Random(seed)
    lo, hi = SPECTRUM_SIZE_RANGE
    width = (hi - lo + 1) / SPECTRUM_GRAPHS_PER_CELL
    graphs = []
    for i in range(SPECTRUM_GRAPHS_PER_CELL):
        start, stop = lo + int(i * width), lo + int((i + 1) * width) - 1
        for density in SPECTRUM_DENSITIES:
            for chain in (False, True):
                graphs.append(random_graph(rng, rng.randint(start, stop), density, chain))
    return graphs


def _iota_per_scc(graph_value) -> object:
    from sidigraph import spectra

    try:
        return spectra.iota_energy_of_graph(graph_value)
    except spectra.RootFindingError as exc:
        return exc


def spectrum_ops(seed: int, workdir: Path) -> list[Op]:
    """Both routes on every graph: the CLI on a file and the per-SCC function."""
    from sidigraph import SignedDigraph

    ops = []
    for i, graph in enumerate(spectrum_graphs(seed)):
        path = workdir / f"graph{i:03d}.txt"
        path.write_text(graph.edge_list(), encoding="utf-8")
        value = SignedDigraph(graph.n_vertices, graph.arcs)
        label = f"graph{i:03d} n={graph.n_vertices} arcs={len(graph.arcs)} blocks={len(graph.blocks)}"

        def cli_verdict(result, graph=graph):
            ok = gates.gate_spectrum_cli(*result, graph)
            return gates.Verdict(1, int(not ok), 1, int(not ok))

        def scc_verdict(result, graph=graph):
            ok = isinstance(result, float) and gates.gate_iota(result, graph)
            return gates.Verdict(1, int(not ok), 1, int(not ok))

        ops.append(Op(f"spectrum {label}", lambda p=str(path): run_cli(["spectrum", p]), cli_verdict))
        ops.append(Op(f"iota_energy_of_graph {label}", lambda v=value: _iota_per_scc(v), scc_verdict))
    return ops


WORKLOADS = ("verify-100", "ordering-large", "spectrum-mixed")


def build_ops(workload: str, seed: int, workdir: Path) -> tuple[list[Op], OutputLedger | None]:
    if workload == "verify-100":
        return verify_ops(), None
    if workload == "ordering-large":
        ledger = OutputLedger()
        return ordering_ops(seed, ledger), ledger
    if workload == "spectrum-mixed":
        return spectrum_ops(seed, workdir), None
    raise ValueError(f"unknown workload {workload!r}")
