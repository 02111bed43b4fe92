"""Tests of the benchmark itself; not part of the package's test suite.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gates  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# --- generators -----------------------------------------------------------


def test_spectrum_graphs_are_deterministic_per_seed():
    first = workloads.spectrum_graphs(7)
    assert first == workloads.spectrum_graphs(7)
    assert first != workloads.spectrum_graphs(8)
    cells = len(workloads.SPECTRUM_DENSITIES) * 2
    assert len(first) == cells * workloads.SPECTRUM_GRAPHS_PER_CELL
    sizes = [graph.n_vertices for graph in first]
    lo, hi = workloads.SPECTRUM_SIZE_RANGE
    assert lo <= min(sizes) and max(sizes) <= hi
    strata = [sizes[i : i + cells] for i in range(0, len(sizes), cells)]
    assert all(max(a) < min(b) for a, b in zip(strata, strata[1:]))


def test_generated_blocks_are_the_strong_components():
    from sidigraph import SignedDigraph, strong_components

    for graph in workloads.spectrum_graphs(3)[::5]:
        components = strong_components(SignedDigraph(graph.n_vertices, graph.arcs))
        assert sorted(c.n_vertices for c in components) == sorted(len(b) for b in graph.blocks)


def test_ordering_queries_are_deterministic_and_distinct():
    queries = workloads.ordering_queries(11)
    assert queries == workloads.ordering_queries(11)
    assert queries != workloads.ordering_queries(12)
    assert len(set(queries)) == len(queries) == len(workloads.ORDERING_KINDS)
    lo, hi = workloads.ORDERING_BUDGET_RANGE
    assert all(lo <= budget <= hi for _kind, budget in queries)
    assert all(budget % 2 == 0 for kind, budget in queries if kind[0] == "floating-pair")


# --- tracing --------------------------------------------------------------


def test_self_time_subtracts_child_spans(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(ticks))
    tracer = tracing.Tracer()
    inner = tracer.span("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.span("outer", body)()
    assert tracer.parents == [-1, 0, 0]
    assert tracer.self_times() == {"outer": 5.0, "inner": 5.0}
    assert tracer.counts["inner.calls"] == 2


def test_install_rebinds_every_name_and_uninstall_restores():
    import sidigraph
    from sidigraph import cli, spectra, verification

    original = spectra.eigenvalues
    tracer = tracing.Tracer()
    tracer.install(sidigraph)
    try:
        for module in (sidigraph, spectra, cli, verification):
            assert module.eigenvalues is not original
        spectra.iota_energy_of_graph(sidigraph.make_cycle(4, -1))
        assert tracer.counts["spectra.eigenvalues.calls"] == 1
        assert tracer.counts["spectra.cycle_eigenvalues.calls"] == 1
    finally:
        tracer.uninstall()
    for module in (sidigraph, spectra, cli, verification):
        assert module.eigenvalues is original


# --- host speed and counts -------------------------------------------------


def test_scaled_time_drops_handler_time_and_uses_nearby_samples():
    probe = hostspeed.SpeedProbe()
    probe.samples = [9.0] + [hostspeed.REFERENCE_S] * hostspeed.CONTEXT
    mark = probe.mark()
    probe.samples += [2 * hostspeed.REFERENCE_S] * 7  # host at half speed during the call
    probe.paused += 0.5
    raw, scaled = probe.scaled(mark, 4.5)
    assert raw == 4.0
    assert scaled == 4.0 * hostspeed.REFERENCE_S / (2 * hostspeed.REFERENCE_S)


def test_probe_samples_while_active_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedProbe() as probe:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= hostspeed.CONTEXT + 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_counts_are_per_pass_whatever_the_number_of_passes():
    def op(fails):
        return workloads.Op("op", lambda: None, lambda _result: gates.Verdict(1, fails, 1, fails))

    loop = run.Loop([op(0), op(1), op(0)])
    for _ in range(3):
        loop.one_pass()
    assert (loop.total("attempted"), loop.total("failed"), loop.total("spectra_failed")) == (3, 1, 1)
    assert loop.consistent and len(loop.pass_walls) == 3


# --- spectrum gate --------------------------------------------------------


def test_zero_multiplicity_and_exact_zeros_in_the_reference():
    import numpy as np

    shift = np.eye(12, k=1, dtype=np.int64)  # one 12-fold defective zero
    assert gates.zero_multiplicity(shift) == 12
    star = np.array([[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
    assert gates.zero_multiplicity(star) == 2
    cycle = np.roll(np.eye(5, dtype=np.int64), 1, axis=1)
    assert gates.zero_multiplicity(cycle) == 0
    energy, iota = gates.reference_energies(12, [(i, i + 1, 1) for i in range(11)], [tuple(range(12))])
    assert energy == iota == 0.0


def _graph(ref_energy: float, ref_iota: float) -> workloads.GeneratedGraph:
    return workloads.GeneratedGraph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, -1)), ((0, 1, 2, 3),), ref_energy, ref_iota)


def _spectrum_text(energy: float, iota: float) -> str:
    eigen = "".join("  +0.707107 +0.707107i\n" for _ in range(4))
    return (
        "vertices: 4\narcs: 4\nstrong components: 1 (nontrivial 1)\neigenvalues:\n"
        f"{eigen}energy: {energy:.6f}\niota energy: {iota:.6f}\n"
    )


def test_spectrum_gate_flags_a_known_wrong_value():
    # 40-vertex strong component: LAPACK gives iota energy 58.26, the
    # whole-matrix route printed 6160237523878994.0 and exited 0.
    graph = _graph(58.0, 58.26)
    assert gates.gate_iota(58.26 + 0.04, graph)
    assert not gates.gate_iota(6160237523878994.0, graph)
    assert not gates.gate_iota(float("nan"), graph)
    assert gates.gate_spectrum_cli(0, _spectrum_text(58.0, 58.26), graph)
    assert not gates.gate_spectrum_cli(0, _spectrum_text(58.0, 6160237523878994.0), graph)
    assert not gates.gate_spectrum_cli(1, _spectrum_text(58.0, 58.26), graph)


def test_spectrum_gates_accept_both_routes_on_a_small_graph(tmp_path):
    from sidigraph import SignedDigraph, iota_energy_of_graph

    graph = workloads.spectrum_graphs(5)[1]  # 16 or 17 vertices, a chain of 2 to 4 blocks
    assert len(graph.blocks) > 1
    path = tmp_path / "g.txt"
    path.write_text(graph.edge_list(), encoding="utf-8")
    assert gates.gate_spectrum_cli(*workloads.run_cli(["spectrum", str(path)]), graph)
    assert gates.gate_iota(iota_energy_of_graph(SignedDigraph(graph.n_vertices, graph.arcs)), graph)


# --- verify gate ----------------------------------------------------------


def _verify_output(checks: list[tuple[str, bool]]) -> tuple[int, str]:
    lines = [f"ok   {name}" if ok else f"FAIL {name}: detail" for name, ok in checks]
    n_pass = sum(ok for _name, ok in checks)
    lines.append(f"{n_pass}/{len(checks)} checks passed")
    return (0 if n_pass == len(checks) else 1), "\n".join(lines) + "\n"


def test_verify_expected_list_has_817_checks_and_one_fail():
    expected = gates.expected_verify_checks(100)
    assert len(expected) == 817
    assert [name for name, ok in expected if not ok] == ["floating-pair bracket n=48"]
    assert gates.gate_verify(*_verify_output(expected), expected) == gates.Verdict(817, 0, 198, 0)


def test_verify_gate_rejects_every_verdict_change_including_n48():
    expected = gates.expected_verify_checks(100)
    for i, (name, ok) in enumerate(expected):
        changed = list(expected)
        changed[i] = (name, not ok)
        verdict = gates.gate_verify(*_verify_output(changed), expected)
        assert verdict.failed == 1, name


def test_verify_gate_rejects_missing_renamed_and_wrong_exit():
    expected = gates.expected_verify_checks(100)
    assert gates.gate_verify(*_verify_output(expected[:-1]), expected).failed == 1
    renamed = [("same-sign chain n=999", True)] + expected[1:]
    assert gates.gate_verify(*_verify_output(renamed), expected).failed == 1
    _code, text = _verify_output(expected)
    assert gates.gate_verify(0, text, expected).failed == 817


def test_verify_gate_accepts_the_real_command():
    expected = gates.expected_verify_checks(30)
    code, text = workloads.run_cli(["verify", "--n-max", "30"])
    assert gates.gate_verify(code, text, expected) == gates.Verdict(len(expected), 0, 58, 0)


# --- ordering gate --------------------------------------------------------


@pytest.mark.parametrize("fmt", ["csv", "svg", "text"])
@pytest.mark.parametrize("mixed,floating", [(False, False), (True, False), (True, True)])
def test_ordering_gate_accepts_real_output_and_rejects_a_swap(fmt, mixed, floating):
    budget = 40  # the same-sign family of 40 has exact ties
    kind = ("ordering", mixed, floating, fmt)
    code, text = workloads.run_cli(workloads.ordering_argv(kind, budget))
    assert code == 0
    assert workloads._ordering_output_ok(kind, budget, text)
    lines = text.splitlines(keepends=True)
    row = 3 if fmt != "svg" else next(i for i, line in enumerate(lines) if "<title>" in line)
    lines[row], lines[row + 1] = lines[row + 1], lines[row]
    assert not workloads._ordering_output_ok(kind, budget, "".join(lines))
    assert not workloads._ordering_output_ok(kind, budget, "")
    assert not workloads._ordering_output_ok(kind, budget, text.replace(",", ";").replace("tie", ""))


def test_oracle_finds_the_exact_ties():
    groups = {}
    for e in gates.oracle_ordering(22, False, False):
        groups.setdefault(e.tie_group, []).append(e.pair)
    assert sorted(len(g) for g in groups.values() if len(g) > 1) == [2, 2, 2]


@pytest.mark.parametrize("kind", [("extremal",), ("floating-pair",)])
def test_extremal_and_floating_gates(kind):
    budget = 160
    code, text = workloads.run_cli([kind[0], str(budget)])
    assert code == 0 and workloads._ordering_output_ok(kind, budget, text)
    assert not workloads._ordering_output_ok(kind, budget, text.replace("rank", "rank 1").replace("max", "min"))
    assert not workloads._ordering_output_ok(kind, budget, "")
