import math
import random
import time

import numpy as np
import pytest

from sidigraph import (
    CyclePair,
    EdgeListParseError,
    SignedCycle,
    SignedDigraph,
    adjacency_matrix,
    format_edge_list,
    join_with_arc,
    make_cycle,
    parse_edge_list,
    strong_components,
)
from sidigraph.graphs import MAX_VERTICES
from oracles import make_path, reachability_components, reference_strong_components


def test_make_cycle_small():
    g = make_cycle(2, 1)
    assert g.arcs == ((0, 1, 1), (1, 0, 1))
    g = make_cycle(3, -1)
    assert g.arcs == ((0, 1, 1), (1, 2, 1), (2, 0, -1))


def test_make_cycle_sign_product():
    g = make_cycle(4, -1)
    product = 1
    for _, _, s in g.arcs:
        product *= s
    assert product == -1


def test_make_cycle_rejects_short():
    with pytest.raises(ValueError):
        make_cycle(1, 1)
    with pytest.raises(ValueError):
        make_cycle(4, 0)


def test_make_path():
    assert make_path(1).arcs == ()
    assert make_path(2).arcs == ((0, 1, 1),)
    assert make_path(3).arcs == ((0, 1, 1), (1, 2, 1))
    with pytest.raises(ValueError):
        make_path(0)


def test_digraph_validation():
    with pytest.raises(ValueError):
        SignedDigraph(2, ((0, 0, 1),))  # self-loop
    with pytest.raises(ValueError):
        SignedDigraph(2, ((0, 1, 1), (0, 1, -1)))  # duplicate arc
    with pytest.raises(ValueError):
        SignedDigraph(2, ((0, 2, 1),))  # out of range
    with pytest.raises(ValueError):
        SignedDigraph(2, ((0, 1, 2),))  # bad sign


def test_digraph_refuses_a_vertex_id_that_is_not_an_integer():
    # 1.7 used to become vertex 1
    with pytest.raises(ValueError, match=r"^an arc must be \(tail, head, sign\) with integer tail and head: "):
        SignedDigraph(3, [(0, 1.7, 1)])
    with pytest.raises(ValueError, match=r"^an arc must be \(tail, head, sign\) with integer tail and head: "):
        SignedDigraph(3, [(0.0, 1, 1)])


def test_digraph_refuses_a_vertex_count_that_is_not_an_integer():
    with pytest.raises(ValueError, match=r"^vertex count must be an integer, got 2.5$"):
        SignedDigraph(2.5, ())


def test_digraph_takes_numpy_integers_as_python_ints():
    g = SignedDigraph(np.int64(3), ((np.int64(1), np.int32(2), np.int64(-1)),))
    assert g.arcs == ((1, 2, -1),)
    assert all(type(v) is int for v in g.arcs[0])


def test_cycles_refuse_a_length_that_is_not_an_integer():
    for build in (make_cycle, SignedCycle):
        with pytest.raises(ValueError, match=r"^cycle length must be an integer, got 4.0$"):
            build(4.0, 1)
        with pytest.raises(ValueError, match=r"^cycle length must be >= 2, got 1$"):
            build(1, 1)


def test_join_with_arc_counts():
    g = join_with_arc(make_cycle(2, 1), make_cycle(4, -1), 0, 0, 1)
    assert g.n_vertices == 6
    assert g.n_arcs == 7
    g = join_with_arc(make_cycle(2, 1), make_cycle(2, 1), 1, 1, -1)
    assert g.n_vertices == 4
    assert g.n_arcs == 5
    with pytest.raises(ValueError):
        join_with_arc(make_cycle(2, 1), make_cycle(2, 1), 2, 0, 1)


def test_adjacency_matrix_values():
    assert adjacency_matrix(make_cycle(2, 1)).tolist() == [[0, 1], [1, 0]]
    assert adjacency_matrix(make_cycle(2, -1)).tolist() == [[0, 1], [-1, 0]]
    assert adjacency_matrix(make_path(2)).tolist() == [[0, 1], [0, 0]]


@pytest.mark.parametrize("n", range(2, 12))
@pytest.mark.parametrize("sign", [1, -1])
def test_adjacency_nonzeros_match_arcs(n, sign):
    g = make_cycle(n, sign)
    a = adjacency_matrix(g)
    assert int(np.count_nonzero(a)) == g.n_arcs
    assert set(np.unique(np.abs(a))) <= {0, 1}


def test_strong_components_path():
    comps = strong_components(make_path(3))
    assert len(comps) == 3
    assert all(c.n_vertices == 1 for c in comps)


def test_strong_components_cycle():
    g = make_cycle(5, -1)
    comps = strong_components(g)
    assert comps == [g]


def test_strong_components_joined():
    g = join_with_arc(make_cycle(2, 1), make_cycle(4, -1), 0, 0, 1)
    comps = strong_components(g)
    assert comps == [make_cycle(2, 1), make_cycle(4, -1)]


@pytest.mark.parametrize("r1,s1,r2,s2", [(2, 1, 4, -1), (6, -1, 2, -1), (4, 1, 4, 1)])
def test_strong_components_against_reachability(r1, s1, r2, s2):
    g = join_with_arc(make_cycle(r1, s1), make_cycle(r2, s2), 0, 1, -1)
    expected = reachability_components(g.n_vertices, g.arcs)
    comps = strong_components(g)
    # recover the original vertex sets: component k holds sorted ids of expected[k]
    assert [c.n_vertices for c in comps] == [len(e) for e in expected]
    # joining never changes the multiset of nontrivial components
    nontrivial = sorted((c for c in comps if c.n_vertices > 1), key=lambda c: c.n_vertices)
    assert nontrivial == sorted(
        [make_cycle(r1, s1), make_cycle(r2, s2)], key=lambda c: c.n_vertices
    )


def test_nested_joins_preserve_nontrivial_components():
    g = join_with_arc(make_cycle(2, 1), make_cycle(2, 1), 0, 0, 1)
    g = join_with_arc(g, make_cycle(6, -1), 3, 2, -1)
    comps = [c for c in strong_components(g) if c.n_vertices > 1]
    assert comps == [make_cycle(2, 1), make_cycle(2, 1), make_cycle(6, -1)]


def test_strong_components_with_tail_path():
    # cycle with a pendant path: singletons for the path vertices
    g = join_with_arc(make_cycle(3, -1), make_path(2), 1, 0, 1)
    comps = strong_components(g)
    assert [c.n_vertices for c in comps] == [3, 1, 1]
    expected = reachability_components(g.n_vertices, g.arcs)
    assert [len(e) for e in expected] == [3, 1, 1]


def _shuffled(rng: random.Random, n: int, pairs) -> SignedDigraph:
    """The digraph on these (tail, head) pairs, vertex ids permuted, random signs."""
    ids = list(range(n))
    rng.shuffle(ids)
    return SignedDigraph(n, tuple((ids[t], ids[h], rng.choice((1, -1))) for t, h in sorted(pairs)))


def _cycle(vertices) -> set[tuple[int, int]]:
    return {(v, vertices[(i + 1) % len(vertices)]) for i, v in enumerate(vertices)}


def _many_component_graph(kind: str, seed: int) -> SignedDigraph:
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    pairs: set[tuple[int, int]] = set()
    if kind == "dag":  # every vertex its own component
        pairs = {(t, h) for t in range(n) for h in range(t + 1, n) if rng.random() < 0.15}
    elif kind == "isolated":  # a few disjoint cycles among vertices without arcs
        free = list(range(n))
        rng.shuffle(free)
        while len(free) >= 2 and rng.random() < 0.7:
            length = rng.randint(2, min(len(free), 6))
            pairs |= _cycle(free[:length])
            free = free[length:]
    elif kind == "nested":  # cycles that run through vertices of earlier ones, and tails
        for _ in range(rng.randint(1, 6) if n >= 2 else 0):
            pairs |= _cycle(rng.sample(range(n), rng.randint(2, n)))
        pairs |= {(t, h) for t in range(n) for h in range(t + 1, n) if rng.random() < 0.03}
    elif kind == "blocks":  # strongly connected blocks in a row, arcs only forward
        start = 0
        while start < n:
            size = min(rng.randint(1, 7), n - start)
            block = list(range(start, start + size))
            if size > 1:
                pairs |= _cycle(block)
                pairs |= {(t, h) for t in block for h in block if t != h and rng.random() < 0.2}
            pairs |= {(t, h) for t in block for h in range(start + size, n) if rng.random() < 0.05}
            start += size
    else:  # sparse random digraph
        pairs = {(t, h) for t in range(n) for h in range(n) if t != h and rng.random() < 1.5 / n}
    return _shuffled(rng, n, pairs)


_KINDS = ("dag", "isolated", "nested", "blocks", "sparse")


@pytest.mark.parametrize("kind", _KINDS)
def test_strong_components_equal_the_reference_arc_for_arc(kind):
    for seed in range(60):
        g = _many_component_graph(kind, seed)
        comps = strong_components(g)
        assert [(c.n_vertices, c.arcs) for c in comps] == reference_strong_components(g), seed
        assert sum(c.n_vertices for c in comps) == g.n_vertices


def test_many_component_graphs_mix_component_sizes():
    # dags are all singletons; every other kind has singletons and larger components
    for kind in _KINDS:
        sizes = [c.n_vertices for seed in range(60) for c in strong_components(_many_component_graph(kind, seed))]
        assert (set(sizes) == {1}) if kind == "dag" else (1 in sizes and max(sizes) > 1), kind


def test_strong_components_of_a_long_path_take_linear_time():
    # each component used to scan every arc of the graph: 4-5 s on a 2-vCPU host
    g = make_path(10000)
    start = time.perf_counter()
    comps = strong_components(g)
    assert time.perf_counter() - start < 2.0
    assert len(comps) == 10000
    assert all(c.n_vertices == 1 and c.arcs == () for c in comps)


@pytest.mark.parametrize("n", range(2, 16))
@pytest.mark.parametrize("sign", [1, -1])
def test_cycle_constructor_invariants(n, sign):
    g = make_cycle(n, sign)
    comps = strong_components(g)
    assert len(comps) == 1
    assert math.prod(s for *_, s in comps[0].arcs) == sign


def test_cycle_pair_canonicalization():
    p = CyclePair(SignedCycle(4, 1), SignedCycle(2, -1))
    assert (p.c1.length, p.c1.sign) == (2, -1)
    assert (p.c2.length, p.c2.sign) == (4, 1)
    # minus sorts before plus at equal length
    q = CyclePair(SignedCycle(4, 1), SignedCycle(4, -1))
    assert q.c1.sign == -1
    # idempotent under re-construction
    assert CyclePair(p.c1, p.c2) == p


def test_cycle_pair_total_over_valid_inputs():
    for budget in range(4, 13):
        for l1 in range(2, budget - 1, 2):
            for l2 in range(2, budget - l1 + 1, 2):
                for s1 in (1, -1):
                    for s2 in (1, -1):
                        p = CyclePair(SignedCycle(l1, s1), SignedCycle(l2, s2))
                        assert p == CyclePair(p.c1, p.c2)
                        assert p.total_length == l1 + l2


def test_cycle_pair_validation():
    with pytest.raises(ValueError):
        CyclePair(SignedCycle(3, 1), SignedCycle(2, 1))  # odd length


def test_edge_list_round_trip():
    g = join_with_arc(make_cycle(4, -1), make_path(2), 2, 0, -1)
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_parsing_and_errors():
    text = "# a comment\nn 2\n0 1 +1\n1 0 -1\n"
    g = parse_edge_list(text)
    assert g == make_cycle(2, -1)

    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list("n 2\n0 1 +1\n0 1 -1\n")
    assert exc.value.line_number == 3

    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list("n 2\n0 3 +1\n")
    assert exc.value.line_number == 2

    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list("0 1 +1\n")
    assert exc.value.line_number == 1

    with pytest.raises(EdgeListParseError):
        parse_edge_list("n 2\n0 1 5\n")

    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list("n 2\n0 1 +1 junk\n")
    assert exc.value.line_number == 2

    with pytest.raises(EdgeListParseError):
        parse_edge_list("# only comments\n")


@pytest.mark.parametrize("count", ["1_2", "+3", "-0", "-3", "\uff13", "\u0663", "3.0", "0x3"])
def test_edge_list_vertex_count_is_ascii_decimal(count):
    # int() takes '1_2', '+3', '-0' and non-ASCII digits; the format does not
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list(f"n {count}\n0 1 +1\n")
    assert exc.value.line_number == 1
    assert str(exc.value) == f"line 1: bad vertex count {count!r}"


@pytest.mark.parametrize(
    "arc", ["0 1_1 +1", "+0 1 +1", "-0 1 +1", "0 -1 +1", "\u0660 1 +1", "0 \uff11 +1", "0 1.0 +1"]
)
def test_edge_list_tail_and_head_are_ascii_decimal(arc):
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list(f"# header next\nn 12\n\n{arc}\n")
    assert exc.value.line_number == 4
    assert str(exc.value) == "line 4: tail and head must be integers"


def test_edge_list_accepts_leading_zeros_and_keeps_count_messages():
    assert parse_edge_list("n 02\n00 01 +1\n01 00 -1\n") == make_cycle(2, -1)
    with pytest.raises(EdgeListParseError, match="^line 1: vertex count must be >= 1$"):
        parse_edge_list("n 0\n")


def test_edge_list_vertex_count_cap():
    assert MAX_VERTICES == 1_000_000
    g = parse_edge_list("n 1000000\n0 999999 -1\n")
    assert (g.n_vertices, g.arcs) == (1_000_000, ((0, 999999, -1),))
    for count in ("1000001", "01000001", "1000000000"):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list(f"# header next\n\nn {count}\n0 1 +1\n")
        assert str(exc.value) == f"line 3: vertex count {int(count)} exceeds the supported maximum 1000000"
    # the cap guards outside input only; the constructor takes any count
    assert SignedDigraph(MAX_VERTICES + 1, ()).n_vertices == 1_000_001


@pytest.mark.parametrize("length", [8, 4298, 4299, 5000])
def test_edge_list_digit_strings_of_any_length(length):
    # int() refuses strings of more than 4300 digits, leading zeros included;
    # the parser answers as if it had no limit and prints the digits without
    # leading zeros, as int() does where it can read the field
    nines, ones = "9" * length, "1" * length
    if length + 2 <= 4300:
        assert (nines, ones) == (str(int("00" + nines)), str(int("0" + ones)))
    cases = [
        (f"n 00{nines}\n", f"line 1: vertex count {nines} exceeds the supported maximum 1000000"),
        (f"n 3\n0{ones} 0 +1\n", f"line 2: arc ({ones}, 0) out of vertex range"),
        (f"n 3\n0 {nines} -1\n", f"line 2: arc (0, {nines}) out of vertex range"),
    ]
    for text, message in cases:
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list(text)
        assert str(exc.value) == message
    zeros = "0" * length
    with pytest.raises(EdgeListParseError, match="^line 1: vertex count must be >= 1$"):
        parse_edge_list(f"n {zeros}\n")
    # leading zeros alone never make a vertex number too long
    assert parse_edge_list(f"n {zeros}2\n{zeros}1 0 -1\n0 {zeros}1 +1\n") == make_cycle(2, -1)
