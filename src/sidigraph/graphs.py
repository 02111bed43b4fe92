"""Signed digraphs: construction, adjacency matrices, strong components.

A signed digraph is a directed graph whose arcs carry a +1 or -1 sign.
Vertex ids are dense 0-based integers.  All values here are immutable and
hashable, so they can be shared freely across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

Arc = tuple[int, int, int]  # (tail, head, sign)


def check_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return int(sign)


@dataclass(frozen=True)
class SignedDigraph:
    """A digraph on n_vertices dense vertex ids with signed arcs.

    No self-loops and no parallel (tail, head) arcs.  Arcs are stored
    sorted so equal graphs compare and hash equal.
    """

    n_vertices: int
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        if self.n_vertices < 1:
            raise ValueError("a signed digraph needs at least one vertex")
        arcs = tuple(sorted((int(t), int(h), check_sign(s)) for t, h, s in self.arcs))
        seen: set[tuple[int, int]] = set()
        for tail, head, _sign in arcs:
            if not (0 <= tail < self.n_vertices and 0 <= head < self.n_vertices):
                raise ValueError(f"arc ({tail}, {head}) out of vertex range")
            if tail == head:
                raise ValueError(f"self-loop at vertex {tail} not allowed")
            if (tail, head) in seen:
                raise ValueError(f"duplicate arc ({tail}, {head})")
            seen.add((tail, head))
        object.__setattr__(self, "arcs", arcs)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    def out_lists(self) -> list[list[int]]:
        """Adjacency lists (heads only), sorted per tail."""
        out: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for tail, head, _sign in self.arcs:
            out[tail].append(head)
        return out


def make_cycle(length: int, sign: int) -> SignedDigraph:
    """Directed cycle on `length` vertices.

    All arcs are positive except, when sign is -1, the closing arc
    (length-1 -> 0).  Only the product of arc signs affects the spectrum,
    so this one canonical placement keeps serialized graphs reproducible.
    """
    check_sign(sign)
    if length < 2:
        raise ValueError(f"cycle length must be >= 2, got {length}")
    arcs = [(i, i + 1, 1) for i in range(length - 1)]
    arcs.append((length - 1, 0, int(sign)))
    return SignedDigraph(length, tuple(arcs))


def make_path(length: int) -> SignedDigraph:
    """Directed path on `length` vertices, all arcs positive."""
    if length < 1:
        raise ValueError(f"path length must be >= 1, got {length}")
    return SignedDigraph(length, tuple((i, i + 1, 1) for i in range(length - 1)))


def join_with_arc(
    g1: SignedDigraph,
    g2: SignedDigraph,
    from_vertex: int,
    to_vertex: int,
    sign: int,
) -> SignedDigraph:
    """Disjoint union of g1 and g2 plus one bridging arc.

    Vertex ids of g2 are shifted by g1.n_vertices.  The bridge runs from
    `from_vertex` in g1 to `to_vertex` in g2, so it cannot close a new
    directed cycle.
    """
    check_sign(sign)
    if not 0 <= from_vertex < g1.n_vertices:
        raise ValueError(f"from_vertex {from_vertex} not in g1")
    if not 0 <= to_vertex < g2.n_vertices:
        raise ValueError(f"to_vertex {to_vertex} not in g2")
    shift = g1.n_vertices
    arcs = list(g1.arcs)
    arcs.extend((t + shift, h + shift, s) for t, h, s in g2.arcs)
    arcs.append((from_vertex, to_vertex + shift, int(sign)))
    return SignedDigraph(g1.n_vertices + g2.n_vertices, tuple(arcs))


def adjacency_matrix(g: SignedDigraph) -> np.ndarray:
    """Square matrix with entry (i, j) = sign of arc i->j, else 0."""
    a = np.zeros((g.n_vertices, g.n_vertices), dtype=np.int64)
    for tail, head, sign in g.arcs:
        a[tail, head] = sign
    return a


def _induced(g: SignedDigraph, vertices: Iterable[int]) -> SignedDigraph:
    keep = sorted(vertices)
    remap = {v: i for i, v in enumerate(keep)}
    arcs = tuple(
        (remap[t], remap[h], s) for t, h, s in g.arcs if t in remap and h in remap
    )
    return SignedDigraph(len(keep), arcs)


def strong_components(g: SignedDigraph) -> list[SignedDigraph]:
    """Strongly connected components as induced subdigraphs.

    Iterative Tarjan; components are returned sorted by their smallest
    original vertex id, each with vertices relabeled 0..k-1 in the order
    of their original ids.
    """
    n = g.n_vertices
    adj = g.out_lists()
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, start = work[-1]
            if start == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for i in range(start, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    components.sort(key=min)
    return [_induced(g, comp) for comp in components]


_SIGN_CHAR = {1: "+", -1: "-"}


@dataclass(frozen=True, order=True)
class SignedCycle:
    """An abstract directed cycle of a given length and sign.

    Cycles order by (length, sign): minus before plus at equal length.
    """

    length: int
    sign: int

    def __post_init__(self) -> None:
        check_sign(self.sign)
        if self.length < 2:
            raise ValueError(f"cycle length must be >= 2, got {self.length}")

    def as_digraph(self) -> SignedDigraph:
        return make_cycle(self.length, self.sign)

    def __str__(self) -> str:
        return f"C{self.length}{_SIGN_CHAR[self.sign]}"


@dataclass(frozen=True)
class CyclePair:
    """Two even cycles (C_a, C_b).

    A pair carries no vertex budget: whether it fits budget n (a + b <= n)
    is decided by the family that enumerates it.  Stored in canonical order
    (length ascending, minus before plus at equal length), so equal pairs
    compare, hash and deduplicate equal.
    """

    c1: SignedCycle
    c2: SignedCycle

    def __post_init__(self) -> None:
        for c in (self.c1, self.c2):
            if c.length % 2 != 0:
                raise ValueError(f"pair cycles must have even length, got {c.length}")
        if self.c1 > self.c2:
            c1, c2 = self.c1, self.c2
            object.__setattr__(self, "c1", c2)
            object.__setattr__(self, "c2", c1)

    @property
    def total_length(self) -> int:
        return self.c1.length + self.c2.length

    def as_digraph(self) -> SignedDigraph:
        """A connected witness: the two cycles joined by one positive arc."""
        return join_with_arc(self.c1.as_digraph(), self.c2.as_digraph(), 0, 0, 1)

    def __str__(self) -> str:
        return pair_label(self.c1.length, self.c1.sign, self.c2.length, self.c2.sign)


def pair_label(l1: int, s1: int, l2: int, s2: int) -> str:
    """Printed form of the canonical pair (C_l1^s1, C_l2^s2), e.g. `(C2-,C24-)`."""
    return f"(C{l1}{_SIGN_CHAR[s1]},C{l2}{_SIGN_CHAR[s2]})"


class EdgeListParseError(ValueError):
    """Raised on malformed edge-list text; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def parse_edge_list(text: str) -> SignedDigraph:
    """Parse the edge-list text format.

    First significant line is ``n <vertex count>``; every following line is
    ``tail head sign`` with sign +1 or -1.  Blank lines and lines starting
    with ``#`` are ignored.
    """
    n_vertices: int | None = None
    arcs: list[Arc] = []
    seen: set[tuple[int, int]] = set()
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n_vertices is None:
            if len(fields) != 2 or fields[0] != "n":
                raise EdgeListParseError(line_number, "expected header 'n <vertex count>'")
            try:
                n_vertices = int(fields[1])
            except ValueError:
                raise EdgeListParseError(line_number, f"bad vertex count {fields[1]!r}") from None
            if n_vertices < 1:
                raise EdgeListParseError(line_number, "vertex count must be >= 1")
            continue
        if len(fields) != 3:
            raise EdgeListParseError(line_number, "expected 'tail head sign'")
        try:
            tail, head = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListParseError(line_number, "tail and head must be integers") from None
        if fields[2] not in ("+1", "-1"):
            raise EdgeListParseError(line_number, f"sign must be +1 or -1, got {fields[2]!r}")
        if not (0 <= tail < n_vertices and 0 <= head < n_vertices):
            raise EdgeListParseError(line_number, f"arc ({tail}, {head}) out of vertex range")
        if tail == head:
            raise EdgeListParseError(line_number, f"self-loop at vertex {tail} not allowed")
        if (tail, head) in seen:
            raise EdgeListParseError(line_number, f"duplicate arc ({tail}, {head})")
        seen.add((tail, head))
        sign = 1 if fields[2] == "+1" else -1
        arcs.append((tail, head, sign))
    if n_vertices is None:
        raise EdgeListParseError(1, "missing header 'n <vertex count>'")
    return SignedDigraph(n_vertices, tuple(arcs))


def format_edge_list(g: SignedDigraph) -> str:
    """Serialize a graph to the edge-list text format (round-trips exactly)."""
    lines = [f"n {g.n_vertices}"]
    lines.extend(f"{t} {h} {'+1' if s > 0 else '-1'}" for t, h, s in g.arcs)
    return "\n".join(lines) + "\n"
