"""Signed digraphs: construction, adjacency matrices, strong components.

A signed digraph is a directed graph whose arcs carry a +1 or -1 sign.
Vertex ids are dense 0-based integers.  A signed cycle has an integer
length >= 2 and a sign of +1 or -1: `check_cycle` states that rule for the
whole package.  All values here are immutable and hashable.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from operator import index as _integer

import numpy as np

Arc = tuple[int, int, int]  # (tail, head, sign)

# Largest vertex count parse_edge_list accepts; SignedDigraph itself has no cap.
MAX_VERTICES = 1_000_000


def check_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return int(sign)


def check_cycle(length: int, sign: int) -> None:
    """Refuse with a ValueError what is not a signed cycle: an integer length >= 2 and a sign of +1 or -1."""
    check_sign(sign)
    # type() first: an isinstance test against an ABC is slow
    if type(length) is not int and not isinstance(length, numbers.Integral):
        raise ValueError(f"cycle length must be an integer, got {length!r}")
    if length < 2:
        raise ValueError(f"cycle length must be >= 2, got {length}")


@dataclass(frozen=True)
class SignedDigraph:
    """A digraph on n_vertices dense vertex ids with signed arcs.

    Integer vertex count, tails and heads, no self-loops and no parallel
    (tail, head) arcs.  Arcs are stored sorted so equal graphs compare and
    hash equal.
    """

    n_vertices: int
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n_vertices, numbers.Integral):
            raise ValueError(f"vertex count must be an integer, got {self.n_vertices!r}")
        if self.n_vertices < 1:
            raise ValueError("a signed digraph needs at least one vertex")
        try:
            # operator.index is int() for integers only
            arcs = tuple(sorted((_integer(t), _integer(h), check_sign(s)) for t, h, s in self.arcs))
        except TypeError as exc:
            raise ValueError(f"an arc must be (tail, head, sign) with integer tail and head: {exc}") from None
        # sorted, a repeated (tail, head) directly follows its first copy
        for i, (tail, head, _sign) in enumerate(arcs):
            if not (0 <= tail < self.n_vertices and 0 <= head < self.n_vertices):
                raise ValueError(f"arc ({tail}, {head}) out of vertex range")
            if tail == head:
                raise ValueError(f"self-loop at vertex {tail} not allowed")
            if i and arcs[i - 1][:2] == (tail, head):
                raise ValueError(f"duplicate arc ({tail}, {head})")
        object.__setattr__(self, "arcs", arcs)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)


def make_cycle(length: int, sign: int) -> SignedDigraph:
    """Directed cycle on `length` vertices.

    All arcs are positive except, when sign is -1, the closing arc
    (length-1 -> 0).  Only the product of arc signs affects the spectrum,
    so this one canonical placement keeps serialized graphs reproducible.
    """
    check_cycle(length, sign)
    arcs = [(i, i + 1, 1) for i in range(length - 1)]
    arcs.append((length - 1, 0, int(sign)))
    return SignedDigraph(length, tuple(arcs))


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


def strong_components(g: SignedDigraph) -> list[SignedDigraph]:
    """Strongly connected components as induced subdigraphs, in O(V + E).

    Iterative Tarjan labels each vertex with its component: each frame of
    its work stack is a vertex and the iterator over its remaining heads.
    One pass over the vertices then numbers the components by their
    smallest original vertex id, the order they are returned in, and
    relabels each one's vertices 0..k-1 in the order of their original ids;
    one pass over the arcs hands every arc inside a component to it.
    """
    n = g.n_vertices
    heads: list[list[int]] = [[] for _ in range(n)]
    for tail, head, _sign in g.arcs:
        heads[tail].append(head)
    index = [-1] * n
    low = [0] * n
    # component of each vertex, -1 until assigned: a visited vertex with
    # label -1 is on the stack
    label = [-1] * n
    stack: list[int] = []
    counter = found = 0

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(heads[root]))]
        while work:
            v, rest = work[-1]
            for w in rest:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(heads[w])))
                    break
                if label[w] == -1 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                # every head of v is done
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        label[w] = found
                        if w == v:
                            break
                    found += 1
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]

    renumber: dict[int, int] = {}
    sizes = [0] * found
    position = [0] * n
    for v in range(n):
        label[v] = c = renumber.setdefault(label[v], len(renumber))
        position[v] = sizes[c]
        sizes[c] += 1
    arcs: list[list[Arc]] = [[] for _ in sizes]
    for tail, head, sign in g.arcs:
        if label[tail] == label[head]:
            arcs[label[tail]].append((position[tail], position[head], sign))
    return [SignedDigraph(size, tuple(inside)) for size, inside in zip(sizes, arcs)]


_SIGN_CHAR = {1: "+", -1: "-"}


@dataclass(frozen=True, order=True)
class SignedCycle:
    """An abstract directed cycle of a given length and sign.

    Cycles order by (length, sign): minus before plus at equal length.
    """

    length: int
    sign: int

    def __post_init__(self) -> None:
        check_cycle(self.length, self.sign)

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


def _is_decimal(field: str) -> bool:
    """Only ASCII digits: int() would also take '1_2', '+3' and non-ASCII digits."""
    return field.isascii() and field.isdigit()


def _decimal(field: str) -> tuple[int, str]:
    """Value and digits, without leading zeros, of an ASCII decimal field.

    A field with more digits than MAX_VERTICES is valued MAX_VERTICES + 1,
    which the parser refuses as a count, tail or head alike, so int() never
    meets its 4300-digit limit.
    """
    digits = field.lstrip("0") or "0"
    if len(digits) > len(str(MAX_VERTICES)):
        return MAX_VERTICES + 1, digits
    return int(digits), digits


def parse_edge_list(text: str) -> SignedDigraph:
    """Parse the edge-list text format.

    First significant line is ``n <vertex count>``; every following line is
    ``tail head sign`` with sign +1 or -1.  The vertex count, tail and head
    are written in ASCII decimal digits only, and the count is at most
    MAX_VERTICES.  Blank lines and lines starting with ``#`` are ignored.
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
            if not _is_decimal(fields[1]):
                raise EdgeListParseError(line_number, f"bad vertex count {fields[1]!r}")
            n_vertices, digits = _decimal(fields[1])
            if n_vertices < 1:
                raise EdgeListParseError(line_number, "vertex count must be >= 1")
            if n_vertices > MAX_VERTICES:
                raise EdgeListParseError(
                    line_number, f"vertex count {digits} exceeds the supported maximum {MAX_VERTICES}"
                )
            continue
        if len(fields) != 3:
            raise EdgeListParseError(line_number, "expected 'tail head sign'")
        if not (_is_decimal(fields[0]) and _is_decimal(fields[1])):
            raise EdgeListParseError(line_number, "tail and head must be integers")
        (tail, tail_digits), (head, head_digits) = _decimal(fields[0]), _decimal(fields[1])
        if fields[2] not in ("+1", "-1"):
            raise EdgeListParseError(line_number, f"sign must be +1 or -1, got {fields[2]!r}")
        if not (0 <= tail < n_vertices and 0 <= head < n_vertices):
            raise EdgeListParseError(line_number, f"arc ({tail_digits}, {head_digits}) out of vertex range")
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
