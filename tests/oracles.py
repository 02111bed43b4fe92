"""Independent brute-force oracles used to freeze expected values.

Nothing here shares code with the package paths under test: the
characteristic polynomial comes from exact cofactor expansion over integer
polynomials, component partitions from a reachability matrix, pair families
from a direct double loop, polynomial values from rational arithmetic.  The
one exception is `float_trace_recursion`, the earlier step-by-step form of
`char_poly`, which its leaner form must reproduce bit for bit.
"""
from __future__ import annotations

import math
from fractions import Fraction


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for j, bj in enumerate(b):
        out[j] += bj
    return out


def _det_poly(m: list[list[list[Fraction]]]) -> list[Fraction]:
    """Determinant of a matrix of integer polynomials by first-row cofactors."""
    size = len(m)
    if size == 1:
        return m[0][0]
    total: list[Fraction] = [Fraction(0)]
    for col in range(size):
        entry = m[0][col]
        if all(c == 0 for c in entry):
            continue
        minor = [[row[c] for c in range(size) if c != col] for row in m[1:]]
        term = _poly_mul(entry, _det_poly(minor))
        if col % 2 == 1:
            term = [-c for c in term]
        total = _poly_add(total, term)
    return total


def cofactor_char_poly(matrix) -> list[float]:
    """Coefficients of det(xI - A), ascending, via exact cofactor expansion."""
    size = len(matrix)
    m: list[list[list[Fraction]]] = []
    for i in range(size):
        row = []
        for j in range(size):
            constant = Fraction(-int(matrix[i][j]))
            row.append([constant, Fraction(1)] if i == j else [constant])
        m.append(row)
    coeffs = _det_poly(m)
    coeffs = coeffs + [Fraction(0)] * (size + 1 - len(coeffs))
    return [float(c) for c in coeffs]


def float_trace_recursion(matrix) -> tuple[float, ...]:
    """Ascending det(xI - A) by the float Faddeev-LeVerrier recursion, step by step.

    The earlier form of spectra.char_poly, kept as its reference: M_k is
    formed as A M_{k-1} + c_k I with a fresh identity, and max|M_{k-1}| from
    a temporary of absolute values.  Raises OverflowError with char_poly's
    refusal text when a partial sum may pass 2^53.
    """
    import numpy as np

    a = np.asarray(matrix, dtype=np.float64)
    n = a.shape[0]
    row_sum = float(np.abs(a).sum(axis=1).max(initial=0.0))
    descending = [1.0]
    m = np.eye(n)
    for k in range(1, n + 1):
        product_bound = row_sum * float(np.abs(m).max())
        am = a @ m
        trace_bound = float(np.abs(am.diagonal()).sum())
        reached = max(product_bound, trace_bound)
        if reached > 2.0**53:
            raise OverflowError(
                "characteristic polynomial is not exact in double precision: "
                f"step {k} of {n} reaches {reached:.3g} > 2^53"
            )
        ck = -am.trace() / k
        descending.append(ck)
        m = am + ck * np.eye(n)
    return tuple(float(c) for c in reversed(descending))


def exact_poly_value(coeffs, z: complex) -> tuple[Fraction, Fraction]:
    """Real and imaginary part of sum_k coeffs[k] z^k in exact rationals.

    z = (u + iv) / 2^e with integers u, v, so Horner runs on Gaussian
    integers: h = sum_k coeffs[k] (u + iv)^k 2^(e (degree - k)).
    """
    x, y = Fraction(z.real), Fraction(z.imag)
    e = max(x.denominator, y.denominator).bit_length() - 1
    u, v = int(x * 2**e), int(y * 2**e)
    hr, hi = int(coeffs[-1]), 0
    for j, c in enumerate(reversed(coeffs[:-1]), start=1):
        hr, hi = hr * u - hi * v + (int(c) << (e * j)), hr * v + hi * u
    scale = 2 ** (e * (len(coeffs) - 1))
    return Fraction(hr, scale), Fraction(hi, scale)


def reachability_components(n_vertices: int, arcs) -> list[frozenset[int]]:
    """SCC partition from the boolean reachability closure, sorted by min id."""
    reach = [[i == j for j in range(n_vertices)] for i in range(n_vertices)]
    for tail, head, _sign in arcs:
        reach[tail][head] = True
    for k in range(n_vertices):
        for i in range(n_vertices):
            if reach[i][k]:
                for j in range(n_vertices):
                    if reach[k][j]:
                        reach[i][j] = True
    components = []
    assigned = set()
    for v in range(n_vertices):
        if v in assigned:
            continue
        comp = frozenset(
            w for w in range(n_vertices) if reach[v][w] and reach[w][v]
        )
        assigned |= comp
        components.append(comp)
    return sorted(components, key=min)


def brute_force_sign_pairs(budget_n: int, mixed: bool) -> set[tuple[int, int, int, int]]:
    """All (len1, sign1, len2, sign2) pair keys in canonical order, by direct loop."""
    found = set()
    for l1 in range(2, budget_n + 1, 2):
        for l2 in range(2, budget_n + 1, 2):
            if l1 + l2 > budget_n:
                continue
            sign_combos = [(-1, 1), (1, -1)] if mixed else [(1, 1), (-1, -1)]
            for s1, s2 in sign_combos:
                a, b = sorted([(l1, 0 if s1 == -1 else 1), (l2, 0 if s2 == -1 else 1)])
                found.add((a[0], -1 if a[1] == 0 else 1, b[0], -1 if b[1] == 0 else 1))
    return found


def match_multisets(actual, expected, tol: float) -> float:
    """Greedy nearest matching of two complex multisets; returns worst distance.

    Raises if sizes differ or a match exceeds tol; with well-separated sets
    (spacing >> tol) greedy matching is exact.
    """
    actual = list(actual)
    expected = list(expected)
    assert len(actual) == len(expected), (len(actual), len(expected))
    worst = 0.0
    remaining = list(expected)
    for z in actual:
        best_index = min(range(len(remaining)), key=lambda i: abs(z - remaining[i]))
        distance = abs(z - remaining.pop(best_index))
        worst = max(worst, distance)
        assert distance <= tol, f"no partner within {tol} for {z} (nearest {distance})"
    return worst


def abs_sin_sum_iota(n: int, sign: int) -> float:
    """Iota energy of a signed cycle as an explicit |sin| sum over angles."""
    if sign == 1:
        return math.fsum(abs(math.sin(2.0 * k * math.pi / n)) for k in range(n))
    return math.fsum(abs(math.sin((2.0 * k + 1.0) * math.pi / n)) for k in range(n))


def abs_cos_sum_energy(n: int, sign: int) -> float:
    """Energy of a signed cycle as an explicit |cos| sum over angles."""
    if sign == 1:
        return math.fsum(abs(math.cos(2.0 * k * math.pi / n)) for k in range(n))
    return math.fsum(abs(math.cos((2.0 * k + 1.0) * math.pi / n)) for k in range(n))


def _cycle_iota(length: int, sign: int) -> float:
    """Iota energy of an even cycle: 2cot(pi/n) for plus (0 for C2+), 2csc(pi/n) for minus."""
    if sign == 1:
        return 0.0 if length == 2 else 2.0 / math.tan(math.pi / length)
    return 2.0 / math.sin(math.pi / length)


def _key_value(key: tuple[int, int, int, int]) -> float:
    return _cycle_iota(key[0], key[1]) + _cycle_iota(key[2], key[3])


def _tie_break(key: tuple[int, int, int, int]) -> tuple[int, int, int]:
    # total descending, shorter cycle ascending, (-,-) < mixed < (+,+)
    return (-(key[0] + key[2]), key[0], (key[1] > 0) + (key[3] > 0))


def _valued_family(budget_n: int, mixed: bool) -> list[tuple[float, tuple[int, int, int, int]]]:
    """(value, key) of every pair, in the order (total, c1 length, c1 sign, c2 sign)."""
    keys = sorted(brute_force_sign_pairs(budget_n, mixed), key=lambda k: (k[0] + k[2], k[0], k[1], k[3]))
    return [(_key_value(k), k) for k in keys]


def reference_ordering(
    budget_n: int, mixed: bool, exclude_floating: bool, tie_tol: float
) -> list[tuple[tuple[int, int, int, int], float, int, int]]:
    """(key, value, rank, tie group) of each pair, by a plain loop.

    Sort by (value descending, tie-break), chain each value into the
    previous one's group while the step down is <= tie_tol, then order each
    group by the tie-break key; every sort is stable.
    """
    valued = _valued_family(budget_n, mixed)
    if mixed and exclude_floating:
        valued = [(v, k) for v, k in valued if not (k[0] == 2 and k[1] == 1 and k[2] >= 4)]
    valued.sort(key=lambda item: (-item[0], _tie_break(item[1])))
    groups: list[list[tuple[float, tuple[int, int, int, int]]]] = []
    for value, key in valued:
        if groups and groups[-1][-1][0] - value <= tie_tol:
            groups[-1].append((value, key))
        else:
            groups.append([(value, key)])
    out = []
    for group_index, group in enumerate(groups, start=1):
        for value, key in sorted(group, key=lambda item: _tie_break(item[1])):
            out.append((key, value, len(out) + 1, group_index))
    return out


def reference_extremes(budget_n: int) -> tuple[tuple, tuple, int]:
    """(max key, value), (min key, value) over both classes and the union size.

    The maximum is the first of equal sort keys in enumeration order, the
    minimum the last.
    """
    valued = _valued_family(budget_n, False) + _valued_family(budget_n, True)
    ranked = sorted(valued, key=lambda item: (-item[0], _tie_break(item[1])))
    (top_value, top), (low_value, low) = ranked[0], ranked[-1]
    return (top, top_value), (low, low_value), len(ranked)


def _label(key: tuple[int, int, int, int]) -> str:
    sign = {1: "+", -1: "-"}
    return f"(C{key[0]}{sign[key[1]]},C{key[2]}{sign[key[3]]})"


def reference_exact_total_verdict(n: int, tie_tol: float = 1e-9) -> str:
    """The exact-total chain verdict for even n > 4: "" or the failure text."""
    center = n // 2 if (n // 2) % 2 == 0 else n // 2 - 1
    chain = [(m, -1, n - m, -1) for m in range(2, center + 1, 2)]
    chain += [(m, 1, n - m, 1) for m in range(center, 1, -2)]
    values = [_key_value(k) for k in chain]
    for i in range(1, len(chain)):
        if values[i - 1] - values[i] <= tie_tol:
            return f"no strict drop from {_label(chain[i - 1])} to {_label(chain[i])}"
    exact = [(v, k) for v, k in _valued_family(n, False) if k[0] + k[2] == n]
    numeric = [k for _, k in sorted(exact, key=lambda item: -item[0])]
    return "" if numeric == chain else "chain disagrees with numeric sort"
