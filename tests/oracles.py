"""Independent brute-force oracles used to freeze expected values.

Nothing here shares code with the package paths under test: the
characteristic polynomial comes from exact cofactor expansion over integer
polynomials, component partitions from a reachability matrix, pair families
from a direct double loop, polynomial values from rational arithmetic.  The
exceptions are earlier forms of package code that the current forms must
reproduce bit for bit: `float_trace_recursion`, the step-by-step form of
`char_poly`; `reference_chain_details`, the per-budget sweep of
`chain_details`, which calls the package's per-budget check;
`reference_same_sign_pattern`, the row builder of the same-sign prediction;
`reference_csv`, `reference_text` and `reference_svg`, the row-by-row
renderers, which read an OrderingSequence's columns; and
`reference_strong_components`, which cuts each component out of the whole
arc list as `strong_components` once did, on the reachability partition;
`reference_cycle_root_radii`, the disc proof of one cycle at a time
that the batched `cycle_root_radii_batch` must match radius for radius;
`reference_exact_total_chain`, `reference_splice_inequalities` and
`reference_floating_mismatch`, the one-budget checks that
`exact_total_details`, `splice_details` and `floating_bracket_details`
replaced in `verify`, which read the package's pair tables; and
`reference_cycle_eigenvalues`, the cmath.rect generator that
`cycle_eigenvalues_batch` must match root for root;
`reference_newton_polygon_start`, the edge-by-edge start builder whose
points `spectra._newton_polygon_start` must match bit for bit; and
`reference_spectrum_report`, the line-by-line print of `spectrum` that its
one write must match byte for byte.  `make_path` and
`pair_digraph` are test graphs built from the package's constructors.
"""
from __future__ import annotations

import cmath
import io
import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from sidigraph import RootFindingError, SignedDigraph, join_with_arc, make_cycle


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


def reference_newton_polygon_start(abs_c: np.ndarray) -> np.ndarray:
    """Newton-polygon start points, one edge of the hull at a time.

    The earlier form of spectra._newton_polygon_start: the same upper hull
    of (k, log|c_k|), then for each edge its own arange of angles, its own
    exp and a concatenate of all edges.
    """
    degree = len(abs_c) - 1
    hull: list[tuple[int, float]] = []
    for k in np.flatnonzero(abs_c):
        point = (int(k), math.log(abs_c[k]))
        while len(hull) >= 2:
            (k0, y0), (k1, y1) = hull[-2], hull[-1]
            cross = (k1 - k0) * (point[1] - y0) - (y1 - y0) * (point[0] - k0)
            scale = (point[0] - k0) * max(1.0, abs(y0), abs(y1), abs(point[1]))
            if cross < -1e-12 * scale:
                break
            hull.pop()
        hull.append(point)
    starts = []
    for (k, yk), (j, yj) in zip(hull, hull[1:]):
        count = j - k
        radius = math.exp((yk - yj) / count)
        angles = 2.0 * np.pi * np.arange(count) / count + 2.0 * np.pi * k / degree + 0.4
        starts.append(radius * np.exp(1j * angles))
    return np.concatenate(starts)


def largest_single_precision_bound(matrix) -> float:
    """Largest bound of char_poly's float32 tier over every step.

    Runs the step-by-step float64 recursion and takes, at each step, the
    product bound r * max|M_{k-1}| and the diagonal-update bound
    max|diag(A M_{k-1})| + |c_k|.  The recursion stays in float32 to the
    end exactly when the result is at most 2^24.  Only meaningful when
    float_trace_recursion accepts the matrix.
    """
    import numpy as np

    a = np.asarray(matrix, dtype=np.float64)
    n = a.shape[0]
    row_sum = float(np.abs(a).sum(axis=1).max(initial=0.0))
    largest = 0.0
    m = np.eye(n)
    for k in range(1, n + 1):
        am = a @ m
        ck = -am.trace() / k
        diagonal_bound = float(np.abs(am.diagonal()).max()) + abs(ck)
        largest = max(largest, row_sum * float(np.abs(m).max()), diagonal_bound)
        m = am + ck * np.eye(n)
    return largest


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


def reference_strong_components(g) -> list[tuple[int, tuple]]:
    """(vertex count, arcs) of each strong component, by smallest vertex id.

    Each component keeps the arcs of g between its vertices, relabeled
    0..k-1 in the order of their original ids; g.arcs is sorted, so the
    arcs come out sorted.  Every component scans all arcs: O(V^3 + V E).
    """
    out = []
    for component in reachability_components(g.n_vertices, g.arcs):
        remap = {v: i for i, v in enumerate(sorted(component))}
        arcs = tuple((remap[t], remap[h], s) for t, h, s in g.arcs if t in remap and h in remap)
        out.append((len(remap), arcs))
    return out


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


def reference_minimum_tie_group(budget_n: int, tie_tol: float = 1e-9) -> int:
    """Tie group of the last pair when both classes are ordered together."""
    valued = _valued_family(budget_n, False) + _valued_family(budget_n, True)
    values = sorted((value for value, _ in valued), reverse=True)
    group = 1
    for previous, value in zip(values, values[1:]):
        if previous - value > tie_tol:
            group += 1
    return group


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


def reference_chain_details(sequence, first_n: int) -> dict[int, str]:
    """orderings.chain_details by the per-budget sweep it replaced.

    Every budget's ordering is restricted from the sequence, sorted and
    grouped again with the sequence's tolerance, and compared with the
    class's prediction fitted to that budget.
    """
    from sidigraph import orderings

    pattern = orderings._same_sign_pattern if sequence.sign_class == orderings.SAME_SIGN else orderings._mixed_pattern
    codes, tied = pattern(sequence.budget_n)
    return {
        n: orderings._compare_chain(orderings.restrict(sequence, n), *orderings._fit(codes, tied, n))
        for n in range(first_n, sequence.budget_n + 1)
    }


def reference_same_sign_pattern(budget_n: int):
    """orderings._same_sign_pattern by the row builder it replaced.

    Lists the prediction block by block in Python, as predicted_same_sign_chain
    states it, and fits it to the budget; reads the written-out tail and
    the small helpers from the package.
    """
    from sidigraph.orderings import _SAME_SIGN_SMALL_ORDER, _center, _check_budget, _fit

    _check_budget(budget_n)
    top = max(budget_n - budget_n % 2, 22)
    rows: list[tuple[int, int, int, int, bool]] = []

    def neg(m: int, total: int) -> tuple[int, int, int, int, bool]:
        return m, -1, total - m, -1, False

    def pos(m: int, total: int) -> tuple[int, int, int, int, bool]:
        return m, 1, total - m, 1, False

    rows.extend(neg(m, top) for m in range(2, _center(top) + 1, 2))
    rows.extend(pos(m, top) for m in range(_center(top), 5, -2))
    for total in range(top - 2, 21, -2):
        rows.append(neg(2, total))
        rows.append(pos(4, total + 2))
        rows.extend(neg(m, total) for m in range(4, _center(total) + 1, 2))
        rows.append(pos(2, total + 2))
        rows.extend(pos(m, total) for m in range(_center(total), 5, -2))
    rows.append(neg(2, 20))
    rows.append(pos(4, 22))
    rows.extend(neg(m, 20) for m in range(4, 11, 2))
    rows.append(pos(2, 22))
    rows.extend(_SAME_SIGN_SMALL_ORDER)
    table = np.array(rows, dtype=np.int64)
    return _fit(table[:, :4], table[:, 4].astype(bool), budget_n)


# --- renderers -----------------------------------------------------------------
# The row-by-row renderers that sidigraph.render replaced with block
# formatting; its output must match theirs byte for byte.

_CLASS_LABEL = {
    "same_sign": "two cycles of equal sign",
    "mixed_sign": "one cycle of each sign",
}


def _sign_char(sign: int) -> str:
    return "+" if sign > 0 else "-"


def _rows(sequence):
    """(rank, tie group, [l1, s1, l2, s2], value) of each row, as Python numbers."""
    return zip(
        range(1, len(sequence.values) + 1),
        sequence.tie_groups.tolist(),
        sequence.codes.tolist(),
        sequence.values.tolist(),
    )


def reference_csv(sequence) -> str:
    lines = ["rank,tie_group,c1_len,c1_sign,c2_len,c2_sign,value"]
    for rank, group, (l1, s1, l2, s2), value in _rows(sequence):
        lines.append(f"{rank},{group},{l1},{_sign_char(s1)},{l2},{_sign_char(s2)},{value:.6f}")
    return "\n".join(lines) + "\n"


def reference_text(sequence) -> str:
    header = (
        f"iota energy ordering, n={sequence.budget_n}, "
        f"{_CLASS_LABEL[sequence.sign_class]}"
    )
    lines = [header, ""]
    for rank, group, row, value in _rows(sequence):
        lines.append(f"{rank:4d}  tie {group:3d}  {_label(row):14s} {value:12.6f}")
    return "\n".join(lines) + "\n"


def reference_svg(sequence) -> str:
    import numpy as np

    width, height = 900, 480
    margin_left, margin_right, margin_top, margin_bottom = 70, 20, 46, 50
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom
    n_entries = len(sequence.values)
    value_max = float(sequence.values.max()) if n_entries else 1.0
    if value_max <= 0.0:
        value_max = 1.0

    def x_at(rank: int) -> float:
        if n_entries == 1:
            return margin_left + plot_w / 2.0
        return margin_left + plot_w * (rank - 1) / (n_entries - 1)

    def y_at(value: float) -> float:
        return margin_top + plot_h * (1.0 - value / (value_max * 1.05))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin_left}" y="24" font-family="monospace" font-size="14">'
        f"iota energy ordering, n={sequence.budget_n}, "
        f"{_CLASS_LABEL[sequence.sign_class]}</text>",
        f'<line x1="{margin_left}" y1="{margin_top}" x2="{margin_left}" '
        f'y2="{height - margin_bottom}" stroke="black" stroke-width="1"/>',
        f'<line x1="{margin_left}" y1="{height - margin_bottom}" '
        f'x2="{width - margin_right}" y2="{height - margin_bottom}" '
        f'stroke="black" stroke-width="1"/>',
    ]
    for tick in range(5):
        value = value_max * 1.05 * (4 - tick) / 4.0
        y = y_at(value)
        parts.append(
            f'<line x1="{margin_left - 4}" y1="{y:.2f}" x2="{margin_left}" '
            f'y2="{y:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin_left - 8}" y="{y + 4:.2f}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{value:.2f}</text>'
        )
    x_step = max(1, n_entries // 12) if n_entries else 1
    for rank in range(1, n_entries + 1, x_step):
        x = x_at(rank)
        parts.append(
            f'<line x1="{x:.2f}" y1="{height - margin_bottom}" x2="{x:.2f}" '
            f'y2="{height - margin_bottom + 4}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{height - margin_bottom + 18}" '
            f'font-family="monospace" font-size="11" text-anchor="middle">{rank}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.2f}" y="{height - 8}" font-family="monospace" '
        f'font-size="12" text-anchor="middle">rank</text>'
    )
    if n_entries:
        xs = [x_at(rank) for rank in range(1, n_entries + 1)]
        ys = [y_at(value) for value in sequence.values.tolist()]
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#1f77b4" stroke-width="1"/>'
        )
        groups = sequence.tie_groups
        tie_sizes = np.bincount(groups).tolist()
        # a tie group is a run of consecutive ranks; its bar spans the run's
        # x range at the y of its last member
        starts = np.flatnonzero(np.diff(groups, prepend=0))
        ends = np.append(starts[1:], n_entries) - 1
        for start, end in zip(starts.tolist(), ends.tolist()):
            if end > start:
                parts.append(
                    f'<line x1="{xs[start]:.2f}" y1="{ys[end]:.2f}" x2="{xs[end]:.2f}" y2="{ys[end]:.2f}" '
                    f'stroke="#d62728" stroke-width="3"/>'
                )
        for x, y, (_rank, group, row, value) in zip(xs, ys, _rows(sequence)):
            color = "#d62728" if tie_sizes[group] > 1 else "#1f77b4"
            parts.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" '
                f'fill="{color}"><title>{_label(row)} {value:.6f}</title></circle>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _reference_power(z: np.ndarray, n: int) -> np.ndarray:
    """z**n for n >= 1 by binary powering, one complex product per step."""
    result = None
    while True:
        if n & 1:
            result = z if result is None else result * z
        n >>= 1
        if not n:
            return result
        z = z * z


def reference_cycle_root_radii(n: int, sign: int, approximations: Iterable[complex]) -> np.ndarray:
    """The per-cycle disc proof that cycle_root_radii_batch must reproduce.

    One numpy pipeline per cycle: z^n of all the roots by one binary
    powering with the cycle's exponent, and cells of side 1/n over that
    cycle alone.  Raises the RootFindingError of the first step that fails.
    """
    if n < 2 or sign not in (1, -1):
        raise ValueError(f"need n >= 2 and sign +1 or -1, got n={n}, sign={sign!r}")
    z = np.asarray(tuple(approximations), dtype=np.complex128)
    if len(z) != n:
        raise ValueError(f"need the {n} approximations of the roots of x^n - sign, got {len(z)}")

    def refuse(message: str) -> RootFindingError:
        return RootFindingError(message, roots=tuple(z.tolist()))

    x, y = z.real, z.imag
    # comparisons of abs are false for NaN, and no square of a kept value overflows
    boxed = np.flatnonzero(~((np.abs(x) <= 2.0) & (np.abs(y) <= 2.0)))
    if len(boxed):
        k = boxed[0]
        raise refuse(f"root approximation {k} = {complex(z[k])} is not finite or lies off the unit circle")
    modulus_sq = x * x + y * y
    off = np.flatnonzero(np.abs(modulus_sq - 1.0) > 1.0 / n)
    if len(off):
        k = off[0]
        raise refuse(f"root approximation {k} = {complex(z[k])} lies off the unit circle")

    u = 2.0**-53
    chain = (n - 1) * 2.25 * u
    g = chain / (1.0 - chain)
    p = _reference_power(z, n)
    residual = np.abs(p.real - sign) + np.abs(p.imag)
    radii = np.sqrt(modulus_sq) * (residual * (1.0 + g) / np.sqrt(p.real * p.real + p.imag * p.imag) + g)
    radii *= 1.0 + 32.0 * u
    wide = int(np.argmax(radii))
    if not radii[wide] * (4 * n) < 1.0:
        raise refuse(f"root disc {wide} has radius {radii[wide]:.3g}, not below 1/(4n) = {0.25 / n:.3g}")

    # cells numbered row by row over [-2n, 2n]^2, so that a neighbour's number is an offset
    width = 4 * n + 3
    cells = (np.floor(x * n).astype(np.int64) + 2 * n + 1) * width + np.floor(y * n).astype(np.int64) + 2 * n + 1
    order = np.argsort(cells, kind="stable")
    ranked = cells[order]
    shared = np.flatnonzero(ranked[1:] == ranked[:-1])
    if len(shared):
        i, j = order[shared[0]], order[shared[0] + 1]
        raise refuse(f"root discs not isolated: approximations {i} and {j} share a cell of side 1/{n}")
    # each neighbouring pair is found from one side: up, lower right, right, upper right
    for offset in (1, width - 1, width, width + 1):
        found = np.minimum(np.searchsorted(ranked, cells + offset), n - 1)
        near = np.flatnonzero(ranked[found] == cells + offset)
        if len(near):
            i, j = near[0], order[found[near[0]]]
            raise refuse(f"root discs not isolated: approximations {i} and {j} lie in neighbouring cells of side 1/{n}")
    return radii


# --- one-budget checks ------------------------------------------------------------
# The per-budget bodies that verify ran before every budget was read off one
# table; the all-budget details must give their texts for every budget.

def _descent_detail(chain: np.ndarray, values: np.ndarray) -> str:
    from sidigraph.orderings import TIE_TOL, _label

    stalls = np.flatnonzero(values[:-1] - values[1:] <= TIE_TOL)
    if not len(stalls):
        return ""
    i = int(stalls[0]) + 1
    return f"no strict drop from {_label(chain[i - 1])} to {_label(chain[i])}"


def reference_exact_total_chain(n: int) -> str:
    """check_exact_total_chain by one family table of total n and its own chain."""
    from sidigraph.orderings import SAME_SIGN, _family_table, _values

    family = _family_table(SAME_SIGN, np.array([n]))
    values = _values(family)
    negative = family[:, 1] < 0
    chain = np.r_[np.flatnonzero(negative), np.flatnonzero(~negative)[::-1]]
    return _descent_detail(family[chain], values[chain])


def reference_splice_inequalities(n: int) -> str:
    """check_splice_inequalities by two three-row tables of n and splice_gap."""
    from sidigraph.orderings import _center, _values, splice_gap

    center = _center(n - 2)
    chains = [
        [(center, -1, n - 2 - center, -1), (2, 1, n - 2, 1), (center, 1, n - 2 - center, 1)],
        [(6, 1, n - 6, 1), (2, -1, n - 4, -1), (4, 1, n - 4, 1)],
    ]
    for chain in (np.array(rows, dtype=np.int64) for rows in chains):
        detail = _descent_detail(chain, _values(chain))
        if detail:
            return detail
    if splice_gap(n) >= 2.0 * math.sqrt(3.0) - 2.0:
        return f"splice gap too large at n={n}"
    return ""


def reference_floating_mismatch(n: int) -> str | None:
    """locate_floating_pair(n).mismatch, the floating pair located in the
    entries of the full mixed ordering of budget n."""
    from sidigraph import orderings

    expected = orderings.expected_floating_brackets(n)
    if expected is None:
        return None
    sequence = orderings.ordered_sequence(n, orderings.MIXED_SIGN)
    entries = sequence.entries
    i = sequence.codes.tolist().index([2, 1, n - 2, -1])
    got_above = entries[i - 1].pair if i > 0 else None
    got_below = entries[i + 1].pair if i + 1 < len(entries) else None
    if (got_above, got_below) == expected:
        return ""
    return f"expected between {expected[0]} and {expected[1]}, got {got_above} and {got_below}"


def reference_cycle_eigenvalues(length: int, sign: int) -> tuple[complex, ...]:
    """The n-th roots of sign, one cmath.rect per root."""
    if sign == 1:
        angles = (2.0 * math.pi * k / length for k in range(length))
    elif sign == -1:
        angles = ((2.0 * k + 1.0) * math.pi / length for k in range(length))
    else:
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return tuple(cmath.rect(1.0, a) for a in angles)


def reference_spectrum_report(graph: SignedDigraph) -> str:
    """The stdout of `spectrum` on graph, one print per line as it once was."""
    from sidigraph import eigenvalues, energy, iota_energy, strong_components

    components = strong_components(graph)
    spectrum = eigenvalues(graph, components)
    shown = [complex(round(z.real, 6) + 0.0, round(z.imag, 6) + 0.0) for z in spectrum]
    ordered = sorted(shown, key=lambda z: (cmath.phase(z), abs(z)))
    nontrivial = sum(1 for c in components if c.n_vertices > 1)
    out = io.StringIO()
    print(f"vertices: {graph.n_vertices}", file=out)
    print(f"arcs: {graph.n_arcs}", file=out)
    print(f"strong components: {len(components)} (nontrivial {nontrivial})", file=out)
    print("eigenvalues:", file=out)
    for z in ordered:
        print(f"  {z.real:+.6f} {z.imag:+.6f}i", file=out)
    print(f"energy: {energy(spectrum):.6f}", file=out)
    print(f"iota energy: {iota_energy(spectrum):.6f}", file=out)
    return out.getvalue()


def make_path(length: int) -> SignedDigraph:
    """Directed path on `length` vertices, all arcs positive."""
    if length < 1:
        raise ValueError(f"path length must be >= 1, got {length}")
    return SignedDigraph(length, tuple((i, i + 1, 1) for i in range(length - 1)))


def pair_digraph(pair) -> SignedDigraph:
    """A connected witness of a CyclePair: its two cycles joined by one positive arc."""
    c1, c2 = pair.c1, pair.c2
    return join_with_arc(make_cycle(c1.length, c1.sign), make_cycle(c2.length, c2.sign), 0, 0, 1)
