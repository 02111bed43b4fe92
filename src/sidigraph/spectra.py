"""Spectra of signed digraphs: characteristic polynomial, eigenvalues, energies.

Ordered by strong components, the adjacency matrix is block triangular, so
its spectrum is the union of the spectra of the components.  `eigenvalues`
is the one route: a singleton component contributes 0, a component with as
many arcs as vertices is one signed cycle and contributes the n-th roots of
its sign, and any other component goes through the numeric pipeline,
adjacency matrix -> monic characteristic polynomial (trace recursion,
certified exact for an integer matrix in two tiers: float32 steps while
every value stays within 2^24, then float64 steps while it stays within
2^53; the matrix is scanned for its largest entry only at the steps where
a running integer bound on it could change a verdict) ->
exact deflation of the roots at zero, one per low coefficient that is
exactly 0 -> simultaneous root iteration (Aberth-Ehrlich, started on the
circles of the Newton polygon, all start points built by one array exp,
each step on the approximations not yet converged), with every
polynomial value read from one power table
[1, z, ..., z^degree] of all the points it needs and the sums of
1/(z_i - z_j) from one matrix of differences.
Each stage refuses what it cannot vouch for with a RootFindingError: a
non-cycle component above MAX_DIMENSION vertices, a trace recursion whose
partial sums may pass 2^53, two root approximations that coincide or one
that is not finite, an iteration that does not reach the evaluation noise
floor, a residual above 1e-10 * max(1, sum_k |c_k| |z|^k), and a root that
is not finite or lies outside the Gershgorin disc.
`cycle_eigenvalues_batch` builds the analytic roots of x^n - sign of many
cycles with one array of angles, and `cycle_root_radii_batch` proves such
approximations by disjoint inclusion discs, with no root search;
`cycle_eigenvalues` is the one-cycle call of the first.  All three refuse
what `graphs.check_cycle` refuses.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import SignedDigraph, adjacency_matrix, check_cycle, strong_components

# Largest matrix char_poly and largest degree poly_roots accept; eigenvalues
# refuses a larger strong component unless it is a cycle.  Below it,
# char_poly returns only coefficients it has certified exact for an integer
# matrix; a recursion whose partial sums may pass 2^53 raises
# RootFindingError instead.
MAX_DIMENSION = 512

# Every integer of magnitude at most 2^53 is a double, and so is every sum
# of them that stays in that range.
EXACT_INTEGER_LIMIT = 2.0**53

# The same for single precision: char_poly runs a step of an integer
# matrix in float32 while its bounds stay within 2^24.
SINGLE_EXACT_LIMIT = 2.0**24

# A root is accepted when |p(z)| <= RESIDUAL_TOL * max(1, sum_k |c_k| |z|^k).
RESIDUAL_TOL = 1e-10

# Newton-polygon hull points this close to collinear (relative to the
# log-coefficient scale) are merged.  Rounding of the logs moves a cross
# product by a few eps per unit; merging nearly collinear points moves the
# start circles by about the tolerance, which no iteration notices.
HULL_TOL = 1e-12

# Iterations _aberth may take before poly_roots refuses its roots.
MAX_ITERATIONS = 1000


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial; coefficients ascending, coeffs[k] multiplies x^k."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 1:
            raise ValueError("a polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


class RootFindingError(RuntimeError):
    """Root finding failed; carries what diagnostics the refusal has.

    roots holds the root approximations the refusing stage had, residuals
    |p(z)| at each of them, and iterations the number of root iterations
    run; each is empty or 0 when the stage had none.
    """

    def __init__(
        self,
        message: str,
        roots: tuple[complex, ...] = (),
        residuals: tuple[float, ...] = (),
        iterations: int = 0,
    ):
        super().__init__(message)
        self.roots = roots
        self.residuals = residuals
        self.iterations = iterations


def char_poly(matrix: np.ndarray) -> Polynomial:
    """Monic characteristic polynomial det(xI - A) via trace recursion.

    The Faddeev-LeVerrier recursion M_k = A M_{k-1} + c_k I, with
    c_k = -tr(A M_{k-1}) / k, needs only matrix products and traces.  A
    must be integer-valued with a finite absolute row sum, else ValueError
    is raised before the first step.  Every intermediate is then an
    integer, and doubles hold it exactly while every partial sum stays
    within 2^53.  With r the largest absolute row sum of A, each step
    checks both bounds: r * max|M_{k-1}| for every partial sum of
    A M_{k-1}, and sum_i |(A M_{k-1})_ii| for the trace.  If either passes
    2^53 the coefficients may be rounded, and a RootFindingError with empty
    diagnostics is raised instead.  Cycles and sparse components stay far
    inside the bound; dense ones of a few dozen vertices pass it.

    The certificate has a second tier: single precision holds every integer
    up to 2^24.  A matrix starts in float32 and keeps a step there while
    r * max|M_{k-1}| <= 2^24 for the product and
    max|diag(A M_{k-1})| + |c_k| <= 2^24 for the diagonal update; at the
    first step where either fails it goes over to float64 for good.  The
    trace and the bounds are summed in float64 on both tiers, so the
    coefficients and the refusal are the same as an all-float64 recursion.
    Each step adds c_k to the diagonal of A M_{k-1} in place, through a
    view, and reads max|M_{k-1}| as max(max M, -min M); with every value an
    exact integer, both are exact.

    The bounds are evaluated lazily.  An integer U >= max|M_{k-1}| starts
    at 1 and becomes r * U + |c_k| after each step, since every entry of
    A M_{k-1} is at most r * max|M_{k-1}| and c_k adds to the diagonal
    only.  M_{k-1} is scanned, and U set to its exact maximum, only at a
    step where U could change a decision: r * U > 2^24 (or
    r * U + |c_k| > 2^24 for the diagonal update) on the float32 tier, or
    n * r * U > 2^53; the trace bound is summed only while n * r * U
    passes 2^53, as it is at most n * r * max|M_{k-1}|.  A skipped check
    would have passed, since the bounds it reads are at most the ones U
    gives, so every coefficient, tier switch and refusal text is the one
    the full check at every step gives.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if n > MAX_DIMENSION:
        raise ValueError(f"matrix dimension {n} exceeds supported maximum {MAX_DIMENSION}")
    # a NaN or infinite entry makes the row sum NaN or infinite, as an overflow does (silently)
    with np.errstate(over="ignore"):
        row_sum = float(np.abs(a).sum(axis=1).max(initial=0.0))
    if not (math.isfinite(row_sum) and bool((a == np.trunc(a)).all())):
        raise ValueError(f"matrix must be integer-valued with a finite absolute row sum, got row sum {row_sum}")
    # r <= 2^24 is the first step's product bound, and it makes A exact in float32
    single = row_sum <= SINGLE_EXACT_LIMIT
    a_single = a.astype(np.float32) if single else None
    r = int(row_sum)

    def scan(m: np.ndarray) -> tuple[int, float]:
        """max|M| as an integer, and the product bound r * max|M| as the full check reads it."""
        peak = float(max(m.max(), -m.min()))
        return int(peak), row_sum * peak

    # an integer upper bound on max|M_{k-1}|, exact after each scan of M
    bound = 1
    descending = [1.0]
    m = np.eye(n, dtype=np.float32 if single else np.float64)
    for k in range(1, n + 1):
        product_bound = None
        if (single and r * bound > SINGLE_EXACT_LIMIT) or n * r * bound > EXACT_INTEGER_LIMIT:
            bound, product_bound = scan(m)
            if single and product_bound > SINGLE_EXACT_LIMIT:
                single = False
                m = m.astype(np.float64)
        am = (a_single if single else a) @ m
        diagonal = am.ravel()[:: n + 1]
        # sum |(A M)_ii| <= n * r * max|M|, so below 2^53 neither bound can refuse
        if n * r * bound > EXACT_INTEGER_LIMIT:
            trace_bound = float(np.add.reduce(np.abs(diagonal), dtype=np.float64))
            reached = max(product_bound, trace_bound)
            if reached > EXACT_INTEGER_LIMIT:
                raise RootFindingError(
                    "characteristic polynomial is not exact in double precision: "
                    f"step {k} of {n} reaches {reached:.3g} > 2^53"
                )
        ck = -float(np.add.reduce(diagonal, dtype=np.float64)) / k
        descending.append(ck)
        # max|diag| <= product_bound <= r * bound, so the cheap tests decide most steps
        if single and r * bound + abs(ck) > SINGLE_EXACT_LIMIT:
            if product_bound is None:
                bound, product_bound = scan(m)
            if (
                product_bound + abs(ck) > SINGLE_EXACT_LIMIT
                and float(np.abs(diagonal).max()) + abs(ck) > SINGLE_EXACT_LIMIT
            ):
                single = False
                am = am.astype(np.float64)
                diagonal = am.ravel()[:: n + 1]
        diagonal += ck
        m = am
        bound = r * bound + int(abs(ck))
    return Polynomial(tuple(reversed(descending)))


def _evaluate(coeffs: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(z) at every point of z, coefficients ascending: coeffs times a power table.

    One cumprod gives the table [1, z, ..., z^degree] of all the points,
    z^k in row k, and one matrix product with the coefficients gives their
    values.  coeffs is one row of coefficients or a stack of rows, and the
    values have the shape of the stack, points last.  Returns
    (values, sizes): sizes holds sum_k |c_k| |z^k| of the first (or only)
    row, the size of the terms that cancel at z, from the same table.

    Rounding: z^k is the product of z^(k-1) and z, so the term c_k z^k
    passes through k - 1 complex products in the table, one product with
    c_k and at most degree additions in the sum.  That is at most about
    2 * degree roundings of each term, so 4 * degree * eps *
    sum_k |c_k| |z|^k bounds the evaluation error, the noise floor of
    _aberth.
    """
    abs_c = np.abs(coeffs if coeffs.ndim == 1 else coeffs[0])
    table = np.empty((coeffs.shape[-1], len(z)), dtype=np.complex128)
    table[0] = 1.0
    table[1:] = z
    np.cumprod(table, axis=0, out=table)
    return coeffs @ table, abs_c @ np.abs(table)


def _newton_polygon_start(abs_c: np.ndarray) -> np.ndarray:
    """Starting points on the circles of the Newton polygon (Bini 1996).

    An edge from k to j of the upper convex hull of (k, log|c_k|) holds
    j - k roots near the circle of radius (|c_k|/|c_j|)^(1/(j-k)); they
    start there, evenly spaced, offset by 2*pi*k/degree + 0.4 so that points
    on different circles stay apart.  A hull point within HULL_TOL
    (relative) of the chord of its neighbours is dropped as collinear: two
    edges of one slope would put two sets of points on one circle, where
    they can coincide, as the points (10, log 8), (14, log 2), (16, 0) of a
    degree-16 characteristic polynomial did.

    The hull is one Python walk over the coefficients, with math.log of
    each nonzero one.  Each edge's count, radius and offset is then
    repeated once per point, so one array exp builds the points of all
    edges, bit for bit those of one exp per edge.
    """
    degree = len(abs_c) - 1
    hull: list[tuple[int, float]] = []
    for k, value in enumerate(abs_c.tolist()):
        if not value:
            continue
        point = (k, math.log(value))
        while len(hull) >= 2:
            (k0, y0), (k1, y1) = hull[-2], hull[-1]
            cross = (k1 - k0) * (point[1] - y0) - (y1 - y0) * (point[0] - k0)
            scale = (point[0] - k0) * max(1.0, abs(y0), abs(y1), abs(point[1]))
            if cross < -HULL_TOL * scale:
                break
            hull.pop()
        hull.append(point)
    edges = list(zip(hull, hull[1:]))
    counts = np.array([j - k for (k, _), (j, _) in edges])
    radii = [math.exp((yk - yj) / (j - k)) for (k, yk), (j, yj) in edges]
    offsets = [2.0 * np.pi * k / degree for (k, _), _ in edges]
    # the position of each point on its circle, 0 .. count - 1
    position = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    angles = 2.0 * np.pi * position / np.repeat(counts, counts) + np.repeat(offsets, counts) + 0.4
    return np.repeat(radii, counts) * np.exp(1j * angles)


def _reciprocal_sums(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_{j != i} 1/(z_i - z_j) for every i in rows.

    One matrix of differences z_i - z_j, len(rows) x len(z), is divided in
    place and summed along its rows.  Two equal approximations, or one that
    is not finite, make sums that are not finite.
    """
    diff = z[rows, None] - z
    diff[np.arange(len(rows)), rows] = np.inf
    np.divide(1.0, diff, out=diff)
    return diff.sum(axis=1)


def _refusal(z: np.ndarray, iterations: int) -> RootFindingError:
    """The refusal of approximations that coincide or are not finite."""
    # two equal approximations would move alike and end on one root, and
    # one that is not finite never comes back
    if np.isfinite(z).all():
        cause = "two root approximations coincide"
    else:
        cause = "a root approximation is not finite"
    return RootFindingError(
        f"{cause} after {iterations} iterations",
        roots=tuple(z.tolist()),
        residuals=(),
        iterations=iterations,
    )


def _aberth(coeffs: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Aberth-Ehrlich iteration for a monic polynomial with nonzero constant term.

    Starts on the circles of the Newton polygon and iterates until every
    residual |p(z)| reaches the double-precision evaluation noise floor,
    which is the best any polishing can do.  An approximation that reaches
    its floor is frozen: it is never moved or evaluated again, and each
    step evaluates p, p' and the floor only at the active approximations,
    from one power table, and forms their sums of 1/(z_i - z_j) against
    all approximations.  Returns the roots, the number of iterations and
    whether every residual reached its floor within MAX_ITERATIONS.  Raises
    RootFindingError when two approximations coincide or one is not
    finite: an active one shows it in its sums, and a frozen one is checked
    against all the others when it freezes (a NaN compares as converged).
    """
    degree = len(coeffs) - 1
    c = coeffs.astype(np.complex128)
    # p' has no z^degree term, so p and p' share one power table
    stack = np.stack([c, np.append(c[1:] * np.arange(1, degree + 1), 0.0)])
    eps = np.finfo(np.float64).eps

    z = _newton_polygon_start(np.abs(c)).astype(np.complex128)
    active = np.arange(degree)

    for iterations in range(1, MAX_ITERATIONS + 1):
        (p, dp), size = _evaluate(stack, z[active])
        moving = np.abs(p) > 4.0 * degree * eps * size
        if not moving.all():
            # a frozen approximation gets no sums, so it is checked as it
            # freezes: finite (a NaN compares as converged) and equal to no
            # other approximation
            frozen = z[active[~moving]]
            if not np.isfinite(frozen).all() or np.count_nonzero(frozen[:, None] == z) > len(frozen):
                raise _refusal(z, iterations - 1)
            active = active[moving]
            if not len(active):
                return z, iterations, True
            p, dp = p[moving], dp[moving]
        dp[dp == 0] = eps
        w = p / dp
        s = _reciprocal_sums(z, active)
        if not np.isfinite(s).all():
            raise _refusal(z, iterations - 1)
        denom = 1.0 - w * s
        denom[denom == 0] = 1.0
        z[active] -= w / denom
    return z, MAX_ITERATIONS, False


def poly_roots(p: Polynomial) -> tuple[complex, ...]:
    """All complex roots of a monic polynomial, with multiplicity.

    Roots at zero are deflated exactly: each low coefficient that is
    exactly 0 (-0.0 too) is a root 0, and no other coefficient is taken for
    zero, however small; the rest come from the Aberth-Ehrlich iteration.
    A degree above MAX_DIMENSION is refused with a ValueError, as char_poly
    refuses a larger matrix, so no power table or difference matrix of an
    iteration holds more than 513 x 512 complex doubles (4.2 MB).  A
    RootFindingError with the roots, residuals and iteration count is
    raised when the iteration reaches MAX_ITERATIONS with a residual still
    above its evaluation noise floor, or when a returned root would break
    |p(z)| <= 1e-10 * max(1, sum_k |c_k| |z|^k), which a non-finite root or
    residual always breaks.  The bound scales with the size of the terms
    that cancel at z, so it neither accepts anything near |z| = 1 at high
    degree nor refuses converged roots of polynomials with large
    coefficients.
    """
    if p.degree < 1:
        raise ValueError("polynomial must have degree >= 1")
    if p.degree > MAX_DIMENSION:
        raise ValueError(f"polynomial degree {p.degree} exceeds supported maximum {MAX_DIMENSION}")
    coeffs = np.asarray(p.coeffs, dtype=np.float64)
    # written so that a NaN leading coefficient fails the test
    if not abs(coeffs[-1] - 1.0) <= 1e-9:
        raise ValueError(f"polynomial must be monic, leading coefficient {coeffs[-1]}")

    # the leading coefficient passed the monic test, so it is not 0
    n_zero = int(np.flatnonzero(coeffs)[0])
    reduced = coeffs[n_zero:]

    iterations = 0
    converged = True
    if len(reduced) == 1:
        nonzero = np.empty(0, dtype=np.complex128)
    elif len(reduced) == 2:
        nonzero = np.array([-reduced[0] / reduced[1]], dtype=np.complex128)
    else:
        nonzero, iterations, converged = _aberth(reduced)

    roots = np.concatenate([np.zeros(n_zero, dtype=np.complex128), nonzero])
    values, sizes = _evaluate(coeffs, roots)
    residuals = np.abs(values)
    bounds = RESIDUAL_TOL * np.maximum(1.0, sizes)
    # written so that a NaN residual or bound fails the contract
    if not converged or not np.all(residuals <= bounds):
        # argmax puts a NaN ratio first, so the root of a NaN residual is named
        worst = int(np.argmax(residuals / bounds))
        if not math.isfinite(residuals[worst]):
            cause = " with a non-finite residual"
        elif not converged:
            cause = " with residuals above the noise floor"
        else:
            cause = ""
        raise RootFindingError(
            f"root iteration stalled after {iterations} iterations{cause}: "
            f"|p({roots[worst]:.6g})| = {residuals[worst]:.3g}, bound "
            f"{bounds[worst]:.3g}",
            roots=tuple(roots.tolist()),
            residuals=tuple(residuals.tolist()),
            iterations=iterations,
        )
    return tuple(roots.tolist())


def _check_cycles(lengths: Sequence[int], signs: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The lengths and signs as tuples, after checking one sign per cycle and each cycle by check_cycle."""
    lengths, signs = tuple(lengths), tuple(signs)
    if len(lengths) != len(signs):
        raise ValueError(f"need one sign per cycle, got {len(lengths)} lengths and {len(signs)} signs")
    for n, sign in zip(lengths, signs):
        check_cycle(n, sign)
    return lengths, signs


def cycle_eigenvalues_batch(lengths: Sequence[int], signs: Sequence[int]) -> np.ndarray:
    """Analytic spectra of many signed cycles, concatenated in their order.

    The n roots of x^n - sign of each cycle, the k-th at angle 2*pi*k/n for
    sign +1 and (2k + 1)*pi/n for sign -1, each angle formed in that order
    of operations and mapped by np.cos and np.sin: the roots cmath.rect
    gives for those angles, bit for bit on hosts whose numpy rounds sin
    and cos as the C library does (the tests check n <= 1000).
    """
    lengths, signs = _check_cycles(lengths, signs)
    counts = np.asarray(lengths, dtype=np.int64)
    n = np.repeat(counts, counts).astype(np.float64)
    k = (np.arange(len(n)) - np.repeat(np.cumsum(counts) - counts, counts)).astype(np.float64)
    positive = np.repeat(np.asarray(signs) > 0, counts)
    angles = np.where(positive, 2.0 * math.pi * k / n, (2.0 * k + 1.0) * math.pi / n)
    z = np.empty(len(n), dtype=np.complex128)
    z.real, z.imag = np.cos(angles), np.sin(angles)
    return z


def cycle_eigenvalues(length: int, sign: int) -> tuple[complex, ...]:
    """Analytic spectrum of a signed cycle: the n-th roots of its sign.

    The one-cycle call of cycle_eigenvalues_batch.
    """
    return tuple(cycle_eigenvalues_batch((length,), (sign,)).tolist())


def _powers(z: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """z**e for each root and its own exponent e >= 1, by binary powering.

    Each power starts from exactly 1, and 1 * z is z, so every rounded
    product is one that powering that root alone would make: one complex
    product per set bit of e, and a squaring before each later bit.  Each
    step multiplies and squares in place, only where a root's exponent
    asks for it, so no root is squared past its last bit.
    """
    result = np.ones_like(z)
    z = z.copy()
    while True:
        np.multiply(result, z, out=result, where=(exponents & 1).astype(bool))
        exponents = exponents >> 1
        left = exponents > 0
        if not left.any():
            return result
        np.multiply(z, z, out=z, where=left)


def _radius_bounds(z: np.ndarray, n: np.ndarray, signs: np.ndarray, modulus_sq: np.ndarray) -> np.ndarray:
    """Step 2 of the proof: a rigorous bound on each disc's radius.

    Its own function, so that the powers and their temporaries are freed
    before the roots are named.
    """
    u = 2.0**-53
    chain = (n - 1) * 2.25 * u
    g = chain / (1.0 - chain)
    p = _powers(z, n)
    residual = np.abs(p.real - signs) + np.abs(p.imag)
    radii = np.sqrt(modulus_sq) * (residual * (1.0 + g) / np.sqrt(p.real * p.real + p.imag * p.imag) + g)
    radii *= 1.0 + 32.0 * u
    return radii


def _disc_radii(lengths: np.ndarray, signs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The proof of cycle_root_radii_batch over all its cycles; raises its first refusal.

    A refusal names roots by their position in z, which is their index in
    their cycle when z holds one cycle.
    """

    def refuse(message: str) -> RootFindingError:
        return RootFindingError(message, roots=tuple(z.tolist()))

    n = np.repeat(lengths, lengths)
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

    root_signs = np.repeat(signs, lengths)
    radii = _radius_bounds(z, n, root_signs, modulus_sq)
    if not np.all(radii * (4 * n) < 1.0):
        wide = int(np.argmax(radii))
        raise refuse(f"root disc {wide} has radius {radii[wide]:.3g}, not below 1/(4n) = {0.25 / n[wide]:.3g}")

    # the root in disc k is named by arg(z_k) in root spacings, less the
    # offset of the sign, rounded; a cycle's roots are numbered from its start
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    offset = np.where(root_signs > 0, 0.0, 0.5)
    turns = np.rint(np.arctan2(y, x) * (n / (2.0 * math.pi)) - offset).astype(np.int64)
    held = turns % n + starts
    if np.any(np.bincount(held, minlength=len(z)) > 1):
        # name the first approximation whose root an earlier one holds
        order = np.argsort(held, kind="stable")
        again = np.flatnonzero(held[order[1:]] == held[order[:-1]])
        p = again[np.argmin(order[again + 1])]
        i, j = order[p], order[p + 1]
        raise refuse(
            f"root discs not isolated: approximations {i} and {j} both hold root {held[i] - starts[i]} "
            f"of x^{n[i]} {'-' if root_signs[i] > 0 else '+'} 1"
        )
    return radii


def cycle_root_radii_batch(
    lengths: Sequence[int], signs: Sequence[int], approximations: Iterable[complex]
) -> tuple[np.ndarray, list[RootFindingError | None]]:
    """Proven radii of disjoint inclusion discs for the roots of many x^n - sign.

    approximations holds the lengths[0] approximations of the roots of
    x^lengths[0] - signs[0], then those of the next cycle, and so on.  The
    disc |z - z_k| <= r_k around the k-th approximation of a cycle holds
    one root, and the n discs of the cycle hold its n different roots, so
    the energy and the iota energy of its exact roots lie within the sum of
    its radii of those of its approximations.  Returns the radii, in the
    order of the approximations, and per cycle None, or the
    RootFindingError, with that cycle's approximations as its roots, that
    names the first step of its proof that fails; the radii of a refused
    cycle are NaN.  Nothing about how the z_k were computed is trusted.
    With f = x^n - sign and u = 2^-53, per cycle:

    1. A disc per approximation.  f'/f = sum_j 1/(z - omega_j) puts a root
       within n|f(z)| / |f'(z)| = |f(z)| / |z|^(n-1) of any z.
    2. A rigorous bound on that radius.  Every z_k must have |z_k|^2 within
       1/n of 1, so every power up to z^n has modulus in [1/2, 2].  P = z^n
       is taken by binary powering, each root with its own exponent; one
       complex product is off by at most sqrt(5) u |a||b| (Brent, Percival
       & Zimmermann 2007), and 2.25 u also covers partial products that
       underflow, so under any addition chain |P - z^n| <= g |z|^n with
       g = (1 + 2.25u)^(n-1) - 1 <= (n-1) 2.25u / (1 - (n-1) 2.25u).  Then
       |f(z)| <= |P - sign| + g|z|^n and |z|^n >= |P| / (1 + g) give
       r = |z| (|P - sign| (1 + g) / |P| + g).  |P - sign| is bounded by
       the sum of its two parts, and each modulus |w| >= 1/2 by the square
       root of a rounded x^2 + y^2, within 2.5u of it; with the other
       roundings of the formula that is less than 24u in all, which a last
       factor 1 + 32u covers.
    3. One root per disc, each root once.  The roots are at least
       2 sin(pi/n) >= 4/n apart, so a disc of radius r < 1/(4n) holds at
       most one, and by step 1 at least one.  That root w has |w| = 1 and
       |w - z_k| < r, so arg w is within arcsin(r) < arcsin(1/(4n)) of
       arg z_k: with n/(2 pi) of that, less than 0.04 of the root spacing
       2 pi/n (worst at n = 2, about 1/(8 pi) for large n).  So
       rint(atan2(y, x) n/(2 pi) - offset) mod n is w's index k, with
       offset 0 for sign +1 and 1/2 for sign -1; the roundings of atan2
       and of the product move it by a few u times n, far inside the
       margin of 0.46.  The indices
       are numbered from each cycle's start, so roots of two cycles never
       meet, as the roots +-1 and +-i of C_4^+ and C_8^+ must not, and the
       discs hold different roots exactly when one bincount over the batch
       is at most 1 everywhere.

    The steps run over all the cycles at once; when one is refused, each
    cycle is proven again alone, so that each gets its own first refusal.
    The radii do not depend on the batch: each is the one the cycle gets
    alone, bit for bit.
    """
    lengths, signs = _check_cycles(lengths, signs)
    if not isinstance(approximations, np.ndarray):
        approximations = tuple(approximations)
    z = np.asarray(approximations, dtype=np.complex128)
    total = sum(lengths)
    if len(z) != total:
        raise ValueError(f"need the {total} approximations of the roots of x^n - sign, got {len(z)}")
    counts = np.asarray(lengths, dtype=np.int64)
    units = np.asarray(signs, dtype=np.float64)
    try:
        return _disc_radii(counts, units, z), [None] * len(lengths)
    except RootFindingError:
        pass
    # some cycle is refused: prove each alone, so that each gets its own first refusal
    radii, refusals = [], []
    for c, start in enumerate(np.cumsum(counts) - counts):
        part = z[start : start + counts[c]]
        try:
            radii.append(_disc_radii(counts[c : c + 1], units[c : c + 1], part))
            refusals.append(None)
        except RootFindingError as refusal:
            radii.append(np.full(len(part), np.nan))
            refusals.append(refusal)
    return np.concatenate(radii), refusals


def _numeric_eigenvalues(matrix: np.ndarray) -> tuple[complex, ...]:
    """Roots of the characteristic polynomial, checked against Gershgorin."""
    roots = poly_roots(char_poly(matrix))
    bound = float(np.abs(matrix).sum(axis=1).max())
    bad = [z for z in roots if not cmath.isfinite(z) or abs(z) > bound * (1.0 + 1e-6)]
    if bad:
        raise RootFindingError(
            f"{len(bad)} of {len(roots)} roots are not finite or lie outside the "
            f"Gershgorin bound {bound:g}, e.g. {bad[0]:.6g}",
            roots=roots,
        )
    return roots


def eigenvalues(g: SignedDigraph, components: list[SignedDigraph] | None = None) -> tuple[complex, ...]:
    """Eigenvalues of the adjacency matrix of g, strong component by component.

    components, when given, must be strong_components(g); a caller that
    has them already passes them so that they are not computed twice.  A
    strongly connected digraph with as many arcs as vertices (at least 2)
    is exactly one directed cycle, so it is answered analytically.  Any
    other component of more than MAX_DIMENSION vertices is refused with a
    RootFindingError before its matrix is built.
    """
    if components is None:
        components = strong_components(g)
    values: list[complex] = []
    for component in components:
        n = component.n_vertices
        if n == 1:
            values.append(0j)
        elif component.n_arcs == n:
            sign = math.prod(s for _tail, _head, s in component.arcs)
            values.extend(cycle_eigenvalues(n, sign))
        elif n > MAX_DIMENSION:
            raise RootFindingError(
                f"strong component of {n} vertices exceeds the supported maximum "
                f"{MAX_DIMENSION} of the characteristic polynomial"
            )
        else:
            values.extend(_numeric_eigenvalues(adjacency_matrix(component)))
    return tuple(values)


def energy(s: Iterable[complex]) -> float:
    """Sum of absolute real parts of the eigenvalues."""
    return math.fsum(abs(z.real) for z in s)


def iota_energy(s: Iterable[complex]) -> float:
    """Sum of absolute imaginary parts of the eigenvalues."""
    return math.fsum(abs(z.imag) for z in s)


def iota_energy_of_graph(g: SignedDigraph) -> float:
    """Iota energy of g: the iota energy of its eigenvalues."""
    return iota_energy(eigenvalues(g))
