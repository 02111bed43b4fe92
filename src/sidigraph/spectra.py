"""Spectra of signed digraphs: characteristic polynomial, eigenvalues, energies.

Ordered by strong components, the adjacency matrix is block triangular, so
its spectrum is the union of the spectra of the components.  `eigenvalues`
is the one route: a singleton component contributes 0, a component with as
many arcs as vertices is one signed cycle and contributes the n-th roots of
its sign, and any other component goes through the numeric pipeline,
adjacency matrix -> monic characteristic polynomial (trace recursion) ->
simultaneous root iteration (Aberth-Ehrlich, started on the circles of the
Newton polygon), with every polynomial value taken by blocked
baby-step/giant-step evaluation.  Each stage refuses what it cannot vouch
for with a RootFindingError: a non-cycle component above MAX_DIMENSION
vertices, a trace recursion whose partial sums may pass 2^53, two root
approximations that coincide or one that is not finite, an iteration that
does not reach the evaluation noise floor, a residual above
1e-10 * max(1, sum_k |c_k| |z|^k), and a root that is not finite or lies
outside the Gershgorin disc.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import SignedDigraph, adjacency_matrix, strong_components

# Largest matrix char_poly accepts; eigenvalues refuses a larger strong
# component unless it is a cycle.  Below it, char_poly returns only
# coefficients it has certified exact for an integer matrix; a recursion
# whose partial sums may pass 2^53 raises RootFindingError instead.
MAX_DIMENSION = 512

# Every integer of magnitude at most 2^53 is a double, and so is every sum
# of them that stays in that range.
EXACT_INTEGER_LIMIT = 2.0**53

# A root is accepted when |p(z)| <= RESIDUAL_TOL * max(1, sum_k |c_k| |z|^k).
RESIDUAL_TOL = 1e-10

# Newton-polygon hull points this close to collinear (relative to the
# log-coefficient scale) are merged.  Rounding of the logs moves a cross
# product by a few eps per unit; merging nearly collinear points moves the
# start circles by about the tolerance, which no iteration notices.
HULL_TOL = 1e-12

# Rows of z_i - z_j that one step of the Aberth sums forms at once; a block
# of 128 rows at degree 512 is 1 MB of complex doubles, and degrees up to
# 128 run as one block.
SUM_BLOCK = 128


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

    def __call__(self, z: complex) -> complex:
        result: complex = 0.0
        for c in reversed(self.coeffs):
            result = result * z + c
        return result


@dataclass(frozen=True)
class ComplexSpectrum:
    """Multiset of complex eigenvalues, one per matrix row."""

    values: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(complex(z) for z in self.values))


class RootFindingError(RuntimeError):
    """Root finding failed; carries diagnostics.

    roots and residuals are empty and iterations 0 when char_poly cannot
    certify its coefficients, and when eigenvalues refuses a strong
    component that is not a cycle and has more than MAX_DIMENSION vertices;
    residuals is empty and iterations 0 when eigenvalues rejects a root
    outside the Gershgorin bound; residuals is empty when two root
    approximations coincide or one is not finite, and roots holds the
    approximations.
    """

    def __init__(self, message: str, roots: tuple[complex, ...], residuals: tuple[float, ...], iterations: int):
        super().__init__(message)
        self.roots = roots
        self.residuals = residuals
        self.iterations = iterations


def char_poly(matrix: np.ndarray) -> Polynomial:
    """Monic characteristic polynomial det(xI - A) via trace recursion.

    The Faddeev-LeVerrier recursion M_k = A M_{k-1} + c_k I, with
    c_k = -tr(A M_{k-1}) / k, needs only matrix products and traces.  For an
    integer matrix every intermediate is an integer, and doubles hold it
    exactly while every partial sum stays within 2^53.  With r the largest
    absolute row sum of A, each step checks both bounds: r * max|M_{k-1}|
    for every partial sum of A M_{k-1}, and sum_i |(A M_{k-1})_ii| for the
    trace.  If either passes 2^53 the coefficients may be rounded, and a
    RootFindingError with empty diagnostics is raised instead.  Cycles and
    sparse components stay far inside the bound; dense ones of a few dozen
    vertices pass it.  Each step adds c_k to the diagonal of A M_{k-1} in
    place, through a view, and reads max|M_{k-1}| as max(max M, -min M);
    with every value an integer below 2^53, both are exact.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if n > MAX_DIMENSION:
        raise ValueError(f"matrix dimension {n} exceeds supported maximum {MAX_DIMENSION}")
    row_sum = float(np.abs(a).sum(axis=1).max(initial=0.0))
    descending = [1.0]
    m = np.eye(n)
    for k in range(1, n + 1):
        product_bound = row_sum * float(max(m.max(), -m.min()))
        am = a @ m
        diagonal = am.ravel()[:: n + 1]
        trace_bound = float(np.abs(diagonal).sum())
        reached = max(product_bound, trace_bound)
        if reached > EXACT_INTEGER_LIMIT:
            raise RootFindingError(
                "characteristic polynomial is not exact in double precision: "
                f"step {k} of {n} reaches {reached:.3g} > 2^53",
                roots=(),
                residuals=(),
                iterations=0,
            )
        ck = -diagonal.sum() / k
        descending.append(ck)
        diagonal += ck
        m = am
    return Polynomial(tuple(reversed(descending)))


def _evaluate(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """p(z) at every point of z, coefficients ascending (Paterson-Stockmeyer 1973).

    Baby steps and giant steps: with b = round(sqrt(len(coeffs))), one
    cumprod gives [1, z, ..., z^(b-1)] for every z, one matrix product with
    the coefficients cut into blocks of b gives each block's inner sum, and
    a Horner over z^b joins the blocks in about degree/b steps.  So an
    evaluation costs about 2*sqrt(degree) numpy calls, not 2*degree.

    Rounding: the term c_k z^k, k = j*b + i, passes through at most b - 1
    products for z^i, at most b additions in its inner sum, and j <= degree/b
    outer steps, each a product with z^b (itself b products from z) and an
    addition.  That is at most about degree + 3*sqrt(degree) roundings of
    each term, so 4 * degree * eps * sum_k |c_k| |z|^k bounds the
    evaluation error, the noise floor of _aberth.
    """
    b = max(1, round(math.sqrt(len(coeffs))))
    blocks = -(-len(coeffs) // b)
    padded = np.zeros(blocks * b, dtype=coeffs.dtype)
    padded[: len(coeffs)] = coeffs
    steps = np.empty((len(z), b), dtype=z.dtype)
    steps[:, 0] = 1.0
    steps[:, 1:] = z[:, None]
    powers = np.cumprod(steps, axis=1)
    inner = powers @ padded.reshape(blocks, b).T
    giant = powers[:, -1] * z
    result = inner[:, -1]
    for j in range(blocks - 2, -1, -1):
        result = result * giant + inner[:, j]
    return result


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
    """
    degree = len(abs_c) - 1
    hull: list[tuple[int, float]] = []
    for k in np.flatnonzero(abs_c):
        point = (int(k), math.log(abs_c[k]))
        while len(hull) >= 2:
            (k0, y0), (k1, y1) = hull[-2], hull[-1]
            cross = (k1 - k0) * (point[1] - y0) - (y1 - y0) * (point[0] - k0)
            scale = (point[0] - k0) * max(1.0, abs(y0), abs(y1), abs(point[1]))
            if cross < -HULL_TOL * scale:
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


def _reciprocal_sums(z: np.ndarray) -> np.ndarray:
    """sum_{j != i} 1/(z_i - z_j) for every i, SUM_BLOCK rows at a time.

    Each block of differences is divided in place, so the working set stays
    SUM_BLOCK rows wide instead of the whole degree x degree matrix; every
    row sums the same values in the same order as unblocked, so the sums
    are bit-identical to it.  Two equal approximations, or one that is not
    finite, make sums that are not finite.
    """
    n = len(z)
    sums = np.empty_like(z)
    for start in range(0, n, SUM_BLOCK):
        block = z[start : start + SUM_BLOCK, None] - z
        # row i of the block is row start + i of the matrix, whose diagonal
        # entry sits at flat index start + i * (n + 1) of the block
        block.ravel()[start :: n + 1] = np.inf
        np.divide(1.0, block, out=block)
        block.sum(axis=1, out=sums[start : start + SUM_BLOCK])
    return sums


def _aberth(coeffs: np.ndarray, max_iterations: int) -> tuple[np.ndarray, int, bool]:
    """Aberth-Ehrlich iteration for a monic polynomial with nonzero constant term.

    Starts on the circles of the Newton polygon and iterates until every
    residual |p(z)| reaches the double-precision evaluation noise floor,
    which is the best any polishing can do.  Returns the roots, the number
    of iterations and whether every residual reached its floor within
    max_iterations.  Raises RootFindingError when two approximations
    coincide or one is not finite, where the sums of 1/(z_i - z_j) break
    down.
    """
    degree = len(coeffs) - 1
    c = coeffs.astype(np.complex128)
    dc = c[1:] * np.arange(1, degree + 1)
    abs_c = np.abs(c)
    eps = np.finfo(np.float64).eps

    z = _newton_polygon_start(abs_c)

    for iterations in range(1, max_iterations + 1):
        p = _evaluate(c, z)
        noise_floor = 4.0 * degree * eps * _evaluate(abs_c, np.abs(z))
        active = np.abs(p) > noise_floor
        if not active.any():
            return z, iterations, True
        dp = _evaluate(dc, z)
        dp = np.where(dp == 0, eps, dp)
        w = p / dp
        s = _reciprocal_sums(z)
        if not np.isfinite(s).all():
            # two equal approximations would move alike and end on one root,
            # and one that is not finite never comes back
            if np.isfinite(z).all():
                cause = "two root approximations coincide"
            else:
                cause = "a root approximation is not finite"
            raise RootFindingError(
                f"{cause} after {iterations - 1} iterations",
                roots=tuple(z.tolist()),
                residuals=(),
                iterations=iterations - 1,
            )
        denom = 1.0 - w * s
        denom = np.where(denom == 0, 1.0, denom)
        z = np.where(active, z - w / denom, z)
    return z, max_iterations, False


def poly_roots(p: Polynomial, max_iterations: int = 1000) -> ComplexSpectrum:
    """All complex roots of a monic polynomial, with multiplicity.

    Roots at zero are deflated exactly (leading near-zero coefficients);
    the rest come from the Aberth-Ehrlich iteration.  A RootFindingError
    with the roots, residuals and iteration count is raised when the
    iteration reaches max_iterations with a residual still above its
    evaluation noise floor, or when a returned root would break
    |p(z)| <= 1e-10 * max(1, sum_k |c_k| |z|^k), which a non-finite root or
    residual always breaks.  The bound scales with the
    size of the terms that cancel at z, so it neither accepts anything near
    |z| = 1 at high degree nor refuses converged roots of polynomials with
    large coefficients.
    """
    if p.degree < 1:
        raise ValueError("polynomial must have degree >= 1")
    coeffs = np.asarray(p.coeffs, dtype=np.float64)
    if abs(coeffs[-1] - 1.0) > 1e-9:
        raise ValueError(f"polynomial must be monic, leading coefficient {coeffs[-1]}")

    scale = float(np.max(np.abs(coeffs)))
    n_zero = 0
    while n_zero < p.degree and abs(coeffs[n_zero]) <= 1e-12 * scale:
        n_zero += 1
    reduced = coeffs[n_zero:]

    iterations = 0
    converged = True
    if len(reduced) == 1:
        nonzero = np.empty(0, dtype=np.complex128)
    elif len(reduced) == 2:
        nonzero = np.array([-reduced[0] / reduced[1]], dtype=np.complex128)
    else:
        nonzero, iterations, converged = _aberth(reduced, max_iterations)

    roots = np.concatenate([np.zeros(n_zero, dtype=np.complex128), nonzero])
    residuals = np.abs(_evaluate(coeffs.astype(np.complex128), roots))
    bounds = RESIDUAL_TOL * np.maximum(1.0, _evaluate(np.abs(coeffs), np.abs(roots)))
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
    return ComplexSpectrum(tuple(roots.tolist()))


def cycle_eigenvalues(length: int, sign: int) -> ComplexSpectrum:
    """Analytic spectrum of a signed cycle: the n-th roots of its sign."""
    if sign == 1:
        angles = (2.0 * math.pi * k / length for k in range(length))
    elif sign == -1:
        angles = ((2.0 * k + 1.0) * math.pi / length for k in range(length))
    else:
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return ComplexSpectrum(tuple(cmath.rect(1.0, a) for a in angles))


def _numeric_eigenvalues(matrix: np.ndarray) -> tuple[complex, ...]:
    """Roots of the characteristic polynomial, checked against Gershgorin."""
    roots = poly_roots(char_poly(matrix)).values
    bound = float(np.abs(matrix).sum(axis=1).max())
    bad = [z for z in roots if not cmath.isfinite(z) or abs(z) > bound * (1.0 + 1e-6)]
    if bad:
        raise RootFindingError(
            f"{len(bad)} of {len(roots)} roots are not finite or lie outside the "
            f"Gershgorin bound {bound:g}, e.g. {bad[0]:.6g}",
            roots=roots,
            residuals=(),
            iterations=0,
        )
    return roots


def eigenvalues(g: SignedDigraph, components: list[SignedDigraph] | None = None) -> ComplexSpectrum:
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
            values.extend(cycle_eigenvalues(n, sign).values)
        elif n > MAX_DIMENSION:
            raise RootFindingError(
                f"strong component of {n} vertices exceeds the supported maximum "
                f"{MAX_DIMENSION} of the characteristic polynomial",
                roots=(),
                residuals=(),
                iterations=0,
            )
        else:
            values.extend(_numeric_eigenvalues(adjacency_matrix(component)))
    return ComplexSpectrum(tuple(values))


def _spectrum_values(s: ComplexSpectrum | Iterable[complex]) -> tuple[complex, ...]:
    if isinstance(s, ComplexSpectrum):
        return s.values
    return tuple(complex(z) for z in s)


def energy(s: ComplexSpectrum | Iterable[complex]) -> float:
    """Sum of absolute real parts of the eigenvalues."""
    return math.fsum(abs(z.real) for z in _spectrum_values(s))


def iota_energy(s: ComplexSpectrum | Iterable[complex]) -> float:
    """Sum of absolute imaginary parts of the eigenvalues."""
    return math.fsum(abs(z.imag) for z in _spectrum_values(s))


def iota_energy_of_graph(g: SignedDigraph) -> float:
    """Iota energy of g: the iota energy of its eigenvalues."""
    return iota_energy(eigenvalues(g))
