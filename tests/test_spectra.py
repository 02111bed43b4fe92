import cmath
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidigraph import (
    Polynomial,
    RootFindingError,
    SignedDigraph,
    adjacency_matrix,
    char_poly,
    cycle_eigenvalues,
    eigenvalues,
    energy,
    iota_energy,
    iota_energy_of_graph,
    join_with_arc,
    make_cycle,
    poly_roots,
    strong_components,
)
from sidigraph import spectra, verification
from oracles import (
    cofactor_char_poly,
    exact_poly_value,
    float_trace_recursion,
    largest_single_precision_bound,
    make_path,
    match_multisets,
    reference_cycle_eigenvalues,
    reference_cycle_root_radii,
)
from seeded_graphs import chained_blocks, collinear_hull_scc, dense_scc


def analytic_cycle_roots(n, sign):
    if sign == 1:
        return [cmath.rect(1.0, 2.0 * math.pi * k / n) for k in range(n)]
    return [cmath.rect(1.0, (2.0 * k + 1.0) * math.pi / n) for k in range(n)]


# --- characteristic polynomial -------------------------------------------

def test_char_poly_against_cofactor_oracle():
    # frozen from the exact cofactor expansion: x^3 + 1 and x^4 - 1
    m3 = adjacency_matrix(make_cycle(3, -1))
    assert cofactor_char_poly(m3.tolist()) == [1.0, 0.0, 0.0, 1.0]
    assert np.allclose(char_poly(m3).coeffs, [1.0, 0.0, 0.0, 1.0], atol=1e-12)

    m4 = adjacency_matrix(make_cycle(4, 1))
    assert cofactor_char_poly(m4.tolist()) == [-1.0, 0.0, 0.0, 0.0, 1.0]
    assert np.allclose(char_poly(m4).coeffs, [-1.0, 0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_char_poly_path_is_power_of_x():
    p = char_poly(adjacency_matrix(make_path(3)))
    assert np.allclose(p.coeffs, [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_char_poly_joined_against_cofactor_oracle():
    g = join_with_arc(make_cycle(2, 1), make_cycle(4, -1), 0, 0, 1)
    a = adjacency_matrix(g)
    expected = cofactor_char_poly(a.tolist())
    assert np.allclose(char_poly(a).coeffs, expected, atol=1e-10)


@pytest.mark.parametrize("n", range(2, 129))
@pytest.mark.parametrize("sign", [1, -1])
def test_char_poly_cycles_sweep(n, sign):
    # exactly x^n - sign (Harary 1962), whose roots verify proves for C_n
    p = char_poly(adjacency_matrix(make_cycle(n, sign)))
    expected = np.zeros(n + 1)
    expected[0] = -sign
    expected[n] = 1.0
    assert np.array_equal(np.asarray(p.coeffs), expected)


@pytest.mark.parametrize("seed", range(10))
def test_char_poly_refuses_inexact_trace_recursion(seed):
    # density-4 components of 120 vertices pass 2^53 halfway through the
    # recursion; their rounded polynomial gave wrong energies with exit 0
    g = dense_scc(seed, 120, 480)
    with pytest.raises(RootFindingError, match="not exact in double precision") as exc:
        char_poly(adjacency_matrix(g))
    assert (exc.value.roots, exc.value.residuals, exc.value.iterations) == ((), (), 0)
    with pytest.raises(RootFindingError, match="not exact in double precision"):
        eigenvalues(g)


def test_char_poly_certificate_counts_negative_entries():
    # M_1 = A holds -2^52, so r * max|M_1| = 2^104 at step 2, while the
    # trace bound |tr(A^2)| = 2^53 and the positive entries stay within 2^53
    a = np.array([[0.0, -(2.0**52)], [1.0, 0.0]])
    with pytest.raises(RootFindingError, match=r"step 2 of 2 reaches 2\.03e\+31 > 2\^53"):
        char_poly(a)


def _seeded_components():
    # (seed, vertices, arcs) of strong components like those of the spectrum
    # benchmark: 16-128 vertices, about 1.3, 2 or 4 arcs per vertex, plus the
    # default dense 40-vertex SCCs; the large density-4 ones are refused
    rng = random.Random(2024)
    for seed in range(8):
        for density in (1.3, 2.0, 4.0):
            n = rng.randint(16, 128)
            yield seed, n, round(density * n)
    for seed in range(10):
        yield seed, 40, 510


@pytest.mark.parametrize("seed, n, n_arcs", list(_seeded_components()))
def test_char_poly_bit_identical_to_step_by_step_recursion(seed, n, n_arcs):
    a = adjacency_matrix(dense_scc(seed, n, n_arcs))
    try:
        expected = float_trace_recursion(a)
    except OverflowError as exc:
        with pytest.raises(RootFindingError) as refused:
            char_poly(a)
        assert str(refused.value) == str(exc)
        return
    got = char_poly(a).coeffs
    assert np.array(got).tobytes() == np.array(expected).tobytes()


def test_char_poly_seeded_components_cover_both_precisions_and_a_refusal():
    # the bit-identity test above must meet a recursion that stays in
    # float32, one that goes over to float64 and finishes, and a refusal
    kinds = set()
    for seed, n, n_arcs in _seeded_components():
        a = adjacency_matrix(dense_scc(seed, n, n_arcs))
        try:
            float_trace_recursion(a)
        except OverflowError:
            kinds.add("refused")
            continue
        kinds.add("float32" if largest_single_precision_bound(a) <= 2.0**24 else "float64")
    assert kinds == {"float32", "float64", "refused"}


@pytest.mark.parametrize(
    "matrix, expected",
    [
        # step 2 reaches r * max|M_1| = 4096 * 4096 = 2^24 exactly
        ([[0, 4096], [4096, 0]], (-(2.0**24), -0.0, 1.0)),
        # r * max|M_1| = 4097^2 > 2^24 is odd, so float32 would round it
        ([[0, 4097], [4097, 0]], (-16785409.0, -0.0, 1.0)),
        # step 2 keeps the product within 2^24 (r * max|M_1| = 16685025),
        # but its diagonal update reaches 30309570, which float32 would round
        (
            [[-2394, 1453, -2186], [2605, 1781, 2019], [-2449, 1736, 0]],
            (18213784361.0, -16907277.0, 613.0, 1.0),
        ),
    ],
)
def test_char_poly_exact_at_the_single_precision_limit(matrix, expected):
    a = np.array(matrix, dtype=np.float64)
    assert float_trace_recursion(a) == expected
    assert np.array(char_poly(a).coeffs).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize(
    "matrix, row_sum",
    [
        ([[0.1, 0.3], [0.3, 0.1]], "0.4"),
        ([[0.1, 0.3, 0.0], [0.0, 0.1, 0.3], [0.3, 0.0, 0.1]], "0.4"),
        # nan > 2^53 is False, so the 2^53 refusal alone would let a NaN through
        ([[math.nan]], "nan"),
        ([[0.0, math.inf], [1.0, 0.0]], "inf"),
    ],
)
def test_char_poly_refuses_a_matrix_that_is_not_finite_and_integer_valued(matrix, row_sum):
    # the 2^53 certificate holds for integer entries only
    refusal = f"^matrix must be integer-valued with a finite absolute row sum, got row sum {row_sum}$"
    with pytest.raises(ValueError, match=refusal):
        char_poly(np.array(matrix))


def test_char_poly_refuses_an_overflowing_row_sum_without_a_warning():
    # every entry is a finite integer, but |1e308| + |1e308| is no double:
    # the row sum reaches inf, with no overflow warning, and the refusal fires
    refusal = "^matrix must be integer-valued with a finite absolute row sum, got row sum inf$"
    with pytest.raises(ValueError, match=refusal):
        char_poly(np.array([[1e308, 1e308], [0.0, 0.0]]))


def test_char_poly_rejects_non_square():
    with pytest.raises(ValueError):
        char_poly(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        char_poly(np.zeros((513, 513)))


# --- polynomial roots ------------------------------------------------------

def test_poly_roots_quartic():
    spec = poly_roots(Polynomial((-1.0, 0.0, 0.0, 0.0, 1.0)))
    match_multisets(spec, [1, -1, 1j, -1j], 1e-10)


def test_poly_roots_quadratic_and_cubic():
    spec = poly_roots(Polynomial((1.0, 0.0, 1.0)))
    match_multisets(spec, [1j, -1j], 1e-12)
    spec = poly_roots(Polynomial((1.0, 0.0, 0.0, 1.0)))
    match_multisets(spec, [-1, 0.5 + math.sqrt(3) / 2 * 1j, 0.5 - math.sqrt(3) / 2 * 1j], 1e-10)


def test_poly_roots_pure_power():
    spec = poly_roots(Polynomial((0.0,) * 6 + (1.0,)))
    assert spec == (0j,) * 6
    # -0.0 is exactly zero too, as char_poly returns it for a nilpotent matrix
    assert poly_roots(Polynomial((-0.0,) * 3 + (1.0,))) == (0j,) * 3


def test_poly_roots_residual_contract():
    p = Polynomial(tuple(np.random.default_rng(7).normal(size=12)) + (1.0,))
    spec = poly_roots(p)
    for z in spec:
        assert abs(np.polyval(p.coeffs[::-1], z)) <= 1e-10 * (1.0 + abs(z)) ** p.degree


def test_residual_contract_refuses_perturbed_roots_of_unity(monkeypatch):
    # the roots of x^50 - 1 scaled by 1 + 1e-6 leave residuals of 5e-5; the
    # earlier bound 1e-10 * (1 + |z|)^50 = 1.1e5 accepted them
    roots = np.exp(2j * np.pi * np.arange(50) / 50) * (1.0 + 1e-6)
    monkeypatch.setattr(spectra, "_aberth", lambda coeffs: (roots, 5, True))
    with pytest.raises(RootFindingError, match="root iteration stalled") as exc:
        poly_roots(Polynomial((-1.0,) + (0.0,) * 49 + (1.0,)))
    assert max(exc.value.residuals) == pytest.approx(5e-5, rel=1e-3)


def test_poly_roots_refuses_non_finite_root(monkeypatch):
    # (x - 1)(x + 1)(x - 2) with its root 2 returned as NaN: the two finite
    # roots are exact, and the NaN residual is not above its NaN bound
    roots = np.array([1.0, -1.0, np.nan], dtype=np.complex128)
    monkeypatch.setattr(spectra, "_aberth", lambda coeffs: (roots, 3, True))
    with pytest.raises(RootFindingError, match=r"non-finite residual: \|p\(nan") as exc:
        poly_roots(Polynomial((2.0, -1.0, -2.0, 1.0)))
    assert exc.value.iterations == 3
    assert len(exc.value.residuals) == 3


def test_poly_roots_requires_monic_and_degree():
    with pytest.raises(ValueError):
        poly_roots(Polynomial((1.0, 2.0)))
    with pytest.raises(ValueError):
        poly_roots(Polynomial((1.0,)))


@pytest.mark.parametrize("coeffs", [(1.0, math.nan), (1.0, 0.0, math.nan)])
def test_poly_roots_refuses_a_nan_leading_coefficient_as_not_monic(coeffs):
    # |nan - 1| > 1e-9 is false, so the test must be written to fail on NaN
    with pytest.raises(ValueError, match="polynomial must be monic, leading coefficient nan"):
        poly_roots(Polynomial(coeffs))


def test_poly_roots_refuses_a_degree_above_the_matrix_cap(monkeypatch):
    # the refusal comes before a power table is built or a step is taken
    def never(*args):
        raise AssertionError("root iteration started")

    p = Polynomial((-1.0,) + (0.0,) * spectra.MAX_DIMENSION + (1.0,))
    with monkeypatch.context() as patched:
        patched.setattr(spectra, "_evaluate", never)
        patched.setattr(spectra, "_aberth", never)
        with pytest.raises(ValueError, match="degree 513 exceeds supported maximum 512"):
            poly_roots(p)
    # degree 512 is still rooted
    spec = poly_roots(Polynomial((-1.0,) + (0.0,) * (spectra.MAX_DIMENSION - 1) + (1.0,)))
    match_multisets(spec, analytic_cycle_roots(spectra.MAX_DIMENSION, 1), 1e-10)


@pytest.mark.parametrize("coeffs", [(1.0, 0.0, 2e12, 0.0, 1.0), (5.0, 0.0, 0.0, 1e13, 0.0, 1.0)])
def test_poly_roots_takes_only_exact_zeros_for_roots_at_zero(coeffs):
    # the constant terms 1 and 5 lie below 1e-12 * max|c|; a relative zero
    # test took them for roots at zero, and the residual contract refused
    # |p(0)| = 1 and 5
    spec = poly_roots(Polynomial(coeffs))
    expected = np.roots(coeffs[::-1])
    assert len(spec) == len(expected)
    nearest = [min(range(len(spec)), key=lambda i: abs(spec[i] - w)) for w in expected]
    assert len(set(nearest)) == len(spec)
    for i, w in zip(nearest, expected):
        assert abs(spec[i] - w) <= 1e-9 * abs(w)


def test_poly_roots_reports_failure_with_diagnostics(monkeypatch):
    monkeypatch.setattr(spectra, "MAX_ITERATIONS", 1)
    with pytest.raises(RootFindingError) as exc:
        poly_roots(Polynomial((-1.0,) + (0.0,) * 49 + (1.0,)))
    assert len(exc.value.roots) == 50
    assert len(exc.value.residuals) == 50
    assert exc.value.iterations == 1


COLLINEAR_HULL_POLY = (1, 1, -9, 17, -26, 16, -15, -3, -12, 3, -8, -1, 2, -1, 2, 0, 1)


def test_newton_polygon_merges_collinear_hull_points():
    # (10, log 8), (14, log 2) and (16, 0) lie on one line; as two edges of
    # radius sqrt(2) they started points 11 and 14, 13 and 15 together
    starts = spectra._newton_polygon_start(np.abs(np.array(COLLINEAR_HULL_POLY, dtype=np.float64)))
    assert len(np.unique(starts)) == 16
    assert np.count_nonzero(np.isclose(np.abs(starts), math.sqrt(2.0))) == 6


def test_poly_roots_of_collinear_hull_polynomial_match_lapack():
    # coinciding starts converged in pairs onto one root: 0.0978+0.8444i
    # three times, and -1.4366, 1.4188 and -0.9268+0.7462i missing
    spec = poly_roots(Polynomial(COLLINEAR_HULL_POLY))
    match_multisets(spec, np.roots(COLLINEAR_HULL_POLY[::-1]), 1e-6)
    assert char_poly(adjacency_matrix(collinear_hull_scc())).coeffs == COLLINEAR_HULL_POLY


@pytest.mark.parametrize(
    "first, message",
    [
        # 1j, -1 and the NaN freeze at the first step and are refused there,
        # before any division by z_i - z_j or by p'
        (1j, "two root approximations coincide after 0 iterations"),
        (np.nan, "a root approximation is not finite after 0 iterations"),
    ],
)
def test_aberth_refuses_coinciding_or_non_finite_approximations(monkeypatch, first, message):
    # two equal approximations would move alike and end on one root; their
    # sums used to be zeroed, with a RuntimeWarning as the only sign
    starts = np.array([first, 1j, -1.0, 0.5], dtype=np.complex128)
    monkeypatch.setattr(spectra, "_newton_polygon_start", lambda abs_c: starts)
    with pytest.raises(RootFindingError, match=message) as exc:
        poly_roots(Polynomial((-1.0, 0.0, 0.0, 0.0, 1.0)))
    assert len(exc.value.roots) == 4
    assert exc.value.residuals == ()
    assert exc.value.iterations == 0


@pytest.mark.parametrize(
    "starts, message",
    [
        # every approximation is a root of x^4 - 1, so all freeze at once and
        # no sums are formed; the root +1 was lost without a refusal
        pytest.param([1j, 1j, -1.0, -1j], "two root approximations coincide after 0 iterations", id="frozen"),
        pytest.param([np.nan, 1j, -1.0, -1j], "a root approximation is not finite after 0 iterations", id="nan-frozen"),
        # no approximation is a root, so the pair shows in the sums, with a
        # RuntimeWarning of the division by zero before the refusal
        pytest.param(
            [0.5, 0.5, 2.0, 3j],
            "two root approximations coincide after 0 iterations",
            id="moving",
            marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"),
        ),
    ],
)
def test_aberth_refuses_coinciding_approximations_frozen_or_moving(monkeypatch, starts, message):
    monkeypatch.setattr(spectra, "_newton_polygon_start", lambda abs_c: np.array(starts, dtype=np.complex128))
    with pytest.raises(RootFindingError, match=message) as exc:
        poly_roots(Polynomial((-1.0, 0.0, 0.0, 0.0, 1.0)))
    assert len(exc.value.roots) == 4
    assert exc.value.residuals == ()
    assert exc.value.iterations == 0


@pytest.mark.parametrize("degree", [128, 200])
@pytest.mark.parametrize("sign", [1, -1])
def test_newton_polygon_start_converges_in_few_iterations(monkeypatch, degree, sign):
    # every root of x^d - sign lies on the unit circle, the one circle of the
    # Newton polygon; a ring at the Cauchy radius 2 needed 40-74 iterations
    p = Polynomial((-float(sign),) + (0.0,) * (degree - 1) + (1.0,))
    monkeypatch.setattr(spectra, "MAX_ITERATIONS", 10)
    spec = poly_roots(p)
    match_multisets(spec, analytic_cycle_roots(degree, sign), 1e-10)


def test_poly_roots_refuses_iteration_cap_above_noise_floor(monkeypatch):
    # roots two steps from the start are refused by the convergence rule
    monkeypatch.setattr(spectra, "MAX_ITERATIONS", 2)
    with pytest.raises(RootFindingError, match="above the noise floor") as exc:
        poly_roots(Polynomial((1.0,) + (0.0,) * 199 + (1.0,)))
    assert exc.value.iterations == 2
    assert len(exc.value.roots) == len(exc.value.residuals) == 200
    assert max(exc.value.residuals) > 1e-6


@st.composite
def polynomials_and_points(draw):
    # integer coefficients sized so that sum |c_k| |z|^k stays finite up to
    # the Cauchy bound; lengths 1, 2, a square and a prime come up explicitly
    length = draw(st.one_of(st.sampled_from([1, 2, 3, 100, 289, 293, 301]), st.integers(1, 301)))
    degree = length - 1
    limit = min(2**40, int(10 ** (250 / max(degree, 1))) - 1)
    coeffs = draw(st.lists(st.integers(-limit, limit), min_size=length, max_size=length))
    coeffs[-1] = draw(st.integers(1, limit)) * draw(st.sampled_from((1, -1)))
    cauchy = 1.0 + max((abs(c) for c in coeffs[:-1]), default=0) / abs(coeffs[-1])
    radius = draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, cauchy)))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    return coeffs, cmath.rect(radius, angle)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(polynomials_and_points())
def test_evaluation_within_noise_floor(case):
    coeffs, z = case
    degree = len(coeffs) - 1
    value = spectra._evaluate(np.array(coeffs, dtype=np.complex128), np.array([z]))[0][0]
    re, im = exact_poly_value(coeffs, z)
    error_squared = (Fraction(value.real) - re) ** 2 + (Fraction(value.imag) - im) ** 2
    floor = 4.0 * degree * np.finfo(np.float64).eps * math.fsum(abs(c) * abs(z) ** k for k, c in enumerate(coeffs))
    assert error_squared <= Fraction(floor) ** 2


@pytest.mark.parametrize("n", list(range(2, 33)) + [40, 48, 50, 64])
@pytest.mark.parametrize("sign", [1, -1])
def test_roots_of_cycle_char_poly_sweep(n, sign):
    spec = poly_roots(char_poly(adjacency_matrix(make_cycle(n, sign))))
    match_multisets(spec, analytic_cycle_roots(n, sign), 1e-8)


def test_spectrum_closed_under_conjugation():
    g = join_with_arc(make_cycle(3, -1), make_cycle(4, -1), 0, 0, 1)
    spec = eigenvalues(g)
    conjugated = [z.conjugate() for z in spec]
    match_multisets(spec, conjugated, 1e-8)


# --- eigenvalues -----------------------------------------------------------

def test_eigenvalues_fast_path_values():
    match_multisets(eigenvalues(make_cycle(2, -1)), [1j, -1j], 1e-12)
    expected = [cmath.rect(1.0, a) for a in (math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4)]
    match_multisets(eigenvalues(make_cycle(4, -1)), expected, 1e-12)


@pytest.mark.parametrize("n", range(2, 21))
@pytest.mark.parametrize("sign", [1, -1])
def test_fast_path_agrees_with_numeric_route(n, sign):
    g = make_cycle(n, sign)
    fast = eigenvalues(g)
    numeric = poly_roots(char_poly(adjacency_matrix(g)))
    match_multisets(fast, numeric, 1e-8)


def test_eigenvalues_refuses_large_non_cycle_component_before_its_matrix(monkeypatch):
    def refuse(g):
        raise AssertionError("built the matrix of a component it must refuse")

    monkeypatch.setattr(spectra, "adjacency_matrix", refuse)
    g = SignedDigraph(513, make_cycle(513, -1).arcs + ((0, 2, 1),))
    with pytest.raises(RootFindingError, match="maximum 512") as exc:
        eigenvalues(g)
    assert (exc.value.roots, exc.value.residuals, exc.value.iterations) == ((), (), 0)
    # a cycle of the same size takes the analytic branch
    assert len(eigenvalues(make_cycle(513, -1))) == 513


def test_eigenvalues_joined_graph():
    g = join_with_arc(make_cycle(2, 1), make_cycle(4, -1), 0, 0, 1)
    expected = analytic_cycle_roots(2, 1) + analytic_cycle_roots(4, -1)
    match_multisets(eigenvalues(g), expected, 1e-8)


def test_spectra_are_tuples_of_complex():
    # a 4-cycle, a 3-vertex path in both directions (the numeric route) and
    # two singletons; roots by deflation, the linear branch and Aberth
    two_way_path = SignedDigraph(3, ((0, 1, 1), (1, 0, 1), (1, 2, -1), (2, 1, 1)))
    g = join_with_arc(join_with_arc(make_cycle(4, -1), two_way_path, 0, 0, 1), make_path(2), 4, 0, 1)
    spectra_ = [
        eigenvalues(g),
        cycle_eigenvalues(5, -1),
        poly_roots(Polynomial((0.0, 0.0, 1.0))),
        poly_roots(Polynomial((2.0, 1.0))),
        poly_roots(Polynomial((0.0, -1.0, 0.0, 1.0))),
    ]
    for spectrum in spectra_:
        assert type(spectrum) is tuple
        assert {type(z) for z in spectrum} == {complex}
    assert len(spectra_[0]) == 9


def test_root_finding_error_diagnostics_default_to_empty():
    error = RootFindingError("m")
    assert (str(error), error.roots, error.residuals, error.iterations) == ("m", (), (), 0)


# --- energy functionals ----------------------------------------------------

def test_energy_values():
    assert energy((1j, -1j)) == 0.0
    assert energy(eigenvalues(make_cycle(4, 1))) == pytest.approx(2.0, abs=1e-12)
    assert energy(eigenvalues(make_cycle(5, 1))) == pytest.approx(
        1.0 / math.sin(math.pi / 10), abs=1e-10
    )


def test_iota_energy_values():
    assert iota_energy((1.0 + 0j, -1.0 + 0j)) == 0.0
    assert iota_energy(eigenvalues(make_cycle(2, -1))) == pytest.approx(2.0, abs=1e-12)
    assert iota_energy(eigenvalues(make_cycle(4, -1))) == pytest.approx(
        2.0 * math.sqrt(2.0), abs=1e-10
    )


def test_energy_invariance_under_permutation_and_conjugation():
    values = eigenvalues(make_cycle(7, -1))
    reversed_spec = tuple(reversed(values))
    conjugated = tuple(z.conjugate() for z in values)
    assert energy(reversed_spec) == energy(values)
    assert iota_energy(reversed_spec) == iota_energy(values)
    assert energy(conjugated) == energy(values)
    assert iota_energy(conjugated) == iota_energy(values)


def test_iota_energy_of_graph_path_and_joined():
    assert iota_energy_of_graph(make_path(7)) == 0.0
    g = join_with_arc(make_cycle(2, 1), make_cycle(4, -1), 0, 0, 1)
    assert iota_energy_of_graph(g) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-10)


@pytest.mark.parametrize("r1", range(2, 21, 2))
@pytest.mark.parametrize("r2", range(2, 21, 2))
def test_iota_additivity_over_join(r1, r2):
    for s1, s2 in ((1, 1), (-1, -1), (1, -1)):
        g1, g2 = make_cycle(r1, s1), make_cycle(r2, s2)
        joined = join_with_arc(g1, g2, 0, 0, 1)
        total = iota_energy_of_graph(g1) + iota_energy_of_graph(g2)
        assert abs(iota_energy_of_graph(joined) - total) <= 1e-8


def test_numeric_pipeline_at_large_dimension():
    g = make_cycle(128, -1)
    spec = poly_roots(char_poly(adjacency_matrix(g)))
    match_multisets(spec, analytic_cycle_roots(128, -1), 1e-10)


def test_pure_functions_are_thread_safe():
    from concurrent.futures import ThreadPoolExecutor

    def job(n):
        return iota_energy(poly_roots(char_poly(adjacency_matrix(make_cycle(n, -1)))))

    ns = list(range(2, 30)) * 4
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(job, ns))
    assert parallel == [job(n) for n in ns]


def test_repeated_roots_conditioning_and_component_route():
    # identical cycles double every root of the whole-matrix polynomial;
    # simultaneous iteration then resolves them only to ~sqrt(eps), which the
    # residual contract allows, while the component route stays analytic
    g = join_with_arc(make_cycle(4, 1), make_cycle(4, 1), 0, 0, 1)
    spec = eigenvalues(g)
    doubled = [1, 1, -1, -1, 1j, 1j, -1j, -1j]
    match_multisets(spec, doubled, 1e-6)
    assert iota_energy_of_graph(g) == pytest.approx(4.0, abs=1e-10)


def test_cycle_eigenvalues_match_sign_convention():
    for n in range(2, 12):
        for sign in (1, -1):
            spec = cycle_eigenvalues(n, sign)
            assert len(spec) == n
            for z in spec:
                assert abs(z**n - sign) < 1e-10


def test_cycle_eigenvalues_batch_match_cmath_rect_bit_for_bit():
    lengths = [n for n in range(2, 1001) for _ in (1, -1)]
    signs = [sign for _ in range(2, 1001) for sign in (1, -1)]
    z = spectra.cycle_eigenvalues_batch(lengths, signs)
    expected = np.array([w for n, sign in zip(lengths, signs) for w in reference_cycle_eigenvalues(n, sign)])
    assert len(z) == 1001 * 1000 - 2
    assert np.array_equal(z, expected)
    # signed zeros too
    assert np.array_equal(z.view(np.int64), expected.view(np.int64))
    for n, sign in ((2, 1), (5, -1), (64, 1), (999, -1)):
        assert cycle_eigenvalues(n, sign) == reference_cycle_eigenvalues(n, sign)


def test_cycle_eigenvalues_batch_refuses_bad_cycles():
    with pytest.raises(ValueError, match=r"^sign must be \+1 or -1, got 0$"):
        cycle_eigenvalues(3, 0)
    # a length is not truncated: 2.5 is no cycle, not C_2
    with pytest.raises(ValueError, match=r"^cycle length must be an integer, got 2.5$"):
        cycle_eigenvalues(2.5, 1)
    with pytest.raises(ValueError, match=r"^cycle length must be an integer, got 4.0$"):
        spectra.cycle_eigenvalues_batch((3, 4.0), (1, -1))
    with pytest.raises(ValueError, match=r"^cycle length must be >= 2, got 0$"):
        spectra.cycle_eigenvalues_batch((4, 0), (1, 1))
    # a single vertex is no cycle: x - 1 is not its characteristic polynomial
    with pytest.raises(ValueError, match=r"^cycle length must be >= 2, got 1$"):
        cycle_eigenvalues(1, 1)
    with pytest.raises(ValueError, match=r"^need one sign per cycle, got 2 lengths and 1 signs$"):
        spectra.cycle_eigenvalues_batch((4, 5), (1,))
    assert len(spectra.cycle_eigenvalues_batch((), ())) == 0


# --- inclusion discs for the roots of x^n - sign ----------------------------

def one_cycle_radii(n, sign, approximations):
    """The radii cycle_root_radii_batch proves for one cycle, or its refusal raised."""
    radii, (refusal,) = spectra.cycle_root_radii_batch((n,), (sign,), approximations)
    if refusal is not None:
        raise refusal
    return radii


def test_cycle_root_discs_isolated_and_tight_up_to_1000():
    # proven in verify's batches, radius for radius those of one cycle at a time
    batches = list(verification._cycle_batches(1000))
    assert len(batches) > 100 and max(map(len, batches)) > 2
    for batch in batches:
        lengths, signs = zip(*batch)
        z = [w for n, sign in batch for w in cycle_eigenvalues(n, sign)]
        radii, refusals = spectra.cycle_root_radii_batch(lengths, signs, z)
        assert refusals == [None] * len(batch)
        start = 0
        for n, sign in batch:
            cycle = radii[start : start + n]
            start += n
            assert np.array_equal(cycle, reference_cycle_root_radii(n, sign, cycle_eigenvalues(n, sign)))
            assert math.fsum(cycle) <= 1e-9, (n, sign)
            # the rounding of z^n is bounded, not ignored, even where it is 0
            assert cycle.min() >= (n - 1) * 2.25 * 2.0**-53
        assert start == len(radii)


def test_cycle_root_discs_of_two_cycles_never_meet(monkeypatch):
    # C4+ and C8+ share the roots +-1 and +-i, and C8+ given twice shares
    # all eight, which within one cycle would be approximations holding the
    # same root; the batch is proven in one pass, not again cycle by cycle
    proofs = []
    prove = spectra._disc_radii

    def counted(lengths, signs, z):
        proofs.append(tuple(lengths))
        return prove(lengths, signs, z)

    monkeypatch.setattr(spectra, "_disc_radii", counted)
    c4, c8 = cycle_eigenvalues(4, 1), cycle_eigenvalues(8, 1)
    radii, refusals = spectra.cycle_root_radii_batch((4, 8, 8), (1, 1, 1), c4 + c8 + c8)
    assert refusals == [None, None, None]
    assert proofs == [(4, 8, 8)]
    assert np.array_equal(radii[:4], reference_cycle_root_radii(4, 1, c4))
    assert np.array_equal(radii[4:12], reference_cycle_root_radii(8, 1, c8))
    assert np.array_equal(radii[12:], radii[4:12])


@pytest.mark.parametrize("n", [3, 64, 997])
@pytest.mark.parametrize("sign", [1, -1])
def test_cycle_root_bound_holds_against_50_digit_roots(n, sign):
    mpmath = pytest.importorskip("mpmath")
    approximations = cycle_eigenvalues(n, sign)
    bound = math.fsum(one_cycle_radii(n, sign, approximations))
    with mpmath.workdps(50):
        offset = 0 if sign == 1 else 1
        roots = [mpmath.expjpi(mpmath.mpf(2 * k + offset) / n) for k in range(n)]
        exact_energy = mpmath.fsum(abs(mpmath.re(w)) for w in roots)
        exact_iota = mpmath.fsum(abs(mpmath.im(w)) for w in roots)
        for got, exact in ((energy(approximations), exact_energy), (iota_energy(approximations), exact_iota)):
            assert abs(mpmath.mpf(got) - exact) <= bound + math.ulp(got)


@pytest.mark.parametrize("n", [3, 64, 997])
@pytest.mark.parametrize("sign", [1, -1])
def test_cycle_sum_bound_holds_against_50_digit_roots(n, sign):
    # verify's reduceat sums of a cycle lie within its bound of the energies
    # of the exact roots; with no radii, the bound still covers the rounding
    # of the sums against the exact sums of the approximations
    mpmath = pytest.importorskip("mpmath")
    z = spectra.cycle_eigenvalues_batch((n,), (sign,))
    lengths = np.array([n])
    (energy_sum,), (iota_sum,), (bound,) = verification._cycle_sums(lengths, z, one_cycle_radii(n, sign, z))
    *_, (rounding,) = verification._cycle_sums(lengths, z, np.zeros(n))
    assert 0.0 < rounding < bound <= 1e-9
    with mpmath.workdps(50):
        offset = 0 if sign == 1 else 1
        roots = [mpmath.expjpi(mpmath.mpf(2 * k + offset) / n) for k in range(n)]
        for part, got in ((mpmath.re, energy_sum), (mpmath.im, iota_sum)):
            exact = mpmath.fsum(abs(part(w)) for w in roots)
            assert abs(mpmath.mpf(float(got)) - exact) <= bound
            summed = mpmath.fsum(abs(part(complex(w))) for w in z)
            assert abs(mpmath.mpf(float(got)) - summed) <= rounding


def test_cycle_root_discs_hold_the_roots_of_perturbed_approximations():
    # scaled by 1.001 the approximations are poor, but each disc still holds its root
    n, sign = 5, 1
    scaled = [z * 1.001 for z in cycle_eigenvalues(n, sign)]
    radii = one_cycle_radii(n, sign, scaled)
    for z, radius, root in zip(scaled, radii, cycle_eigenvalues(n, sign)):
        assert 0.0009 < abs(z - root) <= radius < 1 / (4 * n)
        assert radius == pytest.approx(abs(z**n - sign) / abs(z) ** (n - 1), rel=1e-12)


ISOLATION = "root discs not isolated: approximations "


def _refusal_in_a_batch(n, sign, approximations):
    """The refusal of a cycle proven in one batch between C6- and C9+;
    checks that they are proven as alone, that the reference refuses the
    cycle too, and that the refusal is the reference's, with the cycle's
    approximations as its roots.  The reference isolates the discs by
    cells, not by the roots they hold, so an isolation refusal names its
    pair in its own words."""
    before, after = cycle_eigenvalues(6, -1), cycle_eigenvalues(9, 1)
    radii, refusals = spectra.cycle_root_radii_batch(
        (6, n, 9), (-1, sign, 1), before + tuple(approximations) + after
    )
    assert refusals[0] is None and refusals[2] is None
    assert np.array_equal(radii[:6], reference_cycle_root_radii(6, -1, before))
    assert np.array_equal(radii[6 + n :], reference_cycle_root_radii(9, 1, after))
    assert np.isnan(radii[6 : 6 + n]).all()
    refusal = refusals[1]
    assert isinstance(refusal, RootFindingError)
    assert np.array_equal(refusal.roots, np.asarray(approximations, dtype=complex), equal_nan=True)
    with pytest.raises(RootFindingError) as reference:
        reference_cycle_root_radii(n, sign, approximations)
    if str(reference.value).startswith(ISOLATION):
        assert str(refusal).startswith(ISOLATION)
    else:
        assert str(refusal) == str(reference.value)
    return refusal


def test_cycle_root_discs_refuse_coinciding_approximations():
    approximations = list(cycle_eigenvalues(7, 1))
    approximations[3] = approximations[2]
    refusal = r"^root discs not isolated: approximations 2 and 3 both hold root 2 of x\^7 - 1$"
    with pytest.raises(RootFindingError, match=refusal) as caught:
        one_cycle_radii(7, 1, approximations)
    assert caught.value.roots == tuple(approximations)
    assert str(_refusal_in_a_batch(7, 1, approximations)) == str(caught.value)


def test_cycle_root_discs_refuse_neighbours_across_a_cell_edge():
    # 1 lies on an edge of the reference's cells of side 1/7; one ulp below
    # it is across, in a neighbouring cell, and its disc holds the root 1
    approximations = list(cycle_eigenvalues(7, 1))
    approximations[3] = complex(1.0 - 2.0**-53, 0.0)
    refusal = r"^root discs not isolated: approximations 0 and 3 both hold root 0 of x\^7 - 1$"
    with pytest.raises(RootFindingError, match=refusal) as caught:
        one_cycle_radii(7, 1, approximations)
    assert str(_refusal_in_a_batch(7, 1, approximations)) == str(caught.value)


@pytest.mark.parametrize(
    "bad, message",
    [
        (complex("nan"), "root approximation 4 = \\(nan\\+0j\\) is not finite"),
        (complex("inf"), "root approximation 4 = \\(inf\\+0j\\) is not finite"),
        (complex(1e300, 1e300), "is not finite or lies off the unit circle"),
        (1.5, "root approximation 4 = \\(1.5\\+0j\\) lies off the unit circle"),
        (0.97, "root disc 4 has radius [0-9.]+, not below 1/\\(4n\\) = 0.025"),
    ],
)
def test_cycle_root_discs_refuse_bad_approximations(bad, message):
    approximations = list(cycle_eigenvalues(10, -1))
    approximations[4] = bad
    with pytest.raises(RootFindingError, match=message) as caught:
        one_cycle_radii(10, -1, approximations)
    assert str(_refusal_in_a_batch(10, -1, approximations)) == str(caught.value)


def test_cycle_root_discs_refuse_only_the_cycle_that_fails():
    # scaled by 1.01 the discs of C10- are wider than 1/(4n); the batch
    # refuses that cycle alone, with the detail of the one-cycle call
    scaled = [w * 1.01 for w in cycle_eigenvalues(10, -1)]
    refusal = _refusal_in_a_batch(10, -1, scaled)
    with pytest.raises(RootFindingError) as alone:
        one_cycle_radii(10, -1, scaled)
    assert str(refusal) == str(alone.value)
    assert str(refusal).startswith("root disc ")


def test_cycle_root_discs_refuse_near_duplicates_as_the_reference():
    # an approximation moved onto 1, -1, i or -i, or one ulp off it, shares a
    # cell or lies in a neighbouring cell with the root there; the proof
    # refuses exactly the inputs the reference refuses, and names the first
    # approximation whose nearest root an earlier one is nearest to
    rng = random.Random(11)
    causes = set()
    for _ in range(300):
        n = 4 * rng.randint(1, 12)
        approximations = list(cycle_eigenvalues(n, 1))
        for _ in range(rng.randint(1, 4)):
            edge = complex(rng.choice((1, -1, 1j, -1j)))
            x, y = (v if rng.random() < 0.5 else math.nextafter(v, rng.choice((-2, 2))) for v in (edge.real, edge.imag))
            approximations[rng.randrange(n)] = complex(x, y)
        try:
            expected = reference_cycle_root_radii(n, 1, approximations)
        except RootFindingError as reference:
            refusal = _refusal_in_a_batch(n, 1, approximations)
            with pytest.raises(RootFindingError, match=re.escape(str(refusal))):
                one_cycle_radii(n, 1, approximations)
            roots = cycle_eigenvalues(n, 1)
            nearest = [min(range(n), key=lambda k: abs(z - roots[k])) for z in approximations]
            j = next(j for j in range(n) if nearest[j] in nearest[:j])
            i = nearest.index(nearest[j])
            assert str(refusal) == f"{ISOLATION}{i} and {j} both hold root {nearest[j]} of x^{n} - 1"
            causes.add("share a cell" if "share a cell" in str(reference) else "neighbouring")
        else:
            assert np.array_equal(one_cycle_radii(n, 1, approximations), expected)
            causes.add("proven")
    assert causes == {"share a cell", "neighbouring", "proven"}


def test_cycle_root_discs_need_one_approximation_per_root():
    with pytest.raises(ValueError, match="need the 4 approximations"):
        one_cycle_radii(4, 1, cycle_eigenvalues(3, 1))
    with pytest.raises(ValueError, match="need the 7 approximations"):
        spectra.cycle_root_radii_batch((3, 4), (1, 1), cycle_eigenvalues(3, 1))
    with pytest.raises(ValueError, match="need one sign per cycle"):
        spectra.cycle_root_radii_batch((3, 4), (1,), cycle_eigenvalues(7, 1))
    with pytest.raises(ValueError, match=r"^cycle length must be >= 2, got 1$"):
        one_cycle_radii(1, 1, [1.0])
    with pytest.raises(ValueError, match=r"^sign must be \+1 or -1, got 0$"):
        one_cycle_radii(3, 0, cycle_eigenvalues(3, 1))


# --- one route: strong components, guarded numeric branch -------------------

@st.composite
def signed_digraphs(draw, max_vertices=8):
    n = draw(st.integers(1, max_vertices))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return SignedDigraph(n, tuple((i, j, draw(st.sampled_from((1, -1)))) for i, j in chosen))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(signed_digraphs())
def test_eigenvalues_reproduce_cofactor_char_poly(g):
    expected = cofactor_char_poly(adjacency_matrix(g).tolist())
    got = np.poly(eigenvalues(g))[::-1]
    assert np.max(np.abs(got - expected)) <= 1e-6 * (1.0 + max(abs(c) for c in expected))


@pytest.mark.parametrize("seed", range(10))
def test_chained_blocks_match_per_block_lapack(seed):
    # the whole-matrix polynomial of three 24-vertex blocks was out of reach
    # of the float trace recursion; per component every block is
    g, blocks = chained_blocks(seed)
    a = adjacency_matrix(g).astype(np.float64)
    expected = np.concatenate([np.linalg.eigvals(a[np.ix_(b, b)]) for b in blocks])
    match_multisets(eigenvalues(g), expected, 1e-6)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed", [1, 4])
def test_dense_component_raises_instead_of_garbage(seed):
    # the trace recursion of these two passes 2^53, so char_poly refuses
    g = dense_scc(seed)
    with pytest.raises(RootFindingError, match="not exact in double precision"):
        eigenvalues(g)
    with pytest.raises(RootFindingError, match="not exact in double precision"):
        iota_energy_of_graph(g)


@pytest.mark.parametrize("seed", [0, 2])
def test_dense_component_matches_lapack(seed):
    # refused while the residual bound was 1e-10 * (1 + |z|)^degree: these
    # converged roots of a polynomial with 43- and 45-bit coefficients broke it
    g = dense_scc(seed)
    expected = np.linalg.eigvals(adjacency_matrix(g).astype(np.float64))
    match_multisets(eigenvalues(g), expected, 1e-6)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed", range(40))
def test_dense_component_refused_or_right(seed):
    # a refusal is allowed; a spectrum that is returned must be right
    g = dense_scc(seed)
    try:
        values = eigenvalues(g)
    except RootFindingError:
        return
    z = np.linalg.eigvals(adjacency_matrix(g).astype(np.float64))
    assert iota_energy(values) == pytest.approx(np.abs(z.imag).sum(), abs=1e-6)
    assert energy(values) == pytest.approx(np.abs(z.real).sum(), abs=1e-6)


def test_sparse_component_above_one_sum_block_matches_lapack():
    # 256 vertices with 1.3 arcs each: every Aberth step evaluates its
    # active roots from one power table of up to 257 x 256 complex doubles
    # and forms their sums from one difference matrix as large
    g = dense_scc(0, 256, round(1.3 * 256))
    assert len(strong_components(g)) == 1
    values = eigenvalues(g)
    z = np.linalg.eigvals(adjacency_matrix(g).astype(np.float64))
    assert iota_energy(values) == pytest.approx(np.abs(z.imag).sum(), abs=1e-6)
    assert energy(values) == pytest.approx(np.abs(z.real).sum(), abs=1e-6)


def test_gershgorin_guard_rejects_root_outside_disc(monkeypatch):
    # no real input reaches this guard once char_poly and poly_roots refuse
    # what they cannot vouch for, so a stand-in root finder feeds it
    g = SignedDigraph(6, tuple((i, j, 1) for i in range(6) for j in range(6) if i != j))
    monkeypatch.setattr(spectra, "poly_roots", lambda p: (6 + 0j,) + (-1 + 0j,) * 5)
    with pytest.raises(RootFindingError, match="Gershgorin"):
        eigenvalues(g)


@pytest.mark.parametrize("sign", [1, -1])
def test_gershgorin_guard_admits_complete_digraph(sign):
    # the spectral radius of K6 equals its largest absolute row sum, 5
    g = SignedDigraph(6, tuple((i, j, sign) for i in range(6) for j in range(6) if i != j))
    values = eigenvalues(g)
    assert max(values, key=abs) == pytest.approx(5.0 * sign, abs=1e-8)
    assert iota_energy(values) == pytest.approx(0.0, abs=1e-2)
