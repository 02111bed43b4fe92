import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidigraph import (
    ComplexSpectrum,
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
    make_path,
    poly_roots,
)
from sidigraph import spectra
from oracles import cofactor_char_poly, match_multisets
from seeded_graphs import chained_blocks, dense_scc


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


@pytest.mark.parametrize("n", range(2, 65))
@pytest.mark.parametrize("sign", [1, -1])
def test_char_poly_cycles_sweep(n, sign):
    p = char_poly(adjacency_matrix(make_cycle(n, sign)))
    expected = np.zeros(n + 1)
    expected[0] = -sign
    expected[n] = 1.0
    assert np.max(np.abs(np.asarray(p.coeffs) - expected)) <= 1e-9


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


def test_char_poly_rejects_non_square():
    with pytest.raises(ValueError):
        char_poly(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        char_poly(np.zeros((513, 513)))


# --- polynomial roots ------------------------------------------------------

def test_poly_roots_quartic():
    spec = poly_roots(Polynomial((-1.0, 0.0, 0.0, 0.0, 1.0)))
    match_multisets(spec.values, [1, -1, 1j, -1j], 1e-10)


def test_poly_roots_quadratic_and_cubic():
    spec = poly_roots(Polynomial((1.0, 0.0, 1.0)))
    match_multisets(spec.values, [1j, -1j], 1e-12)
    spec = poly_roots(Polynomial((1.0, 0.0, 0.0, 1.0)))
    match_multisets(spec.values, [-1, 0.5 + math.sqrt(3) / 2 * 1j, 0.5 - math.sqrt(3) / 2 * 1j], 1e-10)


def test_poly_roots_pure_power():
    spec = poly_roots(Polynomial((0.0,) * 6 + (1.0,)))
    assert spec.values == (0j,) * 6


def test_poly_roots_residual_contract():
    p = Polynomial(tuple(np.random.default_rng(7).normal(size=12)) + (1.0,))
    spec = poly_roots(p)
    for z in spec.values:
        assert abs(p(z)) <= 1e-10 * (1.0 + abs(z)) ** p.degree


def test_poly_roots_requires_monic_and_degree():
    with pytest.raises(ValueError):
        poly_roots(Polynomial((1.0, 2.0)))
    with pytest.raises(ValueError):
        poly_roots(Polynomial((1.0,)))


def test_poly_roots_reports_failure_with_diagnostics():
    with pytest.raises(RootFindingError) as exc:
        poly_roots(Polynomial((-1.0,) + (0.0,) * 49 + (1.0,)), max_iterations=1)
    assert len(exc.value.roots) == 50
    assert len(exc.value.residuals) == 50
    assert exc.value.iterations == 1


@pytest.mark.parametrize("degree", [128, 200])
@pytest.mark.parametrize("sign", [1, -1])
def test_newton_polygon_start_converges_in_few_iterations(degree, sign):
    # every root of x^d - sign lies on the unit circle, the one circle of the
    # Newton polygon; a ring at the Cauchy radius 2 needed 40-74 iterations
    p = Polynomial((-float(sign),) + (0.0,) * (degree - 1) + (1.0,))
    spec = poly_roots(p, max_iterations=10)
    match_multisets(spec.values, analytic_cycle_roots(degree, sign), 1e-10)


def test_poly_roots_refuses_iteration_cap_above_noise_floor():
    # at degree 200 the residual bound 1e-10 * (1 + |z|)^200 is about 1e50,
    # so only the convergence rule can refuse roots two steps from the start
    with pytest.raises(RootFindingError, match="above the noise floor") as exc:
        poly_roots(Polynomial((1.0,) + (0.0,) * 199 + (1.0,)), max_iterations=2)
    assert exc.value.iterations == 2
    assert len(exc.value.roots) == len(exc.value.residuals) == 200
    assert max(exc.value.residuals) > 1e-6


@pytest.mark.parametrize("n", list(range(2, 33)) + [40, 48, 50, 64])
@pytest.mark.parametrize("sign", [1, -1])
def test_roots_of_cycle_char_poly_sweep(n, sign):
    spec = poly_roots(char_poly(adjacency_matrix(make_cycle(n, sign))))
    match_multisets(spec.values, analytic_cycle_roots(n, sign), 1e-8)


def test_spectrum_closed_under_conjugation():
    g = join_with_arc(make_cycle(3, -1), make_cycle(4, -1), 0, 0, 1)
    spec = eigenvalues(g)
    conjugated = [z.conjugate() for z in spec.values]
    match_multisets(spec.values, conjugated, 1e-8)


# --- eigenvalues -----------------------------------------------------------

def test_eigenvalues_fast_path_values():
    match_multisets(eigenvalues(make_cycle(2, -1)).values, [1j, -1j], 1e-12)
    expected = [cmath.rect(1.0, a) for a in (math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4)]
    match_multisets(eigenvalues(make_cycle(4, -1)).values, expected, 1e-12)


@pytest.mark.parametrize("n", range(2, 21))
@pytest.mark.parametrize("sign", [1, -1])
def test_fast_path_agrees_with_numeric_route(n, sign):
    g = make_cycle(n, sign)
    fast = eigenvalues(g)
    numeric = poly_roots(char_poly(adjacency_matrix(g)))
    match_multisets(fast.values, numeric.values, 1e-8)


def test_eigenvalues_joined_graph():
    g = join_with_arc(make_cycle(2, 1), make_cycle(4, -1), 0, 0, 1)
    expected = analytic_cycle_roots(2, 1) + analytic_cycle_roots(4, -1)
    match_multisets(eigenvalues(g).values, expected, 1e-8)


# --- energy functionals ----------------------------------------------------

def test_energy_values():
    assert energy(ComplexSpectrum((1j, -1j))) == 0.0
    assert energy(eigenvalues(make_cycle(4, 1))) == pytest.approx(2.0, abs=1e-12)
    assert energy(eigenvalues(make_cycle(5, 1))) == pytest.approx(
        1.0 / math.sin(math.pi / 10), abs=1e-10
    )


def test_iota_energy_values():
    assert iota_energy(ComplexSpectrum((1.0 + 0j, -1.0 + 0j))) == 0.0
    assert iota_energy(eigenvalues(make_cycle(2, -1))) == pytest.approx(2.0, abs=1e-12)
    assert iota_energy(eigenvalues(make_cycle(4, -1))) == pytest.approx(
        2.0 * math.sqrt(2.0), abs=1e-10
    )


def test_energy_invariance_under_permutation_and_conjugation():
    values = eigenvalues(make_cycle(7, -1)).values
    reversed_spec = ComplexSpectrum(tuple(reversed(values)))
    conjugated = ComplexSpectrum(tuple(z.conjugate() for z in values))
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
    match_multisets(spec.values, analytic_cycle_roots(128, -1), 1e-10)


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
    match_multisets(spec.values, doubled, 1e-6)
    assert iota_energy_of_graph(g) == pytest.approx(4.0, abs=1e-10)


def test_cycle_eigenvalues_match_sign_convention():
    for n in range(2, 12):
        for sign in (1, -1):
            spec = cycle_eigenvalues(n, sign)
            assert len(spec.values) == n
            for z in spec.values:
                assert abs(z**n - sign) < 1e-10


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
    got = np.poly(eigenvalues(g).values)[::-1]
    assert np.max(np.abs(got - expected)) <= 1e-6 * (1.0 + max(abs(c) for c in expected))


@pytest.mark.parametrize("seed", range(10))
def test_chained_blocks_match_per_block_lapack(seed):
    # the whole-matrix polynomial of three 24-vertex blocks was out of reach
    # of the float trace recursion; per component every block is
    g, blocks = chained_blocks(seed)
    a = adjacency_matrix(g).astype(np.float64)
    expected = np.concatenate([np.linalg.eigvals(a[np.ix_(b, b)]) for b in blocks])
    match_multisets(eigenvalues(g).values, expected, 1e-6)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed", range(3))
def test_dense_component_raises_instead_of_garbage(seed):
    # coefficients beyond 2^53 send the root iteration far outside the
    # Gershgorin bound (largest absolute row sum, 17-20 here)
    g = dense_scc(seed)
    with pytest.raises(RootFindingError, match="root iteration stalled|not exact in double precision"):
        eigenvalues(g)
    with pytest.raises(RootFindingError):
        iota_energy_of_graph(g)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed", range(40))
def test_dense_component_refused_or_right(seed):
    # a refusal is allowed; a spectrum that is returned must be right
    g = dense_scc(seed)
    try:
        values = eigenvalues(g).values
    except RootFindingError:
        return
    z = np.linalg.eigvals(adjacency_matrix(g).astype(np.float64))
    assert iota_energy(values) == pytest.approx(np.abs(z.imag).sum(), abs=1e-6)
    assert energy(values) == pytest.approx(np.abs(z.real).sum(), abs=1e-6)


def test_gershgorin_guard_rejects_root_outside_disc(monkeypatch):
    # no real input reaches this guard once char_poly and poly_roots refuse
    # what they cannot vouch for, so a stand-in root finder feeds it
    g = SignedDigraph(6, tuple((i, j, 1) for i in range(6) for j in range(6) if i != j))
    monkeypatch.setattr(spectra, "poly_roots", lambda p: ComplexSpectrum((6.0,) + (-1.0,) * 5))
    with pytest.raises(RootFindingError, match="Gershgorin"):
        eigenvalues(g)


@pytest.mark.parametrize("sign", [1, -1])
def test_gershgorin_guard_admits_complete_digraph(sign):
    # the spectral radius of K6 equals its largest absolute row sum, 5
    g = SignedDigraph(6, tuple((i, j, sign) for i in range(6) for j in range(6) if i != j))
    values = eigenvalues(g).values
    assert max(values, key=abs) == pytest.approx(5.0 * sign, abs=1e-8)
    assert iota_energy(values) == pytest.approx(0.0, abs=1e-2)
