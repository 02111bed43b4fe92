import math

import pytest

from sidigraph import (
    CyclePair,
    SignedCycle,
    certify_monotone,
    f_cot_cot,
    f_csc_cot,
    f_csc_csc,
    f_inv_sq_csc,
    monotonicity_claims,
    pair_iota,
)
from sidigraph import trig


def test_point_values():
    n = 12
    assert f_cot_cot(n / 2, n) == pytest.approx(4.0 / math.tan(2 * math.pi / n), abs=1e-12)
    assert f_cot_cot(2, n) == pytest.approx(2.0 / math.tan(math.pi / (n - 2)), abs=1e-12)
    assert f_cot_cot(4, 12) == pytest.approx(2.0 + 2.0 / math.tan(math.pi / 8), abs=1e-12)
    assert f_csc_csc(2, n) == pytest.approx(2.0 + 2.0 / math.sin(math.pi / 10), abs=1e-12)
    assert f_csc_csc(n / 2, n) == pytest.approx(4.0 / math.sin(2 * math.pi / n), abs=1e-12)
    # 2*csc(pi/4) + 2*csc(pi/8) = 8.0546789842517 (40-digit arithmetic)
    assert f_csc_csc(4, 12) == pytest.approx(8.0546789842517, abs=1e-10)
    assert f_csc_cot(2, 10) == pytest.approx(2.0 + 2.0 / math.tan(math.pi / 8), abs=1e-12)
    assert f_csc_cot(8, 10) == pytest.approx(2.0 / math.sin(math.pi / 8), abs=1e-12)
    assert f_csc_cot(4, 10) == pytest.approx(2.0 * math.sqrt(2.0) + 2.0 * math.sqrt(3.0), abs=1e-12)
    assert f_inv_sq_csc(2) == pytest.approx(math.pi / 4.0, abs=1e-15)
    assert f_inv_sq_csc(4) == pytest.approx(math.pi / 8.0, abs=1e-15)


def test_domain_validation():
    with pytest.raises(ValueError, match=r"^x must lie in \[2, 8\]$"):
        f_cot_cot(1.5, 10)
    with pytest.raises(ValueError, match=r"^x must lie in \[2, 8\]$"):
        f_csc_csc(9, 10)
    with pytest.raises(ValueError, match="^total must exceed 4, got 4$"):
        f_csc_cot(2, 4)
    with pytest.raises(ValueError, match="^x must be >= 2$"):
        f_inv_sq_csc(1.0)
    with pytest.raises(ValueError, match="^total must exceed 4, got 3.5$"):
        monotonicity_claims(3.5)


PAIR_FUNCTIONS = [f_cot_cot, f_csc_csc, f_csc_cot]


@pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, None])
@pytest.mark.parametrize("f", PAIR_FUNCTIONS)
def test_pair_functions_refuse_totals_that_are_not_finite_numbers(f, n):
    with pytest.raises(ValueError, match="^total must be a finite number, got "):
        f(3.0, n)


@pytest.mark.parametrize("f", PAIR_FUNCTIONS)
def test_pair_functions_refuse_nan_x(f):
    with pytest.raises(ValueError, match=r"^x must lie in \[2, 8\]$"):
        f(math.nan, 10)
    with pytest.raises(ValueError, match=r"^x must lie in \[2, 8\]$"):
        f([3.0, math.nan, 5.0], 10)
    # nor a complex or missing one; numpy orders complex numbers by their real part
    for x in (3 + 0j, [3.0, 4 + 1j], None):
        with pytest.raises(ValueError, match=r"^x must lie in \[2, 8\]$"):
            f(x, 10)


@pytest.mark.parametrize(
    "x, message",
    [
        (math.nan, ">= 2"),
        ([2.0, math.nan], ">= 2"),
        (math.inf, "finite"),
        ([3.0, math.inf], "finite"),
        (3 + 0j, ">= 2"),
        (None, ">= 2"),
    ],
)
def test_inv_sq_csc_refuses_non_finite_x(x, message):
    with pytest.raises(ValueError, match=f"^x must be {message}$"):
        f_inv_sq_csc(x)


@pytest.mark.parametrize("n", [math.nan, math.inf, None])
def test_non_finite_totals_are_refused_not_certified(n):
    with pytest.raises(ValueError, match="^total must be a finite number, got "):
        certify_monotone("csc_csc", n, (2.0, 3.0), "decreasing")
    with pytest.raises(ValueError, match="^total must be a finite number, got "):
        monotonicity_claims(n)
    # inv_sq_csc ignores n
    assert certify_monotone("inv_sq_csc", n, (2.0, 3.0), "decreasing") == ""


@pytest.mark.parametrize("interval", [(2.0, math.inf), (-math.inf, 3.0), (math.nan, 3.0)])
def test_certify_monotone_refuses_non_finite_interval_ends(interval):
    with pytest.raises(ValueError, match=r"^empty or infinite interval \("):
        certify_monotone("inv_sq_csc", None, interval, "decreasing")


@pytest.mark.parametrize("n", range(6, 41, 2))
def test_symmetry_about_center(n):
    for x in (2.0, 2.5, 3.0, n / 2 - 0.25):
        assert f_cot_cot(x, n) == f_cot_cot(n - x, n)
        assert f_csc_csc(x, n) == f_csc_csc(n - x, n)


@pytest.mark.parametrize("n", range(6, 41, 2))
def test_csc_csc_dominates_cot_cot(n):
    step = (n - 4) / 64
    for i in range(1, 64):
        x = 2 + i * step
        assert f_csc_csc(x, n) > f_cot_cot(x, n)


def test_certify_monotone_reports():
    assert certify_monotone("csc_csc", 30, (2, 15), "decreasing") == ""
    assert certify_monotone("cot_cot", 30, (2, 15), "increasing") == ""
    assert certify_monotone("inv_sq_csc", None, (2, 100), "decreasing") == ""
    # any stretch inside a proven one, for any real total
    assert certify_monotone("cot_cot", 30.5, (15.25, 28.5), "decreasing") == ""
    assert certify_monotone("csc_cot", 7.25, (2.5, 5), "decreasing") == ""
    assert certify_monotone("inv_sq_csc", None, (3, 1e300), "decreasing") == ""
    # a wrong or unproven claim is reported as failed, not raised
    assert certify_monotone("csc_csc", 30, (2, 15), "increasing") == "not proven (lemma B: decreasing on [2,15])"
    assert certify_monotone("cot_cot", 30, (14, 16), "increasing") == (
        "not proven (lemma A: increasing on [2,15], decreasing on [15,28])"
    )
    assert certify_monotone("csc_cot", 30, (2, 28), "increasing") == "not proven (lemmas A and B: decreasing on [2,28])"


def test_certify_monotone_validation():
    with pytest.raises(ValueError):
        certify_monotone("nope", 10, (2, 5), "decreasing")
    with pytest.raises(ValueError):
        certify_monotone("csc_csc", 10, (2, 5), "sideways")
    with pytest.raises(ValueError, match=r"^empty or infinite interval \(5.0, 2.0\)$"):
        certify_monotone("csc_csc", 10, (5, 2), "decreasing")
    with pytest.raises(ValueError, match=r"^x must lie in \[2, 8\]$"):
        certify_monotone("csc_csc", 10, (1.5, 5), "decreasing")
    with pytest.raises(ValueError, match=r"^x must lie in \[2, 8\]$"):
        certify_monotone("csc_cot", 10, (2, 9), "decreasing")
    with pytest.raises(ValueError, match="^x must be >= 2$"):
        certify_monotone("inv_sq_csc", None, (1.5, 5), "decreasing")
    with pytest.raises(ValueError, match="^total must exceed 4, got 4$"):
        certify_monotone("cot_cot", 4, (2, 2.5), "increasing")


@pytest.mark.parametrize("n", range(6, 102, 2))
def test_standard_claims_certify(n):
    for function_id, interval, direction in monotonicity_claims(n):
        detail = certify_monotone(function_id, n, interval, direction)
        assert detail == "", (function_id, interval, direction, detail)


@pytest.mark.parametrize("n", range(6, 31, 2))
def test_integer_points_match_pair_values(n):
    for m in range(2, n - 1, 2):
        pp = CyclePair(SignedCycle(m, 1), SignedCycle(n - m, 1))
        nn = CyclePair(SignedCycle(m, -1), SignedCycle(n - m, -1))
        pm = CyclePair(SignedCycle(m, -1), SignedCycle(n - m, 1))
        assert abs(f_cot_cot(m, n) - pair_iota(pp)) <= 1e-12
        assert abs(f_csc_csc(m, n) - pair_iota(nn)) <= 1e-12
        assert abs(f_csc_cot(m, n) - pair_iota(pm)) <= 1e-12


@pytest.mark.parametrize(
    "name, coefficients, lemma",
    [
        # 1/12 is not the Taylor coefficient 1/120
        ("SIN_ABOVE", ("0", "1", "0", "-1/6", "0", "1/12"), "B"),
        # sin u <= u holds, but is too weak to settle the sign of phi
        ("SIN_ABOVE", ("0", "1"), "B"),
        # an upper bound of sin where lemma A needs a lower one
        ("SIN_BELOW", ("0", "1", "0", "-1/6", "0", "1/120"), "A"),
        # cos t <= 1 holds, but is too weak for sin t - t cos t > 0
        ("COS_ABOVE", ("1",), "A"),
    ],
)
def test_a_broken_lemma_fails_every_claim(monkeypatch, name, coefficients, lemma):
    monkeypatch.setattr(trig, name, coefficients)
    trig._lemma_failure.cache_clear()
    try:
        for n in (6, 100):
            for function_id, interval, direction in monotonicity_claims(n):
                detail = certify_monotone(function_id, n, interval, direction)
                assert detail.startswith(f"lemma {lemma} unproven: "), (function_id, detail)
    finally:
        # the verdict is cached per process; the next call sees the restored bounds
        trig._lemma_failure.cache_clear()


def test_longer_taylor_cuts_still_prove_the_lemmas(monkeypatch):
    monkeypatch.setattr(trig, "COS_ABOVE", ("1", "0", "-1/2", "0", "1/24", "0", "-1/720", "0", "1/40320"))
    monkeypatch.setattr(trig, "SIN_BELOW", ("0", "1", "0", "-1/6", "0", "1/120", "0", "-1/5040"))
    trig._lemma_failure.cache_clear()
    try:
        assert trig._lemma_failure() == ""
    finally:
        trig._lemma_failure.cache_clear()


def test_lemmas_against_50_digit_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        ts = [mpmath.pi / 2 * k / 2000 for k in range(1, 2001)]
        ratio = [t / mpmath.sin(t) for t in ts]
        h = [t**2 * mpmath.cos(t) / mpmath.sin(t) ** 2 for t in ts]
        # (A) t/sin t increases from above 1; (B) h decreases from below 1
        assert 1 < ratio[0] and all(a < b for a, b in zip(ratio, ratio[1:]))
        assert h[0] < 1 and all(a > b for a, b in zip(h, h[1:]))
        for t in ts:
            assert mpmath.sin(t) - t * mpmath.cos(t) >= t**3 * (8 - t**2) / 24 > 0
            if t <= mpmath.mpf(11) / 10:
                phi = mpmath.sin(2 * t) - t * (1 + mpmath.cos(t) ** 2)
                assert phi <= t**3 * (4 * t**2 / 15 - mpmath.mpf(1) / 3) < 0

        def cot(x):
            return 1 / mpmath.tan(mpmath.pi / x)

        def csc(x):
            return 1 / mpmath.sin(mpmath.pi / x)

        def q(x):
            return mpmath.pi / x**2 * csc(x) ** 2

        def g(x):
            return mpmath.pi / x**2 * csc(x) * cot(x)

        for x, n in ((2.5, 9), (3, 10), (7.25, 30), (40, 101)):
            x, n = mpmath.mpf(x), mpmath.mpf(n)
            for f, derivative in (
                (lambda y: 2 * cot(y) + 2 * cot(n - y), 2 * (q(x) - q(n - x))),
                (lambda y: 2 * csc(y) + 2 * csc(n - y), 2 * (g(x) - g(n - x))),
                (lambda y: 2 * csc(y) + 2 * cot(n - y), 2 * (g(x) - q(n - x))),
            ):
                assert abs(mpmath.diff(f, x) - derivative) < mpmath.mpf(10) ** -35
            assert abs(f_inv_sq_csc(float(x)) - q(x)) <= 1e-15 * q(x)
