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
from sidigraph.trig import MAX_GRID_POINTS


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


@pytest.mark.parametrize(
    "x, message",
    [(math.nan, ">= 2"), ([2.0, math.nan], ">= 2"), (math.inf, "finite"), ([3.0, math.inf], "finite")],
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
    assert certify_monotone("csc_csc", 30, (2, 15), "decreasing", 10000) == ""
    assert certify_monotone("cot_cot", 30, (2, 15), "increasing", 10000) == ""
    assert certify_monotone("inv_sq_csc", None, (2, 100), "decreasing", 10000) == ""
    # a wrong claim is reported as failed, not raised
    detail = certify_monotone("csc_csc", 30, (2, 15), "increasing", 1000)
    assert detail.startswith("worst adjacent difference -")
    assert float(detail.split()[-1]) < 0


def test_certify_monotone_validation():
    with pytest.raises(ValueError):
        certify_monotone("nope", 10, (2, 5), "decreasing")
    with pytest.raises(ValueError):
        certify_monotone("csc_csc", 10, (2, 5), "sideways")
    with pytest.raises(ValueError, match=r"^empty or infinite interval \(5.0, 2.0\)$"):
        certify_monotone("csc_csc", 10, (5, 2), "decreasing")
    with pytest.raises(ValueError, match="^grid needs at least two points$"):
        certify_monotone("csc_csc", 10, (2, 5), "decreasing", 1)


def test_certify_monotone_grid_cap():
    # about 32 bytes a point at peak: the cap keeps one grid near 32 MB
    assert MAX_GRID_POINTS == 1_000_000
    assert certify_monotone("csc_cot", 40, (2, 38), "decreasing", MAX_GRID_POINTS) == ""
    # refused before any grid is built
    with pytest.raises(ValueError, match="^grid needs at most 1000000 points, got 1000001$"):
        certify_monotone("csc_cot", 40, (2, 38), "decreasing", MAX_GRID_POINTS + 1)


@pytest.mark.parametrize("n", range(6, 102, 2))
def test_standard_claims_certify(n):
    for function_id, interval, direction in monotonicity_claims(n):
        detail = certify_monotone(function_id, n, interval, direction, 2000)
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
