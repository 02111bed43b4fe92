"""Trigonometric pair-value combinations and grid monotonicity certification.

The three two-argument functions are the continuous interpolants of the
iota-energy values of two-cycle pairs with a fixed vertex total n:

    cot_cot(x)  = 2*cot(pi/x) + 2*cot(pi/(n-x))    both cycles positive
    csc_csc(x)  = 2*csc(pi/x) + 2*csc(pi/(n-x))    both cycles negative
    csc_cot(x)  = 2*csc(pi/x) + 2*cot(pi/(n-x))    negative + positive

plus the auxiliary (pi/x^2)*csc(pi/x)^2 that controls their derivatives.
certify_monotone samples a claimed monotone stretch on a uniform grid of
at most MAX_GRID_POINTS points and checks every adjacent difference, with a
small negative slack to absorb rounding near flat points.  It returns its
failure detail, "" on a pass.
"""
from __future__ import annotations

import numbers

import numpy as np

ADJACENT_SLACK = 1e-12
# A grid peaks at about 32 bytes a point (four float64 arrays), so 32 MB here.
MAX_GRID_POINTS = 1_000_000


def _check_total(n) -> None:
    if not (isinstance(n, numbers.Real) and -np.inf < n < np.inf):
        raise ValueError(f"total must be a finite number, got {n!r}")
    if n <= 4:
        raise ValueError(f"total must exceed 4, got {n}")


def _check_pair_domain(x, n) -> None:
    _check_total(n)
    x = np.asarray(x)
    # written so that a NaN x fails
    if not np.all((x >= 2) & (x <= n - 2)):
        raise ValueError(f"x must lie in [2, {n - 2}]")


def f_cot_cot(x, n):
    """2*cot(pi/x) + 2*cot(pi/(n-x)); increasing up to n/2, then decreasing."""
    _check_pair_domain(x, n)
    return 2.0 / np.tan(np.pi / x) + 2.0 / np.tan(np.pi / (n - x))


def f_csc_csc(x, n):
    """2*csc(pi/x) + 2*csc(pi/(n-x)); decreasing on [2, n/2]."""
    _check_pair_domain(x, n)
    return 2.0 / np.sin(np.pi / x) + 2.0 / np.sin(np.pi / (n - x))


def f_csc_cot(x, n):
    """2*csc(pi/x) + 2*cot(pi/(n-x)); decreasing on [2, n-2]."""
    _check_pair_domain(x, n)
    return 2.0 / np.sin(np.pi / x) + 2.0 / np.tan(np.pi / (n - x))


def f_inv_sq_csc(x, n=None):
    """(pi/x^2) * csc(pi/x)^2 for x >= 2; decreasing, limit 1/pi."""
    x = np.asarray(x)
    if not np.all(x >= 2):
        raise ValueError("x must be >= 2")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    return (np.pi / x**2) / np.sin(np.pi / x) ** 2


FUNCTIONS = {
    "cot_cot": f_cot_cot,
    "csc_csc": f_csc_csc,
    "csc_cot": f_csc_cot,
    "inv_sq_csc": f_inv_sq_csc,
}


def check_grid_points(grid_points: int) -> None:
    """Refuse a grid size certify_monotone cannot use."""
    if grid_points < 2:
        raise ValueError("grid needs at least two points")
    if grid_points > MAX_GRID_POINTS:
        raise ValueError(f"grid needs at most {MAX_GRID_POINTS} points, got {grid_points}")


def certify_monotone(
    function_id: str,
    n: float | None,
    interval: tuple[float, float],
    direction: str,
    grid_points: int = 10000,
) -> str:
    """Check a claimed monotone direction on a uniform grid.

    Returns "" on a pass, else the worst adjacent difference against the
    claimed direction; failures are never raised.  `direction` is
    'increasing' or 'decreasing'; `n` is ignored by inv_sq_csc.
    """
    if function_id not in FUNCTIONS:
        raise ValueError(f"unknown function id {function_id!r}")
    if direction not in ("increasing", "decreasing"):
        raise ValueError(f"direction must be increasing or decreasing, got {direction!r}")
    check_grid_points(grid_points)
    lo, hi = float(interval[0]), float(interval[1])
    if not -np.inf < lo < hi < np.inf:
        raise ValueError(f"empty or infinite interval ({lo}, {hi})")
    xs = np.linspace(lo, hi, grid_points)
    ys = np.asarray(FUNCTIONS[function_id](xs, n), dtype=np.float64)
    diffs = np.diff(ys)
    if direction == "increasing":
        worst = float(diffs.min())
        passed = worst >= -ADJACENT_SLACK
    else:
        worst = float(diffs.max())
        passed = worst <= ADJACENT_SLACK
    return "" if passed else f"worst adjacent difference {worst:.3g}"


def monotonicity_claims(n: int) -> list[tuple[str, tuple[float, float], str]]:
    """The standard monotone stretches for a given even total n > 4."""
    _check_total(n)
    half = n / 2.0
    return [
        ("cot_cot", (2.0, half), "increasing"),
        ("cot_cot", (half, float(n - 2)), "decreasing"),
        ("csc_csc", (2.0, half), "decreasing"),
        ("csc_cot", (2.0, float(n - 2)), "decreasing"),
        ("inv_sq_csc", (2.0, float(n - 2)), "decreasing"),
    ]
