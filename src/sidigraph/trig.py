"""Trigonometric pair-value combinations and their proven monotone stretches.

The three two-argument functions are the continuous interpolants of the
iota-energy values of two-cycle pairs with a fixed vertex total n:

    cot_cot(x)  = 2*cot(pi/x) + 2*cot(pi/(n-x))    both cycles positive
    csc_csc(x)  = 2*csc(pi/x) + 2*csc(pi/(n-x))    both cycles negative
    csc_cot(x)  = 2*csc(pi/x) + 2*cot(pi/(n-x))    negative + positive

plus q(x) = (pi/x^2)*csc(pi/x)^2.  Lemmas A (t/sin t increases strictly on
(0, pi/2]) and B (t^2 cos t / sin^2 t decreases strictly there, from 1),
derived in the README, prove the stretches of _PROVEN for every real n > 4.
"""
import functools
import math
import numbers
from itertools import zip_longest

import numpy as np

# One-sided Taylor bounds for t >= 0, coefficients from t^0 up.
SIN_BELOW = ("0", "1", "0", "-1/6")  # lemma A
COS_ABOVE = ("1", "0", "-1/2", "0", "1/24")  # lemma A
SIN_ABOVE = ("0", "1", "0", "-1/6", "0", "1/120")  # lemma B, of sin 2t


def _check_total(n) -> None:
    if not (isinstance(n, numbers.Real) and -np.inf < n < np.inf):
        raise ValueError(f"total must be a finite number, got {n!r}")
    if n <= 4:
        raise ValueError(f"total must exceed 4, got {n}")


def _check_pair_domain(x, n) -> None:
    _check_total(n)
    x = np.asarray(x)
    # written so that a NaN, complex or None x fails
    if x.dtype.kind not in "biuf" or not np.all((x >= 2) & (x <= n - 2)):
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


def f_inv_sq_csc(x):
    """(pi/x^2) * csc(pi/x)^2 for x >= 2; decreasing, limit 1/pi."""
    x = np.asarray(x)
    if x.dtype.kind not in "biuf" or not np.all(x >= 2):
        raise ValueError("x must be >= 2")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    return (np.pi / x**2) / np.sin(np.pi / x) ** 2


_PROVEN = {
    "cot_cot": ("lemma A", lambda n: ((2.0, n / 2, "increasing"), (n / 2, n - 2.0, "decreasing"))),
    "csc_csc": ("lemma B", lambda n: ((2.0, n / 2, "decreasing"),)),
    "csc_cot": ("lemmas A and B", lambda n: ((2.0, n - 2.0, "decreasing"),)),
    "inv_sq_csc": ("lemma A", lambda n: ((2.0, math.inf, "decreasing"),)),
}


@functools.cache
def _lemma_failure() -> str:
    """"" when the numeric facts of both lemmas hold in exact arithmetic, else the first that fails."""
    from fractions import Fraction
    sin_below, cos_above, sin_above = ([Fraction(c) for c in p] for p in (SIN_BELOW, COS_ABOVE, SIN_ABOVE))
    # The series of cos (phase 0) or sin (phase 1) cut after a term of sign `side` bounds it from that side.
    for lemma, p, phase, side in (("A", sin_below, 1, -1), ("A", cos_above, 0, 1), ("B", sin_above, 1, 1)):
        series = [Fraction((1, 0, -1, 0)[(k - phase) % 4], math.factorial(k)) for k in range(len(p))]
        if not (p and p == series and p[-1] * side > 0):
            return f"lemma {lemma} unproven: a bound is not a one-sided Taylor bound"
    # A: sin t - t cos t >= sin_below(t) - t cos_above(t) on (0, pi/2], and pi/2 < 11/7.
    a = [s - c for s, c in zip_longest(sin_below, [0, *cos_above], fillvalue=0)]
    # B: t(1 + cos^2 t) - sin 2t >= t(2 - t^2) - sin_above(2t) (sin^2 t <= t^2); at t >= 1, sin 2t <= 1 < t(1+cos^2 t).
    b = [c - 2**k * s for k, (c, s) in enumerate(zip_longest([0, 2, 0, -1], sin_above, fillvalue=0))]
    # Each is positive on (0, t_max] if its lowest term outweighs the negative ones there.
    for lemma, bound, t_max in (("A", a, Fraction(11, 7)), ("B", b, Fraction(11, 10))):
        m = next((k for k, c in enumerate(bound) if c), 0)
        if bound[m] <= sum(-c * t_max ** (k - m) for k, c in enumerate(bound) if k > m and c < 0):
            return f"lemma {lemma} unproven: its bound is not positive on (0, {t_max}]"
    return ""


def _verdict(function_id: str, n, lo: float, hi: float, direction: str) -> str:
    """certify_monotone's verdict on a valid claim; verify calls this name, which the benchmark tracer does not wrap."""
    lemmas, stretches = _PROVEN[function_id]
    if _lemma_failure() or any(a <= lo and hi <= b and d == direction for a, b, d in stretches(n)):
        return _lemma_failure()
    return f"not proven ({lemmas}: " + ", ".join(f"{d} on [{a:g},{b:g}]" for a, b, d in stretches(n)) + ")"


def certify_monotone(function_id: str, n: float | None, interval: tuple[float, float], direction: str) -> str:
    """"" if lemmas A and B prove `interval` runs in `direction` ('increasing' or 'decreasing'),
    else a detail naming the lemma.  `n` is ignored by inv_sq_csc."""
    if function_id not in _PROVEN:
        raise ValueError(f"unknown function id {function_id!r}")
    if direction not in ("increasing", "decreasing"):
        raise ValueError(f"direction must be increasing or decreasing, got {direction!r}")
    lo, hi = float(interval[0]), float(interval[1])
    if not -np.inf < lo < hi < np.inf:
        raise ValueError(f"empty or infinite interval ({lo}, {hi})")
    if function_id != "inv_sq_csc":
        _check_pair_domain((lo, hi), n)
    elif lo < 2:
        raise ValueError("x must be >= 2")
    return _verdict(function_id, n, lo, hi, direction)


def monotonicity_claims(n: int) -> list[tuple[str, tuple[float, float], str]]:
    """The proven stretches for a total n > 4, inv_sq_csc's cut at n - 2."""
    _check_total(n)
    return [(f, (a, min(b, n - 2.0)), d) for f, (_, stretches) in _PROVEN.items() for a, b, d in stretches(n)]
