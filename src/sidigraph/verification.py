"""Batch verification suite behind the CLI `verify` command.

Runs every applicable consistency check for budgets up to n_max: ordering
patterns against the numeric sort, block splice inequalities, floating-pair
brackets, grid monotonicity, the cycle closed forms against the Aberth roots
of x^n - sign, and extremal identification.  Failures are collected, not
raised.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import orderings, trig
from .cycle_formulas import energy_cycle, iota_energy_cycle
# eigenvalues is unused here but stays importable: perfbench's tracer test
# looks it up on this module by name.
from .spectra import Polynomial, eigenvalues, energy, iota_energy, poly_roots  # noqa: F401

ORACLE_TOL = 1e-8

# Largest n_max verify accepts: up to it the smallest gap between distinct
# pair values, 1.6e-8 at 1000 (mixed pairs, floating ones included), stays
# above orderings.TIE_TOL, so tie groups hold only ties.
MAX_N_MAX = 1000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _from_detail(name: str, detail: str) -> CheckResult:
    return CheckResult(name, not detail, detail)


def run_verification(
    n_max: int,
    tie_tol: float = orderings.TIE_TOL,
    grid_points: int = 10000,
) -> list[CheckResult]:
    """Every applicable check for budgets up to n_max, in a fixed order."""
    if n_max < 4:
        raise ValueError(f"n_max must be >= 4, got {n_max}")
    # Refuse up front what the grid check would refuse only after every
    # earlier check has run.
    if grid_points < 2:
        raise ValueError("grid needs at least two points")
    if n_max > MAX_N_MAX:
        raise ValueError(f"n_max must be <= {MAX_N_MAX}, got {n_max}")
    results: list[CheckResult] = []

    # Each budget's ordering and prediction are the n_max ones cut to the pairs that fit.
    same_sign = orderings.ordered_sequence(n_max, orderings.SAME_SIGN)
    mixed = orderings.ordered_sequence(n_max, orderings.MIXED_SIGN, exclude_floating=True)
    for n, detail in enumerate(orderings.chain_details(same_sign, 22, tie_tol), start=22):
        results.append(_from_detail(f"same-sign chain n={n}", detail))
    for n, detail in enumerate(orderings.chain_details(mixed, 6, tie_tol), start=6):
        results.append(_from_detail(f"mixed chain n={n}", detail))
    for n in range(6, n_max + 1, 2):
        results.append(
            _from_detail(f"exact-total chain n={n}", orderings.check_exact_total_chain(n))
        )
    for n in range(22, n_max + 1, 2):
        results.append(
            _from_detail(f"block splice n={n}", orderings.check_splice_inequalities(n))
        )
    for n in range(10, min(n_max, 48) + 1, 2):
        mismatch = orderings.floating_bracket_mismatch(orderings.locate_floating_pair(n))
        if mismatch is not None:
            results.append(_from_detail(f"floating-pair bracket n={n}", mismatch))
    for n in range(6, n_max + 1, 2):
        for function_id, interval, direction in trig.monotonicity_claims(n):
            report = trig.certify_monotone(function_id, n, interval, direction, grid_points)
            results.append(
                CheckResult(
                    f"monotone {function_id} [{interval[0]:g},{interval[1]:g}] n={n}",
                    report.passed,
                    "" if report.passed else f"worst adjacent difference {report.worst_adjacent_difference:.3g}",
                )
            )
    for n in range(2, n_max + 1):
        for sign in (1, -1):
            # A directed n-cycle's only linear subdigraph is the cycle itself,
            # so det(xI - A) = x^n - sign (Harary 1962).
            spectrum = poly_roots(Polynomial((-sign,) + (0,) * (n - 1) + (1,)))
            d_energy = abs(energy_cycle(n, sign) - energy(spectrum))
            d_iota = abs(iota_energy_cycle(n, sign) - iota_energy(spectrum))
            worst = max(d_energy, d_iota)
            results.append(
                CheckResult(
                    f"cycle closed form vs spectrum n={n} sign={'+' if sign > 0 else '-'}",
                    worst <= ORACLE_TOL,
                    "" if worst <= ORACLE_TOL else f"difference {worst:.3g}",
                )
            )
    for n, detail in enumerate(orderings.extremal_details(n_max), start=4):
        results.append(_from_detail(f"extremal pairs n={n}", detail))
    return results
