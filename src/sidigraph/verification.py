"""Batch verification suite behind the CLI `verify` command.

Runs every applicable consistency check for budgets up to n_max: ordering
patterns against the numeric sort, block splice inequalities, floating-pair
brackets, monotone stretches against those that lemmas A and B of `trig`
prove for every total, the cycle closed forms against the roots of
x^n - sign, proven by inclusion discs around their analytic approximations,
and extremal identification.  Each check is a name and its failure detail,
"" on a pass; failures are collected, not raised.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import orderings, trig
from .cycle_formulas import energy_cycle, iota_energy_cycle
# eigenvalues is unused here but stays importable: perfbench's tracer test
# looks it up on this module by name.
from .spectra import (  # noqa: F401
    RootFindingError,
    cycle_eigenvalues,
    cycle_root_radii,
    eigenvalues,
    energy,
    iota_energy,
)

ORACLE_TOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    detail: str = ""

    @property
    def passed(self) -> bool:
        return not self.detail


def run_verification(n_max: int, tie_tol: float = orderings.TIE_TOL) -> list[CheckResult]:
    """Every applicable check for budgets up to n_max, in a fixed order."""
    if n_max < 4:
        raise ValueError(f"n_max must be >= 4, got {n_max}")
    if n_max > orderings.MAX_BUDGET:
        raise ValueError(f"n_max must be <= {orderings.MAX_BUDGET}, got {n_max}")
    results: list[CheckResult] = []

    # Each budget's ordering and prediction are the n_max ones cut to the pairs that fit.
    same_sign = orderings.ordered_sequence(n_max, orderings.SAME_SIGN, tie_tol=tie_tol)
    mixed = orderings.ordered_sequence(n_max, orderings.MIXED_SIGN, exclude_floating=True, tie_tol=tie_tol)
    for n, detail in enumerate(orderings.chain_details(same_sign, 22), start=22):
        results.append(CheckResult(f"same-sign chain n={n}", detail))
    for n, detail in enumerate(orderings.chain_details(mixed, 6), start=6):
        results.append(CheckResult(f"mixed chain n={n}", detail))
    for n in range(6, n_max + 1, 2):
        results.append(CheckResult(f"exact-total chain n={n}", orderings.check_exact_total_chain(n)))
    for n in range(22, n_max + 1, 2):
        results.append(CheckResult(f"block splice n={n}", orderings.check_splice_inequalities(n)))
    for n in range(10, n_max + 1, 2):
        # Only budgets with a tabulated bracket pay for the full mixed ordering.
        if orderings.expected_floating_brackets(n) is not None:
            mismatch = orderings.floating_bracket_mismatch(orderings.locate_floating_pair(n))
            results.append(CheckResult(f"floating-pair bracket n={n}", mismatch))
    for n in range(6, n_max + 1, 2):
        for function_id, interval, direction in trig.monotonicity_claims(n):
            name = f"monotone {function_id} [{interval[0]:g},{interval[1]:g}] n={n}"
            results.append(CheckResult(name, trig._verdict(function_id, n, *interval, direction)))
    for n in range(2, n_max + 1):
        for sign in (1, -1):
            name = f"cycle closed form vs spectrum n={n} sign={'+' if sign > 0 else '-'}"
            results.append(CheckResult(name, _cycle_detail(n, sign)))
    for n, detail in enumerate(orderings.extremal_details(n_max), start=4):
        results.append(CheckResult(f"extremal pairs n={n}", detail))
    return results


def _cycle_detail(n: int, sign: int) -> str:
    """The cycle check's detail: "" when both closed forms of C_n^sign lie
    within ORACLE_TOL of its spectrum.

    A directed n-cycle's only linear subdigraph is the cycle itself, so its
    spectrum is the roots of det(xI - A) = x^n - sign (Harary 1962).  They
    lie one each in the proven discs around the analytic approximations,
    so |Re| and |Im| of each root differ from the approximation's by at
    most its radius; fsum rounds each energy once, by at most half an ulp.
    """
    approximations = cycle_eigenvalues(n, sign)
    try:
        radii = cycle_root_radii(n, sign, approximations)
    except RootFindingError as error:
        return str(error)
    sums = energy(approximations), iota_energy(approximations)
    worst = max(abs(energy_cycle(n, sign) - sums[0]), abs(iota_energy_cycle(n, sign) - sums[1]))
    bound = math.fsum(radii) + math.ulp(max(sums))
    return "" if worst + bound <= ORACLE_TOL else f"difference {worst:.3g} + root bound {bound:.3g}"
