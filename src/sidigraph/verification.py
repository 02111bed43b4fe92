"""Batch verification suite behind the CLI `verify` command.

Runs every applicable consistency check for budgets up to n_max: ordering
patterns against the numeric sort, exact-total chains, block splice
inequalities, floating-pair brackets, monotone stretches against those that
lemmas A and B of `trig` prove for every total, the cycle closed forms
against the roots of x^n - sign, proven by inclusion discs around their
analytic approximations in batches of cycles, and extremal identification.
Each check is a name and its failure detail, "" on a pass; failures are
collected, not raised.

The chain checks, the exact-total chains, the block splices, the
floating-pair brackets and the extremal checks each judge all their
budgets from one table (`orderings.chain_details`, `exact_total_details`,
`splice_details`, `floating_bracket_details`, `extremal_details`); the
cycle checks build the roots of a batch of cycles with one call and prove
them with another.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import orderings, trig
from .cycle_formulas import energy_cycle, iota_energy_cycle
# eigenvalues is unused here but stays importable: perfbench's tracer test
# looks it up on this module by name.
from .spectra import cycle_eigenvalues_batch, cycle_root_radii_batch, eigenvalues  # noqa: F401

ORACLE_TOL = 1e-8

# Most roots proven in one call of the cycle checks.  It bounds the working
# set: one batch of all the cycles up to 1000 raised the peak RSS of
# run_verification(1000) from 78 to 170 MB.
_BATCH_ROOTS = 4096


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
    for n, detail in orderings.exact_total_details(n_max).items():
        results.append(CheckResult(f"exact-total chain n={n}", detail))
    for n, detail in orderings.splice_details(n_max).items():
        results.append(CheckResult(f"block splice n={n}", detail))
    for n, detail in orderings.floating_bracket_details(n_max).items():
        results.append(CheckResult(f"floating-pair bracket n={n}", detail))
    for n in range(6, n_max + 1, 2):
        for function_id, interval, direction in trig.monotonicity_claims(n):
            name = f"monotone {function_id} [{interval[0]:g},{interval[1]:g}] n={n}"
            results.append(CheckResult(name, trig._verdict(function_id, n, *interval, direction)))
    for batch in _cycle_batches(n_max):
        results.extend(_cycle_checks(batch))
    for n, detail in enumerate(orderings.extremal_details(n_max), start=4):
        results.append(CheckResult(f"extremal pairs n={n}", detail))
    return results


def _cycle_batches(n_max: int):
    """(n, sign) of C_2^+, C_2^-, ..., C_n_max^-, in runs of consecutive
    cycles with at most _BATCH_ROOTS roots in all, or one larger cycle."""
    batch: list[tuple[int, int]] = []
    roots = 0
    for n in range(2, n_max + 1):
        for sign in (1, -1):
            if batch and roots + n > _BATCH_ROOTS:
                yield batch
                batch, roots = [], 0
            batch.append((n, sign))
            roots += n
    yield batch


def _cycle_checks(batch: list[tuple[int, int]]) -> list[CheckResult]:
    """The cycle checks of a batch: each passes when both closed forms of
    C_n^sign lie within ORACLE_TOL of its spectrum.

    A directed n-cycle's only linear subdigraph is the cycle itself, so its
    spectrum is the roots of det(xI - A) = x^n - sign (Harary 1962).  They
    lie one each in the proven discs around the analytic approximations,
    so |Re| and |Im| of each root differ from the approximation's by at
    most its radius; fsum rounds each energy once, by at most half an ulp.
    The whole batch is built in one call and proven in another; a refused
    cycle fails with its refusal as the detail.
    """
    lengths, signs = zip(*batch)
    z = cycle_eigenvalues_batch(lengths, signs)
    radii, refusals = cycle_root_radii_batch(lengths, signs, z)
    real, imag = np.abs(z.real), np.abs(z.imag)
    results = []
    start = 0
    for (n, sign), refusal in zip(batch, refusals):
        end = start + n
        if refusal is not None:
            detail = str(refusal)
        else:
            # fsum reads a list much faster than an array
            sums = math.fsum(real[start:end].tolist()), math.fsum(imag[start:end].tolist())
            worst = max(abs(energy_cycle(n, sign) - sums[0]), abs(iota_energy_cycle(n, sign) - sums[1]))
            bound = math.fsum(radii[start:end].tolist()) + math.ulp(max(sums))
            detail = "" if worst + bound <= ORACLE_TOL else f"difference {worst:.3g} + root bound {bound:.3g}"
        results.append(CheckResult(f"cycle closed form vs spectrum n={n} sign={'+' if sign > 0 else '-'}", detail))
        start = end
    return results
