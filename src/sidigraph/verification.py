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
`splice_details`, `floating_bracket_details`, `extremal_details`), by
budget; the cycle checks build the roots of a batch of cycles with one
call and prove them with another.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import orderings, trig
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
    orderings._check_budget(n_max, name="n_max")
    # Each budget's ordering and prediction are the n_max ones cut to the pairs that fit.
    same_sign = orderings.ordered_sequence(n_max, orderings.SAME_SIGN, tie_tol=tie_tol)
    mixed = orderings.ordered_sequence(n_max, orderings.MIXED_SIGN, exclude_floating=True, tie_tol=tie_tol)
    # each chain is stated from its first budget on
    results = _by_budget(
        ("same-sign chain", orderings.chain_details(same_sign, 22)),
        ("mixed chain", orderings.chain_details(mixed, 6)),
        ("exact-total chain", orderings.exact_total_details(n_max)),
        ("block splice", orderings.splice_details(n_max)),
        ("floating-pair bracket", orderings.floating_bracket_details(n_max)),
    )
    for n in range(6, n_max + 1, 2):
        for function_id, interval, direction in trig.monotonicity_claims(n):
            name = f"monotone {function_id} [{interval[0]:g},{interval[1]:g}] n={n}"
            results.append(CheckResult(name, trig._verdict(function_id, n, *interval, direction)))
    for batch in _cycle_batches(n_max):
        results.extend(_cycle_checks(batch))
    results += _by_budget(("extremal pairs", orderings.extremal_details(n_max)))
    return results


def _by_budget(*checks: tuple[str, dict[int, str]]) -> list[CheckResult]:
    """One CheckResult "{label} n={n}" per budget n of each (label, {n: detail}) in turn."""
    return [CheckResult(f"{label} n={n}", detail) for label, details in checks for n, detail in details.items()]


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


def _cycle_sums(lengths: np.ndarray, z: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per cycle of z: the energy and the iota energy of its approximations,
    each summed by one reduceat, and a bound on how far either lies from
    that of its exact roots.

    The exact roots lie one each in the proven discs, so |Re| and |Im| of
    each root differ from the approximation's by at most its radius, and
    the exact energies by at most the radius sum R.  A sum of m
    nonnegative terms in any order is within gamma S of the exact sum S,
    gamma = (m-1)u / (1 - (m-1)u), u = 2^-53 (Higham 2002, section 4.2), so
    S <= s / (1 - gamma) for the computed s, and s is within
    g s of S with g = gamma / (1 - gamma) = (m-1)u / (1 - 2(m-1)u).  The
    computed radius sum r bounds R by r (1 + g), so the bound is
    r + g (r + max(energy, iota energy)).  That and g take five
    roundings, the last factor 1 + 16u one more, each of relative size at
    most u, so the factor rounds the bound upward.
    """
    starts = np.cumsum(lengths) - lengths
    energies = np.add.reduceat(np.abs(z.real), starts)
    iotas = np.add.reduceat(np.abs(z.imag), starts)
    radius_sums = np.add.reduceat(radii, starts)
    u = 2.0**-53
    g = (lengths - 1) * u / (1.0 - 2.0 * (lengths - 1) * u)
    bounds = (radius_sums + g * (radius_sums + np.maximum(energies, iotas))) * (1.0 + 16.0 * u)
    return energies, iotas, bounds


def _cycle_checks(batch: list[tuple[int, int]]) -> list[CheckResult]:
    """The cycle checks of a batch: each passes when both closed forms of
    C_n^sign lie within ORACLE_TOL of its spectrum.

    A directed n-cycle's only linear subdigraph is the cycle itself, so its
    spectrum is the roots of det(xI - A) = x^n - sign (Harary 1962).  The
    whole batch is built in one call and proven in another, and its sums
    and their bounds are taken by _cycle_sums, its closed forms read off
    orderings._cycle_table; a cycle passes when the larger difference of a
    closed form from its sum, plus the bound, is at most ORACLE_TOL.  A
    refused cycle fails with its refusal as the detail.
    """
    lengths, signs = zip(*batch)
    z = cycle_eigenvalues_batch(lengths, signs)
    radii, refusals = cycle_root_radii_batch(lengths, signs, z)
    energies, iotas, bounds = _cycle_sums(np.asarray(lengths), z, radii)
    closed = orderings._cycle_table()[np.asarray(lengths), (np.asarray(signs) + 1) // 2]
    worst = np.maximum(np.abs(closed[:, 0] - energies), np.abs(closed[:, 1] - iotas))
    passed = worst + bounds <= ORACLE_TOL
    results = []
    for (n, sign), refusal, ok, difference, bound in zip(
        batch, refusals, passed.tolist(), worst.tolist(), bounds.tolist()
    ):
        if refusal is not None:
            detail = str(refusal)
        else:
            detail = "" if ok else f"difference {difference:.3g} + root bound {bound:.3g}"
        results.append(CheckResult(f"cycle closed form vs spectrum n={n} sign={'+' if sign > 0 else '-'}", detail))
    return results
