"""Descending iota-energy orderings of two-cycle families.

For a vertex budget n, the family holds every pair of vertex-disjoint even
cycles whose lengths sum to at most n.  The same-sign class keeps (+,+) and
(-,-) pairs, the mixed class one cycle of each sign.  Besides the plain
numeric sort, this module builds the closed-form block patterns those
orderings are predicted to follow and checks prediction against sort.

Inside this module a family is a pair table: an int array with one row
(c1 length, c1 sign, c2 length, c2 sign) per canonical pair, and a float
array of pair values.  Sorting, tie grouping, restriction to a smaller
budget, the chain checks and the extremes are array operations on that
table.  `CyclePair` and `OrderingEntry` objects are built only for callers
that read them: `enumerate_pairs`, `OrderingSequence.entries`, the
predicted chains and the reports of `extremal_pairs` and
`locate_floating_pair`.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .cycle_formulas import iota_energy_cycle
from .graphs import CyclePair, SignedCycle, pair_label

SAME_SIGN = "same_sign"
MIXED_SIGN = "mixed_sign"

# Values closer than this are one tie group; genuine gaps between distinct
# pair values stay above 4e-5 for budgets up to 60 and above 1.6e-8 up to
# 1000 (see the gap audit tests).
TIE_TOL = 1e-9

# Largest budget any ordering, chain or extremal query accepts: up to it
# the smallest gap between distinct pair values, 1.6e-8 at 1000 (mixed
# pairs, floating ones included), stays above TIE_TOL, so tie groups hold
# only ties and the strict-descent checks compare real drops.
MAX_BUDGET = 1000


@dataclass(frozen=True)
class OrderingEntry:
    pair: CyclePair
    value: float
    rank: int
    tie_group: int


@dataclass(frozen=True, eq=False)
class OrderingSequence:
    """A family in descending order, as columns; row i has rank i + 1.

    codes[i] is the (c1 length, c1 sign, c2 length, c2 sign) row of the
    canonical pair at rank i + 1, values[i] its iota energy and
    tie_groups[i] its tie group, numbered from 1 and nondecreasing.  tie_tol
    is the tolerance the groups were formed with, which restrict and
    chain_details group and judge with again.  The arrays are made
    read-only.  `entries` is the same ordering as OrderingEntry objects,
    built on first access and cached.  Sequences compare equal when budget,
    class, tolerance and all three columns are equal; they are not hashable.
    """

    budget_n: int
    sign_class: str
    codes: np.ndarray
    values: np.ndarray
    tie_groups: np.ndarray
    tie_tol: float

    def __post_init__(self) -> None:
        for column in (self.codes, self.values, self.tie_groups):
            column.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderingSequence):
            return NotImplemented
        return (
            self.budget_n == other.budget_n
            and self.sign_class == other.sign_class
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.tie_groups, other.tie_groups)
            and self.tie_tol == other.tie_tol
        )

    @cached_property
    def entries(self) -> tuple[OrderingEntry, ...]:
        rows = zip(self.codes.tolist(), self.values.tolist(), self.tie_groups.tolist())
        return tuple(
            OrderingEntry(pair=_pair(*row), value=value, rank=rank, tie_group=group)
            for rank, (row, value, group) in enumerate(rows, start=1)
        )

    def _entry(self, i: int) -> OrderingEntry:
        return OrderingEntry(
            pair=_pair(*self.codes[i].tolist()),
            value=float(self.values[i]),
            rank=i + 1,
            tie_group=int(self.tie_groups[i]),
        )


@dataclass(frozen=True)
class FloatingPairReport:
    """Position of the (C_{n-2}^-, C_2^+) pair inside the full mixed ordering."""

    budget_n: int
    entry: OrderingEntry
    above: OrderingEntry | None
    below: OrderingEntry | None


def _check_sign_class(sign_class: str) -> None:
    if sign_class not in (SAME_SIGN, MIXED_SIGN):
        raise ValueError(f"sign_class must be {SAME_SIGN!r} or {MIXED_SIGN!r}")


def _check_budget(budget_n: int) -> None:
    """The budget rule of every entry point: an integer in 4..MAX_BUDGET."""
    if not isinstance(budget_n, numbers.Integral):
        raise ValueError(f"budget must be an integer, got {budget_n!r}")
    if budget_n < 4:
        raise ValueError(f"budget must be >= 4, got {budget_n}")
    if budget_n > MAX_BUDGET:
        raise ValueError(f"budget must be <= {MAX_BUDGET}, got {budget_n}")


def _pair(l1: int, s1: int, l2: int, s2: int) -> CyclePair:
    return CyclePair(SignedCycle(l1, s1), SignedCycle(l2, s2))


def _label(row: np.ndarray) -> str:
    return pair_label(*row.tolist())


# Sign patterns (c1, c2) of each class, c1.sign ascending.
_SIGN_PATTERNS = {SAME_SIGN: ((-1, -1), (1, 1)), MIXED_SIGN: ((-1, 1), (1, -1))}


def _family_table(sign_class: str, totals: np.ndarray) -> np.ndarray:
    """Each canonical pair of the class with one of these totals, by (total, c1.length, c1.sign, c2.sign).

    totals are even and ascending.  A total T holds the first lengths
    2, 4, ..., up to T/2, each once per sign pattern of the class.
    """
    counts = totals // 4
    total = np.repeat(totals, counts)
    first_row = np.repeat(np.cumsum(counts) - counts, counts)
    l1 = 2 * (np.arange(len(total)) - first_row) + 2
    patterns = np.array(_SIGN_PATTERNS[sign_class])
    total, l1 = np.repeat(total, 2), np.repeat(l1, 2)
    s1, s2 = np.tile(patterns, (len(total) // 2, 1)).T
    # at equal lengths (+,-) is the canonical (-,+) again
    keep = (2 * l1 < total) | (s1 <= s2)
    return np.column_stack([l1, s1, total - l1, s2])[keep]


def _family(budget_n: int, sign_class: str) -> np.ndarray:
    _check_sign_class(sign_class)
    _check_budget(budget_n)
    return _family_table(sign_class, np.arange(4, budget_n + 1, 2))


def enumerate_pairs(budget_n: int, sign_class: str) -> list[CyclePair]:
    """Each canonical pair of the class that fits the budget, by (total, c1.length, c1.sign, c2.sign)."""
    return [_pair(*row) for row in _family(budget_n, sign_class).tolist()]


@cache
def _cycle_table() -> np.ndarray:
    """iota_energy_cycle(length, sign) at row length/2 - 1, column (sign + 1)/2,
    for every even length up to MAX_BUDGET; built on first use, read-only."""
    table = np.array(
        [[iota_energy_cycle(length, sign) for sign in (-1, 1)] for length in range(2, MAX_BUDGET + 1, 2)]
    )
    table.flags.writeable = False
    return table


def _values(codes: np.ndarray) -> np.ndarray:
    """Iota energy of each row: the c1 cycle's value plus the c2 cycle's.

    Both are read from _cycle_table, so a row's value is bit-identical to
    pair_iota of its pair; every caller keeps its totals within MAX_BUDGET.
    """
    cycle = _cycle_table()
    return (
        cycle[codes[:, 0] // 2 - 1, (codes[:, 1] + 1) // 2]
        + cycle[codes[:, 2] // 2 - 1, (codes[:, 3] + 1) // 2]
    )


def _tie_break_keys(codes: np.ndarray) -> tuple[np.ndarray, ...]:
    """Keys for np.lexsort, last one first: total descending, shorter cycle
    ascending, (-,-) < mixed < (+,+)."""
    n_positive = (codes[:, 1] > 0).astype(np.int64) + (codes[:, 3] > 0)
    return n_positive, codes[:, 0], -(codes[:, 0] + codes[:, 2])


def _sorted(
    budget_n: int, sign_class: str, codes: np.ndarray, values: np.ndarray, tie_tol: float
) -> OrderingSequence:
    """Sort a table descending and chain values within tie_tol into tie groups.

    A group continues while the step down from the previous value is
    <= tie_tol.  Inside a group rows are ordered by the tie-break key, the
    one sort that reads it; rows with equal keys keep their value order.
    """
    order = np.argsort(-values, kind="stable")
    codes, values = codes[order], values[order]
    starts = np.ones(len(values), dtype=bool)
    starts[1:] = values[:-1] - values[1:] > tie_tol
    groups = np.cumsum(starts)
    # groups is the primary key, so reordering within groups leaves it as it is
    order = np.lexsort(_tie_break_keys(codes) + (groups,))
    return OrderingSequence(budget_n, sign_class, codes[order], values[order], groups, tie_tol)


def _is_floating(codes: np.ndarray) -> np.ndarray:
    """Mixed rows whose positive cycle is C_2^+ next to a longer negative."""
    return (codes[:, 0] == 2) & (codes[:, 1] == 1) & (codes[:, 3] == -1) & (codes[:, 2] >= 4)


def ordered_sequence(
    budget_n: int,
    sign_class: str,
    exclude_floating: bool = False,
    tie_tol: float = TIE_TOL,
) -> OrderingSequence:
    """Numeric descending ordering of the family, with tie groups.

    Pairs whose values agree within tie_tol, a number >= 0 that the
    sequence keeps, share a tie group and are ordered inside it by total
    length (desc), shorter cycle (asc) and sign pattern.  With
    exclude_floating, mixed pairs (C_m^-, C_2^+) for m >= 4 are dropped;
    (C_2^-, C_2^+) stays.
    """
    if not tie_tol >= 0.0:
        raise ValueError(f"tie tolerance must be a number >= 0, got {tie_tol!r}")
    codes = _family(budget_n, sign_class)
    if exclude_floating and sign_class == MIXED_SIGN:
        codes = codes[~_is_floating(codes)]
    return _sorted(budget_n, sign_class, codes, _values(codes), tie_tol)


def restrict(sequence: OrderingSequence, budget_n: int) -> OrderingSequence:
    """The ordering of the same family at a smaller budget.

    A pair's value does not depend on the budget, so this masks the rows
    that fit budget_n, keeps their values and sorts and groups them again
    with the sequence's tie_tol; the result equals ordered_sequence at
    budget_n with that tolerance.
    """
    _check_budget(budget_n)
    if budget_n > sequence.budget_n:
        raise ValueError(f"budget must be in 4..{sequence.budget_n}, got {budget_n}")
    codes = sequence.codes
    fits = codes[:, 0] + codes[:, 2] <= budget_n
    return _sorted(budget_n, sequence.sign_class, codes[fits], sequence.values[fits], sequence.tie_tol)


def _center(total):
    """Largest first length of a pair with this even total (center of the block); also elementwise."""
    half = total // 2
    return half - half % 2


# The tail of the same-sign prediction, from (C_10^+, C_10^+) down, written
# out because the block pattern only sets in from total 22 upwards.  Flag
# marks an exact tie with the previous entry.
_SAME_SIGN_SMALL_ORDER: tuple[tuple[int, int, int, int, bool], ...] = (
    (10, 1, 10, 1, False),
    (8, 1, 12, 1, False),
    (2, -1, 16, -1, False),
    (6, 1, 14, 1, False),
    (4, 1, 16, 1, False),
    (4, -1, 14, -1, False),
    (6, -1, 12, -1, False),
    (8, -1, 10, -1, False),
    (2, 1, 18, 1, False),
    (2, -1, 14, -1, False),
    (8, 1, 10, 1, False),
    (6, 1, 12, 1, False),
    (4, 1, 14, 1, False),
    (4, -1, 12, -1, False),
    (6, -1, 10, -1, False),
    (8, -1, 8, -1, False),
    (2, 1, 16, 1, False),
    (2, -1, 12, -1, False),
    (8, 1, 8, 1, False),
    (6, 1, 10, 1, False),
    (4, 1, 12, 1, False),
    (4, -1, 10, -1, False),
    (6, -1, 8, -1, False),
    (2, 1, 14, 1, False),
    (2, -1, 10, -1, False),
    (6, 1, 8, 1, False),
    (4, 1, 10, 1, False),
    (4, -1, 8, -1, False),
    (6, -1, 6, -1, False),
    (2, 1, 12, 1, False),
    (2, -1, 8, -1, False),
    (6, 1, 6, 1, False),
    (4, 1, 8, 1, False),
    (4, -1, 6, -1, True),
    (2, 1, 10, 1, False),
    (2, -1, 6, -1, False),
    (4, -1, 4, -1, False),
    (4, 1, 6, 1, False),
    (2, 1, 8, 1, False),
    (2, -1, 4, -1, True),
    (4, 1, 4, 1, False),
    (2, -1, 2, -1, True),
    (2, 1, 6, 1, False),
    (2, 1, 4, 1, False),
    (2, 1, 2, 1, False),
)


def _fit(codes: np.ndarray, tied: np.ndarray, budget_n: int) -> tuple[np.ndarray, np.ndarray]:
    """The prediction's rows with total <= budget_n; a tie flag survives only with its previous row."""
    kept = codes[:, 0] + codes[:, 2] <= budget_n
    return codes[kept], (tied & np.r_[False, kept[:-1]])[kept]


def _same_sign_pattern(budget_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and tie flags of the same-sign prediction, see predicted_same_sign_chain.

    The same-sign family of totals 20 to max(22, budget), less its (+,+)
    rows of total 20, by (block descending, place ascending), then the
    written-out tail.  A row's block is its total, but (C_2^+, C_T^+) and
    (C_4^+, C_{T-2}^+) sit in block T.  Its place is l1 for a (-,-) row, 3
    for (C_4^+), the block for (C_2^+) and 2*block - l1 for the other (+,+)
    rows: (2)-, (4)+, the other (-,-) rows outward, (2)+, the other (+,+)
    rows inward.
    """
    _check_budget(budget_n)
    codes = _family_table(SAME_SIGN, np.arange(20, max(budget_n - budget_n % 2, 22) + 1, 2))
    codes = codes[(codes[:, 1] < 0) | (codes[:, 0] + codes[:, 2] > 20)]
    l1, negative = codes[:, 0], codes[:, 1] < 0
    block = l1 + codes[:, 2] - 2 * (~negative & (l1 <= 4))
    place = np.select([negative, l1 == 2, l1 == 4], [l1, block, 3], 2 * block - l1)
    tail = np.array(_SAME_SIGN_SMALL_ORDER)
    rows = np.concatenate([codes[np.lexsort((place, -block))], tail[:, :4]])
    return _fit(rows, np.r_[np.zeros(len(codes), dtype=bool), tail[:, 4] == 1], budget_n)


def predicted_same_sign_chain(budget_n: int) -> list[tuple[CyclePair, bool]]:
    """Block-pattern prediction of the same-sign ordering, for budgets >= 4.

    With N the largest even total, at least 22, the head block lists all
    (-,-) pairs of total N from (2, N-2) inward, then the (+,+) pairs of
    total N from the center outward down to first length 6.  Each later
    total T >= 22 contributes the stretch

        (2,T-2)- (4,T-2)+ (4,T-4)- ... center- (2,T)+ center+ ... (6,T-6)+

    where the two interleaved (+,+) entries carry total T+2.  The stretch
    of total 20 stops after (2,22)+; the written-out tail follows.
    Flags mark exact ties with the previous entry.  Only the pairs that
    fit the budget are kept, and a flag only with its previous entry.
    """
    codes, tied = _same_sign_pattern(budget_n)
    return [(_pair(*row), flag) for row, flag in zip(codes.tolist(), tied.tolist())]


def _mixed_pattern(budget_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and (all false) tie flags of the mixed block pattern, see predicted_mixed_chain.

    The rows are the floating-free mixed family by (total descending,
    negative cycle length ascending).
    """
    codes = _family(budget_n, MIXED_SIGN)
    codes = codes[~_is_floating(codes)]
    negative_length = np.where(codes[:, 1] < 0, codes[:, 0], codes[:, 2])
    codes = codes[np.lexsort((negative_length, -(codes[:, 0] + codes[:, 2])))]
    return codes, np.zeros(len(codes), dtype=bool)


def predicted_mixed_chain(budget_n: int) -> list[CyclePair]:
    """Block prediction of the mixed ordering without floating pairs.

    Totals descend from the largest even total to 4; inside a total T the
    negative cycle grows from 2 to T-4, so the positive partner never drops
    below C_4^+ except for the closing (C_2^-, C_2^+).
    """
    return [_pair(*row) for row in _mixed_pattern(budget_n)[0].tolist()]


def _compare_chain(sequence: OrderingSequence, codes: np.ndarray, tied: np.ndarray) -> str:
    """Empty string when the sequence matches the expected rows and tie flags, else the first mismatch."""
    if len(sequence.codes) != len(codes):
        return f"expected {len(codes)} entries, ordering has {len(sequence.codes)}"
    groups = sequence.tie_groups
    actually_tied = np.zeros(len(groups), dtype=bool)
    actually_tied[1:] = groups[1:] == groups[:-1]
    other_pair = (sequence.codes != codes).any(axis=1)
    mismatches = np.flatnonzero(other_pair | (actually_tied != tied))
    if not len(mismatches):
        return ""
    i = int(mismatches[0])
    if other_pair[i]:
        return f"position {i + 1}: expected {_label(codes[i])}, ordering has {_label(sequence.codes[i])}"
    kind = "tie" if tied[i] else "strict drop"
    return f"position {i + 1}: expected {kind} before {_label(codes[i])}"


def check_same_sign_chain(sequence: OrderingSequence) -> str:
    """Verify the same-sign block pattern against a numeric same-sign ordering.

    Returns "" on a pass, else the first mismatch.
    """
    return _compare_chain(sequence, *_same_sign_pattern(sequence.budget_n))


def check_mixed_chain(sequence: OrderingSequence) -> str:
    """Verify the mixed block pattern against a floating-free numeric mixed ordering.

    Returns "" on a pass, else the first mismatch.
    """
    return _compare_chain(sequence, *_mixed_pattern(sequence.budget_n))


def _narrow_groups(sequence: OrderingSequence) -> bool:
    """Whether every tie group spans at most the sequence's tie_tol.

    Neighbouring groups drop by more than tie_tol, since that is how they
    were formed, so then masking the rows to total <= n neither splits nor
    merges a group: the budget-n ordering is the sequence masked.
    """
    starts = np.flatnonzero(np.diff(sequence.tie_groups, prepend=0))
    highest = np.maximum.reduceat(sequence.values, starts)
    lowest = np.minimum.reduceat(sequence.values, starts)
    return bool(np.all(highest - lowest <= sequence.tie_tol))


def _failing_budgets(sequence: OrderingSequence, codes: np.ndarray, tied: np.ndarray) -> np.ndarray:
    """Whether the chain check fails at each budget 0..sequence.budget_n, from the n_max table alone.

    Valid when each tie group spans at most the sequence's tie_tol, as
    chain_details makes sure (see _narrow_groups): the budget-n ordering is
    the sequence masked, as the fitted prediction is the prediction masked.
    Masked rows that are equal at n are equal below n, so they are equal
    up to a limit found by binary search.  Up to it, each row's numeric tie
    flag turns on at the smallest total of an earlier row of its group, and
    its predicted flag, if set, at the total of the prediction's row before
    it; a budget fails where the two differ.
    """
    n_max = sequence.budget_n
    totals = sequence.codes[:, 0] + sequence.codes[:, 2]
    predicted_totals = codes[:, 0] + codes[:, 2]

    def rows_equal(n: int) -> bool:
        return np.array_equal(sequence.codes[totals <= n], codes[predicted_totals <= n])

    lo, hi = 0, n_max + 1  # rows_equal(lo) holds, rows_equal(hi) is taken to fail
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if rows_equal(mid) else (lo, mid)
    limit = lo

    # the smallest total of an earlier row of the same group, never if none:
    # offsetting each group below the one before makes a running minimum
    # restart at every group
    never = n_max + 1
    offset = (n_max + 1) * sequence.tie_groups
    earliest = np.minimum.accumulate(totals - offset) + offset
    numeric_on = np.full(len(totals), never)
    same_group = sequence.tie_groups[1:] == sequence.tie_groups[:-1]
    numeric_on[1:][same_group] = earliest[:-1][same_group]
    predicted_on = np.full(len(codes), never)
    predicted_on[1:][tied[1:]] = predicted_totals[:-1][tied[1:]]

    # up to the limit the i-th row with total <= limit is the same in both;
    # from the row's own total on, its flags differ between the two steps
    here, there = np.flatnonzero(totals <= limit), np.flatnonzero(predicted_totals <= limit)
    numeric, predicted = numeric_on[here], predicted_on[there]
    start = np.maximum(totals[here], np.minimum(numeric, predicted))
    stop = np.maximum(numeric, predicted)
    some = start < stop
    mismatches = np.bincount(start[some], minlength=n_max + 2) - np.bincount(stop[some], minlength=n_max + 2)
    fails = np.cumsum(mismatches)[: n_max + 1] > 0
    fails[limit + 1 :] = True
    return fails


def chain_details(sequence: OrderingSequence, first_n: int) -> list[str]:
    """The chain check of the sequence restricted to each budget first_n..sequence.budget_n.

    Builds the class's prediction once; a mixed sequence must be
    floating-free.  Details are "" on a pass.  When every tie group spans
    at most the sequence's tie_tol, the verdicts of all budgets come from
    the n_max table in O(rows) passes, see _failing_budgets, and only the
    failing budgets are candidates; otherwise, as for a chain of small
    steps grouped at tie_tol 3.0, every budget is.  Each candidate is
    judged by restrict, _fit and _compare_chain, so its detail is the text
    a check of ordered_sequence at that budget and tolerance gives.
    """
    if first_n < 4:
        raise ValueError(f"budget must be in 4..{sequence.budget_n}, got {first_n}")
    pattern = _same_sign_pattern if sequence.sign_class == SAME_SIGN else _mixed_pattern
    codes, tied = pattern(sequence.budget_n)
    budgets = np.arange(first_n, sequence.budget_n + 1)
    if _narrow_groups(sequence):
        budgets = budgets[_failing_budgets(sequence, codes, tied)[first_n:]]
    details = [""] * max(0, sequence.budget_n + 1 - first_n)
    for n in budgets.tolist():
        details[n - first_n] = _compare_chain(restrict(sequence, n), *_fit(codes, tied, n))
    return details


def _strict_descent_details(rows: np.ndarray, values: np.ndarray, lengths: np.ndarray) -> list[str]:
    """Per chain, "" when its values drop strictly, by more than TIE_TOL at each step, else its first non-drop.

    rows and values hold the chains one after another, lengths[c] rows for
    chain c; no step from one chain to the next is judged.
    """
    chain = np.repeat(np.arange(len(lengths)), lengths)
    stalls = np.flatnonzero((chain[1:] == chain[:-1]) & (values[:-1] - values[1:] <= TIE_TOL)) + 1
    details = [""] * len(lengths)
    # stalls ascend, so the first one of each chain is its first index here
    stalled, first = np.unique(chain[stalls], return_index=True)
    for c, i in zip(stalled.tolist(), stalls[first].tolist()):
        details[c] = f"no strict drop from {_label(rows[i - 1])} to {_label(rows[i])}"
    return details


def _exact_total_details(totals: np.ndarray) -> list[str]:
    """The exact-total chain check of each even total, ascending, all from one table.

    A total's chain is its (-,-) rows by first length ascending, then its
    (+,+) rows by first length descending: one lexsort of the same-sign
    family of these totals.  A total T has 2 * (T // 4) rows.
    """
    codes = _family_table(SAME_SIGN, totals)
    negative = codes[:, 1] < 0
    place = np.where(negative, codes[:, 0], -codes[:, 0])
    chains = codes[np.lexsort((place, ~negative, codes[:, 0] + codes[:, 2]))]
    return _strict_descent_details(chains, _values(chains), 2 * (totals // 4))


def check_exact_total_chain(n: int) -> str:
    """Verify the descending chain of pairs whose total is exactly n.

    The chain runs through the (-,-) pairs from (2, n-2) to the center and
    back out through the (+,+) pairs to (2, n-2), every pair of total n
    once; it must decrease strictly, by more than TIE_TOL at each step.
    Finite values that do are already in the numeric sort's order, so the
    chain then agrees with the numeric sort of the exact-total family too.
    Returns "" on a pass, else the first step that does not drop.  n may
    not exceed MAX_BUDGET, above which the drops are not known to exceed
    TIE_TOL.  The one-total call of exact_total_details.
    """
    if n <= 4 or n % 2 != 0:
        raise ValueError(f"total must be even and > 4, got {n}")
    _check_budget(n)
    return _exact_total_details(np.array([n]))[0]


def exact_total_details(n_max: int) -> dict[int, str]:
    """check_exact_total_chain of each even total 6..n_max, by total, from one table."""
    _check_budget(n_max)
    totals = np.arange(6, n_max + 1, 2)
    return dict(zip(totals.tolist(), _exact_total_details(totals)))


def splice_gap(n: int) -> float:
    """2*csc(pi/(n-4)) - 2*cot(pi/(n-6)), the margin that splices blocks.

    The (C_6^+, C_{n-6}^+) > (C_2^-, C_{n-4}^-) step of the same-sign
    pattern holds exactly when this gap stays below 2*sqrt(3) - 2; the gap
    is about 1.463 at n = 22 and decreases for every real n >= 22: its
    derivative is 2[G(n-4) - q(n-6)] < 0, as pi*G < 1 < pi*q by lemmas A
    and B of `trig`.  n is a budget, so at most MAX_BUDGET.
    """
    _check_budget(n)
    if n < 22 or n % 2 != 0:
        raise ValueError(f"splice gap is defined for even n >= 22, got {n}")
    return iota_energy_cycle(n - 4, -1) - iota_energy_cycle(n - 6, 1)


def _splice_details(ns: np.ndarray) -> list[str]:
    """The splice check of each even n >= 22, from one array of both three-row chains of every n."""
    center = _center(ns - 2)
    rows = [
        (center, -1, ns - 2 - center, -1),
        (2, 1, ns - 2, 1),
        (center, 1, ns - 2 - center, 1),
        (6, 1, ns - 6, 1),
        (2, -1, ns - 4, -1),
        (4, 1, ns - 4, 1),
    ]
    # (n, row, column), so that the i-th n holds chains 2i and 2i + 1, three rows each
    chains = np.stack([np.stack(np.broadcast_arrays(*row), axis=-1) for row in rows], axis=1).reshape(-1, 4)
    details = _strict_descent_details(chains, _values(chains), np.full(2 * len(ns), 3))
    return [
        first or second or (f"splice gap too large at n={n}" if splice_gap(n) >= 2.0 * math.sqrt(3.0) - 2.0 else "")
        for n, first, second in zip(ns.tolist(), details[0::2], details[1::2])
    ]


def check_splice_inequalities(n: int) -> str:
    """Verify the three strict inequalities that splice adjacent blocks.

    For even n >= 22: the center (-,-) pair of total n-2 beats
    (C_2^+, C_{n-2}^+), which beats the center (+,+) pair of total n-2; and
    (C_6^+, C_{n-6}^+) > (C_2^-, C_{n-4}^-) > (C_4^+, C_{n-4}^+).
    Returns "" on a pass, else the first inequality that fails.  n may not
    exceed MAX_BUDGET, as for check_exact_total_chain.  The one-n call of
    splice_details.
    """
    if n < 22 or n % 2 != 0:
        raise ValueError(f"splice inequalities need even n >= 22, got {n}")
    _check_budget(n)
    return _splice_details(np.array([n]))[0]


def splice_details(n_max: int) -> dict[int, str]:
    """check_splice_inequalities of each even n 22..n_max, by n, from one array."""
    _check_budget(n_max)
    ns = np.arange(22, n_max + 1, 2)
    return dict(zip(ns.tolist(), _splice_details(ns)))


def expected_floating_brackets(budget_n: int) -> tuple[CyclePair, CyclePair] | None:
    """Tabulated bracketing rule for the floating pair, bands from 10 to 48.

    Returns (above, below) or None for budgets in 4..MAX_BUDGET outside
    the tabulated bands, where no rule is claimed.  Caveat: the last band overshoots by
    one step; at n = 48 the numeric ordering already brackets the floating
    pair between (C_12^-, C_34^+) and (C_14^-, C_32^+), so the tabulated
    entry fails there by about 3.6e-3.  locate_floating_pair always
    reports the true numeric position.
    """
    _check_budget(budget_n)
    bands = [
        (10, 16, 2),
        (18, 22, 4),
        (24, 30, 6),
        (32, 38, 8),
        (40, 48, 10),
    ]
    for lo, hi, m in bands:
        if lo <= budget_n <= hi:
            above = _pair(m, -1, budget_n - m - 2, 1)
            below = _pair(m + 2, -1, budget_n - m - 4, 1)
            return above, below
    return None


def _floating_neighbours(sequence: OrderingSequence, budget_n: int) -> tuple[int, int | None, int | None]:
    """Positions of the floating pair (C_{n-2}^-, C_2^+) of n = budget_n in a full mixed
    sequence, and of its neighbours among the rows with total <= n, None past either end.

    In a sequence of budget n these are the rows just before and after it.
    """
    target = (2, 1, budget_n - 2, -1)
    hits = np.flatnonzero((sequence.codes == target).all(axis=1))
    if not len(hits):
        raise RuntimeError(f"floating pair {pair_label(*target)} missing from the mixed family")
    i = int(hits[0])
    fits = np.flatnonzero(sequence.codes[:, 0] + sequence.codes[:, 2] <= budget_n)
    at = int(np.searchsorted(fits, i))
    above = int(fits[at - 1]) if at > 0 else None
    below = int(fits[at + 1]) if at + 1 < len(fits) else None
    return i, above, below


def locate_floating_pair(budget_n: int) -> FloatingPairReport:
    """Rank and neighbors of (C_{n-2}^-, C_2^+) in the full mixed ordering."""
    if budget_n % 2 != 0 or budget_n < 10:
        raise ValueError(f"floating pair needs an even budget >= 10, got {budget_n}")
    sequence = ordered_sequence(budget_n, MIXED_SIGN, exclude_floating=False)
    i, above, below = _floating_neighbours(sequence, budget_n)
    return FloatingPairReport(
        budget_n=budget_n,
        entry=sequence._entry(i),
        above=None if above is None else sequence._entry(above),
        below=None if below is None else sequence._entry(below),
    )


def _bracket_mismatch(budget_n: int, got_above: CyclePair | None, got_below: CyclePair | None) -> str | None:
    expected = expected_floating_brackets(budget_n)
    if expected is None:
        return None
    above, below = expected
    if (got_above, got_below) == (above, below):
        return ""
    return f"expected between {above} and {below}, got {got_above} and {got_below}"


def floating_bracket_mismatch(report: FloatingPairReport) -> str | None:
    """How the located floating pair misses its tabulated bracket.

    None where no bracket is stated for the budget, "" on a match.
    """
    got_above = report.above.pair if report.above else None
    got_below = report.below.pair if report.below else None
    return _bracket_mismatch(report.budget_n, got_above, got_below)


def floating_bracket_details(n_max: int) -> dict[int, str]:
    """floating_bracket_mismatch(locate_floating_pair(n)) of each even n 10..n_max with a tabulated bracket, by n.

    All budgets read one full mixed ordering, at the largest of them, whose
    tie groups must be narrow (see _narrow_groups): then the budget-n
    ordering is its rows with total <= n, so the neighbours are read off
    those rows.  A wide group raises RuntimeError naming the budget.
    """
    _check_budget(n_max)
    budgets = [n for n in range(10, n_max + 1, 2) if expected_floating_brackets(n) is not None]
    if not budgets:
        return {}
    sequence = ordered_sequence(budgets[-1], MIXED_SIGN)
    if not _narrow_groups(sequence):
        raise RuntimeError(f"mixed ordering at budget {budgets[-1]} has a tie group wider than {sequence.tie_tol}")
    details = {}
    for n in budgets:
        _, above, below = _floating_neighbours(sequence, n)
        pairs = [None if i is None else _pair(*sequence.codes[i].tolist()) for i in (above, below)]
        details[n] = _bracket_mismatch(n, *pairs)
    return details


def _extremes(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The union of both sign classes at n_max, sorted once, and its ends at every budget.

    Returns (codes, values, first, last): the union's rows and values in
    stable (value descending, tie-break) order, and for each budget
    n <= n_max the positions first[n] and last[n] of its first and last
    row with total <= n.  Filtering keeps the order, so these are the
    maximum and minimum of the budget-n union, the first of equal keys for
    the maximum and the last for the minimum.
    """
    _check_budget(n_max)
    codes = np.concatenate([_family(n_max, SAME_SIGN), _family(n_max, MIXED_SIGN)])
    values = _values(codes)
    order = np.lexsort(_tie_break_keys(codes) + (-values,))
    codes, values = codes[order], values[order]
    totals = codes[:, 0] + codes[:, 2]
    positions = np.arange(len(totals))
    first = np.full(n_max + 1, len(totals))
    last = np.full(n_max + 1, -1)
    np.minimum.at(first, totals, positions)
    np.maximum.at(last, totals, positions)
    return codes, values, np.minimum.accumulate(first), np.maximum.accumulate(last)


def _extremal_detail(top: np.ndarray, low: np.ndarray, budget_n: int) -> str:
    """Empty string when the extreme rows are the closed-form pairs, else why not."""
    longest = budget_n - 2 if budget_n % 2 == 0 else budget_n - 3
    expected_max = (2, -1, longest, -1)
    expected_min = (2, 1, 2, 1)
    if tuple(top.tolist()) != expected_max:
        return f"maximum {_label(top)} is not the expected {pair_label(*expected_max)}"
    if tuple(low.tolist()) != expected_min:
        return f"minimum {_label(low)} is not the expected {pair_label(*expected_min)}"
    return ""


def extremal_pairs(budget_n: int) -> tuple[OrderingEntry, OrderingEntry]:
    """Maximal and minimal entries over the union of both sign classes.

    Also asserts the closed-form identification of the extremes: the
    maximum pairs C_2^- with the longest even negative cycle that fits,
    the minimum is always (C_2^+, C_2^+).
    """
    codes, values, first, last = _extremes(budget_n)
    top, low = first[budget_n], last[budget_n]
    detail = _extremal_detail(codes[top], codes[low], budget_n)
    if detail:
        raise RuntimeError(detail)
    # the union at budget_n, grouped as ordered_sequence groups with TIE_TOL
    groups = 1 + int(np.count_nonzero(~(values[:-1] - values[1:] <= TIE_TOL)))
    maximum = OrderingEntry(pair=_pair(*codes[top].tolist()), value=float(values[top]), rank=1, tie_group=1)
    minimum = OrderingEntry(
        pair=_pair(*codes[low].tolist()), value=float(values[low]), rank=len(values), tie_group=groups
    )
    return maximum, minimum


def extremal_details(n_max: int) -> list[str]:
    """For each budget 4..n_max, "" where extremal_pairs passes, else what it raises.

    Every budget is judged on its own extremes, all read off one sort of
    the n_max union.
    """
    codes, _, first, last = _extremes(n_max)
    return [_extremal_detail(codes[first[n]], codes[last[n]], n) for n in range(4, n_max + 1)]


__all__ = [
    "SAME_SIGN",
    "MIXED_SIGN",
    "TIE_TOL",
    "MAX_BUDGET",
    "OrderingEntry",
    "OrderingSequence",
    "FloatingPairReport",
    "enumerate_pairs",
    "ordered_sequence",
    "restrict",
    "predicted_same_sign_chain",
    "predicted_mixed_chain",
    "check_same_sign_chain",
    "check_mixed_chain",
    "chain_details",
    "check_exact_total_chain",
    "exact_total_details",
    "check_splice_inequalities",
    "splice_details",
    "splice_gap",
    "expected_floating_brackets",
    "locate_floating_pair",
    "floating_bracket_mismatch",
    "floating_bracket_details",
    "extremal_pairs",
    "extremal_details",
]
