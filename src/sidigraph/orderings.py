"""Descending iota-energy orderings of two-cycle families.

For a vertex budget n, the family holds every pair of vertex-disjoint even
cycles whose lengths sum to at most n.  The same-sign class keeps (+,+) and
(-,-) pairs, the mixed class one cycle of each sign.  Besides the plain
numeric sort, this module builds the closed-form block patterns those
orderings are predicted to follow and checks prediction against sort.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .cycle_formulas import pair_iota
from .graphs import CyclePair, SignedCycle

SAME_SIGN = "same_sign"
MIXED_SIGN = "mixed_sign"

# Values closer than this are one tie group; genuine gaps between distinct
# pair values stay above 4e-5 for budgets up to 60 (see the gap audit test).
TIE_TOL = 1e-9


@dataclass(frozen=True)
class OrderingEntry:
    pair: CyclePair
    value: float
    rank: int
    tie_group: int


@dataclass(frozen=True)
class OrderingSequence:
    budget_n: int
    sign_class: str
    entries: tuple[OrderingEntry, ...]


@dataclass(frozen=True)
class FloatingPairReport:
    """Position of the (C_{n-2}^-, C_2^+) pair inside the full mixed ordering."""

    budget_n: int
    entry: OrderingEntry
    above: OrderingEntry | None
    below: OrderingEntry | None


@dataclass(frozen=True)
class ChainCheckReport:
    budget_n: int
    sign_class: str
    passed: bool
    detail: str = ""


def _check_sign_class(sign_class: str) -> None:
    if sign_class not in (SAME_SIGN, MIXED_SIGN):
        raise ValueError(f"sign_class must be {SAME_SIGN!r} or {MIXED_SIGN!r}")


def _pair(l1: int, s1: int, l2: int, s2: int, budget_n: int) -> CyclePair:
    return CyclePair(SignedCycle(l1, s1), SignedCycle(l2, s2), budget_n)


def enumerate_pairs(budget_n: int, sign_class: str) -> list[CyclePair]:
    """All canonical pairs of the class that fit the budget, deduplicated."""
    _check_sign_class(sign_class)
    if budget_n < 4:
        raise ValueError(f"budget must be >= 4, got {budget_n}")
    pairs: set[CyclePair] = set()
    for r1 in range(2, budget_n - 1, 2):
        for r2 in range(r1, budget_n - r1 + 1, 2):
            if sign_class == SAME_SIGN:
                pairs.add(_pair(r1, 1, r2, 1, budget_n))
                pairs.add(_pair(r1, -1, r2, -1, budget_n))
            else:
                pairs.add(_pair(r1, -1, r2, 1, budget_n))
                pairs.add(_pair(r1, 1, r2, -1, budget_n))
    return sorted(
        pairs,
        key=lambda p: (p.total_length, p.c1.length, p.c1.sign, p.c2.sign),
    )


def _is_floating(pair: CyclePair) -> bool:
    """A mixed pair whose positive cycle is C_2^+ next to a longer negative."""
    return (
        pair.c1.length == 2
        and pair.c1.sign == 1
        and pair.c2.sign == -1
        and pair.c2.length >= 4
    )


def _tie_break_key(pair: CyclePair) -> tuple[int, int, int]:
    # total descending, shorter cycle ascending, (-,-) < mixed < (+,+)
    return (-pair.total_length, pair.c1.length, pair.n_positive)


def ordered_sequence(
    budget_n: int,
    sign_class: str,
    exclude_floating: bool = False,
    tie_tol: float = TIE_TOL,
) -> OrderingSequence:
    """Numeric descending ordering of the family, with tie groups.

    Pairs whose values agree within tie_tol share a tie group and are
    ordered inside it by total length (desc), shorter cycle (asc) and sign
    pattern.  With exclude_floating, mixed pairs (C_m^-, C_2^+) for m >= 4
    are dropped; (C_2^-, C_2^+) stays.
    """
    pairs = enumerate_pairs(budget_n, sign_class)
    if exclude_floating and sign_class == MIXED_SIGN:
        pairs = [p for p in pairs if not _is_floating(p)]
    valued = sorted(
        ((pair_iota(p), p) for p in pairs),
        key=lambda item: (-item[0], _tie_break_key(item[1])),
    )
    groups: list[list[tuple[float, CyclePair]]] = []
    for value, pair in valued:
        if groups and groups[-1][-1][0] - value <= tie_tol:
            groups[-1].append((value, pair))
        else:
            groups.append([(value, pair)])
    entries: list[OrderingEntry] = []
    for group_index, group in enumerate(groups, start=1):
        group.sort(key=lambda item: _tie_break_key(item[1]))
        for value, pair in group:
            entries.append(
                OrderingEntry(pair=pair, value=value, rank=len(entries) + 1, tie_group=group_index)
            )
    return OrderingSequence(budget_n=budget_n, sign_class=sign_class, entries=tuple(entries))


def _center(total: int) -> int:
    """Largest first length of a pair with this even total (center of the block)."""
    half = total // 2
    return half if half % 2 == 0 else half - 1


# Full descending same-sign order for budgets up to 22, written out because
# the block pattern of larger budgets only sets in from total 22 upwards.
# Flag marks an exact tie with the previous entry.
_SAME_SIGN_SMALL_ORDER: tuple[tuple[int, int, int, int, bool], ...] = (
    (2, 1, 20, 1, False),
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


def small_budget_same_sign_order(budget_n: int) -> list[tuple[CyclePair, bool]]:
    """Expected same-sign order for budgets 4..21, written out.

    For budgets below 20 this is the tabulated order filtered to pairs that
    fit; budgets 20 and 21 additionally start with the (-,-) pairs of total
    20, which sit above everything tabulated.  Tie flags are recomputed
    against the surviving predecessor.
    """
    if budget_n < 4:
        raise ValueError(f"budget must be >= 4, got {budget_n}")
    if budget_n > 21:
        raise ValueError(f"budgets >= 22 follow the block pattern, got {budget_n}")
    out: list[tuple[CyclePair, bool]] = []
    if budget_n >= 20:
        out.extend((_pair(m, -1, 20 - m, -1, budget_n), False) for m in range(2, 11, 2))
    dropped_previous = False
    for l1, s1, l2, s2, tied in _SAME_SIGN_SMALL_ORDER:
        if l1 + l2 > budget_n:
            dropped_previous = True
            continue
        out.append((_pair(l1, s1, l2, s2, budget_n), tied and not dropped_previous))
        dropped_previous = False
    return out


def predicted_same_sign_chain(budget_n: int) -> list[tuple[CyclePair, bool]]:
    """Block-pattern prediction of the same-sign ordering for budgets >= 22.

    With N the largest even total, the head block lists all (-,-) pairs of
    total N from (2, N-2) inward, then the (+,+) pairs of total N from the
    center outward down to first length 6.  Each later total T >= 22
    contributes the stretch

        (2,T-2)- (4,T-2)+ (4,T-4)- ... center- (2,T)+ center+ ... (6,T-6)+

    where the two interleaved (+,+) entries carry total T+2.  Totals below
    22 follow the written-out small-budget order, spliced in after its
    leading (C_2^+, C_20^+) entry which the pattern has already produced.
    Flags mark exact ties with the previous entry.
    """
    if budget_n < 22:
        raise ValueError(f"block pattern needs budget >= 22, got {budget_n}")
    top = budget_n - (budget_n % 2)
    chain: list[tuple[CyclePair, bool]] = []

    def neg(m: int, total: int) -> tuple[CyclePair, bool]:
        return _pair(m, -1, total - m, -1, budget_n), False

    def pos(m: int, total: int) -> tuple[CyclePair, bool]:
        return _pair(m, 1, total - m, 1, budget_n), False

    chain.extend(neg(m, top) for m in range(2, _center(top) + 1, 2))
    chain.extend(pos(m, top) for m in range(_center(top), 5, -2))
    for total in range(top - 2, 21, -2):
        chain.append(neg(2, total))
        chain.append(pos(4, total + 2))
        chain.extend(neg(m, total) for m in range(4, _center(total) + 1, 2))
        chain.append(pos(2, total + 2))
        chain.extend(pos(m, total) for m in range(_center(total), 5, -2))
    chain.append(neg(2, 20))
    chain.append(pos(4, 22))
    chain.extend(neg(m, 20) for m in range(4, 11, 2))
    chain.append(pos(2, 22))
    chain.extend(
        (_pair(l1, s1, l2, s2, budget_n), tied)
        for l1, s1, l2, s2, tied in _SAME_SIGN_SMALL_ORDER[1:]
    )
    return chain


def predicted_mixed_chain(budget_n: int) -> list[CyclePair]:
    """Block prediction of the mixed ordering without floating pairs.

    Totals descend from the largest even total to 4; inside a total T the
    negative cycle grows from 2 to T-4, so the positive partner never drops
    below C_4^+ except for the closing (C_2^-, C_2^+).
    """
    if budget_n < 4:
        raise ValueError(f"budget must be >= 4, got {budget_n}")
    top = budget_n - (budget_n % 2)
    chain: list[CyclePair] = []
    for total in range(top, 3, -2):
        if total == 4:
            chain.append(_pair(2, -1, 2, 1, budget_n))
        else:
            chain.extend(_pair(m, -1, total - m, 1, budget_n) for m in range(2, total - 3, 2))
    return chain


def _compare_chain(
    sequence: OrderingSequence,
    expected: list[tuple[CyclePair, bool]],
) -> str:
    """Empty string when the sequence matches the expected chain, else the first mismatch."""
    entries = sequence.entries
    if len(entries) != len(expected):
        return f"expected {len(expected)} entries, ordering has {len(entries)}"
    for i, (pair, tied) in enumerate(expected):
        if entries[i].pair != pair:
            return f"position {i + 1}: expected {pair}, ordering has {entries[i].pair}"
        actually_tied = i > 0 and entries[i].tie_group == entries[i - 1].tie_group
        if actually_tied != tied:
            kind = "tie" if tied else "strict drop"
            return f"position {i + 1}: expected {kind} before {pair}"
    return ""


def check_same_sign_chain(budget_n: int, tie_tol: float = TIE_TOL) -> ChainCheckReport:
    """Verify the same-sign block pattern against the numeric sort."""
    expected = predicted_same_sign_chain(budget_n)
    actual = ordered_sequence(budget_n, SAME_SIGN, tie_tol=tie_tol)
    detail = _compare_chain(actual, expected)
    return ChainCheckReport(budget_n, SAME_SIGN, passed=not detail, detail=detail)


def check_mixed_chain(budget_n: int, tie_tol: float = TIE_TOL) -> ChainCheckReport:
    """Verify the mixed block pattern against the floating-free numeric sort."""
    expected = [(p, False) for p in predicted_mixed_chain(budget_n)]
    actual = ordered_sequence(budget_n, MIXED_SIGN, exclude_floating=True, tie_tol=tie_tol)
    detail = _compare_chain(actual, expected)
    return ChainCheckReport(budget_n, MIXED_SIGN, passed=not detail, detail=detail)


def check_exact_total_chain(n: int) -> ChainCheckReport:
    """Verify the descending chain of pairs whose total is exactly n.

    The chain runs through the (-,-) pairs from (2, n-2) to the center and
    back out through the (+,+) pairs to (2, n-2); it must both decrease
    strictly and agree with the numeric sort of the exact-total family.
    """
    if n <= 4 or n % 2 != 0:
        raise ValueError(f"total must be even and > 4, got {n}")
    chain = [_pair(m, -1, n - m, -1, n) for m in range(2, _center(n) + 1, 2)]
    chain.extend(_pair(m, 1, n - m, 1, n) for m in range(_center(n), 1, -2))
    values = [pair_iota(p) for p in chain]
    for i in range(1, len(values)):
        if values[i - 1] - values[i] <= TIE_TOL:
            return ChainCheckReport(
                n,
                SAME_SIGN,
                passed=False,
                detail=f"no strict drop from {chain[i - 1]} to {chain[i]}",
            )
    numeric = sorted(
        (p for p in enumerate_pairs(n, SAME_SIGN) if p.total_length == n),
        key=lambda p: -pair_iota(p),
    )
    if numeric != chain:
        return ChainCheckReport(n, SAME_SIGN, passed=False, detail="chain disagrees with numeric sort")
    return ChainCheckReport(n, SAME_SIGN, passed=True)


def splice_gap(n: int) -> float:
    """2*csc(pi/(n-4)) - 2*cot(pi/(n-6)), the margin that splices blocks.

    The (C_6^+, C_{n-6}^+) > (C_2^-, C_{n-4}^-) step of the same-sign
    pattern holds exactly when this gap stays below 2*sqrt(3) - 2; the gap
    decreases in n and is about 1.463 at n = 22.
    """
    if n < 22 or n % 2 != 0:
        raise ValueError(f"splice gap is defined for even n >= 22, got {n}")
    return 2.0 / math.sin(math.pi / (n - 4)) - 2.0 / math.tan(math.pi / (n - 6))


def check_splice_inequalities(n: int) -> ChainCheckReport:
    """Verify the three strict inequalities that splice adjacent blocks.

    For even n >= 22: the center (-,-) pair of total n-2 beats
    (C_2^+, C_{n-2}^+), which beats the center (+,+) pair of total n-2; and
    (C_6^+, C_{n-6}^+) > (C_2^-, C_{n-4}^-) > (C_4^+, C_{n-4}^+).
    """
    if n < 22 or n % 2 != 0:
        raise ValueError(f"splice inequalities need even n >= 22, got {n}")
    center = _center(n - 2)
    steps = [
        _pair(center, -1, n - 2 - center, -1, n),
        _pair(2, 1, n - 2, 1, n),
        _pair(center, 1, n - 2 - center, 1, n),
    ]
    chains = [steps, [
        _pair(6, 1, n - 6, 1, n),
        _pair(2, -1, n - 4, -1, n),
        _pair(4, 1, n - 4, 1, n),
    ]]
    for chain in chains:
        values = [pair_iota(p) for p in chain]
        for i in range(1, len(values)):
            if values[i - 1] - values[i] <= TIE_TOL:
                return ChainCheckReport(
                    n,
                    SAME_SIGN,
                    passed=False,
                    detail=f"no strict drop from {chain[i - 1]} to {chain[i]}",
                )
    if splice_gap(n) >= 2.0 * math.sqrt(3.0) - 2.0:
        return ChainCheckReport(n, SAME_SIGN, passed=False, detail=f"splice gap too large at n={n}")
    return ChainCheckReport(n, SAME_SIGN, passed=True)


def expected_floating_brackets(budget_n: int) -> tuple[CyclePair, CyclePair] | None:
    """Tabulated bracketing rule for the floating pair, bands from 10 to 48.

    Returns (above, below) or None for even budgets outside the tabulated
    bands, where no rule is claimed.  Caveat: the last band overshoots by
    one step; at n = 48 the numeric ordering already brackets the floating
    pair between (C_12^-, C_34^+) and (C_14^-, C_32^+), so the tabulated
    entry fails there by about 3.6e-3.  locate_floating_pair always
    reports the true numeric position.
    """
    bands = [
        (10, 16, 2),
        (18, 22, 4),
        (24, 30, 6),
        (32, 38, 8),
        (40, 48, 10),
    ]
    for lo, hi, m in bands:
        if lo <= budget_n <= hi:
            above = _pair(m, -1, budget_n - m - 2, 1, budget_n)
            below = _pair(m + 2, -1, budget_n - m - 4, 1, budget_n)
            return above, below
    return None


def locate_floating_pair(budget_n: int) -> FloatingPairReport:
    """Rank and neighbors of (C_{n-2}^-, C_2^+) in the full mixed ordering."""
    if budget_n % 2 != 0 or budget_n < 10:
        raise ValueError(f"floating pair needs an even budget >= 10, got {budget_n}")
    target = _pair(budget_n - 2, -1, 2, 1, budget_n)
    sequence = ordered_sequence(budget_n, MIXED_SIGN, exclude_floating=False)
    for i, entry in enumerate(sequence.entries):
        if entry.pair == target:
            above = sequence.entries[i - 1] if i > 0 else None
            below = sequence.entries[i + 1] if i + 1 < len(sequence.entries) else None
            return FloatingPairReport(budget_n=budget_n, entry=entry, above=above, below=below)
    raise RuntimeError(f"floating pair {target} missing from the mixed family")


def floating_bracket_mismatch(report: FloatingPairReport) -> str | None:
    """How the located floating pair misses its tabulated bracket.

    None where no bracket is stated for the budget, "" on a match.
    """
    expected = expected_floating_brackets(report.budget_n)
    if expected is None:
        return None
    above, below = expected
    got_above = report.above.pair if report.above else None
    got_below = report.below.pair if report.below else None
    if (got_above, got_below) == (above, below):
        return ""
    return f"expected between {above} and {below}, got {got_above} and {got_below}"


def extremal_pairs(budget_n: int) -> tuple[OrderingEntry, OrderingEntry]:
    """Maximal and minimal entries over the union of both sign classes.

    Also asserts the closed-form identification of the extremes: the
    maximum pairs C_2^- with the longest even negative cycle that fits,
    the minimum is always (C_2^+, C_2^+).
    """
    if budget_n < 4:
        raise ValueError(f"budget must be >= 4, got {budget_n}")
    pairs = enumerate_pairs(budget_n, SAME_SIGN) + enumerate_pairs(budget_n, MIXED_SIGN)
    valued = sorted(((pair_iota(p), p) for p in pairs), key=lambda item: (-item[0], _tie_break_key(item[1])))
    top_value, top_pair = valued[0]
    low_value, low_pair = valued[-1]
    longest = budget_n - 2 if budget_n % 2 == 0 else budget_n - 3
    expected_max = _pair(2, -1, longest, -1, budget_n)
    expected_min = _pair(2, 1, 2, 1, budget_n)
    if top_pair != expected_max:
        raise RuntimeError(f"maximum {top_pair} is not the expected {expected_max}")
    if low_pair != expected_min:
        raise RuntimeError(f"minimum {low_pair} is not the expected {expected_min}")
    maximum = OrderingEntry(pair=top_pair, value=top_value, rank=1, tie_group=1)
    minimum = OrderingEntry(pair=low_pair, value=low_value, rank=len(valued), tie_group=len(valued))
    return maximum, minimum


__all__ = [
    "SAME_SIGN",
    "MIXED_SIGN",
    "TIE_TOL",
    "OrderingEntry",
    "OrderingSequence",
    "FloatingPairReport",
    "ChainCheckReport",
    "enumerate_pairs",
    "ordered_sequence",
    "small_budget_same_sign_order",
    "predicted_same_sign_chain",
    "predicted_mixed_chain",
    "check_same_sign_chain",
    "check_mixed_chain",
    "check_exact_total_chain",
    "check_splice_inequalities",
    "splice_gap",
    "expected_floating_brackets",
    "locate_floating_pair",
    "floating_bracket_mismatch",
    "extremal_pairs",
]
