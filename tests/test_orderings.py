import functools
import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sidigraph import (
    CyclePair,
    SignedCycle,
    check_exact_total_chain,
    check_mixed_chain,
    check_same_sign_chain,
    check_splice_inequalities,
    enumerate_pairs,
    expected_floating_brackets,
    extremal_pairs,
    iota_energy_of_graph,
    locate_floating_pair,
    ordered_sequence,
    pair_iota,
    predicted_mixed_chain,
    predicted_same_sign_chain,
    restrict,
    splice_gap,
)
import sidigraph
from sidigraph import graphs, orderings, spectra, verification
from sidigraph.cycle_formulas import energy_cycle, iota_energy_cycle
from sidigraph.orderings import MIXED_SIGN, SAME_SIGN
from oracles import (
    brute_force_sign_pairs,
    pair_digraph,
    reference_chain_details,
    reference_exact_total_chain,
    reference_exact_total_verdict,
    reference_extremes,
    reference_floating_mismatch,
    reference_minimum_tie_group,
    reference_ordering,
    reference_same_sign_pattern,
    reference_splice_inequalities,
)


def P(l1, s1, l2, s2):
    return CyclePair(SignedCycle(l1, s1), SignedCycle(l2, s2))


# --- enumeration -----------------------------------------------------------

def test_enumerate_small_families():
    assert set(enumerate_pairs(4, SAME_SIGN)) == {P(2, 1, 2, 1), P(2, -1, 2, -1)}
    assert set(enumerate_pairs(6, MIXED_SIGN)) == {
        P(2, -1, 2, 1),
        P(2, -1, 4, 1),
        P(2, 1, 4, -1),
    }
    # 8 pairs: even partitions (2,2),(2,4),(2,6),(4,4) times two sign classes
    assert len(enumerate_pairs(8, SAME_SIGN)) == 8


@pytest.mark.parametrize("budget", range(4, 26))
@pytest.mark.parametrize("mixed", [False, True])
def test_enumeration_against_brute_force(budget, mixed):
    sign_class = MIXED_SIGN if mixed else SAME_SIGN
    keys = {
        (p.c1.length, p.c1.sign, p.c2.length, p.c2.sign)
        for p in enumerate_pairs(budget, sign_class)
    }
    assert keys == brute_force_sign_pairs(budget, mixed)


@pytest.mark.parametrize("sign_class", [SAME_SIGN, MIXED_SIGN])
def test_enumeration_is_unique_and_in_order(sign_class):
    for budget in range(4, 41):
        pairs = enumerate_pairs(budget, sign_class)
        assert len(set(pairs)) == len(pairs)
        keys = [(p.total_length, p.c1.length, p.c1.sign, p.c2.sign) for p in pairs]
        assert keys == sorted(keys)


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_pairs(3, SAME_SIGN)
    with pytest.raises(ValueError):
        enumerate_pairs(10, "off_sign")


# --- numeric ordering ------------------------------------------------------

def test_ordering_budget_4():
    seq = ordered_sequence(4, SAME_SIGN)
    assert [(str(e.pair), e.rank, e.tie_group) for e in seq.entries] == [
        ("(C2-,C2-)", 1, 1),
        ("(C2+,C2+)", 2, 2),
    ]
    assert seq.entries[0].value == pytest.approx(4.0, abs=1e-12)
    assert seq.entries[1].value == 0.0


def test_ordering_budget_27_head_and_tail():
    seq = ordered_sequence(27, SAME_SIGN)
    head, tail = seq.entries[0], seq.entries[-1]
    assert head.pair == P(2, -1, 24, -1)
    assert head.value == pytest.approx(17.3225951510808, abs=1e-10)
    assert tail.pair == P(2, 1, 2, 1)
    assert tail.value == 0.0


def test_ordering_mixed_budget_6():
    seq = ordered_sequence(6, MIXED_SIGN, exclude_floating=True)
    assert [str(e.pair) for e in seq.entries] == ["(C2-,C4+)", "(C2-,C2+)"]
    assert seq.entries[0].value == pytest.approx(4.0, abs=1e-12)
    assert seq.entries[1].value == pytest.approx(2.0, abs=1e-12)


def test_ordering_values_weakly_decrease():
    for budget in (9, 16, 23, 30):
        for sign_class in (SAME_SIGN, MIXED_SIGN):
            seq = ordered_sequence(budget, sign_class)
            values = [e.value for e in seq.entries]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
            assert [e.rank for e in seq.entries] == list(range(1, len(values) + 1))


def test_ordering_covers_family():
    for budget in (8, 13, 22):
        for sign_class in (SAME_SIGN, MIXED_SIGN):
            seq = ordered_sequence(budget, sign_class)
            assert {e.pair for e in seq.entries} == set(enumerate_pairs(budget, sign_class))


def test_ordering_deterministic():
    a = ordered_sequence(29, SAME_SIGN)
    b = ordered_sequence(29, SAME_SIGN)
    assert a == b


def test_exclude_floating_ignored_for_same_sign():
    a = ordered_sequence(12, SAME_SIGN, exclude_floating=True)
    b = ordered_sequence(12, SAME_SIGN)
    assert a == b


def test_tie_tolerance_is_respected():
    # a huge tolerance merges everything into one group, ordered by tie-break
    seq = ordered_sequence(8, SAME_SIGN, tie_tol=100.0)
    assert {e.tie_group for e in seq.entries} == {1}
    totals = [e.pair.total_length for e in seq.entries]
    assert totals == sorted(totals, reverse=True)


def test_tie_groups_budget_22():
    seq = ordered_sequence(22, SAME_SIGN)
    groups: dict[int, list] = {}
    for e in seq.entries:
        groups.setdefault(e.tie_group, []).append(e)
    multi = {g: es for g, es in groups.items() if len(es) > 1}
    assert len(multi) == 3
    tied_pairs = {frozenset(str(e.pair) for e in es) for es in multi.values()}
    assert tied_pairs == {
        frozenset({"(C4+,C8+)", "(C4-,C6-)"}),
        frozenset({"(C2+,C8+)", "(C2-,C4-)"}),
        frozenset({"(C4+,C4+)", "(C2-,C2-)"}),
    }
    # inside a tie group the larger total comes first
    for es in multi.values():
        assert es[0].pair.total_length >= es[-1].pair.total_length


@pytest.mark.parametrize(
    "sign_class, exclude",
    [(SAME_SIGN, False), (MIXED_SIGN, True), (MIXED_SIGN, False)],
)
def test_restrict_equals_ordering_at_smaller_budget(sign_class, exclude):
    full = ordered_sequence(61, sign_class, exclude_floating=exclude)
    for n in range(4, 62):
        assert restrict(full, n) == ordered_sequence(n, sign_class, exclude_floating=exclude), n
    with pytest.raises(ValueError):
        restrict(full, 62)
    with pytest.raises(ValueError):
        restrict(full, 3)


def test_restriction_keeps_the_tolerance_of_its_sequence():
    full = ordered_sequence(30, MIXED_SIGN, tie_tol=0.5)
    restricted = restrict(full, 20)
    assert restricted == ordered_sequence(20, MIXED_SIGN, tie_tol=0.5)
    assert restricted.tie_tol == 0.5
    assert restricted.tie_groups[-1] == 5


def test_sequences_with_other_tolerances_differ():
    # at budget 12 both tolerances form the same groups
    tight = ordered_sequence(12, SAME_SIGN, tie_tol=1e-12)
    default = ordered_sequence(12, SAME_SIGN)
    assert np.array_equal(tight.tie_groups, default.tie_groups)
    assert tight != default
    assert tight == ordered_sequence(12, SAME_SIGN, tie_tol=1e-12)


def _key(pair):
    return (pair.c1.length, pair.c1.sign, pair.c2.length, pair.c2.sign)


def _table_rows(seq):
    """(key, value bits, rank, tie group) of each row, read off the columns."""
    return [
        (tuple(code), value.hex(), rank, group)
        for code, value, rank, group in zip(
            seq.codes.tolist(),
            seq.values.tolist(),
            range(1, len(seq.values) + 1),
            seq.tie_groups.tolist(),
        )
    ]


def _reference_rows(budget, sign_class, exclude, tie_tol):
    reference = reference_ordering(budget, sign_class == MIXED_SIGN, exclude, tie_tol)
    return [(key, value.hex(), rank, group) for key, value, rank, group in reference]


@pytest.mark.parametrize("tie_tol", [0.0, 1e-9, 3.0, math.inf, -1.0, math.nan])
@pytest.mark.parametrize(
    "sign_class, exclude",
    [(SAME_SIGN, False), (MIXED_SIGN, True), (MIXED_SIGN, False)],
)
def test_table_ordering_matches_loop_reference(sign_class, exclude, tie_tol):
    if not tie_tol >= 0.0:
        # the library refuses what the CLI's --tolerance refuses
        with pytest.raises(ValueError, match="tie tolerance must be a number >= 0"):
            ordered_sequence(80, sign_class, exclude_floating=exclude, tie_tol=tie_tol)
        return
    # pairs, bit-equal values, ranks and tie groups, directly and by restriction
    full = ordered_sequence(80, sign_class, exclude_floating=exclude, tie_tol=tie_tol)
    for n in range(4, 81):
        expected = _reference_rows(n, sign_class, exclude, tie_tol)
        direct = ordered_sequence(n, sign_class, exclude_floating=exclude, tie_tol=tie_tol)
        assert _table_rows(direct) == expected, n
        assert _table_rows(restrict(full, n)) == expected, n


def test_entries_view_matches_columns():
    seq = ordered_sequence(30, MIXED_SIGN, tie_tol=0.5)
    assert seq.entries is seq.entries
    rows = [(_key(e.pair), e.value.hex(), e.rank, e.tie_group) for e in seq.entries]
    assert rows == _table_rows(seq)
    assert all(type(e.value) is float and type(e.rank) is int and type(e.tie_group) is int for e in seq.entries)
    with pytest.raises(AttributeError):
        seq.entries = ()
    with pytest.raises(ValueError):
        seq.values[0] = 0.0


@pytest.mark.parametrize("n", range(4, 81))
def test_extremal_pairs_match_loop_reference(n):
    (top, top_value), (low, low_value), size = reference_extremes(n)
    maximum, minimum = extremal_pairs(n)
    assert (_key(maximum.pair), maximum.value.hex(), maximum.rank) == (top, top_value.hex(), 1)
    assert (_key(minimum.pair), minimum.value.hex(), minimum.rank) == (low, low_value.hex(), size)


@pytest.mark.parametrize("n", range(4, 81))
def test_extremal_tie_groups_match_loop_reference(n):
    maximum, minimum = extremal_pairs(n)
    assert maximum.tie_group == 1
    assert minimum.tie_group == reference_minimum_tie_group(n)


@pytest.mark.parametrize("n", range(6, 81, 2))
def test_exact_total_chain_matches_loop_reference(n):
    assert check_exact_total_chain(n) == reference_exact_total_verdict(n)


def test_small_budget_order_matches_numeric():
    for budget in range(4, 22):
        expected = predicted_same_sign_chain(budget)
        seq = ordered_sequence(budget, SAME_SIGN)
        assert [e.pair for e in seq.entries] == [p for p, _ in expected]
        for i, (_, tied) in enumerate(expected):
            actually = i > 0 and seq.entries[i].tie_group == seq.entries[i - 1].tie_group
            assert actually == tied, (budget, i)


def test_gap_audit():
    # genuine gaps stay far above the tie tolerance; ties are exact to rounding
    min_gap, max_tie = math.inf, 0.0
    for budget in range(4, 61):
        for sign_class, exclude in (
            (SAME_SIGN, False),
            (MIXED_SIGN, False),
            (MIXED_SIGN, True),
        ):
            seq = ordered_sequence(budget, sign_class, exclude_floating=exclude)
            for a, b in zip(seq.entries, seq.entries[1:]):
                if a.tie_group == b.tie_group:
                    max_tie = max(max_tie, abs(a.value - b.value))
                else:
                    min_gap = min(min_gap, a.value - b.value)
    assert min_gap > 1e-5
    assert max_tie < 1e-12


def test_gap_audit_at_the_verify_cap():
    # distinct values at a smaller budget are distinct here, so their gaps
    # are no smaller: up to the budget cap every tie group holds only ties
    for sign_class, exclude in ((SAME_SIGN, False), (MIXED_SIGN, False), (MIXED_SIGN, True)):
        seq = ordered_sequence(orderings.MAX_BUDGET, sign_class, exclude_floating=exclude)
        starts = np.flatnonzero(np.diff(seq.tie_groups, prepend=0))
        highest = np.maximum.reduceat(seq.values, starts)
        lowest = np.minimum.reduceat(seq.values, starts)
        assert (lowest[:-1] - highest[1:]).min() > 10 * orderings.TIE_TOL
        assert (highest - lowest).max() < 1e-12


# --- block-pattern checks --------------------------------------------------

@pytest.mark.parametrize("n", range(22, 61))
def test_same_sign_chain_matches_sort(n):
    detail = check_same_sign_chain(ordered_sequence(n, SAME_SIGN))
    assert not detail, detail


@pytest.mark.parametrize("n", range(6, 61))
def test_mixed_chain_matches_sort(n):
    detail = check_mixed_chain(ordered_sequence(n, MIXED_SIGN, exclude_floating=True))
    assert not detail, detail


def test_predicted_chain_matches_written_example():
    chain = [str(p) for p in predicted_mixed_chain(10)]
    assert chain == [
        "(C2-,C8+)",
        "(C4-,C6+)",
        "(C4+,C6-)",
        "(C2-,C6+)",
        "(C4-,C4+)",
        "(C2-,C4+)",
        "(C2-,C2+)",
    ]


@pytest.mark.parametrize("n", [4, 5, 6, 11, 50, 400])
def test_mixed_prediction_is_the_written_block_rule(n):
    # totals descend to 6, the negative cycle growing from 2 to T - 4
    # inside total T; (C2-,C2+) closes the chain
    expected = [P(m, -1, total - m, 1) for total in range(n - n % 2, 5, -2) for m in range(2, total - 3, 2)]
    assert predicted_mixed_chain(n) == expected + [P(2, -1, 2, 1)]


def test_predicted_chains_refuse_budget_3():
    with pytest.raises(ValueError):
        predicted_same_sign_chain(3)
    with pytest.raises(ValueError):
        predicted_mixed_chain(3)


@pytest.mark.parametrize("n", range(4, 22))
def test_same_sign_chain_matches_sort_below_22(n):
    assert check_same_sign_chain(ordered_sequence(n, SAME_SIGN)) == ""


def test_predictions_are_the_largest_one_fitted_to_each_budget():
    # fitting keeps the pairs with total <= n; a tie flag survives only
    # when the entry before it survives
    same_sign = predicted_same_sign_chain(200)
    mixed = predicted_mixed_chain(200)
    for n in range(4, 201):
        fitted, previous_kept = [], False
        for pair, tied in same_sign:
            kept = pair.total_length <= n
            if kept:
                fitted.append((pair, tied and previous_kept))
            previous_kept = kept
        assert predicted_same_sign_chain(n) == fitted, n
        assert predicted_mixed_chain(n) == [p for p in mixed if p.total_length <= n], n


def test_same_sign_pattern_equals_the_row_builder():
    # the sorted family and the block-by-block row list, rows and tie flags
    for n in list(range(4, 201)) + list(range(397, 401)) + list(range(997, 1001)):
        codes, tied = orderings._same_sign_pattern(n)
        expected_codes, expected_tied = reference_same_sign_pattern(n)
        assert np.array_equal(codes, expected_codes), n
        assert np.array_equal(tied, expected_tied), n


@pytest.mark.parametrize("tie_tol", [1e-9, 3.0])
def test_chain_details_match_single_budget_checks(tie_tol):
    same_sign = ordered_sequence(40, SAME_SIGN, tie_tol=tie_tol)
    mixed = ordered_sequence(40, MIXED_SIGN, exclude_floating=True, tie_tol=tie_tol)
    assert orderings.chain_details(same_sign, 4) == {
        n: check_same_sign_chain(ordered_sequence(n, SAME_SIGN, tie_tol=tie_tol)) for n in range(4, 41)
    }
    assert orderings.chain_details(mixed, 4) == {
        n: check_mixed_chain(ordered_sequence(n, MIXED_SIGN, exclude_floating=True, tie_tol=tie_tol))
        for n in range(4, 41)
    }


@pytest.mark.parametrize("tie_tol", [1e-9, 0.0, 1e-6, 3.0])
@pytest.mark.parametrize(
    "n_max, first_n", [(4, 4), (5, 4), (21, 4), (22, 22), (23, 6), (30, 4), (47, 6), (60, 22), (101, 4), (200, 6)]
)
def test_chain_details_equal_the_per_budget_sweep(n_max, first_n, tie_tol):
    # one pass over the n_max table where tie groups are narrow, the sweep
    # over every budget where a group is wider than tie_tol (3.0)
    for sequence in (
        ordered_sequence(n_max, SAME_SIGN, tie_tol=tie_tol),
        ordered_sequence(n_max, MIXED_SIGN, exclude_floating=True, tie_tol=tie_tol),
    ):
        assert orderings.chain_details(sequence, first_n) == reference_chain_details(sequence, first_n)


def test_chain_details_judge_with_the_tolerance_of_the_sequence():
    # grouped and judged at 3.0, every budget from 22 fails
    details = orderings.chain_details(ordered_sequence(40, SAME_SIGN, tie_tol=3.0), 22)
    assert list(details) == list(range(22, 41)) and all(details.values())


def test_chain_details_judge_a_sequence_the_prediction_misses():
    # the full mixed ordering keeps its floating pairs, which the
    # floating-free prediction lacks, so every budget from 6 up fails
    sequence = ordered_sequence(40, MIXED_SIGN)
    details = orderings.chain_details(sequence, 4)
    assert details == reference_chain_details(sequence, 4)
    assert {n: bool(d) for n, d in details.items()} == {n: n >= 6 for n in range(4, 41)}


def test_chain_details_refuse_a_budget_below_4():
    with pytest.raises(ValueError, match=r"^budget must be >= 4, got 3$"):
        orderings.chain_details(ordered_sequence(30, SAME_SIGN), 3)


@pytest.mark.parametrize("first_n", [6.0, 1001, 10.5])
def test_chain_details_refuse_a_first_budget_that_is_not_one_of_the_sequence(first_n):
    # a float was a TypeError from a slice; the budget rule refuses it, and a
    # budget above the cap, as every entry point does
    rule = "<= 1000" if isinstance(first_n, int) else "an integer"
    with pytest.raises(ValueError, match=rf"^budget must be {rule}, got {first_n}$"):
        orderings.chain_details(ordered_sequence(30, SAME_SIGN), first_n)


def test_chain_details_judge_no_budget_above_the_sequence():
    # details are keyed by budget, so an empty result says no budget lies in 31..30
    assert orderings.chain_details(ordered_sequence(30, SAME_SIGN), 31) == {}


def test_verify_runs_each_chain_from_its_first_budget():
    names = [r.name for r in verification.run_verification(5)]
    assert not [name for name in names if name.startswith(("same-sign chain", "mixed chain"))]
    names = [r.name for r in verification.run_verification(21)]
    assert not [name for name in names if name.startswith("same-sign chain")]
    assert [name for name in names if name.startswith("mixed chain")][0] == "mixed chain n=6"


def test_chain_details_judge_tables_that_differ_only_at_the_top_total(monkeypatch):
    # groups are narrow, but the prediction swaps two rows of total n_max, so
    # the n_max tables differ while every smaller budget masks them equal
    pattern = orderings._same_sign_pattern

    def swapped(budget_n):
        codes, tied = pattern(budget_n)
        codes = codes.copy()
        codes[[0, 1]] = codes[[1, 0]]
        return codes, tied

    monkeypatch.setattr(orderings, "_same_sign_pattern", swapped)
    sequence = ordered_sequence(60, SAME_SIGN)
    codes, _ = swapped(60)
    assert (codes[:2, 0] + codes[:2, 2]).tolist() == [60, 60]
    assert orderings._narrow_groups(sequence)
    details = orderings.chain_details(sequence, 22)
    assert details == reference_chain_details(sequence, 22)
    assert details == {
        **dict.fromkeys(range(22, 60), ""),
        60: "position 1: expected (C4-,C56-), ordering has (C2-,C58-)",
    }


def test_chain_details_restrict_no_budget_from_4_where_the_prediction_holds(monkeypatch):
    # the predicted ties of the written-out tail switch on only with their
    # previous rows, at budgets below the first one verify judges
    restricted = []

    def recorded(sequence, budget_n):
        restricted.append(budget_n)
        return restrict(sequence, budget_n)

    monkeypatch.setattr(orderings, "restrict", recorded)
    for sequence in (ordered_sequence(60, SAME_SIGN), ordered_sequence(60, MIXED_SIGN, exclude_floating=True)):
        assert orderings.chain_details(sequence, 4) == dict.fromkeys(range(4, 61), "")
    assert restricted == []


@pytest.mark.parametrize("n_max", [100, 1000])
def test_verify_restricts_no_budget_at_the_default_tolerance(monkeypatch, n_max):
    restricted = []

    def recorded(sequence, budget_n):
        restricted.append(budget_n)
        return restrict(sequence, budget_n)

    monkeypatch.setattr(orderings, "restrict", recorded)
    results = verification.run_verification(n_max)
    assert restricted == []
    assert sum(r.name.startswith(("same-sign chain", "mixed chain")) for r in results) == (n_max - 21) + (n_max - 5)


@pytest.mark.parametrize("n_max", [4, 5, 9, 10, 21, 22])
def test_verify_lists_the_one_budget_checks_at_the_edges_of_their_ranges(n_max):
    # below 6, 10 and 22 the exact-total, bracket and splice ranges are empty
    expected = [(f"exact-total chain n={n}", reference_exact_total_chain(n)) for n in range(6, n_max + 1, 2)]
    expected += [(f"block splice n={n}", reference_splice_inequalities(n)) for n in range(22, n_max + 1, 2)]
    expected += [(f"floating-pair bracket n={n}", reference_floating_mismatch(n)) for n in range(10, n_max + 1, 2)]
    kinds = ("exact-total chain ", "block splice ", "floating-pair bracket ")
    results = verification.run_verification(n_max)
    assert [(r.name, r.detail) for r in results if r.name.startswith(kinds)] == expected


def test_verify_builds_each_prediction_once(monkeypatch):
    calls = {"_same_sign_pattern": 0, "_mixed_pattern": 0}
    for name in calls:
        builder = getattr(orderings, name)

        def counted(budget_n, builder=builder, name=name):
            calls[name] += 1
            return builder(budget_n)

        monkeypatch.setattr(orderings, name, counted)
    results = verification.run_verification(30)
    assert calls == {"_same_sign_pattern": 1, "_mixed_pattern": 1}
    assert sum(r.name.startswith(("same-sign chain", "mixed chain")) for r in results) == 9 + 25


def test_verify_roots_x_to_the_n_minus_sign_without_char_poly(monkeypatch):
    # the cycle checks prove the analytic roots of x^n - sign (Harary 1962)
    # instead of building the cycle matrix or searching for roots at all;
    # each certified polynomial must still be the one the trace recursion
    # gives for the cycle matrix, coefficient for coefficient
    expected = {
        (n, sign): spectra.char_poly(graphs.adjacency_matrix(graphs.make_cycle(n, sign))).coeffs
        for n in range(2, 31)
        for sign in (1, -1)
    }

    def refuse(*args, **kwargs):
        raise AssertionError("verify searched for roots, or built a cycle matrix or its characteristic polynomial")

    for module in (sidigraph, spectra, graphs, verification):
        for name in ("poly_roots", "char_poly", "adjacency_matrix"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    certified = []
    certify = verification.cycle_root_radii_batch

    def recorded(lengths, signs, approximations):
        certified.extend(zip(lengths, signs))
        return certify(lengths, signs, approximations)

    monkeypatch.setattr(verification, "cycle_root_radii_batch", recorded)
    results = verification.run_verification(30)
    assert all(r.passed for r in results)
    names = "\n".join(r.name for r in results).encode("utf-8")
    # the 213 check names of n_max 30, the same on either route
    assert len(results) == 213
    assert hashlib.sha256(names).hexdigest() == "9ca2716ab323be548a8784f3bf0ae07b00ce424fdf857ce04214f881abc7765e"
    assert certified == list(expected)
    for n, sign in certified:
        assert expected[n, sign] == (-sign,) + (0.0,) * (n - 1) + (1.0,)


@pytest.mark.parametrize("n", range(6, 61, 2))
def test_exact_total_chain(n):
    detail = check_exact_total_chain(n)
    assert not detail, detail


@pytest.mark.parametrize("n", [6, 8, 10, 22, 100, 1000])
def test_exact_total_chain_runs_in_through_minus_and_out_through_plus(monkeypatch, n):
    seen = []
    descent = orderings._strict_descent_details

    def recorded(rows, values, lengths):
        seen.append((rows.tolist(), values.tolist(), lengths.tolist()))
        return descent(rows, values, lengths)

    monkeypatch.setattr(orderings, "_strict_descent_details", recorded)
    assert check_exact_total_chain(n) == ""
    center = n // 2 if (n // 2) % 2 == 0 else n // 2 - 1
    expected = [[m, -1, n - m, -1] for m in range(2, center + 1, 2)]
    expected += [[m, 1, n - m, 1] for m in range(center, 1, -2)]
    assert seen == [(expected, [pair_iota(P(*row)) for row in expected], [len(expected)])]


@pytest.mark.parametrize("n_max", [4, 5, 6, 7, 22, 101, orderings.MAX_BUDGET])
def test_exact_total_details_equal_the_one_total_reference(n_max):
    expected = {n: reference_exact_total_chain(n) for n in range(6, n_max + 1, 2)}
    assert orderings.exact_total_details(n_max) == expected
    if n_max == orderings.MAX_BUDGET:
        assert {n: check_exact_total_chain(n) for n in expected} == expected


@pytest.mark.parametrize("n_max", [4, 21, 22, 23, 101, orderings.MAX_BUDGET])
def test_splice_details_equal_the_one_n_reference(n_max):
    expected = {n: reference_splice_inequalities(n) for n in range(22, n_max + 1, 2)}
    assert orderings.splice_details(n_max) == expected
    if n_max == orderings.MAX_BUDGET:
        assert {n: check_splice_inequalities(n) for n in expected} == expected


def test_strict_descent_details_judge_each_chain_alone():
    rows = np.array([[2, -1, 6, -1], [4, -1, 4, -1], [4, 1, 4, 1], [2, 1, 6, 1], [2, 1, 8, 1], [4, 1, 6, 1]])
    values = np.array([5.0, 4.0, 4.0 - 1e-10, 3.0, 9.0, 1.0])
    # chain 0 stalls at its third row, chain 1 drops; the rise from chain 0 to
    # chain 1 and the empty chain 2 are not steps
    assert orderings._strict_descent_details(rows, values, np.array([4, 2, 0])) == [
        "no strict drop from (C4-,C4-) to (C4+,C4+)",
        "",
        "",
    ]
    # as one chain, the rise to 9.0 is its first non-drop
    values[2] = 3.5
    assert orderings._strict_descent_details(rows, values, np.array([4, 2])) == ["", ""]
    assert orderings._strict_descent_details(rows, values, np.array([6])) == [
        "no strict drop from (C2+,C6+) to (C2+,C8+)"
    ]


def test_exact_total_chain_examples():
    # n=8 chain: (C2-,C6-) > (C4-,C4-) > (C4+,C4+) > (C2+,C6+)
    values = [
        pair_iota(P(2, -1, 6, -1)),
        pair_iota(P(4, -1, 4, -1)),
        pair_iota(P(4, 1, 4, 1)),
        pair_iota(P(2, 1, 6, 1)),
    ]
    assert values == sorted(values, reverse=True)
    assert check_exact_total_chain(8) == ""
    assert check_exact_total_chain(6) == ""
    assert check_exact_total_chain(10) == ""


@pytest.mark.parametrize("n", range(22, 61, 2))
def test_splice_inequalities(n):
    detail = check_splice_inequalities(n)
    assert not detail, detail


def test_chain_check_failure_texts():
    # a tolerance of 3.0 merges distinct values into tie groups the patterns do not have
    assert (
        check_same_sign_chain(ordered_sequence(22, SAME_SIGN, tie_tol=3.0))
        == "position 2: expected (C4-,C18-), ordering has (C2+,C20+)"
    )
    # the floating pairs (C2+,C4-), (C2+,C6-) and (C2+,C8-) are not in the prediction
    assert check_mixed_chain(ordered_sequence(10, MIXED_SIGN)) == "expected 7 entries, ordering has 10"
    assert (
        check_mixed_chain(ordered_sequence(6, MIXED_SIGN, exclude_floating=True, tie_tol=3.0))
        == "position 2: expected strict drop before (C2-,C2+)"
    )
    assert check_exact_total_chain(8) == ""


@pytest.mark.parametrize(
    "n, message",
    [
        (3, "splice gap is defined for even n >= 22, got 3"),
        (1001, "splice gap is defined for even n >= 22, got 1001"),
        (1002, "budget must be <= 1000, got 1002"),
        (22.0, "budget must be an integer, got 22.0"),
    ],
)
def test_splice_gap_checks_its_domain_before_the_budget_cap(n, message):
    # as check_splice_inequalities does: an integer outside even n >= 22 is
    # named by the gap's own domain, whatever the cap says
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        splice_gap(n)


def test_splice_gap_value():
    # 2*csc(pi/18) - 2*cot(pi/16) = 1.46286198203557 (40-digit arithmetic)
    assert splice_gap(22) == pytest.approx(1.46286198203557, abs=1e-10)
    assert splice_gap(22) < 2.0 * math.sqrt(3.0) - 2.0
    gaps = [splice_gap(n) for n in range(22, 200, 2)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


# --- floating pair ---------------------------------------------------------

def test_floating_pair_examples():
    report = locate_floating_pair(12)
    assert report.above is not None and report.below is not None
    assert report.above.pair == P(2, -1, 8, 1)
    assert report.below.pair == P(4, -1, 6, 1)

    report = locate_floating_pair(20)
    assert report.above.pair == P(4, -1, 14, 1)
    assert report.below.pair == P(6, -1, 12, 1)

    report = locate_floating_pair(40)
    assert report.above.pair == P(10, -1, 28, 1)
    assert report.below.pair == P(12, -1, 26, 1)


@pytest.mark.parametrize(
    "query",
    [
        lambda n: ordered_sequence(n, SAME_SIGN),
        lambda n: ordered_sequence(n, MIXED_SIGN, exclude_floating=True),
        lambda n: enumerate_pairs(n, MIXED_SIGN),
        predicted_same_sign_chain,
        predicted_mixed_chain,
        extremal_pairs,
        orderings.extremal_details,
        orderings.exact_total_details,
        orderings.splice_details,
        orderings.floating_bracket_details,
    ],
)
def test_budget_cap_refuses_1001(query):
    # above the cap the gap audit no longer vouches for TIE_TOL
    assert orderings.MAX_BUDGET == 1000
    with pytest.raises(ValueError, match=r"^budget must be <= 1000, got 1001$"):
        query(1001)


def test_budget_cap_holds_for_the_floating_pair_and_verify():
    with pytest.raises(ValueError, match=r"^budget must be <= 1000, got 1002$"):
        locate_floating_pair(1002)
    assert locate_floating_pair(1000).entry.pair == P(2, 1, 998, -1)
    with pytest.raises(ValueError, match=r"^n_max must be <= 1000, got 1001$"):
        verification.run_verification(1001)


def test_budget_cap_holds_for_the_strict_descent_checks():
    # above the cap the drops are judged against TIE_TOL unvouched: at 4064
    # the exact-total chain would report a drop of about 1e-9 as a stall
    for check in (check_exact_total_chain, check_splice_inequalities):
        with pytest.raises(ValueError, match=r"^budget must be <= 1000, got 1002$"):
            check(1002)
        assert check(1000) == ""


@pytest.mark.parametrize(
    "query, budget",
    [
        (lambda n: ordered_sequence(n, SAME_SIGN), 10.0),
        (extremal_pairs, 10.5),
        (locate_floating_pair, 10.0),
        (check_exact_total_chain, 10.0),
        (verification.run_verification, 30.0),
        (splice_gap, 22.0),
        (expected_floating_brackets, 10.0),
        (lambda n: restrict(ordered_sequence(20, SAME_SIGN), n), 10.5),
        # these tested parity first and raised TypeError
        (check_exact_total_chain, "22"),
        (check_exact_total_chain, None),
        (check_splice_inequalities, "22"),
        (locate_floating_pair, "22"),
    ],
)
def test_a_budget_must_be_an_integer(query, budget):
    # a float budget was cast by numpy, truncated, or carried into the result;
    # run_verification names its own argument before any ordering is built
    name = "n_max" if query is verification.run_verification else "budget"
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(budget))}$"):
        query(budget)


def test_pair_values_read_one_cycle_table(monkeypatch):
    ordered_sequence(4, SAME_SIGN)  # the first _values call builds the table
    calls = []
    monkeypatch.setattr(orderings, "iota_energy_cycle", lambda *args: calls.append(args))
    sequence = ordered_sequence(400, SAME_SIGN)
    assert calls == []
    assert sequence.values.tolist() == [pair_iota(P(*row)) for row in sequence.codes.tolist()]


def test_cycle_table_holds_both_closed_forms_of_every_cycle():
    table = orderings._cycle_table()
    assert table.shape == (orderings.MAX_BUDGET + 1, 2, 2)
    assert np.isnan(table[:2]).all() and not table.flags.writeable
    for n in range(2, orderings.MAX_BUDGET + 1):
        for sign in (-1, 1):
            assert tuple(table[n, (sign + 1) // 2].tolist()) == (energy_cycle(n, sign), iota_energy_cycle(n, sign))


def test_cycle_table_is_built_on_first_use():
    # importing the CLI does not pay for it
    script = "import sidigraph.cli, sidigraph.orderings as o; print(o._cycle_table.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(sidigraph.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert result.stdout == "0\n"


def test_energy_of_an_even_cycle_is_an_iota_energy_bit_for_bit():
    # E(C_n^s) = I(C_n^s) for n = 0 mod 4 and I(C_n^-s) for n = 2 mod 4
    table = orderings._cycle_table()
    n = np.arange(2, orderings.MAX_BUDGET + 1, 2)
    for sign in (-1, 1):
        mapped = np.where(n % 4 == 0, sign, -sign)
        assert np.array_equal(table[n, (sign + 1) // 2, 0], table[n, (mapped + 1) // 2, 1])


def test_verify_reads_cycle_values_from_the_table_and_builds_no_pair(monkeypatch):
    verification.run_verification(100)  # builds the table
    calls, built = [], []
    for module in (orderings, verification):
        for name in ("energy_cycle", "iota_energy_cycle"):
            monkeypatch.setattr(module, name, lambda *args: calls.append(args), raising=False)
    post_init = graphs.CyclePair.__post_init__
    monkeypatch.setattr(graphs.CyclePair, "__post_init__", lambda pair: (built.append(pair), post_init(pair)))
    verification.run_verification(100)
    assert calls == [] and built == []


def test_floating_pair_validation():
    with pytest.raises(ValueError):
        locate_floating_pair(13)
    with pytest.raises(ValueError):
        locate_floating_pair(8)


@pytest.mark.parametrize("n", range(10, 47, 2))
def test_floating_brackets_match_table_through_46(n):
    above, below = expected_floating_brackets(n)
    report = locate_floating_pair(n)
    assert report.above.pair == above
    assert report.below.pair == below


def test_floating_bracket_table_overshoots_at_48():
    # the tabulated band claims (C10-,C36+) above and (C12-,C34+) below,
    # but numerically the floating pair has already crossed below (C12-,C34+)
    above, below = expected_floating_brackets(48)
    assert (str(above), str(below)) == ("(C10-,C36+)", "(C12-,C34+)")
    report = locate_floating_pair(48)
    assert str(report.above.pair) == "(C12-,C34+)"
    assert str(report.below.pair) == "(C14-,C32+)"
    assert pair_iota(below) - report.entry.value == pytest.approx(3.556837662e-3, abs=1e-9)


@pytest.fixture(scope="module")
def floating_mismatches():
    return {n: reference_floating_mismatch(n) for n in range(10, 61, 2)}


def test_floating_bracket_details_equal_the_one_budget_reference(floating_mismatches, monkeypatch):
    restricted = []
    monkeypatch.setattr(orderings, "restrict", lambda *args: restricted.append(args))
    for n_max in range(4, 61):
        expected = {n: m for n, m in floating_mismatches.items() if n <= n_max and m is not None}
        assert orderings.floating_bracket_details(n_max) == expected, n_max
    assert restricted == []
    assert len(expected) == 20 and list(expected.values()).count("") == 19
    assert {n: locate_floating_pair(n).mismatch for n in expected} == expected


@pytest.mark.parametrize("n", list(range(10, 51, 2)) + [200, 1000])
def test_floating_pair_and_verify_give_one_bracket_verdict(n):
    # floating-pair reads the verdict off one budget's ordering, verify off
    # the ordering of the largest tabulated budget: both agree with the
    # reference and with each other
    mismatch = locate_floating_pair(n).mismatch
    assert mismatch == reference_floating_mismatch(n)
    if n <= 48:
        assert mismatch == orderings.floating_bracket_details(48)[n]


def test_floating_bracket_details_refuse_wide_groups(monkeypatch):
    # grouped at 3.0 a tie group spans far more than 3.0, so the rows with
    # total <= n need not be the budget-n ordering: the check refuses rather
    # than restrict the ordering to each budget
    assert not orderings._narrow_groups(ordered_sequence(48, MIXED_SIGN, tie_tol=3.0))
    restricted = []
    monkeypatch.setattr(orderings, "ordered_sequence", functools.partial(ordered_sequence, tie_tol=3.0))
    monkeypatch.setattr(orderings, "restrict", lambda *args: restricted.append(args))
    with pytest.raises(RuntimeError, match=r"^mixed ordering at budget 48 has a tie group wider than 3\.0$"):
        orderings.floating_bracket_details(60)
    assert restricted == []


def test_expected_brackets_outside_bands():
    assert expected_floating_brackets(50) is None
    assert expected_floating_brackets(8) is None


@pytest.mark.parametrize("n", range(11, 48, 2))
def test_no_bracket_is_claimed_at_an_odd_budget(n):
    # the floating pair exists only at even budgets
    assert expected_floating_brackets(n) is None


def test_full_ordering_differs_only_by_floating_pairs():
    for n in (10, 15, 24):
        full = ordered_sequence(n, MIXED_SIGN, exclude_floating=False)
        reduced = ordered_sequence(n, MIXED_SIGN, exclude_floating=True)
        kept = [
            e.pair
            for e in full.entries
            if not (
                e.pair.c1 == SignedCycle(2, 1)
                and e.pair.c2.sign == -1
                and e.pair.c2.length >= 4
            )
        ]
        assert kept == [e.pair for e in reduced.entries]


# --- extremal --------------------------------------------------------------

def test_extremal_examples():
    maximum, minimum = extremal_pairs(27)
    assert maximum.pair == P(2, -1, 24, -1)
    assert maximum.value == pytest.approx(17.3225951510808, abs=1e-10)
    assert minimum.pair == P(2, 1, 2, 1)
    assert minimum.value == 0.0

    maximum, _ = extremal_pairs(6)
    assert maximum.pair == P(2, -1, 4, -1)
    assert maximum.value == pytest.approx(2.0 + 2.0 * math.sqrt(2.0), abs=1e-12)

    maximum, minimum = extremal_pairs(4)
    assert maximum.pair == P(2, -1, 2, -1)
    assert maximum.value == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("n", range(4, 61))
def test_extremal_agrees_with_exhaustive_scan(n):
    maximum, minimum = extremal_pairs(n)
    values = {
        p: pair_iota(p)
        for p in enumerate_pairs(n, SAME_SIGN) + enumerate_pairs(n, MIXED_SIGN)
    }
    assert maximum.value == max(values.values())
    assert minimum.value == min(values.values())


# --- spectral cross-check --------------------------------------------------

@pytest.mark.parametrize("sign_class", [SAME_SIGN, MIXED_SIGN])
def test_ordering_values_match_witness_graphs(sign_class):
    seq = ordered_sequence(20, sign_class)
    for e in seq.entries:
        witness = pair_digraph(e.pair)
        assert abs(iota_energy_of_graph(witness) - e.value) <= 1e-8
