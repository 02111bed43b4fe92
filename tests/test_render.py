import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidigraph import MIXED_SIGN, SAME_SIGN, ordered_sequence
from sidigraph.render import _formatted, ordering_to_csv, ordering_to_svg, ordering_to_text
from oracles import reference_csv, reference_svg, reference_text

RENDERERS = [
    (ordering_to_csv, reference_csv),
    (ordering_to_text, reference_text),
    (ordering_to_svg, reference_svg),
]
# (sign class, exclude_floating): the same-sign class and the mixed class
# without and with its floating pairs
FAMILIES = [(SAME_SIGN, False), (MIXED_SIGN, True), (MIXED_SIGN, False)]
# 3.0 merges long runs into tie groups, 0.0 groups only bit-equal values
TIE_TOLERANCES = [1e-9, 3.0, 0.0]


@pytest.mark.parametrize("budget", list(range(4, 65)) + [150, 151, 399, 400])
def test_renderers_match_row_by_row_reference(budget):
    # budgets 4 and 5 of the mixed class have a single row, the one-point svg
    mismatches = []
    for sign_class, exclude in FAMILIES:
        for tie_tol in TIE_TOLERANCES:
            sequence = ordered_sequence(budget, sign_class, exclude_floating=exclude, tie_tol=tie_tol)
            for render, reference in RENDERERS:
                if render(sequence) != reference(sequence):
                    mismatches.append((sign_class, exclude, tie_tol, render.__name__))
    assert mismatches == []


@pytest.mark.parametrize("render", [r for r, _ in RENDERERS], ids=lambda r: r.__name__)
@pytest.mark.parametrize("sign_class, exclude", [(SAME_SIGN, False), (MIXED_SIGN, False)])
def test_renderer_peak_memory_is_a_few_times_its_output(render, sign_class, exclude):
    # row-by-row rendering peaked at 4.4-8.1 times the output, block
    # formatting with one final join at 2.4-2.7 times, numpy byte blocks
    # at 2.2-2.8 times
    sequence = ordered_sequence(400, sign_class, exclude_floating=exclude)
    tracemalloc.start()
    try:
        text = render(sequence)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


# --- the numpy row formatter against Python's `%` ------------------------------

def formatted(row_format, columns):
    return "".join(_formatted(row_format, columns))


def percent(row_format, columns):
    """Python's `%` row by row: the reference `_formatted` must match byte for byte."""
    rows = zip(*(column.tolist() if isinstance(column, np.ndarray) else column for column in columns))
    return "".join(row_format % row for row in rows)


def assert_same(got, expected):
    """got == expected, reporting only the first difference: a diff of long texts takes minutes."""
    if got != expected:
        at = len(os.path.commonprefix([got, expected]))
        pytest.fail(f"first difference at {at}: {got[at - 30 : at + 30]!r} != {expected[at - 30 : at + 30]!r}")


def fixed_point_formats(precision):
    return [f"%.{precision}f\n", f"%12.{precision}f\n", f"<%3.{precision}f>"]


def below_limit(precision):
    """The values `%.Pf` takes: [0, 2**53 / 10**P)."""
    return st.floats(min_value=0.0, max_value=2.0**53 / 10**precision, exclude_max=True).filter(
        lambda v: math.copysign(1.0, v) > 0
    )


@pytest.mark.parametrize("precision", [2, 6])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fixed_point_matches_percent_on_any_value_below_the_limit(precision, data):
    values = np.array(data.draw(st.lists(below_limit(precision), min_size=1, max_size=40)))
    for row_format in fixed_point_formats(precision):
        assert_same(formatted(row_format, [values]), percent(row_format, [values]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=40))
def test_integers_match_percent(numbers):
    column = np.array(numbers, dtype=np.int64)
    for row_format in ["%d\n", "%4d,", "%3d|"]:
        assert_same(formatted(row_format, [column]), percent(row_format, [column]))


def edge_values(precision):
    scale = 10.0**precision
    halves = (np.arange(0, 200_000) + 0.5) / scale
    return np.concatenate(
        [
            # exact binary ties of the last printed digit: k/128 has 7 decimals, k/8 has 3
            np.arange(0, 300_000) / (128 if precision == 6 else 8),
            halves,
            np.nextafter(halves, 0.0),
            np.nextafter(halves, np.inf),
            # carries into a new integer digit, and the largest value taken
            [0.0, 0.9999995, 9.9999995, 999.9999995, 99999.9999995, 0.995, 9.995, 999.995, 0.5, 1.5, 2.5],
            [np.nextafter(2.0**53 / scale, 0.0)],
        ]
    )


@pytest.mark.parametrize("precision", [2, 6])
def test_fixed_point_matches_percent_on_ties_near_halves_and_carries(precision):
    values = edge_values(precision)
    assert (values < 2.0**53 / 10**precision).all()
    for row_format in fixed_point_formats(precision):
        assert_same(formatted(row_format, [values]), percent(row_format, [values]))


def test_widths_overflow_as_percent_does():
    numbers = np.array([0, 7, 999, 1000, 9999, 10_000, 123_456, 10**18])
    values = np.array([0.0, 12345.678901, 99999.9999995, 100_000.0, 1234567.5, 2.0**52 / 10**6])
    for row_format, column in [("%4d|", numbers), ("%3d|", numbers), ("%12.6f|", values)]:
        assert_same(formatted(row_format, [column]), percent(row_format, [column]))


def test_string_columns_and_literals_match_percent():
    signs = (["-", "+"], np.array([True, False, True]))
    padding = (["", " ", "     "], np.array([2, 0, 1]))
    lengths = np.array([2, 40, 1000])
    expected = percent("(C%d%s)%s %.2f\n", [lengths, ["+", "-", "+"], ["     ", "", " "], [1.0, 2.5, 0.125]])
    assert formatted("(C%d%s)%s %.2f\n", [lengths, signs, padding, np.array([1.0, 2.5, 0.125])]) == expected


def test_blocks_join_to_one_formatting():
    # 2500 rows are three blocks; widths differ across them
    ranks = np.arange(1, 2501)
    values = ranks / 7.0
    row_format = "%4d %12.6f\n"
    assert_same(formatted(row_format, [ranks, values]), percent(row_format, [ranks, values]))
    assert formatted(row_format, [ranks[:0], values[:0]]) == ""


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, -0.0, 2.0**53, 2.0**53 / 10**6])
def test_fixed_point_refuses_what_it_cannot_print_as_digits(value):
    with pytest.raises(ValueError, match="%.6f formats only"):
        formatted("%.6f\n", [np.array([1.0, value])])


@pytest.mark.parametrize(
    "row_format, column",
    [
        ("%x\n", np.array([1])),
        ("%5s\n", (["a"], np.array([0]))),
        ("%.0f\n", np.array([1.0])),
        ("%%d %d\n", np.array([1])),
        ("%d\n", np.array([-1])),
        ("%d\n", np.array([1.5])),
    ],
)
def test_unsupported_conversions_and_values_are_refused(row_format, column):
    with pytest.raises(ValueError):
        formatted(row_format, [column])
