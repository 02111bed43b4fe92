import tracemalloc

import pytest

from sidigraph import MIXED_SIGN, SAME_SIGN, ordered_sequence
from sidigraph.render import ordering_to_csv, ordering_to_svg, ordering_to_text
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
    # formatting with one final join at 2.4-2.7 times
    sequence = ordered_sequence(400, sign_class, exclude_floating=exclude)
    tracemalloc.start()
    try:
        text = render(sequence)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)
