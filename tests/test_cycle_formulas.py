import math

import pytest

from sidigraph import (
    CyclePair,
    SignedCycle,
    adjacency_matrix,
    char_poly,
    energy,
    energy_case_label,
    energy_cycle,
    iota_case_label,
    iota_energy,
    iota_energy_cycle,
    make_cycle,
    pair_iota,
    poly_roots,
)
from oracles import abs_cos_sum_energy, abs_sin_sum_iota


def P(l1, s1, l2, s2):
    return CyclePair(SignedCycle(l1, s1), SignedCycle(l2, s2))


def test_energy_cycle_cases():
    assert energy_cycle(2, 1) == 2.0
    assert energy_cycle(4, 1) == pytest.approx(2.0, abs=1e-12)  # 2*cot(pi/4)
    assert energy_cycle(4, -1) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert energy_cycle(5, 1) == pytest.approx(1.0 / math.sin(math.pi / 10), abs=1e-12)
    assert energy_cycle(5, -1) == energy_cycle(5, 1)
    assert energy_cycle(2, -1) == 0.0
    with pytest.raises(ValueError):
        energy_cycle(1, 1)


def test_iota_energy_cycle_cases():
    assert iota_energy_cycle(2, 1) == 0.0
    assert iota_energy_cycle(2, -1) == 2.0
    assert iota_energy_cycle(3, 1) == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert iota_energy_cycle(3, -1) == iota_energy_cycle(3, 1)
    assert iota_energy_cycle(4, -1) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        iota_energy_cycle(0, 1)
    with pytest.raises(ValueError):
        iota_energy_cycle(4, 2)


@pytest.mark.parametrize("n", range(2, 51))
@pytest.mark.parametrize("sign", [1, -1])
def test_closed_forms_match_root_finder_spectrum(n, sign):
    spectrum = poly_roots(char_poly(adjacency_matrix(make_cycle(n, sign))))
    assert abs(energy_cycle(n, sign) - energy(spectrum)) <= 1e-8
    assert abs(iota_energy_cycle(n, sign) - iota_energy(spectrum)) <= 1e-8


@pytest.mark.parametrize("n", range(2, 51))
@pytest.mark.parametrize("sign", [1, -1])
def test_closed_forms_match_abs_trig_sums(n, sign):
    assert abs(iota_energy_cycle(n, sign) - abs_sin_sum_iota(n, sign)) <= 1e-10
    assert abs(energy_cycle(n, sign) - abs_cos_sum_energy(n, sign)) <= 1e-10


def test_iota_monotone_in_length():
    # positive cycles: monotone over all lengths
    values = [iota_energy_cycle(n, 1) for n in range(2, 80)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    # negative cycles: monotone within each parity and from length 3 on,
    # with the single genuine exception E_c(C_2^-)=2 > E_c(C_3^-)=sqrt(3)
    values = [iota_energy_cycle(n, -1) for n in range(3, 80)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert iota_energy_cycle(2, -1) > iota_energy_cycle(3, -1)
    for parity in (0, 1):
        values = [iota_energy_cycle(n, -1) for n in range(2 + parity, 80, 2)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_negative_beats_positive_for_even_lengths():
    for n in range(2, 80, 2):
        assert iota_energy_cycle(n, -1) > iota_energy_cycle(n, 1)


def test_pair_iota_examples():
    # 2 + 2*csc(pi/24) = 17.3225951510808 (40-digit arithmetic)
    assert pair_iota(P(2, -1, 24, -1)) == pytest.approx(17.3225951510808, abs=1e-10)
    assert pair_iota(P(2, 1, 2, 1)) == 0.0
    both = pair_iota(P(4, 1, 8, 1)), pair_iota(P(4, -1, 6, -1))
    assert both[0] == pytest.approx(4.0 + 2.0 * math.sqrt(2.0), abs=1e-12)
    assert both[1] == pytest.approx(4.0 + 2.0 * math.sqrt(2.0), abs=1e-12)


def test_case_labels():
    assert iota_case_label(24, -1) == "2*csc(pi/24)"
    assert iota_case_label(2, 1) == "2*cot(pi/2)"
    assert iota_case_label(5, 1) == "cot(pi/10)"
    assert energy_case_label(5, 1) == "csc(pi/10)"
    assert energy_case_label(4, 1) == "2*cot(pi/4)"
    assert energy_case_label(4, -1) == "2*csc(pi/4)"
    assert energy_case_label(6, -1) == "2*cot(pi/6)"


@pytest.mark.parametrize(
    "function", [energy_cycle, iota_energy_cycle, energy_case_label, iota_case_label]
)
# pi/m needs m, which is n or 2n for odd n, to fit a double
@pytest.mark.parametrize(
    "n, sign",
    [
        (-3, 1),
        (0, 1),
        (1, -1),
        (4, 0),
        (4, 2),
        pytest.param(10**400, 1, id="10^400-1"),
        pytest.param(2**1023 + 1, -1, id="2^1023+1--1"),
    ],
)
def test_invalid_cycles_are_refused(function, n, sign):
    with pytest.raises(ValueError):
        function(n, sign)


def test_values_and_labels_follow_one_case():
    # each value is its label's formula, evaluated the way the formula reads
    forms = {
        "2*cot": lambda m: 2.0 / math.tan(math.pi / m),
        "2*csc": lambda m: 2.0 / math.sin(math.pi / m),
        "cot": lambda m: 1.0 / math.tan(math.pi / m),
        "csc": lambda m: 1.0 / math.sin(math.pi / m),
    }
    for n in range(3, 300):
        for sign in (1, -1):
            for value, label in (
                (energy_cycle(n, sign), energy_case_label(n, sign)),
                (iota_energy_cycle(n, sign), iota_case_label(n, sign)),
            ):
                form, m = label[:-1].split("(pi/")
                assert value.hex() == forms[form](int(m)).hex(), (n, sign, label)


def test_exact_zero_for_c2_plus_pair():
    # the minimum of every family must be exactly zero, not rounding noise
    assert iota_energy_cycle(2, 1) == 0.0
    assert pair_iota(P(2, 1, 2, 1)) == 0.0
