"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criteria 5 and 9 pin the one known defect of the stated floating-pair
bracket table: its last band (40..48, m = 10) is numerically false at
n = 48, where the floating value 2csc(pi/46) = 29.307287 already lies below
the tabulated lower bracket 2csc(pi/12) + 2cot(pi/34) = 29.310844; the true
band ends at 46.  The table is reproduced as stated, not adjusted to the
numbers, so criterion 5 asserts that every stated bracket for n = 10..46 is
reproduced and that n = 48 is the single mismatch, with the numeric bracket
and the margin below the stated one; criterion 9 asserts that
`verify --n-max 46` exits 0 while `verify --n-max 60` exits 1 with that
mismatch as its only failing check.  Both fail if the mismatch stops being
reported or if any other bracket or check starts to fail.
"""
import math
import random
import time

from sidigraph import (
    adjacency_matrix,
    char_poly,
    check_mixed_chain,
    check_same_sign_chain,
    certify_monotone,
    energy,
    energy_cycle,
    expected_floating_brackets,
    extremal_pairs,
    iota_energy,
    iota_energy_cycle,
    iota_energy_of_graph,
    join_with_arc,
    locate_floating_pair,
    make_cycle,
    monotonicity_claims,
    ordered_sequence,
    poly_roots,
    splice_gap,
)
from sidigraph.cli import main
from sidigraph.orderings import MIXED_SIGN, SAME_SIGN
from sidigraph.render import ordering_to_csv, ordering_to_svg


def report(number: int, passed: bool, detail: str) -> None:
    print(f"[acceptance] criterion {number}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_1_extremal_27(capsys):
    start = time.perf_counter()
    code = main(["extremal", "27"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    maximum, minimum = extremal_pairs(27)
    ok = (
        code == 0
        and abs(maximum.value - 17.32) <= 0.01
        and abs(maximum.value - (2.0 + 2.0 / math.sin(math.pi / 24))) <= 1e-12
        and minimum.value == 0.0
        and "max (C2-,C24-)" in out
        and "min (C2+,C2+) 0.000000" in out
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(1, ok, f"extremal 27 in {elapsed:.3f}s, max {maximum.value:.6f}, min {minimum.value}")
    assert ok


def test_criterion_2_closed_form_vs_spectral_oracle(capsys):
    start = time.perf_counter()
    checks = 0
    worst = 0.0
    for n in range(2, 51):
        for sign in (1, -1):
            spectrum = poly_roots(char_poly(adjacency_matrix(make_cycle(n, sign))))
            worst = max(worst, abs(energy_cycle(n, sign) - energy(spectrum)))
            worst = max(worst, abs(iota_energy_cycle(n, sign) - iota_energy(spectrum)))
            checks += 2
    elapsed = time.perf_counter() - start
    ok = checks == 196 and worst <= 1e-8 and elapsed < 5.0
    with capsys.disabled():
        report(2, ok, f"{checks} checks, worst difference {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_3_same_sign_pattern_22_to_60(capsys):
    mismatches = [
        (n, detail)
        for n in range(22, 61)
        if (detail := check_same_sign_chain(ordered_sequence(n, SAME_SIGN)))
    ]
    with capsys.disabled():
        report(3, not mismatches, f"{39 - len(mismatches)}/39 budgets match, ties included")
    assert not mismatches, mismatches


def test_criterion_4_mixed_pattern_6_to_60(capsys):
    mismatches = [
        (n, detail)
        for n in range(6, 61)
        if (detail := check_mixed_chain(ordered_sequence(n, MIXED_SIGN, exclude_floating=True)))
    ]
    with capsys.disabled():
        report(4, not mismatches, f"{55 - len(mismatches)}/55 budgets match")
    assert not mismatches, mismatches


def test_criterion_5_floating_brackets_stated_bands(capsys):
    bands = list(range(10, 17, 2)) + list(range(18, 23, 2)) + list(range(24, 31, 2)) \
        + list(range(32, 39, 2)) + list(range(40, 49, 2))
    mismatches = {}
    floating_values = {}
    for n in bands:
        stated = expected_floating_brackets(n)
        assert stated is not None, f"no bracket stated for n={n}"
        found = locate_floating_pair(n)
        floating_values[n] = found.entry.value
        numeric = (found.above.pair, found.below.pair)
        if numeric != stated:
            mismatches[n] = (tuple(map(str, stated)), tuple(map(str, numeric)))
    # the floating pair (C46-,C2+) against the stated lower bracket (C12-,C34+)
    floating_48 = 2.0 / math.sin(math.pi / 46)
    lower_48 = 2.0 / math.sin(math.pi / 12) + 2.0 / math.tan(math.pi / 34)
    margin_48 = lower_48 - floating_48
    ok = (
        mismatches == {48: (("(C10-,C36+)", "(C12-,C34+)"), ("(C12-,C34+)", "(C14-,C32+)"))}
        and abs(floating_values[48] - floating_48) <= 1e-12
        and abs(margin_48 - 3.5568e-3) <= 1e-7
    )
    detail = "; ".join(
        f"n={n}: stated between {stated[0]} and {stated[1]}, "
        f"numerically between {numeric[0]} and {numeric[1]}"
        for n, (stated, numeric) in mismatches.items()
    )
    with capsys.disabled():
        report(
            5,
            ok,
            f"{len(bands) - len(mismatches)}/{len(bands)} stated brackets reproduced"
            + (f"; {detail}" if detail else "")
            + f"; floating value {margin_48:.4e} below the stated lower bracket",
        )
    assert ok, (
        "expected the stated bracket at n=48, and only it, to be numerically false: "
        + (detail or "no mismatch found")
    )


def test_criterion_6_splice_margin_at_22(capsys):
    gap = splice_gap(22)
    ok = abs(gap - 1.463) <= 0.001 and gap < 2.0 * math.sqrt(3.0) - 2.0
    with capsys.disabled():
        report(6, ok, f"2*csc(pi/18) - 2*cot(pi/16) = {gap:.6f} < {2 * math.sqrt(3) - 2:.6f}")
    assert ok


def test_criterion_7_monotonicity_certification(capsys):
    failures = []
    for n in range(6, 101, 2):
        for function_id, interval, direction in monotonicity_claims(n):
            detail = certify_monotone(function_id, n, interval, direction, 10000)
            if detail != "":
                failures.append((n, function_id, interval, detail))
    with capsys.disabled():
        report(7, not failures, f"claims over even n in [6,100] at 10^4 grid points, {len(failures)} failures")
    assert not failures, failures


def test_criterion_8_additivity_for_random_joined_pairs(capsys):
    rng = random.Random(20260810)
    worst = 0.0
    for _ in range(200):
        l1, l2 = rng.randrange(2, 21, 2), rng.randrange(2, 21, 2)
        s1, s2 = rng.choice((1, -1)), rng.choice((1, -1))
        bridge = rng.choice((1, -1))
        g1, g2 = make_cycle(l1, s1), make_cycle(l2, s2)
        joined = join_with_arc(g1, g2, rng.randrange(l1), rng.randrange(l2), bridge)
        expected = iota_energy_cycle(l1, s1) + iota_energy_cycle(l2, s2)
        worst = max(worst, abs(iota_energy_of_graph(joined) - expected))
    ok = worst <= 1e-8
    with capsys.disabled():
        report(8, ok, f"200 random joined pairs, worst additivity error {worst:.2e}")
    assert ok


def test_criterion_9_determinism_and_verify_gate(capsys):
    seq = ordered_sequence(27, SAME_SIGN)
    csv_ok = ordering_to_csv(seq) == ordering_to_csv(ordered_sequence(27, SAME_SIGN))
    svg_ok = ordering_to_svg(seq) == ordering_to_svg(ordered_sequence(27, SAME_SIGN))
    code_46 = main(["verify", "--n-max", "46"])
    out_46 = capsys.readouterr().out
    start = time.perf_counter()
    code_60 = main(["verify", "--n-max", "60"])
    elapsed = time.perf_counter() - start
    out_60 = capsys.readouterr().out
    failing = [line for line in out_60.splitlines() if line.startswith("FAIL ")]
    expected_failure = (
        "FAIL floating-pair bracket n=48: expected between (C10-,C36+) and "
        "(C12-,C34+), got (C12-,C34+) and (C14-,C32+)"
    )
    ok = (
        csv_ok
        and svg_ok
        and code_46 == 0
        and "357/357 checks passed" in out_46
        and code_60 == 1
        and failing == [expected_failure]
        and elapsed < 60.0
    )
    failing_names = ", ".join(line[5:].split(":")[0] for line in failing) or "none"
    with capsys.disabled():
        report(
            9,
            ok,
            f"csv deterministic {csv_ok}, svg deterministic {svg_ok}, "
            f"verify --n-max 46 exit {code_46}, verify --n-max 60 exit {code_60} "
            f"in {elapsed:.1f}s, failing: {failing_names}",
        )
    assert csv_ok and svg_ok
    assert elapsed < 60.0
    assert code_46 == 0, out_46
    assert "357/357 checks passed" in out_46
    assert code_60 == 1, "verify --n-max 60 must report the bracket mismatch at n=48"
    assert failing == [expected_failure], failing
