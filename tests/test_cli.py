import hashlib
import math
import os
import stat
import time
from types import SimpleNamespace

import numpy as np
import pytest

from sidigraph import (
    SignedDigraph,
    adjacency_matrix,
    char_poly,
    format_edge_list,
    join_with_arc,
    make_cycle,
)
from sidigraph import cli, trig, verification
from sidigraph.cli import main
from oracles import make_path, reference_spectrum_report
from seeded_graphs import chained_blocks, collinear_hull_scc, dense_scc


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- cycle -----------------------------------------------------------------

def test_cycle_iota_negative_24(capsys):
    code, out, _ = run_cli(capsys, "cycle", "24", "-", "--iota")
    assert code == 0
    # 2*csc(pi/24) = 15.3225951510808 (40-digit arithmetic)
    assert out.split()[0] == "15.322595"
    assert "2*csc(pi/24)" in out


def test_cycle_iota_c2_plus_is_zero(capsys):
    code, out, _ = run_cli(capsys, "cycle", "2", "+", "--iota")
    assert code == 0
    assert out.split()[0] == "0.000000"


def test_cycle_energy_c5(capsys):
    code, out, _ = run_cli(capsys, "cycle", "5", "+", "--energy")
    assert code == 0
    assert out.split()[0] == "3.236068"
    assert "csc(pi/10)" in out


def test_cycle_rejects_bad_args(capsys):
    code, _, err = run_cli(capsys, "cycle", "1", "+", "--iota")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(capsys, "cycle", "4", "x", "--iota")
    assert code == 2
    # missing --iota/--energy is a usage error
    assert main(["cycle", "4", "+"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("n", [10**400, 2**1023 + 1], ids=["10^400", "2^1023+1"])
@pytest.mark.parametrize("which", ["--iota", "--energy"])
def test_cycle_refuses_a_length_whose_angle_does_not_fit_a_double(capsys, n, which):
    # 2^1023 + 1 fits a double, but it is odd, so its m = 2n does not
    code, out, err = run_cli(capsys, "cycle", str(n), "+", which)
    assert (code, out) == (2, "")
    assert err == f"error: cycle length too large: m of pi/m must fit a double, got {n.bit_length()} bits\n"


def test_cycle_takes_the_largest_length_that_fits(capsys):
    code, out, _ = run_cli(capsys, "cycle", str(2**1023), "+", "--iota")
    assert code == 0
    assert out.endswith(f"  2*cot(pi/{2**1023})\n")


# --- ordering --------------------------------------------------------------

def test_ordering_csv_head(capsys):
    code, out, _ = run_cli(capsys, "ordering", "27", "--same-sign", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rank,tie_group,c1_len,c1_sign,c2_len,c2_sign,value"
    assert lines[1] == "1,1,2,-,24,-,17.322595"
    assert lines[-1].endswith("0.000000")


def test_ordering_text_budget_4(capsys):
    code, out, _ = run_cli(capsys, "ordering", "4", "--same-sign")
    assert code == 0
    rows = [line for line in out.splitlines() if "(C" in line]
    assert len(rows) == 2
    assert "4.000000" in rows[0]
    assert "0.000000" in rows[1]


def test_ordering_csv_bytes_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["ordering", "22", "--same-sign", "--format", "csv", "--out", str(out1)]) == 0
    assert main(["ordering", "22", "--same-sign", "--format", "csv", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_ordering_svg_deterministic_and_wellformed(tmp_path, capsys):
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["ordering", "27", "--mixed", "--format", "svg", "--out", str(out1)]) == 0
    assert main(["ordering", "27", "--mixed", "--format", "svg", "--out", str(out2)]) == 0
    capsys.readouterr()
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    from sidigraph import predicted_mixed_chain

    text = data.decode("utf-8")
    assert text.startswith("<?xml")
    assert "</svg>" in text
    assert text.count("<circle") == len(predicted_mixed_chain(27))


def test_ordering_svg_value_sequence_matches_chain(capsys):
    from sidigraph import predicted_mixed_chain
    code, out, _ = run_cli(capsys, "ordering", "27", "--mixed", "--format", "csv")
    assert code == 0
    rows = out.splitlines()[1:]
    chain = predicted_mixed_chain(27)
    assert len(rows) == len(chain)
    for row, pair in zip(rows, chain):
        _, _, l1, s1, l2, s2, _ = row.split(",")
        assert (int(l1), s1, int(l2), s2) == (
            pair.c1.length,
            "+" if pair.c1.sign > 0 else "-",
            pair.c2.length,
            "+" if pair.c2.sign > 0 else "-",
        )


def test_ordering_tolerance_flag(capsys):
    code, out, _ = run_cli(
        capsys, "ordering", "8", "--same-sign", "--format", "csv", "--tolerance", "100"
    )
    assert code == 0
    tie_groups = {line.split(",")[1] for line in out.splitlines()[1:]}
    assert tie_groups == {"1"}


@pytest.mark.parametrize("tolerance", ["-1", "nan", "-0.5"])
@pytest.mark.parametrize("command", [["ordering", "10", "--same-sign"], ["verify", "--n-max", "6"]])
def test_tolerance_must_be_nonnegative(capsys, command, tolerance):
    # with a negative or NaN tolerance exactly equal values such as
    # (C2+,C8+) and (C2-,C4-) would land in separate tie groups
    code, out, err = run_cli(capsys, *command, "--tolerance", tolerance)
    assert code == 2
    assert out == ""
    assert "tolerance must be >= 0" in err


@pytest.mark.parametrize("command", [["ordering", "10", "--same-sign"], ["verify", "--n-max", "6"]])
def test_tolerance_zero_is_valid(capsys, command):
    code, _, _ = run_cli(capsys, *command, "--tolerance", "0")
    assert code == 0


def test_ordering_include_floating(capsys):
    code, full_out, _ = run_cli(capsys, "ordering", "12", "--mixed", "--format", "csv", "--include-floating")
    code2, reduced_out, _ = run_cli(capsys, "ordering", "12", "--mixed", "--format", "csv")
    assert code == 0 and code2 == 0
    assert len(full_out.splitlines()) > len(reduced_out.splitlines())


def test_ordering_unwritable_path(tmp_path, capsys):
    denied = tmp_path / "denied"
    denied.mkdir()
    os.chmod(denied, stat.S_IRUSR | stat.S_IXUSR)
    target = denied / "x.csv"
    try:
        code = main(["ordering", "8", "--same-sign", "--format", "csv", "--out", str(target)])
    finally:
        os.chmod(denied, stat.S_IRWXU)
    capsys.readouterr()
    if os.geteuid() == 0:
        pytest.skip("permission bits do not bind as root")
    assert code == 3


def test_ordering_write_to_missing_directory(capsys):
    code = main(["ordering", "8", "--same-sign", "--format", "csv", "--out", "/nonexistent-dir/x.csv"])
    capsys.readouterr()
    assert code == 3


# --- extremal ---------------------------------------------------------------

def test_extremal_27(capsys):
    code, out, _ = run_cli(capsys, "extremal", "27")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "max (C2-,C24-) 17.322595"
    assert lines[1] == "min (C2+,C2+) 0.000000"


def test_extremal_small(capsys):
    code, out, _ = run_cli(capsys, "extremal", "4")
    assert code == 0
    assert out.splitlines()[0] == "max (C2-,C2-) 4.000000"
    code, out, _ = run_cli(capsys, "extremal", "10")
    # 2 + 2*csc(pi/8)
    assert "max (C2-,C8-) 7.226252" in out


# --- floating-pair ----------------------------------------------------------

def test_floating_pair_command(capsys):
    code, out, _ = run_cli(capsys, "floating-pair", "12")
    assert code == 0
    assert "pair (C2+,C10-)" in out
    assert "above (C2-,C8+)" in out
    assert "below (C4-,C6+)" in out
    assert "bracket rule: match" in out


def test_floating_pair_mismatch_at_48(capsys):
    code, out, _ = run_cli(capsys, "floating-pair", "48")
    assert code == 1
    assert "MISMATCH" in out


def test_floating_pair_beyond_table(capsys):
    code, out, _ = run_cli(capsys, "floating-pair", "50")
    assert code == 0
    assert "not stated" in out


def test_floating_pair_and_verify_give_one_bracket_verdict(capsys):
    # each tabulated n: "match" with exit 0 where verify says ok, "MISMATCH"
    # with exit 1 where it says FAIL, which is n = 48 alone
    _, out, _ = run_cli(capsys, "verify", "--n-max", "48")
    verdicts = {
        int(line.split("n=")[1].split(":")[0]): line.startswith("ok ")
        for line in out.splitlines()
        if line.startswith(("ok   floating-pair bracket n=", "FAIL floating-pair bracket n="))
    }
    assert sorted(verdicts) == list(range(10, 49, 2))
    assert [n for n, ok in verdicts.items() if not ok] == [48]
    for n, ok in verdicts.items():
        code, out, _ = run_cli(capsys, "floating-pair", str(n))
        assert out.splitlines()[-1] == f"bracket rule: {'match' if ok else 'MISMATCH'}", n
        assert code == (0 if ok else 1), n


# --- verify ------------------------------------------------------------------

def test_verify_small_budget_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "12")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out
    # below 22 the same-sign block checks cannot run, the rest does
    assert "same-sign chain" not in out
    assert "mixed chain n=12" in out


def test_verify_exit_zero_through_46(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "46")
    assert code == 0
    assert "FAIL" not in out


def test_verify_default_and_n_max_30(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "30")
    assert code == 0
    assert "same-sign chain n=30" in out


def test_verify_tolerance_flag_is_wired(capsys):
    # a coarse tie tolerance merges genuinely distinct values, which the
    # chain checks must then report as unexpected ties
    code, out, _ = run_cli(capsys, "verify", "--n-max", "6", "--tolerance", "3.0")
    assert code == 1
    assert "FAIL" in out


def test_verify_reports_bracket_defect_at_48(capsys):
    # the tabulated floating-pair band overshoots (true band ends at 46);
    # verify must report exactly that one mismatch and exit 1
    code, out, _ = run_cli(capsys, "verify", "--n-max", "48")
    assert code == 1
    failing = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failing) == 1
    assert "floating-pair bracket n=48" in failing[0]


def test_verify_prints_failing_monotone_and_cycle_details(capsys, monkeypatch):
    # no check fails on working code, so break one claim and one oracle
    claims = trig.monotonicity_claims

    def flipped(n):
        listed = claims(n)
        function_id, interval, direction = listed[2]
        listed[2] = (function_id, interval, {"increasing": "decreasing", "decreasing": "increasing"}[direction])
        return listed

    approximations = verification.cycle_eigenvalues_batch

    def scaled(lengths, signs):
        # the certificate still proves discs around these, but they are wide
        z = approximations(lengths, signs)
        n = np.repeat(lengths, lengths)
        z[n == 5] *= 1.001
        return z

    monkeypatch.setattr(trig, "monotonicity_claims", flipped)
    monkeypatch.setattr(verification, "cycle_eigenvalues_batch", scaled)
    code, out, _ = run_cli(capsys, "verify", "--n-max", "8")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL monotone csc_csc [2,3] n=6: not proven (lemma B: decreasing on [2,3])",
        "FAIL monotone csc_csc [2,4] n=8: not proven (lemma B: decreasing on [2,4])",
        "FAIL cycle closed form vs spectrum n=5 sign=+: difference 0.00324 + root bound 0.025",
        "FAIL cycle closed form vs spectrum n=5 sign=-: difference 0.00324 + root bound 0.025",
    ]
    assert "30/34 checks passed" in out.splitlines()


def test_verify_fails_every_monotone_check_on_a_broken_lemma(capsys, monkeypatch):
    # 1/12 in place of the Taylor coefficient 1/120 of sin u <= u - u^3/6 + u^5/120
    monkeypatch.setattr(trig, "SIN_ABOVE", ("0", "1", "0", "-1/6", "0", "1/12"))
    trig._lemma_failure.cache_clear()
    try:
        code, out, _ = run_cli(capsys, "verify", "--n-max", "8")
    finally:
        trig._lemma_failure.cache_clear()
    assert code == 1
    checks = [line for line in out.splitlines() if line.startswith(("ok   ", "FAIL "))]
    failing = [line for line in checks if line.startswith("FAIL")]
    assert failing == [line for line in checks if line[5:].startswith("monotone ")]
    assert len(failing) == 10
    assert all(": lemma B unproven: " in line for line in failing)


def test_verify_has_no_grid_points_option(capsys):
    code, out, err = run_cli(capsys, "verify", "--n-max", "8", "--grid-points", "50")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --grid-points 50" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["ordering", "1001", "--same-sign"],
        ["ordering", "1001", "--mixed", "--format", "csv"],
        ["extremal", "1001"],
        ["floating-pair", "1002"],
    ],
)
def test_ordering_commands_refuse_budgets_above_1000(capsys, argv):
    assert run_cli(capsys, *argv) == (2, "", f"error: budget must be <= 1000, got {argv[1]}\n")


def test_ordering_commands_take_budget_1000(tmp_path, capsys):
    out = tmp_path / "ordering.csv"
    assert run_cli(capsys, "ordering", "1000", "--same-sign", "--format", "csv", "--out", str(out)) == (0, "", "")
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + sum(2 * (t // 4) for t in range(4, 1001, 2))
    code, text, _ = run_cli(capsys, "extremal", "1000")
    assert (code, text.split()[:2]) == (0, ["max", "(C2-,C998-)"])
    code, text, _ = run_cli(capsys, "floating-pair", "1000")
    assert code == 0 and text.endswith("bracket rule: not stated for this n\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        # the cap names the argument (it used to print 513 for any n_max)
        (["verify", "--n-max", "1001"], "n_max must be <= 1000, got 1001"),
    ],
)
def test_verify_refuses_unsupported_arguments_before_any_check(capsys, argv, message):
    # it used to fail only after every ordering check had run
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert message in err


# sha256 of stdout.  Refactors keep these outputs byte-identical; change a
# digest only together with a deliberate change of the output.
PINNED_OUTPUT_SHA256 = {
    ("verify", "--n-max", "46"): (0, "8dd045c4368ae93c3cc45aa8957f3e6d558a0fe85e11590f16104b187c32f0ce"),
    # the chains start at 22 (same-sign) and 6 (mixed): at 4 and 5 neither
    # runs, at 21 only the mixed one, at 22 both
    ("verify", "--n-max", "4"): (0, "75213b2438a5753ab0252455e352392339749e5accae5cc366380b9dd162b2b0"),
    ("verify", "--n-max", "5"): (0, "537f821b1c543441e1b9dfb3714ab9700ddea98658a510bd72ea5bf723b576af"),
    ("verify", "--n-max", "21"): (0, "5141305a605a29c0e1a13367c8e3e13d9b8e2bc76514f880c6f5cc927fd88543"),
    ("verify", "--n-max", "22"): (0, "18f1df484ff3a86e88218b5d4d930aae6c65a84f1b163840b40ce0d6ba5e87c4"),
    ("ordering", "27", "--same-sign", "--format", "csv"): (0, "4982bc290cd64dd4289a925f8f74e315c23a4617a9d083c1405e1840c2dc3a80"),
    ("ordering", "27", "--same-sign", "--format", "svg"): (0, "727f666fe9843fed0cc610e7ad306cb9c0c665afbfb6f7269d9691763a46da9c"),
    ("ordering", "27", "--mixed", "--format", "csv"): (0, "32d0043920bbf64e2949b7d53ecacd11da3a794d217e6cec5d5d3d88f4166f63"),
    ("ordering", "27", "--mixed", "--format", "svg"): (0, "d0b5fc31b24a8d22ae23aea34f2137bc21914ecf64a3a3d63ca96de8003a3b47"),
    ("ordering", "150", "--same-sign", "--format", "csv"): (0, "dd4b2a060756e29beb45305a728bcecf9c17f5389e44a352ce9cd2a56ae89bcd"),
    ("ordering", "150", "--same-sign", "--format", "svg"): (0, "19690f2d87e10182b04811383fa957f6798d6eb1e07a9009a95cf32cd341f186"),
    ("ordering", "150", "--mixed", "--format", "csv"): (0, "08db5e49e218cd394be557420e191907533c6d52b6bafe3462a953badfecfd84"),
    ("ordering", "150", "--mixed", "--format", "svg"): (0, "6466d69afc278fc3921090d913c838700e24a46eedd3deb96c033e78647303ce"),
    ("extremal", "4"): (0, "223b4c4810000165398d856a0f3e1958e70a7b876afb27689c6b173f47f7ac95"),
    ("extremal", "27"): (0, "5f5b16e8683322eb04edb3bfb8eec65250341fcf03624333e26629f2c69a39b4"),
    ("extremal", "150"): (0, "ffd06bd63e9e7bcd8db895719123538ec940b1ab0709174c90b779ffdcdcca38"),
    ("extremal", "401"): (0, "cd22e1fe5608c9c26703002f72adcc39f49923ae2c8b9d99affd2671828bbcc2"),
    ("floating-pair", "46"): (0, "174b40c0fe2895cdc2f995e996cf54e671ffd7e55e4897d5bddcf25aa81e13d8"),
    # 22 same-sign has tie groups, so the svg draws tie bars
    ("ordering", "22", "--same-sign", "--format", "svg"): (0, "ed04e5255985466a3e5bda4057af5460f7d9e03fb312cd6fc543273ab5f36f32"),
    ("ordering", "22", "--same-sign", "--format", "text"): (0, "e194594bf49df79353712e51bf3b2eef5d0968ea7d986de541b74c8e21c57702"),
    ("ordering", "27", "--mixed", "--include-floating", "--format", "csv"): (0, "569365c1af2a8e85ae8be20aa21b5ceef22eaffe71d7f8c799b36da1413f1460"),
    # exit 1: the n = 48 bracket mismatch is the only FAIL
    ("verify", "--n-max", "100"): (1, "eea60b8140efd68bca6fde628984d633f9a68bb6f3a10d3cfc75b13a843502e2"),
    # 34 FAIL lines, with both first-mismatch texts of the chain checks
    ("verify", "--n-max", "30", "--tolerance", "3.0"): (1, "aef9458bcb4d919756de040f4915c134c422829a01b415e120ff84c3b354744e"),
    # 9 same-sign FAILs: exact ties such as 4 + 2*sqrt(2) differ in their doubles
    ("verify", "--n-max", "30", "--tolerance", "0"): (1, "4acc5068cfb44f01d8444c8e307396c4da7b3d641300b6373fa445001270c755"),
    ("ordering", "400", "--mixed", "--include-floating", "--format", "text"): (0, "92cbec7aacf545c0265c32630944e29e3cf9f953a635176cefe430c490302543"),
    ("ordering", "400", "--same-sign", "--format", "svg"): (0, "d80eecd6b2dc135d7df84f97dcda40edc4bad7d05576377d19c1222e098f9736"),
    ("floating-pair", "200"): (0, "c6c955313cf4824a5dbfda48b568122925a389519977399314ca3a80f3749e9a"),
    # the cap: 125k-row families, 6-digit ranks and tie groups
    ("ordering", "1000", "--same-sign", "--format", "csv"): (0, "249b1f8f12a0c9ebd2ff7aa0487978c22073b1bfa2e741a23c4f0b0e2f0470aa"),
    ("ordering", "1000", "--same-sign", "--format", "text"): (0, "c4faa014e7f1fc6651e692f20a1fca16b45407ba1668baf3f38ce31935dc7a69"),
    ("ordering", "1000", "--same-sign", "--format", "svg"): (0, "a827852156909a43ec4fb5aef245425579fbedcf23fcc861a6beb84dcb48f05f"),
    ("ordering", "1000", "--mixed", "--include-floating", "--format", "csv"): (0, "9fe1a5f5aeddce492a54f313c682f465622363b4c5aa743ff90294c1fe9066b8"),
    ("ordering", "1000", "--mixed", "--include-floating", "--format", "text"): (0, "b33386e10257e3db30220b418f1ca608762bd1a516e255ee5bd93435f060bd5e"),
    ("ordering", "1000", "--mixed", "--include-floating", "--format", "svg"): (0, "a511a414450f1b82e1acbb8a57c4cf7da73c6500b98311c01743770f806687ea"),
}


def test_outputs_are_byte_identical_to_pinned_digests(capsys):
    for argv, (expected_code, expected_digest) in PINNED_OUTPUT_SHA256.items():
        code, out, _ = run_cli(capsys, *argv)
        assert code == expected_code, argv
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected_digest, argv


# --- spectrum ----------------------------------------------------------------

def test_spectrum_c4_minus(tmp_path, capsys):
    path = tmp_path / "c4m.txt"
    path.write_text(format_edge_list(make_cycle(4, -1)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "spectrum", str(path))
    assert code == 0
    assert "vertices: 4" in out
    assert "strong components: 1 (nontrivial 1)" in out
    assert "iota energy: 2.828427" in out
    assert "energy: 2.828427" in out
    assert "  +0.707107 +0.707107i" in out
    assert "  -0.707107 -0.707107i" in out


def test_spectrum_path_all_zero(tmp_path, capsys):
    path = tmp_path / "p5.txt"
    path.write_text(format_edge_list(make_path(5)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "spectrum", str(path))
    assert code == 0
    assert out.count("+0.000000 +0.000000i") == 5
    assert "energy: 0.000000" in out
    assert "iota energy: 0.000000" in out
    assert "strong components: 5 (nontrivial 0)" in out


def test_spectrum_nilpotent_component_prints_three_zeros(tmp_path, capsys):
    # one strong component with four arcs, so it takes the numeric route;
    # its characteristic polynomial is x^3, with -0.0 low coefficients
    g = SignedDigraph(3, ((0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, -1)))
    coeffs = char_poly(adjacency_matrix(g)).coeffs
    assert [math.copysign(1.0, c) for c in coeffs] == [-1.0, -1.0, -1.0, 1.0]
    assert coeffs == (0.0, 0.0, 0.0, 1.0)
    path = tmp_path / "nilpotent.txt"
    path.write_text(format_edge_list(g), encoding="utf-8")
    code, out, _ = run_cli(capsys, "spectrum", str(path))
    assert code == 0
    assert "strong components: 1 (nontrivial 1)" in out
    assert out.count("  +0.000000 +0.000000i") == 3
    assert "\nenergy: 0.000000\n" in out
    assert "iota energy: 0.000000" in out


def test_spectrum_joined_graph(tmp_path, capsys):
    g = join_with_arc(make_cycle(2, 1), make_cycle(4, -1), 0, 0, 1)
    path = tmp_path / "joined.txt"
    path.write_text(format_edge_list(g), encoding="utf-8")
    code, out, _ = run_cli(capsys, "spectrum", str(path))
    assert code == 0
    assert "strong components: 2 (nontrivial 2)" in out
    assert "iota energy: 2.828427" in out


def test_spectrum_finds_strong_components_once(tmp_path, capsys, monkeypatch):
    # the summary line and the spectrum share one search for the components
    from sidigraph import cli, graphs, spectra

    calls = []

    def counted(g):
        calls.append(g)
        return graphs.strong_components(g)

    monkeypatch.setattr(cli, "strong_components", counted)
    monkeypatch.setattr(spectra, "strong_components", counted)
    g = join_with_arc(make_cycle(2, 1), make_cycle(4, -1), 0, 0, 1)
    path = tmp_path / "joined.txt"
    path.write_text(format_edge_list(g), encoding="utf-8")
    code, out, _ = run_cli(capsys, "spectrum", str(path))
    assert code == 0
    assert "strong components: 2 (nontrivial 2)" in out
    assert len(calls) == 1


def test_spectrum_prints_and_sorts_values_as_shown(tmp_path, capsys, monkeypatch):
    # imaginary parts of rounding size printed as -0.000000 and, through
    # cmath.phase, put 1-1e-17j before the smaller real root 0.5
    values = (1 + 1e-17j, 1 - 1e-17j, 0.5 - 1e-18j)
    monkeypatch.setattr(cli, "eigenvalues", lambda g, components=None: values)
    path = tmp_path / "p3.txt"
    path.write_text(format_edge_list(make_path(3)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "spectrum", str(path))
    assert code == 0
    lines = out.splitlines()
    start = lines.index("eigenvalues:") + 1
    assert lines[start:start + 4] == [
        "  +0.500000 +0.000000i",
        "  +1.000000 +0.000000i",
        "  +1.000000 +0.000000i",
        "energy: 2.500000",
    ]


def test_spectrum_round_trip_identical_output(tmp_path, capsys):
    g = join_with_arc(make_cycle(6, -1), make_path(3), 0, 0, -1)
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(g), encoding="utf-8")
    code, first, _ = run_cli(capsys, "spectrum", str(path))
    assert code == 0
    code, second, _ = run_cli(capsys, "spectrum", str(path))
    assert first == second


@pytest.mark.parametrize("seed", range(10))
def test_spectrum_chained_blocks_match_per_block_lapack(tmp_path, capsys, seed):
    # three 24-vertex blocks joined by forward arcs; the whole-matrix route
    # printed an iota energy near 1e11-1e12 here with exit 0
    g, blocks = chained_blocks(seed)
    path = tmp_path / "blocks.txt"
    path.write_text(format_edge_list(g), encoding="utf-8")
    code, out, _ = run_cli(capsys, "spectrum", str(path))
    assert code == 0
    assert "strong components: 3 (nontrivial 3)" in out
    a = adjacency_matrix(g).astype(np.float64)
    z = np.concatenate([np.linalg.eigvals(a[np.ix_(b, b)]) for b in blocks])
    fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    assert abs(float(fields["energy"]) - np.abs(z.real).sum()) <= 1e-6
    assert abs(float(fields["iota energy"]) - np.abs(z.imag).sum()) <= 1e-6


def test_spectrum_writes_its_report_at_once_as_the_prints_did(tmp_path, monkeypatch):
    # three 24-vertex blocks: 72 eigenvalue lines in one write, byte for
    # byte what a print per line wrote
    g, _ = chained_blocks(3)
    path = tmp_path / "blocks.txt"
    path.write_text(format_edge_list(g), encoding="utf-8")
    writes = []
    monkeypatch.setattr(cli.sys, "stdout", SimpleNamespace(write=writes.append))
    assert main(["spectrum", str(path)]) == 0
    assert writes == [reference_spectrum_report(g)]


def test_spectrum_collinear_hull_component_prints_lapack_energies(tmp_path, capsys):
    # printed energy 7.021565 and iota energy 13.436129 with exit 0, from
    # root approximations that started in coinciding pairs
    g = collinear_hull_scc()
    path = tmp_path / "collinear.txt"
    path.write_text(format_edge_list(g), encoding="utf-8")
    code, out, _ = run_cli(capsys, "spectrum", str(path))
    assert code == 0
    z = np.linalg.eigvals(adjacency_matrix(g).astype(np.float64))
    fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    assert abs(float(fields["energy"]) - np.abs(z.real).sum()) <= 1e-6
    assert abs(float(fields["iota energy"]) - np.abs(z.imag).sum()) <= 1e-6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_spectrum_dense_component_fails_loudly(tmp_path, capsys):
    # the float characteristic polynomial of this 40-vertex component is
    # inexact; the route used to print a wrong iota energy with exit 0
    path = tmp_path / "dense.txt"
    path.write_text(format_edge_list(dense_scc(1)), encoding="utf-8")
    code, out, err = run_cli(capsys, "spectrum", str(path))
    assert code == 1
    assert err.startswith("error:")
    assert "not exact in double precision" in err
    assert "energy" not in out


def test_spectrum_refuses_large_non_cycle_component_as_numeric_failure(tmp_path, capsys):
    # a 600-cycle plus one chord is one strong component that is not a
    # cycle; the file is valid, so its size refusal is a numeric failure
    # (exit 1), not a usage error (exit 2)
    cycle = make_cycle(600, 1)
    path = tmp_path / "chord.txt"
    path.write_text(format_edge_list(SignedDigraph(600, cycle.arcs + ((0, 300, 1),))), encoding="utf-8")
    code, out, err = run_cli(capsys, "spectrum", str(path))
    assert code == 1
    assert err.startswith("error:")
    assert "512" in err
    assert "energy" not in out


def test_spectrum_large_cycle_takes_the_analytic_branch(tmp_path, capsys):
    path = tmp_path / "c600.txt"
    path.write_text(format_edge_list(make_cycle(600, 1)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "spectrum", str(path))
    assert code == 0
    assert "strong components: 1 (nontrivial 1)" in out
    assert out.count("i\n") == 600


def test_spectrum_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("n 3\n0 1 +1\n1 5 +1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "spectrum", str(path))
    assert code == 2
    assert "line 3" in err


def test_spectrum_refuses_non_decimal_vertex_numbers(tmp_path, capsys):
    # int() read '1_2' as 12 and '1_1' as 11: a 12-vertex spectrum, exit 0
    path = tmp_path / "underscores.txt"
    path.write_text("n 1_2\n0 1_1 +1\n", encoding="utf-8")
    assert run_cli(capsys, "spectrum", str(path)) == (2, "", "error: line 1: bad vertex count '1_2'\n")
    path.write_text("n 12\n0 1_1 +1\n", encoding="utf-8")
    assert run_cli(capsys, "spectrum", str(path)) == (2, "", "error: line 2: tail and head must be integers\n")


def test_spectrum_refuses_a_vertex_count_above_the_cap(tmp_path, capsys):
    # n 1000000 alone ran for 13 s; 10^9 exhausted memory before any output
    path = tmp_path / "huge.txt"
    path.write_text("n 1000000000\n0 1 +1\n", encoding="utf-8")
    message = "error: line 1: vertex count 1000000000 exceeds the supported maximum 1000000\n"
    assert run_cli(capsys, "spectrum", str(path)) == (2, "", message)


def test_spectrum_refuses_numbers_beyond_the_int_digit_limit(tmp_path, capsys):
    # int() refuses more than 4300 digits: this exited 2 naming an interpreter
    # setting and no line
    path = tmp_path / "long.txt"
    nines = "9" * 5000
    path.write_text(f"n {nines}\n", encoding="utf-8")
    message = f"error: line 1: vertex count {nines} exceeds the supported maximum 1000000\n"
    assert run_cli(capsys, "spectrum", str(path)) == (2, "", message)
    path.write_text(f"n 3\n0{nines} 1 +1\n", encoding="utf-8")
    assert run_cli(capsys, "spectrum", str(path)) == (2, "", f"error: line 2: arc ({nines}, 1) out of vertex range\n")
    path.write_text(f"n 3\n1 000{nines} +1\n", encoding="utf-8")
    assert run_cli(capsys, "spectrum", str(path)) == (2, "", f"error: line 2: arc (1, {nines}) out of vertex range\n")


def test_spectrum_reads_a_file_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    text = format_edge_list(make_cycle(4, -1))
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    expected = run_cli(capsys, "spectrum", str(plain))
    assert expected[0] == 0
    assert run_cli(capsys, "spectrum", str(marked)) == expected


def test_spectrum_missing_file(capsys):
    code, _, err = run_cli(capsys, "spectrum", "/no/such/file.txt")
    assert code == 3
    assert "cannot read" in err


# --- usage -------------------------------------------------------------------

def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_cached_parser_answers_like_a_fresh_one(capsys):
    # a good command, a usage error, --help, then the good command again
    commands = [
        ["cycle", "5", "+", "--energy"],
        ["cycle", "5", "+"],
        ["--help"],
        ["cycle", "5", "+", "--energy"],
    ]
    fresh = []
    for argv in commands:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    cli._parser.cache_clear()
    cached = [run_cli(capsys, *argv) for argv in commands]
    assert cached == fresh
    assert [code for code, _out, _err in cached] == [0, 2, 0, 0]
    assert cli._parser.cache_info().misses == 1
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser() is not cli._parser()
