"""Command-line front end.

Exit codes: 0 success, 1 verification or numeric failure, 2 usage or parse
error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import cmath
import functools
import sys
from pathlib import Path

from . import orderings, render, verification
from .cycle_formulas import (
    energy_case_label,
    energy_cycle,
    iota_case_label,
    iota_energy_cycle,
)
from .graphs import parse_edge_list, strong_components
from .spectra import RootFindingError, eigenvalues, energy, iota_energy

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

_SIGNS = {"+": 1, "+1": 1, "-": -1, "-1": -1}


def _parse_sign(text: str) -> int:
    if text not in _SIGNS:
        raise ValueError(f"sign must be one of +, -, +1, -1; got {text!r}")
    return _SIGNS[text]


def _tolerance(text: str) -> float:
    """Tie tolerance: a number >= 0, the domain orderings.ordered_sequence accepts."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance must be a number, got {text!r}") from None
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"tolerance must be >= 0, got {text!r}")
    return value


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    Path(out).write_text(text, encoding="utf-8", newline="\n")


def _cmd_cycle(args: argparse.Namespace) -> int:
    sign = _parse_sign(args.sign)
    if args.which == "iota":
        value = iota_energy_cycle(args.n, sign)
        label = iota_case_label(args.n, sign)
    else:
        value = energy_cycle(args.n, sign)
        label = energy_case_label(args.n, sign)
    print(f"{value:.6f}  {label}")
    return EXIT_OK


def _cmd_ordering(args: argparse.Namespace) -> int:
    sign_class = orderings.MIXED_SIGN if args.mixed else orderings.SAME_SIGN
    exclude = args.mixed and not args.include_floating
    sequence = orderings.ordered_sequence(
        args.n, sign_class, exclude_floating=exclude, tie_tol=args.tolerance
    )
    if args.format == "csv":
        text = render.ordering_to_csv(sequence)
    elif args.format == "svg":
        text = render.ordering_to_svg(sequence)
    else:
        text = render.ordering_to_text(sequence)
    _write_output(text, args.out)
    return EXIT_OK


def _cmd_extremal(args: argparse.Namespace) -> int:
    maximum, minimum = orderings.extremal_pairs(args.n)
    print(f"max {maximum.pair} {maximum.value:.6f}")
    print(f"min {minimum.pair} {minimum.value:.6f}")
    return EXIT_OK


def _cmd_floating_pair(args: argparse.Namespace) -> int:
    report = orderings.locate_floating_pair(args.n)
    entry = report.entry
    print(f"pair {entry.pair} value {entry.value:.6f} rank {entry.rank}")
    if report.above is not None:
        print(f"above {report.above.pair} {report.above.value:.6f}")
    if report.below is not None:
        print(f"below {report.below.pair} {report.below.value:.6f}")
    mismatch = report.mismatch
    if mismatch is None:
        print("bracket rule: not stated for this n")
        return EXIT_OK
    print(f"bracket rule: {'MISMATCH' if mismatch else 'match'}")
    return EXIT_VERIFICATION if mismatch else EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verification.run_verification(args.n_max, tie_tol=args.tolerance)
    failures = [r for r in results if not r.passed]
    lines = [f"ok   {r.name}" if r.passed else f"FAIL {r.name}: {r.detail}" for r in results]
    lines.append(f"{len(results) - len(failures)}/{len(results)} checks passed")
    if failures:
        lines.append(f"first failure: {failures[0].name}: {failures[0].detail}")
    # one write: a print per check took about 1 ms of the 800 lines at --n-max 100
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_VERIFICATION if failures else EXIT_OK


def _format_component_summary(components: list) -> str:
    nontrivial = sum(1 for c in components if c.n_vertices > 1)
    return f"strong components: {len(components)} (nontrivial {nontrivial})"


def _cmd_spectrum(args: argparse.Namespace) -> int:
    try:
        # utf-8-sig drops a leading byte-order mark, as some editors write one
        text = Path(args.path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_IO
    graph = parse_edge_list(text)
    components = strong_components(graph)
    spectrum = eigenvalues(graph, components)
    # Sort and print the values as shown: rounding noise such as an
    # imaginary part of 1e-17 must neither print as -0.000000 nor move a
    # real root through cmath.phase.  Adding 0.0 turns -0.0 into 0.0.
    shown = [complex(round(z.real, 6) + 0.0, round(z.imag, 6) + 0.0) for z in spectrum]
    ordered = sorted(shown, key=lambda z: (cmath.phase(z), abs(z)))
    lines = [
        f"vertices: {graph.n_vertices}",
        f"arcs: {graph.n_arcs}",
        _format_component_summary(components),
        "eigenvalues:",
        *(f"  {z.real:+.6f} {z.imag:+.6f}i" for z in ordered),
        f"energy: {energy(spectrum):.6f}",
        f"iota energy: {iota_energy(spectrum):.6f}",
    ]
    # one write, as _cmd_verify does, instead of a print per eigenvalue
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sidigraph",
        description="Energy and iota energy of signed digraphs and their two-cycle orderings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cycle = sub.add_parser("cycle", help="closed-form energy or iota energy of one cycle")
    p_cycle.add_argument("n", type=int, help="cycle length (>= 2)")
    p_cycle.add_argument("sign", help="cycle sign: + or -")
    which = p_cycle.add_mutually_exclusive_group(required=True)
    which.add_argument("--iota", dest="which", action="store_const", const="iota")
    which.add_argument("--energy", dest="which", action="store_const", const="energy")
    p_cycle.set_defaults(func=_cmd_cycle)

    p_ord = sub.add_parser("ordering", help="descending iota-energy ordering of a pair family")
    p_ord.add_argument("n", type=int, help="vertex budget (>= 4)")
    klass = p_ord.add_mutually_exclusive_group(required=True)
    klass.add_argument("--same-sign", dest="mixed", action="store_false")
    klass.add_argument("--mixed", dest="mixed", action="store_true")
    p_ord.add_argument(
        "--include-floating",
        action="store_true",
        help="keep the (C_m^-, C_2^+) pairs in the mixed ordering",
    )
    p_ord.add_argument("--format", choices=("csv", "svg", "text"), default="text")
    p_ord.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")
    p_ord.add_argument("--tolerance", type=_tolerance, default=orderings.TIE_TOL)
    p_ord.set_defaults(func=_cmd_ordering)

    p_ext = sub.add_parser("extremal", help="maximal and minimal iota energy over both classes")
    p_ext.add_argument("n", type=int, help="vertex budget (>= 4)")
    p_ext.set_defaults(func=_cmd_extremal)

    p_float = sub.add_parser(
        "floating-pair", help="position of (C_{n-2}^-, C_2^+) in the full mixed ordering"
    )
    p_float.add_argument("n", type=int, help="even vertex budget (>= 10)")
    p_float.set_defaults(func=_cmd_floating_pair)

    p_verify = sub.add_parser("verify", help="run the full consistency suite")
    p_verify.add_argument("--n-max", type=int, default=30)
    p_verify.add_argument("--tolerance", type=_tolerance, default=orderings.TIE_TOL)
    p_verify.set_defaults(func=_cmd_verify)

    p_spec = sub.add_parser("spectrum", help="eigenvalues and energies of an edge-list file")
    p_spec.add_argument("path", help="edge-list file: 'n <count>' then 'tail head sign' lines")
    p_spec.set_defaults(func=_cmd_spectrum)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call and then reused.

    Parsing leaves no state in the parser, so one parser serves every call
    of a process; building it costs almost a millisecond.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:  # EdgeListParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RootFindingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
