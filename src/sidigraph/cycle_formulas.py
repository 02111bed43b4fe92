"""Closed-form energy and iota energy of signed directed cycles.

Each function refuses a cycle C_n^sign that `graphs.check_cycle` refuses.

Energy of a cycle on n vertices:

    positive cycle: 2*cot(pi/n)   n = 0 mod 4
                    2*csc(pi/n)   n = 2 mod 4
                    csc(pi/2n)    n odd
    negative cycle: csc and cot swapped in the even cases, same odd case.

Iota energy:

    positive cycle: 2*cot(pi/n)   n even
                    cot(pi/2n)    n odd
    negative cycle: 2*csc(pi/n)   n even
                    cot(pi/2n)    n odd

Everything is evaluated directly in double precision; the gaps these
values must resolve are orders of magnitude above rounding error for any
practical cycle length.
"""
from __future__ import annotations

import math
import sys

from .graphs import CyclePair, check_cycle


_FORMS = {
    # cot(pi/2) is exactly 0; special-cased so C2+ values come out exact
    "2*cot": lambda m: 0.0 if m == 2 else 2.0 / math.tan(math.pi / m),
    "2*csc": lambda m: 2.0 / math.sin(math.pi / m),
    "cot": lambda m: 1.0 / math.tan(math.pi / m),
    "csc": lambda m: 1.0 / math.sin(math.pi / m),
}


def _case(n: int, sign: int, iota: bool) -> tuple[str, int]:
    """The closed form (a key of _FORMS) of C_n's iota energy or energy, and the m of its pi/m.

    m is n, or 2n for odd n, and must fit a double for pi/m to be evaluated.
    """
    check_cycle(n, sign)
    if n % 2 == 1:
        form, m = ("cot" if iota else "csc"), 2 * n
    else:
        cot = sign == 1 if iota else (n % 4 == 0) == (sign == 1)
        form, m = ("2*cot" if cot else "2*csc"), n
    if m > sys.float_info.max:
        raise ValueError(f"cycle length too large: m of pi/m must fit a double, got {n.bit_length()} bits")
    return form, m


def energy_cycle(n: int, sign: int) -> float:
    """Energy (sum of |Re| of eigenvalues) of the cycle C_n with this sign."""
    form, m = _case(n, sign, iota=False)
    return _FORMS[form](m)


def iota_energy_cycle(n: int, sign: int) -> float:
    """Iota energy (sum of |Im| of eigenvalues) of the cycle C_n."""
    form, m = _case(n, sign, iota=True)
    return _FORMS[form](m)


def pair_iota(pair: CyclePair) -> float:
    """Iota energy of a two-cycle pair: the sum over its cycles."""
    return iota_energy_cycle(pair.c1.length, pair.c1.sign) + iota_energy_cycle(
        pair.c2.length, pair.c2.sign
    )


def energy_case_label(n: int, sign: int) -> str:
    """Human-readable formula branch used by energy_cycle."""
    return "{}(pi/{})".format(*_case(n, sign, iota=False))


def iota_case_label(n: int, sign: int) -> str:
    """Human-readable formula branch used by iota_energy_cycle."""
    return "{}(pi/{})".format(*_case(n, sign, iota=True))
