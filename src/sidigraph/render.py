"""Deterministic CSV, SVG and text renderings of ordering sequences.

All output is assembled from fixed-precision formatted numbers so repeated
runs produce byte-identical files.  The renderers read the columns of the
sequence directly and never build its `entries`.

Rows are formatted by numpy, `_BLOCK_ROWS` at a time, into one matrix of
4-byte words per block.  Every row of a block has the same words: the
literals of the row format, fixed once per call, and the fields, written
per block.  A number is right-aligned in words of three ASCII digits and a
NUL byte, gathered from the 1000-word table `_WORDS`; its leading zeros and
unused width are NUL bytes too, or spaces where the format pads.  A `%s`
field is a row of a small word table of its strings.  Dropping the NUL
bytes leaves the block's text, decoded once, and each output is one final
join of its header and blocks.

A `%.Pf` field prints the integer rint(v * 10**P).  The double product is
rounded from the exact one, and rounding never crosses a double, so rint
can misround only a product that lands exactly on a half; there the sign
of the product's exact error (Dekker's TwoProduct) settles the side.  So
every field is Python's correctly rounded, ties-to-even `%`, byte for byte.
"""
from __future__ import annotations

import re
from typing import Iterator, Sequence

import numpy as np

from .orderings import MIXED_SIGN, SAME_SIGN, OrderingSequence

_CLASS_LABEL = {
    SAME_SIGN: "two cycles of equal sign",
    MIXED_SIGN: "one cycle of each sign",
}

# Rows formatted per word matrix; bounds the transient buffers.
_BLOCK_ROWS = 1024

# The conversions a row format may hold: %d, %Nd, %s, %.Pf and %W.Pf.
_CONVERSION = re.compile(r"%(?:(\d*)d|s|(\d*)\.(\d+)f)")
# Word k holds the three ASCII digits of k, then a NUL byte.
_WORDS = np.pad(
    (np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")).astype(np.uint8), ((0, 0), (0, 1))
).view(np.uint32)[:, 0]
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)
# The digit position of a word's NUL byte: above any width, so never shown nor padded.
_NEVER = 1 << 30
# Veltkamp's constant: splits a double into two halves of at most 26 bits.
_SPLITTER = 2.0**27 + 1.0

# A `%s` column: its strings and, per row, the index of the row's string.
StringColumn = tuple[Sequence[str], np.ndarray]

_SIGNS = ["-", "+"]
# The text table pads a pair label to 14 characters, so by at most 5 spaces.
_LABEL_PADDING = [" " * k for k in range(6)]
# Circle fill of a rank alone in its tie group and of a tied one.
_FILL = ["#1f77b4", "#d62728"]


def _words(flags: np.ndarray, byte: int) -> np.ndarray:
    """uint32 words from the last axis of flags, 4 bytes each: `byte` where set, NUL elsewhere."""
    return (flags * np.uint8(byte)).view(np.uint32)[..., 0]


def _packed(text: bytes, words: int = 0) -> np.ndarray:
    """text as uint32 words, NUL-padded to at least `words` words."""
    words = max(words, -(-len(text) // 4))
    return np.frombuffer(text.ljust(4 * words, b"\0"), dtype=np.uint32)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of a into high + low, each with at most 26 significant bits."""
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


def _product_error(a: np.ndarray, b: float, product: np.ndarray) -> np.ndarray:
    """a * b - product, exactly, for product = fl(a * b): Dekker's TwoProduct (1971)."""
    a_high, a_low = _split(a)
    b_high, b_low = _split(np.float64(b))
    return a_low * b_low - (((product - a_high * b_high) - a_low * b_high) - a_high * b_low)


def _fixed_point(values: np.ndarray, precision: int) -> np.ndarray:
    """values * 10**precision rounded to int64 as `%.{precision}f` rounds them:
    correctly, ties to even.  The values are in [0, 2**53 / 10**precision).

    fl(v * 10**P) is monotone in the exact product, so it never crosses a
    half that is a double: rint of it is the exact product's nearest
    integer unless it lands exactly on a half.  Only there does the sign of
    the exact error pick the side; an error of 0 is a true tie, which rint
    breaks to even.  Above 2**52 there are no halves, and an exact product
    half an ulp off a double was rounded to the even one already.
    """
    scale = 10.0**precision
    product = values * scale
    rounded = np.rint(product)
    half = np.flatnonzero(np.abs(product - rounded) == 0.5)
    if len(half):
        error = _product_error(values[half], scale, product[half])
        rounded[half] = np.where(error == 0.0, rounded[half], product[half] + np.sign(error) * 0.5)
    return rounded.astype(np.int64)


class _Number:
    """A `%d`, `%Nd`, `%.Pf` or `%W.Pf` field: its words and how to fill them.

    The field's number q is the integer itself, or for `%.Pf` the rounded
    rint(v * 10**P) times 10**trailing, so that its fraction fills whole
    words; the `trailing` lowest digits are then never shown.  Word j from
    the right holds digits 3j..3j+2 of q; the point word, if any, sits
    below the integer digits.
    """

    def __init__(self, column, width: int, precision: int):
        column = np.asarray(column)
        if precision:
            column = column.astype(np.float64, copy=False)
            refused = np.signbit(column) | ~(column < 2.0**53 / 10.0**precision)
            if refused.any():
                raise ValueError(
                    f"%.{precision}f formats only values in [0, 2**53 / 10**{precision}), "
                    f"got {float(column[refused][0])!r}"
                )
            # the fraction words, and the digits of them that the precision leaves unshown
            self.point = -(-precision // 3)
            self.trailing = 3 * self.point - precision
            top = int(_fixed_point(column.max(keepdims=True), precision)[0]) * 10**self.trailing
            # an integer digit and every fraction digit; the width less the point
            keep, width = 3 * self.point + 1, width - 1 + self.trailing
        else:
            if column.dtype.kind not in "iu":
                raise ValueError(f"%d formats only integers, got {column.dtype}")
            column = column.astype(np.int64, copy=False)
            if len(column) and column.min() < 0:
                raise ValueError(f"%d formats only non-negative integers, got {int(column.min())}")
            self.point = self.trailing = 0
            top, keep = int(column.max()), 1
        self.column, self.precision, self.top = column, precision, top
        self.chunks = -(-max(len(str(top)), keep, width) // 3)
        # the digit position from the right of each byte of each word, and
        # per digit count nd of q (rows 0..19) the digits it shows
        position = 3 * np.arange(self.chunks)[:, None, None] + np.array([2, 1, 0, _NEVER])
        shown = np.maximum(np.arange(20), keep)[:, None]
        # per word j and digit count: the mask of its shown bytes and its padding
        self.kept = _words((position < shown) & (position >= self.trailing), 0xFF)
        self.spaces = _words((position >= shown) & (position < width), ord(" "))
        self.padded = bool(self.spaces.any())

    def template(self) -> np.ndarray:
        words = np.zeros(self.chunks + (self.point > 0), dtype=np.uint32)
        if self.point:
            words[self.chunks - self.point] = _packed(b".")[0]
        return words

    def write(self, block: np.ndarray, start: int, rows: slice) -> None:
        q = self.column[rows]
        if self.precision:
            q = _fixed_point(q, self.precision) * 10**self.trailing
        digits = np.searchsorted(_POWERS_OF_TEN, q, side="right") + 1
        for j in range(self.chunks):
            # the words above the largest number hold no digit, only padding
            chunk = q // 1000**j if j else q
            if 1000 ** (j + 1) <= self.top:
                chunk = chunk % 1000
            elif 1000**j > self.top:
                chunk = 0
            word = block[:, start + self.chunks - 1 - j + (j < self.point)]
            np.bitwise_and(_WORDS[chunk], self.kept[j, digits], out=word)
            if self.padded:
                word |= self.spaces[j, digits]


class _Text:
    """A `%s` field: per row, one of a few strings, as a row of their word table."""

    def __init__(self, column: StringColumn):
        strings, index = column
        encoded = [s.encode() for s in strings]
        if any(b"\0" in s for s in encoded):
            raise ValueError(f"NUL in a %s string of {strings!r}")
        width = max((-(-len(s) // 4) for s in encoded), default=0)
        self.table = np.stack([_packed(s, width) for s in encoded])
        self.index = np.asarray(index, dtype=np.intp)

    def template(self) -> np.ndarray:
        return np.zeros(self.table.shape[1], dtype=np.uint32)

    def write(self, block: np.ndarray, start: int, rows: slice) -> None:
        block[:, start : start + self.table.shape[1]] = self.table[self.index[rows]]


def _parse(row_format: str) -> tuple[list[bytes], list[tuple[str, int, int]]]:
    """The literals of row_format, and between them its conversions as
    (kind, width, precision), kind one of "d", "s", "f".

    Any other conversion, a precision outside 1..15 (so that 10**P and
    every rounded value are exact) or a NUL byte raises ValueError.
    """
    literals, conversions, start = [], [], 0
    for match in _CONVERSION.finditer(row_format):
        literals.append(row_format[start : match.start()])
        width = match.group(1) or match.group(2) or "0"
        conversions.append((match.group()[-1], int(width), int(match.group(3) or 0)))
        start = match.end()
    literals.append(row_format[start:])
    if any("%" in literal or "\0" in literal for literal in literals):
        raise ValueError(f"unsupported conversion or NUL in row format {row_format!r}")
    if any(kind == "f" and not 1 <= precision <= 15 for kind, _, precision in conversions):
        raise ValueError(f"precision outside 1..15 in row format {row_format!r}")
    return [literal.encode() for literal in literals], conversions


def _formatted(row_format: str, columns: list[np.ndarray | StringColumn]) -> Iterator[str]:
    """row_format applied to every row of the columns, one string per block of rows.

    A `%s` column is a StringColumn.  Each field is byte for byte what
    Python's `%` gives.  A value that `%` would print with a sign or not as
    digits (negative, -0.0, non-finite), a `%.Pf` value of at least
    2**53 / 10**P and a conversion _parse refuses raise ValueError.
    """
    literals, conversions = _parse(row_format)
    if len(conversions) != len(columns):
        raise ValueError(f"{row_format!r} takes {len(conversions)} columns, got {len(columns)}")
    lengths = {len(column[1] if kind == "s" else column) for (kind, _, _), column in zip(conversions, columns)}
    if len(lengths) != 1:
        raise ValueError(f"columns of lengths {sorted(lengths)} for {row_format!r}")
    (n_rows,) = lengths
    if not n_rows:
        return
    fields = [
        _Text(column) if kind == "s" else _Number(column, width, precision)
        for (kind, width, precision), column in zip(conversions, columns)
    ]
    template, starts = [_packed(literals[0])], []
    for field, literal in zip(fields, literals[1:]):
        starts.append(sum(map(len, template)))
        template += [field.template(), _packed(literal)]
    block = np.empty((min(n_rows, _BLOCK_ROWS), sum(map(len, template))), dtype=np.uint32)
    block[:] = np.concatenate(template)
    for first in range(0, n_rows, _BLOCK_ROWS):
        rows = slice(first, first + _BLOCK_ROWS)
        part = block[: min(_BLOCK_ROWS, n_rows - first)]
        for field, start in zip(fields, starts):
            field.write(part, start, rows)
        yield part.tobytes().translate(None, b"\0").decode()


def _pair_columns(codes: np.ndarray) -> list[np.ndarray | StringColumn]:
    """l1, s1 character, l2, s2 character: the arguments of `(C%d%s,C%d%s)`."""
    return [codes[:, 0], (_SIGNS, codes[:, 1] > 0), codes[:, 2], (_SIGNS, codes[:, 3] > 0)]


def ordering_to_csv(sequence: OrderingSequence) -> str:
    ranks = np.arange(1, len(sequence.values) + 1)
    columns = [ranks, sequence.tie_groups, *_pair_columns(sequence.codes), sequence.values]
    return "".join(
        [
            "rank,tie_group,c1_len,c1_sign,c2_len,c2_sign,value\n",
            *_formatted("%d,%d,%d,%s,%d,%s,%.6f\n", columns),
        ]
    )


def ordering_to_text(sequence: OrderingSequence) -> str:
    header = (
        f"iota energy ordering, n={sequence.budget_n}, "
        f"{_CLASS_LABEL[sequence.sign_class]}\n\n"
    )
    codes = sequence.codes
    # a label `(C<l1><s1>,C<l2><s2>)` is 7 characters and the digits of both lengths
    digits = np.searchsorted(_POWERS_OF_TEN, codes[:, [0, 2]], side="right") + 1
    padding = (_LABEL_PADDING, np.maximum(14 - 7 - digits.sum(axis=1), 0))
    ranks = np.arange(1, len(sequence.values) + 1)
    columns = [ranks, sequence.tie_groups, *_pair_columns(codes), padding, sequence.values]
    return "".join([header, *_formatted("%4d  tie %3d  (C%d%s,C%d%s)%s %12.6f\n", columns)])


def ordering_to_svg(sequence: OrderingSequence) -> str:
    """Rank-vs-value scatter with a connecting line; tie groups share one y.

    Members of a tie group are drawn in a second color and linked by a
    horizontal bar to make the merge visible.
    """
    width, height = 900, 480
    margin_left, margin_right, margin_top, margin_bottom = 70, 20, 46, 50
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom
    n_entries = len(sequence.values)
    value_max = float(sequence.values.max()) if n_entries else 1.0
    if value_max <= 0.0:
        value_max = 1.0

    def y_at(value):
        return margin_top + plot_h * (1.0 - value / (value_max * 1.05))

    # the coordinates of all ranks at once, each by the operations of the
    # one-rank formula in the same order, so each rounds exactly as that does
    if n_entries == 1:
        xs = np.full(1, margin_left + plot_w / 2.0)
    else:
        xs = margin_left + plot_w * np.arange(n_entries) / (n_entries - 1)
    ys = y_at(sequence.values)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>\n',
        f'<text x="{margin_left}" y="24" font-family="monospace" font-size="14">'
        f"iota energy ordering, n={sequence.budget_n}, "
        f"{_CLASS_LABEL[sequence.sign_class]}</text>\n",
        f'<line x1="{margin_left}" y1="{margin_top}" x2="{margin_left}" '
        f'y2="{height - margin_bottom}" stroke="black" stroke-width="1"/>\n',
        f'<line x1="{margin_left}" y1="{height - margin_bottom}" '
        f'x2="{width - margin_right}" y2="{height - margin_bottom}" '
        f'stroke="black" stroke-width="1"/>\n',
    ]
    for tick in range(5):
        value = value_max * 1.05 * (4 - tick) / 4.0
        y = y_at(value)
        parts.append(
            f'<line x1="{margin_left - 4}" y1="{y:.2f}" x2="{margin_left}" '
            f'y2="{y:.2f}" stroke="black" stroke-width="1"/>\n'
            f'<text x="{margin_left - 8}" y="{y + 4:.2f}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{value:.2f}</text>\n'
        )
    x_step = max(1, n_entries // 12) if n_entries else 1
    for rank in range(1, n_entries + 1, x_step):
        x = float(xs[rank - 1])
        parts.append(
            f'<line x1="{x:.2f}" y1="{height - margin_bottom}" x2="{x:.2f}" '
            f'y2="{height - margin_bottom + 4}" stroke="black" stroke-width="1"/>\n'
            f'<text x="{x:.2f}" y="{height - margin_bottom + 18}" '
            f'font-family="monospace" font-size="11" text-anchor="middle">{rank}</text>\n'
        )
    parts.append(
        f'<text x="{width / 2:.2f}" y="{height - 8}" font-family="monospace" '
        f'font-size="12" text-anchor="middle">rank</text>\n'
    )
    if n_entries:
        parts.append(f'<polyline points="{xs[0]:.2f},{ys[0]:.2f}')
        parts.extend(_formatted(" %.2f,%.2f", [xs[1:], ys[1:]]))
        parts.append('" fill="none" stroke="#1f77b4" stroke-width="1"/>\n')
        groups = sequence.tie_groups
        # a tie group is a run of consecutive ranks; its bar spans the run's
        # x range at the y of its last member
        starts = np.flatnonzero(np.diff(groups, prepend=0))
        ends = np.append(starts[1:], n_entries) - 1
        tied = ends > starts
        starts, ends = starts[tied], ends[tied]
        parts.extend(
            _formatted(
                '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#d62728" stroke-width="3"/>\n',
                [xs[starts], ys[ends], xs[ends], ys[ends]],
            )
        )
        colors = (_FILL, np.bincount(groups)[groups] > 1)
        parts.extend(
            _formatted(
                '<circle cx="%.2f" cy="%.2f" r="3" '
                'fill="%s"><title>(C%d%s,C%d%s) %.6f</title></circle>\n',
                [xs, ys, colors, *_pair_columns(sequence.codes), sequence.values],
            )
        )
    parts.append("</svg>\n")
    return "".join(parts)
