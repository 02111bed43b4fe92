"""Deterministic CSV, SVG and text renderings of ordering sequences.

All output is assembled from fixed-precision formatted numbers so repeated
runs produce byte-identical files.  The renderers read the columns of the
sequence directly and never build its `entries`.  Rows are formatted a
block at a time: the block's columns are interleaved into one argument
tuple for a row format repeated once per row, so a block costs one `%`
operation, and each output is one final join of its header and blocks.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from .orderings import MIXED_SIGN, SAME_SIGN, OrderingSequence

_CLASS_LABEL = {
    SAME_SIGN: "two cycles of equal sign",
    MIXED_SIGN: "one cycle of each sign",
}

# Rows formatted per `%` operation; bounds the transient argument tuple.
_BLOCK_ROWS = 1024

# The text table pads a pair label to 14 characters, so by at most 5 spaces.
_LABEL_PADDING = np.array([" " * k for k in range(6)], dtype=object)
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)
# Circle fill of a rank alone in its tie group and of a tied one; an object
# array hands every row one of these two strings instead of a copy.
_FILL = np.array(["#1f77b4", "#d62728"], dtype=object)


def _formatted(row_format: str, columns: list[np.ndarray]) -> Iterator[str]:
    """row_format applied to every row of the columns, one string per block of rows."""
    width = len(columns)
    n_rows = len(columns[0])
    for start in range(0, n_rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_rows)
        arguments: list = [None] * ((stop - start) * width)
        for k, column in enumerate(columns):
            arguments[k::width] = column[start:stop].tolist()
        yield row_format * (stop - start) % tuple(arguments)


def _pair_columns(codes: np.ndarray) -> list[np.ndarray]:
    """l1, s1 character, l2, s2 character: the arguments of `(C%d%s,C%d%s)`."""
    return [
        codes[:, 0],
        np.where(codes[:, 1] > 0, "+", "-"),
        codes[:, 2],
        np.where(codes[:, 3] > 0, "+", "-"),
    ]


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
    padding = _LABEL_PADDING[np.maximum(14 - 7 - digits.sum(axis=1), 0)]
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
        colors = _FILL[(np.bincount(groups)[groups] > 1).astype(np.intp)]
        parts.extend(
            _formatted(
                '<circle cx="%.2f" cy="%.2f" r="3" '
                'fill="%s"><title>(C%d%s,C%d%s) %.6f</title></circle>\n',
                [xs, ys, colors, *_pair_columns(sequence.codes), sequence.values],
            )
        )
    parts.append("</svg>\n")
    return "".join(parts)
