"""Deterministic CSV, SVG and text renderings of ordering sequences.

All output is assembled from fixed-precision formatted numbers so repeated
runs produce byte-identical files.  The renderers read the columns of the
sequence directly and never build its `entries`.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from .graphs import pair_label
from .orderings import MIXED_SIGN, SAME_SIGN, OrderingSequence

_CLASS_LABEL = {
    SAME_SIGN: "two cycles of equal sign",
    MIXED_SIGN: "one cycle of each sign",
}


def _sign_char(sign: int) -> str:
    return "+" if sign > 0 else "-"


def _rows(sequence: OrderingSequence) -> Iterator[tuple[int, int, list[int], float]]:
    """(rank, tie group, [l1, s1, l2, s2], value) of each row, as Python numbers."""
    return zip(
        range(1, len(sequence.values) + 1),
        sequence.tie_groups.tolist(),
        sequence.codes.tolist(),
        sequence.values.tolist(),
    )


def ordering_to_csv(sequence: OrderingSequence) -> str:
    lines = ["rank,tie_group,c1_len,c1_sign,c2_len,c2_sign,value"]
    for rank, group, (l1, s1, l2, s2), value in _rows(sequence):
        lines.append(f"{rank},{group},{l1},{_sign_char(s1)},{l2},{_sign_char(s2)},{value:.6f}")
    return "\n".join(lines) + "\n"


def ordering_to_text(sequence: OrderingSequence) -> str:
    header = (
        f"iota energy ordering, n={sequence.budget_n}, "
        f"{_CLASS_LABEL[sequence.sign_class]}"
    )
    lines = [header, ""]
    for rank, group, row, value in _rows(sequence):
        lines.append(f"{rank:4d}  tie {group:3d}  {pair_label(*row):14s} {value:12.6f}")
    return "\n".join(lines) + "\n"


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

    def x_at(rank: int) -> float:
        if n_entries == 1:
            return margin_left + plot_w / 2.0
        return margin_left + plot_w * (rank - 1) / (n_entries - 1)

    def y_at(value: float) -> float:
        return margin_top + plot_h * (1.0 - value / (value_max * 1.05))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin_left}" y="24" font-family="monospace" font-size="14">'
        f"iota energy ordering, n={sequence.budget_n}, "
        f"{_CLASS_LABEL[sequence.sign_class]}</text>",
        f'<line x1="{margin_left}" y1="{margin_top}" x2="{margin_left}" '
        f'y2="{height - margin_bottom}" stroke="black" stroke-width="1"/>',
        f'<line x1="{margin_left}" y1="{height - margin_bottom}" '
        f'x2="{width - margin_right}" y2="{height - margin_bottom}" '
        f'stroke="black" stroke-width="1"/>',
    ]
    for tick in range(5):
        value = value_max * 1.05 * (4 - tick) / 4.0
        y = y_at(value)
        parts.append(
            f'<line x1="{margin_left - 4}" y1="{y:.2f}" x2="{margin_left}" '
            f'y2="{y:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin_left - 8}" y="{y + 4:.2f}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{value:.2f}</text>'
        )
    x_step = max(1, n_entries // 12) if n_entries else 1
    for rank in range(1, n_entries + 1, x_step):
        x = x_at(rank)
        parts.append(
            f'<line x1="{x:.2f}" y1="{height - margin_bottom}" x2="{x:.2f}" '
            f'y2="{height - margin_bottom + 4}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{height - margin_bottom + 18}" '
            f'font-family="monospace" font-size="11" text-anchor="middle">{rank}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.2f}" y="{height - 8}" font-family="monospace" '
        f'font-size="12" text-anchor="middle">rank</text>'
    )
    if n_entries:
        xs = [x_at(rank) for rank in range(1, n_entries + 1)]
        ys = [y_at(value) for value in sequence.values.tolist()]
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#1f77b4" stroke-width="1"/>'
        )
        groups = sequence.tie_groups
        tie_sizes = np.bincount(groups).tolist()
        # a tie group is a run of consecutive ranks; its bar spans the run's
        # x range at the y of its last member
        starts = np.flatnonzero(np.diff(groups, prepend=0))
        ends = np.append(starts[1:], n_entries) - 1
        for start, end in zip(starts.tolist(), ends.tolist()):
            if end > start:
                parts.append(
                    f'<line x1="{xs[start]:.2f}" y1="{ys[end]:.2f}" x2="{xs[end]:.2f}" y2="{ys[end]:.2f}" '
                    f'stroke="#d62728" stroke-width="3"/>'
                )
        for x, y, (_rank, group, row, value) in zip(xs, ys, _rows(sequence)):
            color = "#d62728" if tie_sizes[group] > 1 else "#1f77b4"
            parts.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" '
                f'fill="{color}"><title>{pair_label(*row)} {value:.6f}</title></circle>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
