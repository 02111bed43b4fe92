"""Deterministic CSV, SVG and text renderings of ordering sequences.

All output is assembled from fixed-precision formatted numbers so repeated
runs produce byte-identical files.
"""
from __future__ import annotations

from .orderings import MIXED_SIGN, SAME_SIGN, OrderingSequence

_CLASS_LABEL = {
    SAME_SIGN: "two cycles of equal sign",
    MIXED_SIGN: "one cycle of each sign",
}


def _sign_char(sign: int) -> str:
    return "+" if sign > 0 else "-"


def ordering_to_csv(sequence: OrderingSequence) -> str:
    lines = ["rank,tie_group,c1_len,c1_sign,c2_len,c2_sign,value"]
    for e in sequence.entries:
        p = e.pair
        lines.append(
            f"{e.rank},{e.tie_group},{p.c1.length},{_sign_char(p.c1.sign)},"
            f"{p.c2.length},{_sign_char(p.c2.sign)},{e.value:.6f}"
        )
    return "\n".join(lines) + "\n"


def ordering_to_text(sequence: OrderingSequence) -> str:
    header = (
        f"iota energy ordering, n={sequence.budget_n}, "
        f"{_CLASS_LABEL[sequence.sign_class]}"
    )
    lines = [header, ""]
    for e in sequence.entries:
        lines.append(f"{e.rank:4d}  tie {e.tie_group:3d}  {str(e.pair):14s} {e.value:12.6f}")
    return "\n".join(lines) + "\n"


def ordering_to_svg(sequence: OrderingSequence) -> str:
    """Rank-vs-value scatter with a connecting line; tie groups share one y.

    Members of a tie group are drawn in a second color and linked by a
    horizontal bar to make the merge visible.
    """
    entries = sequence.entries
    width, height = 900, 480
    margin_left, margin_right, margin_top, margin_bottom = 70, 20, 46, 50
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom
    n_entries = len(entries)
    value_max = max(e.value for e in entries) if entries else 1.0
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
    if entries:
        points = " ".join(f"{x_at(e.rank):.2f},{y_at(e.value):.2f}" for e in entries)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#1f77b4" stroke-width="1"/>'
        )
        tie_sizes: dict[int, int] = {}
        for e in entries:
            tie_sizes[e.tie_group] = tie_sizes.get(e.tie_group, 0) + 1
        group_bounds: dict[int, tuple[float, float, float]] = {}
        for e in entries:
            x, y = x_at(e.rank), y_at(e.value)
            lo, hi, _ = group_bounds.get(e.tie_group, (x, x, y))
            group_bounds[e.tie_group] = (min(lo, x), max(hi, x), y)
        for group, (lo, hi, y) in sorted(group_bounds.items()):
            if tie_sizes[group] > 1:
                parts.append(
                    f'<line x1="{lo:.2f}" y1="{y:.2f}" x2="{hi:.2f}" y2="{y:.2f}" '
                    f'stroke="#d62728" stroke-width="3"/>'
                )
        for e in entries:
            color = "#d62728" if tie_sizes[e.tie_group] > 1 else "#1f77b4"
            parts.append(
                f'<circle cx="{x_at(e.rank):.2f}" cy="{y_at(e.value):.2f}" r="3" '
                f'fill="{color}"><title>{e.pair} {e.value:.6f}</title></circle>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
