"""Stacked-area SVG rendering of a hypnodensity.

Color code: white = wake, red = N1, light blue = N2, dark blue = N3,
black = REM.  The x axis is in hours.  Output is deterministic byte-for-byte
for a given input.
"""

from __future__ import annotations

import numpy as np

from .hypnodensity import Hypnodensity
from .signal_io import STAGES

STAGE_COLORS = {
    "W": "#ffffff",
    "N1": "#e03030",
    "N2": "#a8d0f0",
    "N3": "#1a3a8a",
    "REM": "#000000",
}

WIDTH = 960
HEIGHT = 300
MARGIN_L = 50
MARGIN_B = 30
MARGIN_T = 10
MARGIN_R = 10


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def hypnodensity_svg(hd: Hypnodensity) -> str:
    """Render the stacked stage probabilities as an SVG 1.1 document."""
    probs = np.asarray(hd.probs, dtype=float)
    n = len(probs)
    hours = n * hd.resolution_s / 3600.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    xs = [_fmt(x) for x in MARGIN_L + np.arange(n) / max(n - 1, 1) * plot_w]
    cum = np.cumsum(probs, axis=1)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#f8f8f8"/>\n',
    ]
    # each stage fills from its lower boundary to the top edge, W first, and the
    # next covers it above its own lower boundary: each boundary is drawn once
    corners = f" L {xs[-1]},{_fmt(MARGIN_T)} L {xs[0]},{_fmt(MARGIN_T)} Z"
    lower = np.zeros(n)
    for k, stage in enumerate(STAGES):
        ys = (MARGIN_T + plot_h * (1 - lower)).tolist()
        pts = " L ".join(f"{x},{_fmt(y)}" for x, y in zip(xs, ys))
        parts.append(
            f'<path class="stage-area" fill="{STAGE_COLORS[stage]}" '
            f'stroke="none" d="M {pts}{corners}"><title>{stage}</title></path>\n'
        )
        lower = cum[:, k]
    for t in range(int(hours) + 1):       # hour ticks
        x = MARGIN_L + (t / hours) * plot_w
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{MARGIN_T + plot_h}" x2="{_fmt(x)}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#333333"/>\n'
            f'<text x="{_fmt(x)}" y="{MARGIN_T + plot_h + 18}" '
            f'font-size="10" text-anchor="middle" fill="#333333">{t}h</text>\n'
        )
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333333"/>\n'
    )
    parts.append("</svg>\n")
    return "".join(parts)
