"""``plot.hypnodensity_svg`` draws each stage from its lower boundary up to
the plot's top edge, W first and REM last, so each later stage covers the
one before above its own lower boundary and every boundary between two
stages is written once.  The renderer it replaced drew each stage as a
closed band, its upper boundary left to right and then its lower boundary
right to left; it is kept here verbatim as the oracle.  The visible bands
are the same: each path's boundary is the band's lower boundary, point for
point and string for string, and every line but the paths is unchanged."""

import re

import numpy as np
import pytest

from hypnopipe.hypnodensity import Hypnodensity
from hypnopipe.plot import (HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, STAGE_COLORS,
                            WIDTH, _fmt, hypnodensity_svg)
from hypnopipe.signal_io import STAGES

from conftest import random_hypnodensity


# ------------------------------------------------ the band renderer, verbatim

def band_svg(hd: Hypnodensity) -> str:
    """Render the stacked stage probabilities as an SVG 1.1 document."""
    probs = np.asarray(hd.probs, dtype=float)
    n = len(probs)
    hours = n * hd.resolution_s / 3600.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    xs = MARGIN_L + np.arange(n) / max(n - 1, 1) * plot_w
    cum = np.cumsum(probs, axis=1)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#f8f8f8"/>\n',
    ]
    lower = np.zeros(n)
    for k, stage in enumerate(STAGES):
        upper = cum[:, k]
        pts = []
        for x, u in zip(xs, upper):
            pts.append(f"{_fmt(x)},{_fmt(MARGIN_T + plot_h * (1 - u))}")
        for x, lo in zip(xs[::-1], lower[::-1]):
            pts.append(f"{_fmt(x)},{_fmt(MARGIN_T + plot_h * (1 - lo))}")
        parts.append(
            f'<path class="stage-area" fill="{STAGE_COLORS[stage]}" '
            f'stroke="none" d="M {" L ".join(pts)} Z"><title>{stage}</title></path>\n'
        )
        lower = upper
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


# ------------------------------------------------------------------ tests

PATH = re.compile(r'<path class="stage-area" fill="(#[0-9a-f]{6})" stroke="none" '
                  r'd="M ([^"]*) Z"><title>(\w+)</title></path>')


def paths(svg: str) -> list[tuple[str, list[str], str]]:
    """(fill, points, title) of each stage path, in document order."""
    return [(fill, d.split(" L "), title) for fill, d, title in PATH.findall(svg)]


def one_stage(n, k):
    probs = np.zeros((n, 5))
    probs[:, k] = 1.0
    return Hypnodensity(probs=probs, resolution_s=30)


def with_a_stage_at_zero(n, k, seed):
    probs = random_hypnodensity(np.random.default_rng(seed), n).probs
    probs[:, k] = 0.0
    return Hypnodensity(probs=probs / probs.sum(axis=1, keepdims=True), resolution_s=30)


CASES = {
    **{f"random-{n}": (lambda n=n: random_hypnodensity(np.random.default_rng(n), n))
       for n in (1, 2, 5, 120, 5760)},
    "random-5s-1000": lambda: random_hypnodensity(np.random.default_rng(7), 1000, 5),
    "dirichlet-960": lambda: Hypnodensity(
        probs=np.random.default_rng(3).dirichlet(np.full(5, 0.3), 960), resolution_s=30),
    "all-W-1": lambda: one_stage(1, 0),
    "all-W-200": lambda: one_stage(200, 0),
    "all-REM-150": lambda: one_stage(150, 4),
    "no-N3-300": lambda: with_a_stage_at_zero(300, 3, 1),
    "no-W-2": lambda: with_a_stage_at_zero(2, 0, 2),
    "no-REM-5760": lambda: with_a_stage_at_zero(5760, 4, 4),
}


@pytest.mark.parametrize("case", CASES)
def test_each_path_is_the_bands_lower_boundary_up_to_the_top_edge(case):
    hd = CASES[case]()
    n = len(hd.probs)
    got, want = hypnodensity_svg(hd), band_svg(hd)
    # the header, hour ticks and frame are the same lines
    assert [ln for ln in got.splitlines() if "stage-area" not in ln] == \
        [ln for ln in want.splitlines() if "stage-area" not in ln]
    got_paths, want_paths = paths(got), paths(want)
    assert len(got_paths) == got.count('class="stage-area"')
    assert [(fill, title) for fill, _, title in got_paths] == \
        [(STAGE_COLORS[s], s) for s in STAGES] == [(f, t) for f, _, t in want_paths]
    for (_, pts, _), (_, band, _) in zip(got_paths, want_paths):
        assert len(band) == 2 * n and len(pts) == n + 2
        assert pts[:n] == band[n:][::-1]
        right, left = band[n - 1].split(",")[0], band[0].split(",")[0]
        assert pts[n:] == [f"{right},{_fmt(MARGIN_T)}", f"{left},{_fmt(MARGIN_T)}"]
    if n >= 100:
        assert len(got.encode()) <= 0.55 * len(want.encode())
