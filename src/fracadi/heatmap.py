"""Dependency-free SVG heatmaps of grid functions.

Each node becomes one colored cell; the palette is a five-anchor
approximation of viridis.  Output is deterministic: the same field always
produces byte-identical SVG.  Every cell's colour is computed in one numpy
pass, and each column's x and each row's y is formatted once.  Intended
for quick visual inspection of solutions, not publication graphics.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .meshops import GridFn

_ANCHORS = np.array([
    (0.267, 0.005, 0.329),
    (0.229, 0.322, 0.546),
    (0.128, 0.567, 0.551),
    (0.369, 0.789, 0.383),
    (0.993, 0.906, 0.144),
])

_PLOT = 400.0
_LEFT = 60.0
_TOP = 34.0
_LEGEND_GAP = 26.0
_LEGEND_W = 18.0
_LEGEND_STEPS = 64


def _colors(t: np.ndarray) -> list[str]:
    """Palette colours of the values t (clipped to [0, 1]) as #rrggbb."""
    pos = np.clip(t, 0.0, 1.0).ravel() * (len(_ANCHORS) - 1)
    lo = pos.astype(int)
    hi = np.minimum(lo + 1, len(_ANCHORS) - 1)
    frac = (pos - lo)[:, None]
    rgb = (1.0 - frac) * _ANCHORS[lo] + frac * _ANCHORS[hi]
    # rint rounds half to even, as round does
    r, g, b = np.rint(255 * rgb).astype(int).T
    return [f"#{code:06x}" for code in ((r << 16) | (g << 8) | b).tolist()]


def emit_heatmap(u: GridFn, path, *, title: str | None = None) -> None:
    """Render the field to an SVG file with axes and a value-range legend."""
    vals = u.values
    mesh = u.mesh
    nx, ny = mesh.shape
    vmin = float(np.min(vals))
    vmax = float(np.max(vals))
    span = vmax - vmin

    cw = _PLOT / nx
    ch = _PLOT / ny
    width = _LEFT + _PLOT + _LEGEND_GAP + _LEGEND_W + 80.0
    height = _TOP + _PLOT + 46.0
    bottom = _TOP + _PLOT

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" '
        'fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_LEFT + _PLOT / 2:.1f}" y="20" font-size="14" '
            f'text-anchor="middle" font-family="sans-serif">{_escape(title)}</text>'
        )

    # field cells; j grows upward so row j sits at the bottom for j = 0
    t = (vals - vmin) / span if span > 0.0 else np.full(vals.shape, 0.5)
    size = f'width="{cw + 0.05:.2f}" height="{ch + 0.05:.2f}"'
    xs = [f"{_LEFT + i * cw:.2f}" for i in range(nx)]
    ys = [f"{bottom - (j + 1) * ch:.2f}" for j in range(ny)]
    parts += [f'<rect x="{px}" y="{py}" {size} fill="{fill}"/>'
              for (px, py), fill in zip(product(xs, ys), _colors(t))]

    # axes
    parts.append(
        f'<rect x="{_LEFT:.1f}" y="{_TOP:.1f}" width="{_PLOT:.1f}" '
        f'height="{_PLOT:.1f}" fill="none" stroke="black" stroke-width="1"/>'
    )
    label = '<text x="{x:.1f}" y="{y:.1f}" font-size="11" ' \
            'font-family="sans-serif" text-anchor="{anchor}"{extra}>{s}</text>'
    parts.append(label.format(x=_LEFT, y=bottom + 16, anchor="middle", extra="",
                              s="0"))
    parts.append(label.format(x=_LEFT + _PLOT, y=bottom + 16, anchor="middle",
                              extra="", s=f"{mesh.L1:.4g}"))
    parts.append(label.format(x=_LEFT + _PLOT / 2, y=bottom + 34,
                              anchor="middle", extra="", s="x"))
    parts.append(label.format(x=_LEFT - 8, y=bottom + 4, anchor="end", extra="",
                              s="0"))
    parts.append(label.format(x=_LEFT - 8, y=_TOP + 8, anchor="end", extra="",
                              s=f"{mesh.L2:.4g}"))
    parts.append(label.format(
        x=_LEFT - 34, y=_TOP + _PLOT / 2, anchor="middle",
        extra=f' transform="rotate(-90 {_LEFT - 34:.1f} {_TOP + _PLOT / 2:.1f})"',
        s="y"))

    # legend: vertical color bar, max at the top
    lx = _LEFT + _PLOT + _LEGEND_GAP
    step_h = _PLOT / _LEGEND_STEPS
    legend = _colors(np.array([1.0 - (k + 0.5) / _LEGEND_STEPS
                               for k in range(_LEGEND_STEPS)]))
    for k, fill in enumerate(legend):
        parts.append(
            f'<rect x="{lx:.1f}" y="{_TOP + k * step_h:.2f}" '
            f'width="{_LEGEND_W:.1f}" height="{step_h + 0.05:.2f}" '
            f'fill="{fill}"/>'
        )
    parts.append(
        f'<rect x="{lx:.1f}" y="{_TOP:.1f}" width="{_LEGEND_W:.1f}" '
        f'height="{_PLOT:.1f}" fill="none" stroke="black" stroke-width="0.5"/>'
    )
    parts.append(label.format(x=lx + _LEGEND_W + 6, y=_TOP + 8, anchor="start",
                              extra="", s=f"{vmax:.5g}"))
    parts.append(label.format(x=lx + _LEGEND_W + 6, y=bottom + 4,
                              anchor="start", extra="", s=f"{vmin:.5g}"))

    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
