import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fracadi import GridFn, Mesh
from fracadi.heatmap import emit_heatmap
from conftest import random_field


def test_valid_svg_with_expected_cells(rng, tmp_path):
    mesh = Mesh(1.0, 2.0, 6, 8, 1.0, 1)
    u = random_field(mesh, rng)
    path = tmp_path / "field.svg"
    emit_heatmap(u, path, title="probe")
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    # field cells + legend strips + background + two frames
    assert len(rects) >= 7 * 9 + 64
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "probe" in texts
    assert "x" in texts and "y" in texts


def test_deterministic_bytes(rng, tmp_path):
    mesh = Mesh(1.0, 1.0, 5, 5, 1.0, 1)
    u = random_field(mesh, rng)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_heatmap(u, p1)
    emit_heatmap(u, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_constant_field(tmp_path):
    mesh = Mesh(1.0, 1.0, 4, 4, 1.0, 1)
    u = GridFn(mesh, np.full(mesh.shape, 3.7))
    path = tmp_path / "flat.svg"
    emit_heatmap(u, path)
    ET.fromstring(path.read_text())
    assert "3.7" in path.read_text()


def test_title_escaped(rng, tmp_path):
    mesh = Mesh(1.0, 1.0, 3, 3, 1.0, 1)
    u = random_field(mesh, rng)
    path = tmp_path / "esc.svg"
    emit_heatmap(u, path, title="a < b & c")
    root = ET.fromstring(path.read_text())
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "a < b & c" in texts


_ANCHORS = np.array([
    (0.267, 0.005, 0.329),
    (0.229, 0.322, 0.546),
    (0.128, 0.567, 0.551),
    (0.369, 0.789, 0.383),
    (0.993, 0.906, 0.144),
])


def _color_oracle(t):
    t = min(max(t, 0.0), 1.0)
    pos = t * (len(_ANCHORS) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(_ANCHORS) - 1)
    frac = pos - lo
    rgb = (1.0 - frac) * _ANCHORS[lo] + frac * _ANCHORS[hi]
    r, g, b = (int(round(255 * v)) for v in rgb)
    return f"#{r:02x}{g:02x}{b:02x}"


def _cells_oracle(u):
    """The field cells as the per-cell loop wrote them."""
    vals, (nx, ny) = u.values, u.mesh.shape
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    span = vmax - vmin
    cw, ch, bottom = 400.0 / nx, 400.0 / ny, 34.0 + 400.0
    lines = []
    for i in range(nx):
        px = 60.0 + i * cw
        for j in range(ny):
            t = (vals[i, j] - vmin) / span if span > 0.0 else 0.5
            py = bottom - (j + 1) * ch
            lines.append(
                f'<rect x="{px:.2f}" y="{py:.2f}" width="{cw + 0.05:.2f}" '
                f'height="{ch + 0.05:.2f}" fill="{_color_oracle(t)}"/>'
            )
    return lines


def _legend_oracle():
    return [_color_oracle(1.0 - (k + 0.5) / 64) for k in range(64)]


@pytest.mark.parametrize("case", ["random", "constant", "2x2", "3x7",
                                  "anchors"])
def test_cells_match_per_cell_loop(rng, tmp_path, case):
    # the vectorized colours and coordinates give the loop's bytes
    m1, m2 = {"2x2": (2, 2), "3x7": (3, 7)}.get(case, (16, 16))
    mesh = Mesh(1.0, 2.0, m1, m2, 1.0, 1)
    if case == "constant":
        u = GridFn(mesh, np.full(mesh.shape, -0.25))
    elif case == "anchors":
        # values on and half-way between the palette anchors
        u = GridFn(mesh, np.linspace(0.0, 1.0, mesh.shape[0] * mesh.shape[1])
                   .reshape(mesh.shape))
    else:
        u = random_field(mesh, rng)
    path = tmp_path / "field.svg"
    emit_heatmap(u, path, title="probe")
    lines = path.read_text().splitlines()
    start = 3  # svg, background, title
    cells = _cells_oracle(u)
    assert lines[start:start + len(cells)] == cells
    fills = [line.split('fill="')[1][:7] for line in lines
             if 'width="18.0"' in line and "#" in line]
    assert fills == _legend_oracle()
