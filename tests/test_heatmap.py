import xml.etree.ElementTree as ET

import numpy as np

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
