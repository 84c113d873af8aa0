import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracadi import GridFn, Mesh
from fracadi.meshops import (
    MAX_RUN_ENTRIES,
    _avgx,
    _avgy,
    _d2x,
    _d2y,
    _zero_frame,
    read_csv,
    write_csv,
)
from fracadi.verify import (
    _dense_1d,
    _random_zero_boundary,
    compact_h,
    delta2_x,
    delta2x_delta2y,
    grad_x,
    grad_y,
    inner,
    lambda_op,
    norm_grad_xy,
    norm_l2,
)
from conftest import random_field


class TestMesh:
    def test_spacings(self):
        mesh = Mesh(2.0, 3.0, 4, 6, 1.5, 3)
        assert mesh.h1 == 0.5
        assert mesh.h2 == 0.5
        assert mesh.tau == 0.5
        assert np.allclose(mesh.x, [0, 0.5, 1.0, 1.5, 2.0])
        assert mesh.shape == (5, 7)

    @pytest.mark.parametrize("kwargs", [
        dict(L1=0.0), dict(L2=-1.0), dict(T=0.0), dict(M1=1), dict(M2=0),
        dict(N=0), dict(M1=3.5),
    ])
    def test_validation(self, kwargs):
        base = dict(L1=1.0, L2=1.0, M1=4, M2=4, T=1.0, N=2)
        base.update(kwargs)
        with pytest.raises(ValueError):
            Mesh(**base)

    def test_run_size_rule(self, no_wide_samples):
        # (N+1)(M1+1)(M2+1) = 2 * 2**14 * 2**13 is exactly the limit
        assert MAX_RUN_ENTRIES == 2**28
        Mesh(1.0, 1.0, 16383, 8191, 1.0, 1)
        with pytest.raises(ValueError) as info:
            Mesh(1.0, 1.0, 16383, 8191, 1.0, 2)
        message = str(info.value)
        for part in ("M1=16383", "M2=8191", "N=2", str(MAX_RUN_ENTRIES)):
            assert part in message

    def test_equality(self):
        a = Mesh(1.0, 1.0, 4, 4, 1.0, 2)
        b = Mesh(1.0, 1.0, 4, 4, 1.0, 2)
        assert a == b
        assert a != Mesh(1.0, 1.0, 4, 4, 1.0, 3)

    def test_coordinates_built_once_and_read_only(self):
        mesh = Mesh(2.0, 3.0, 4, 6, 1.5, 3)
        assert mesh.x is mesh.x and mesh.y is mesh.y
        assert np.array_equal(mesh.x, np.arange(5) * 0.5)
        assert np.array_equal(mesh.y, np.arange(7) * 0.5)
        for coords in (mesh.x, mesh.y, mesh.x[:, None]):
            with pytest.raises(ValueError, match="read-only"):
                coords[1] = 7.0
        assert mesh.x[1] == 0.5 and mesh.y[1] == 0.5
        # the cache is not a field: equality and hashing are unchanged
        other = Mesh(2.0, 3.0, 4, 6, 1.5, 3)
        assert other == mesh and hash(other) == hash(mesh)
        assert other.x is not mesh.x


    @pytest.mark.parametrize("m1, m2", [(5, 7), (2, 2)])
    def test_frame_nodes(self, m1, m2):
        mesh = Mesh(2.0, 3.0, m1, m2, 1.5, 3)
        x, y, index = mesh.frame
        assert mesh.frame is mesh.frame
        nodes = 2 * (m1 + m2)
        assert x.shape == y.shape == (1, nodes) and index.shape == (nodes,)
        # the complement of the interior: rows 0 and M1, then columns 0
        # and M2 between them
        grid = np.arange((m1 + 1) * (m2 + 1)).reshape(m1 + 1, m2 + 1)
        want = np.concatenate((grid[0], grid[-1], grid[1:-1, 0],
                               grid[1:-1, -1]))
        assert np.array_equal(index, want)
        assert np.array_equal(np.sort(np.concatenate(
            (index, grid[1:-1, 1:-1].ravel()))), grid.ravel())
        i, j = np.divmod(index, m2 + 1)
        assert np.array_equal(x[0], mesh.x[i])
        assert np.array_equal(y[0], mesh.y[j])
        for vals in (x, y, index):
            with pytest.raises(ValueError, match="read-only"):
                vals[..., 0] = 7


class TestGridFn:
    def test_shape_check(self, small_mesh):
        with pytest.raises(ValueError, match="shape"):
            GridFn(small_mesh, np.zeros((3, 3)))

    def test_finite_check(self, small_mesh):
        vals = np.zeros(small_mesh.shape)
        vals[2, 2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            GridFn(small_mesh, vals)

    def test_interior_view(self, small_mesh):
        u = GridFn(small_mesh, np.zeros(small_mesh.shape))
        assert u.interior.shape == (small_mesh.M1 - 1, small_mesh.M2 - 1)


class TestOperators:
    """Stencil operators against dense tensor-product matrices."""

    def test_delta2_x_stencil(self, small_mesh, rng):
        u = random_field(small_mesh, rng)
        out = delta2_x(u).values
        h1 = small_mesh.h1
        for i in range(1, small_mesh.M1):
            for j in range(1, small_mesh.M2):
                ref = (u.values[i - 1, j] - 2 * u.values[i, j]
                       + u.values[i + 1, j]) / h1**2
                assert out[i, j] == pytest.approx(ref, rel=1e-14)
        assert np.all(out[0, :] == 0) and np.all(out[:, 0] == 0)
        assert np.all(out[-1, :] == 0) and np.all(out[:, -1] == 0)

    def test_lambda_op_vs_dense(self, small_mesh, rng):
        u = random_field(small_mesh, rng)
        hx, dx = _dense_1d(small_mesh.M1 + 1, small_mesh.h1)
        hy, dy = _dense_1d(small_mesh.M2 + 1, small_mesh.h2)
        ref = (np.kron(dx, hy) + np.kron(hx, dy)) @ u.values.ravel()
        ref = ref.reshape(small_mesh.shape)
        got = lambda_op(u).values
        assert np.allclose(got[1:-1, 1:-1], ref[1:-1, 1:-1],
                           rtol=1e-13, atol=1e-13)

    def test_compact_h_vs_dense(self, small_mesh, rng):
        u = random_field(small_mesh, rng)
        hx, _ = _dense_1d(small_mesh.M1 + 1, small_mesh.h1)
        hy, _ = _dense_1d(small_mesh.M2 + 1, small_mesh.h2)
        ref = (np.kron(hx, hy) @ u.values.ravel()).reshape(small_mesh.shape)
        assert np.allclose(compact_h(u).values, ref, rtol=1e-13, atol=1e-13)

    def test_compact_h_frame_behavior(self, small_mesh, rng):
        # corners fixed; edge rows/columns see only the tangential average
        u = random_field(small_mesh, rng)
        out = compact_h(u).values
        v = u.values
        for i, j in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
            assert out[i, j] == v[i, j]
        top = v[0, :]
        expect = top.copy()
        expect[1:-1] = (top[:-2] + 10.0 * top[1:-1] + top[2:]) / 12.0
        assert np.allclose(out[0, :], expect, rtol=1e-15, atol=0.0)
        left = v[:, 0]
        expect = left.copy()
        expect[1:-1] = (left[:-2] + 10.0 * left[1:-1] + left[2:]) / 12.0
        assert np.allclose(out[:, 0], expect, rtol=1e-15, atol=0.0)

    def test_mixed_vs_dense(self, small_mesh, rng):
        u = random_field(small_mesh, rng)
        _, dx = _dense_1d(small_mesh.M1 + 1, small_mesh.h1)
        _, dy = _dense_1d(small_mesh.M2 + 1, small_mesh.h2)
        ref = (np.kron(dx, dy) @ u.values.ravel()).reshape(small_mesh.shape)
        got = delta2x_delta2y(u).values
        assert np.allclose(got[1:-1, 1:-1], ref[1:-1, 1:-1],
                           rtol=1e-12, atol=1e-12)

    def test_compact_laplacian_fourth_order(self):
        # residual of L u against H applied to the true Laplacian
        errs = []
        for m in (8, 16, 32):
            mesh = Mesh(math.pi, math.pi, m, m, 1.0, 1)
            xx = mesh.x[:, None]
            yy = mesh.y[None, :]
            u = GridFn(mesh, np.sin(xx) * np.sin(yy) + 0.0 * (xx + yy))
            lap = GridFn(mesh, -2.0 * np.sin(xx) * np.sin(yy) + 0.0 * (xx + yy))
            diff = lambda_op(u).values - compact_h(lap).values
            errs.append(np.max(np.abs(diff[1:-1, 1:-1])))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 3.8) and np.all(orders < 4.2)


def _formula(name, vals, h):
    """The raw stencils as written formulas on 2-D slices."""
    if name == "d2x":
        out = np.zeros(vals.shape)
        out[1:-1, :] = (vals[:-2, :] - 2.0 * vals[1:-1, :] + vals[2:, :]) / h**2
    elif name == "d2y":
        out = np.zeros(vals.shape)
        out[:, 1:-1] = (vals[:, :-2] - 2.0 * vals[:, 1:-1] + vals[:, 2:]) / h**2
    elif name == "avgx":
        out = np.array(vals)
        out[1:-1, :] = (vals[:-2, :] + 10.0 * vals[1:-1, :] + vals[2:, :]) / 12.0
    else:
        out = np.array(vals)
        out[:, 1:-1] = (vals[:, :-2] + 10.0 * vals[:, 1:-1] + vals[:, 2:]) / 12.0
    return out


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _laid_out(values, layout):
    """``values`` in C order, F order, or as a strided view of a larger
    array."""
    if layout == "C":
        return np.ascontiguousarray(values)
    if layout == "F":
        return np.asfortranarray(values)
    big = np.full((2 * values.shape[0], 3 * values.shape[1]), np.nan)
    view = big[::2, ::3]
    view[...] = values
    return view


_KERNELS = {
    "d2x": lambda v, mesh: _d2x(v, mesh.h1),
    "d2y": lambda v, mesh: _d2y(v, mesh.h2),
    "avgx": lambda v, mesh: _avgx(v),
    "avgy": lambda v, mesh: _avgy(v),
}


class TestStencilOut:
    """The one stencil kernel gives every input layout the bits of the
    written formulas, in a fresh C-ordered array."""

    @settings(max_examples=60, deadline=None)
    @given(m1=st.integers(2, 40), m2=st.integers(2, 40),
           layout=st.sampled_from(["C", "F", "strided"]),
           seed=st.integers(0, 2**32 - 1))
    def test_out_is_bitwise_equal_to_allocating(self, m1, m2, layout, seed):
        assume(m1 != m2)
        mesh = Mesh(1.3, 0.7, m1, m2, 1.0, 1)
        values = np.random.default_rng(seed).standard_normal(mesh.shape)
        vals = _laid_out(values, layout)
        for name, kernel in _KERNELS.items():
            h = mesh.h1 if name == "d2x" else mesh.h2
            got = kernel(vals, mesh)
            assert got.flags.c_contiguous
            ref = _formula(name, values, h)
            assert np.array_equal(_bits(got), _bits(ref)), name
        # the compact Laplacian is a verify oracle built from the kernels
        ref = _zero_frame(_formula("avgy", _formula("d2x", values, mesh.h1), 0)
                          + _formula("avgx", _formula("d2y", values, mesh.h2), 0))
        got = lambda_op(GridFn(mesh, vals)).values
        assert np.array_equal(_bits(got), _bits(ref))
        assert np.array_equal(_bits(vals), _bits(values))


class TestInnerProducts:
    def test_inner_hand_value(self):
        mesh = Mesh(1.0, 1.0, 2, 2, 1.0, 1)
        u = np.zeros((3, 3))
        u[1, 1] = 3.0
        v = np.zeros((3, 3))
        v[1, 1] = 2.0
        assert inner(GridFn(mesh, u), GridFn(mesh, v)) == pytest.approx(
            0.5 * 0.5 * 6.0)

    def test_mesh_mismatch(self, small_mesh):
        other = Mesh(1.0, 1.5, 8, 9, 1.0, 4)
        with pytest.raises(ValueError, match="meshes"):
            inner(GridFn(small_mesh, np.zeros(small_mesh.shape)),
                  GridFn(other, np.zeros(other.shape)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_summation_by_parts_x(self, seed):
        mesh = Mesh(1.3, 0.9, 7, 9, 1.0, 1)
        rng = np.random.default_rng(seed)
        u = _random_zero_boundary(mesh, rng)
        v = _random_zero_boundary(mesh, rng)
        lhs = inner(delta2_x(u), v)
        gx_u = (u.values[1:, :] - u.values[:-1, :]) / mesh.h1
        gx_v = (v.values[1:, :] - v.values[:-1, :]) / mesh.h1
        rhs = -mesh.h1 * mesh.h2 * np.sum(gx_u[:, 1:-1] * gx_v[:, 1:-1])
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_identities_bundle(self, seed):
        mesh = Mesh(2.0, 1.0, 9, 6, 1.0, 1)
        rng = np.random.default_rng(seed)
        u = _random_zero_boundary(mesh, rng)
        nsq = norm_l2(u) ** 2

        # inverse inequality for the difference quotient: the fluxes
        # i = 1..M1 (j = 1..M2) over interior rows (columns) of the other axis
        hh = mesh.h1 * mesh.h2
        gx_sq = hh * np.sum(grad_x(u)[:, 1:-1] ** 2)
        gy_sq = hh * np.sum(grad_y(u)[1:-1, :] ** 2)
        assert gx_sq <= (4.0 / mesh.h1**2) * nsq * (1 + 1e-12)
        assert gy_sq <= (4.0 / mesh.h2**2) * nsq * (1 + 1e-12)
        # compact average is positive definite with constant 1/3
        assert inner(compact_h(u), u) >= nsq / 3.0 * (1 - 1e-12)
        # mixed difference identity
        assert inner(delta2x_delta2y(u), u) == pytest.approx(
            norm_grad_xy(u) ** 2, rel=1e-12, abs=1e-13)
        # compact Laplacian is negative semidefinite
        assert inner(lambda_op(u), u) <= 1e-12 * nsq


class TestCsvRoundTrip:
    def test_bitwise_round_trip(self, small_mesh, rng, tmp_path):
        u = random_field(small_mesh, rng)
        path = tmp_path / "field.csv"
        write_csv(u, path)
        back = read_csv(small_mesh, path)
        assert np.array_equal(back.values, u.values)

    def test_shape_mismatch(self, small_mesh, rng, tmp_path):
        u = random_field(small_mesh, rng)
        path = tmp_path / "field.csv"
        write_csv(u, path)
        other = Mesh(1.0, 1.5, 4, 4, 1.0, 4)
        with pytest.raises(ValueError, match="shape"):
            read_csv(other, path)

    @pytest.mark.parametrize("case", ["random", "signed-zeros", "1e200",
                                      "subnormal", "2x2", "65x65"])
    def test_bytes_equal_savetxt(self, tmp_path, case):
        # the one-format writer against numpy's row-by-row writer
        rng = np.random.default_rng(7)
        values = {
            "random": rng.standard_normal((9, 7))
            * 10.0 ** rng.integers(-300, 300, (9, 7)),
            "signed-zeros": np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -1.0],
                                      [-0.0, -0.0, 0.0]]),
            "1e200": 1e200 * rng.choice([-1.0, 1.0], (5, 4)),
            "subnormal": np.array([[5e-324, -5e-324, 2.2e-310],
                                   [1e-320, -1e-315, 2.2250738585072014e-308],
                                   [0.0, 1.0, -3e-320]]),
            "2x2": rng.standard_normal((2, 2)),
            "65x65": rng.standard_normal((65, 65)),
        }[case]
        # a mesh has at least 3 nodes per axis, so the 2x2 case stands in
        # for a GridFn with the one attribute the writer reads
        m1, m2 = values.shape
        u = (GridFn(Mesh(1.0, 1.0, m1 - 1, m2 - 1, 1.0, 1), values)
             if min(m1, m2) >= 3 else SimpleNamespace(values=values))
        write_csv(u, tmp_path / "fast.csv")
        np.savetxt(tmp_path / "numpy.csv", values, fmt="%.17g", delimiter=",")
        got = (tmp_path / "fast.csv").read_bytes()
        assert got == (tmp_path / "numpy.csv").read_bytes()
        assert got.count(b"\n") == m1
