import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracadi import TridiagOperator, build_sweep_operator
from fracadi.trisolve import sweep_coefficients


class TestTridiagOperator:
    def test_small_system(self):
        op = TridiagOperator(np.array([1.0, 1.0]), np.array([2.0, 2.0, 2.0]),
                            np.array([1.0, 1.0]))
        b = np.array([1.0, 0.0, 1.0])
        x = op.solve(b)
        ref = np.linalg.solve(op.to_dense(), b)
        assert np.allclose(x, ref, rtol=1e-14)

    def test_solve_then_multiply(self):
        op = TridiagOperator(np.array([1.0, 1.0]), np.array([2.0, 2.0, 2.0]),
                            np.array([1.0, 1.0]))
        b = np.array([0.3, -1.2, 2.5])
        assert np.allclose(op.matvec(op.solve(b)), b, rtol=1e-13)

    def test_size_one(self):
        op = TridiagOperator(np.array([]), np.array([4.0]), np.array([]))
        assert op.solve(np.array([8.0]))[0] == 2.0
        assert op.matvec(np.array([3.0]))[0] == 12.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 40))
    def test_random_dominant_vs_dense(self, seed, n):
        rng = np.random.default_rng(seed)
        sub = rng.uniform(-1, 1, n - 1)
        sup = rng.uniform(-1, 1, n - 1)
        diag = 2.5 + rng.uniform(0, 1, n)
        op = TridiagOperator(sub, diag, sup)
        b = rng.standard_normal(n)
        assert np.allclose(op.solve(b), np.linalg.solve(op.to_dense(), b),
                           rtol=1e-10, atol=1e-12)
        x = rng.standard_normal(n)
        assert np.allclose(op.matvec(x), op.to_dense() @ x, rtol=1e-13,
                           atol=1e-13)

    def test_multi_rhs_matches_columns(self, rng):
        n, k = 12, 7
        sub = rng.uniform(-1, 1, n - 1)
        sup = rng.uniform(-1, 1, n - 1)
        diag = 3.0 + rng.uniform(0, 1, n)
        op = TridiagOperator(sub, diag, sup)
        rhs = rng.standard_normal((n, k))
        block = op.solve(rhs)
        for j in range(k):
            assert np.array_equal(block[:, j], op.solve(rhs[:, j]))

    def test_zero_pivot_rejected(self):
        with pytest.raises(ValueError, match="pivot"):
            TridiagOperator(np.array([1.0]), np.array([0.0, 1.0]),
                            np.array([1.0]))
        # singular after elimination: second pivot becomes zero
        with pytest.raises(ValueError, match="pivot"):
            TridiagOperator(np.array([1.0]), np.array([1.0, 1.0]),
                            np.array([1.0]))

    def test_band_length_validation(self):
        with pytest.raises(ValueError, match="band"):
            TridiagOperator(np.array([1.0]), np.array([2.0, 2.0, 2.0]),
                            np.array([1.0, 1.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            TridiagOperator(np.array([np.nan]), np.array([2.0, 2.0]),
                            np.array([1.0]))

    def test_rhs_shape_validation(self):
        op = TridiagOperator(np.array([1.0]), np.array([2.0, 2.0]),
                             np.array([1.0]))
        with pytest.raises(ValueError, match="first dimension"):
            op.solve(np.ones(3))
        with pytest.raises(ValueError, match="first dimension"):
            op.matvec(np.ones(5))


class TestSweepOperator:
    @pytest.mark.parametrize("m,h,c", [
        (1, 0.1, 0.0), (5, 0.25, 0.0), (5, 0.25, 1e-4), (15, 0.05, 1e-3),
        (7, 0.2, 0.5), (31, 0.01, 2.0),
    ])
    def test_dominance_margin(self, m, h, c):
        op = build_sweep_operator(m, h, c)
        assert op.dominance_margin() >= 2.0 / 3.0 - 1e-12

    def test_margin_formula(self):
        # margin = 2/3 + 4c/h^2 while c/h^2 <= 1/12, then exactly 1
        h = 0.5
        for c_over_h2 in (0.0, 0.05, 1.0 / 12.0):
            op = build_sweep_operator(9, h, c_over_h2 * h * h)
            assert op.dominance_margin() == pytest.approx(
                2.0 / 3.0 + 4.0 * c_over_h2, rel=1e-13)
        for c_over_h2 in (0.2, 3.0):
            op = build_sweep_operator(9, h, c_over_h2 * h * h)
            assert op.dominance_margin() == pytest.approx(1.0, rel=1e-13)

    def test_stencil_values(self):
        h, c = 0.25, 1e-3
        diag, off = sweep_coefficients(h, c)
        assert diag == pytest.approx(10.0 / 12.0 + 2.0 * c / h**2)
        assert off == pytest.approx(1.0 / 12.0 - c / h**2)
        op = build_sweep_operator(4, h, c)
        dense = op.to_dense()
        assert dense[1, 1] == pytest.approx(diag)
        assert dense[1, 2] == pytest.approx(off)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_sweep_operator(0, 0.1, 0.0)
        with pytest.raises(ValueError):
            build_sweep_operator(4, 0.0, 0.0)
        with pytest.raises(ValueError):
            build_sweep_operator(4, 0.1, -1.0)
