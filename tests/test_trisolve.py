import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracadi import trisolve
from fracadi.trisolve import build_sweep_operator
from fracadi.verify import _dense_1d


def thomas(diag, off, rhs):
    """Reference solve: the Thomas algorithm (LU without pivoting) for the
    constant symmetric tridiagonal (diag, off); rhs is (m,) or (m, k)."""
    m = rhs.shape[0]
    x = np.array(rhs, dtype=float)
    piv = np.empty(m)
    piv[0] = diag
    for i in range(1, m):
        mult = off / piv[i - 1]
        piv[i] = diag - mult * off
        x[i] -= mult * x[i - 1]
    x[m - 1] /= piv[m - 1]
    for i in range(m - 2, -1, -1):
        x[i] = (x[i] - off * x[i + 1]) / piv[i]
    return x


def _rel(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


class TestTridiagOperator:
    # c/h**2 reaches 900, past the runs' range (grid_wide 12, an N=5 M=64
    # rung 120); the dense LU's forward error grows with the condition beyond
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.floats(1.0 / 300.0, 1.0),
           st.floats(0.0, 0.01), st.integers(1, 6), st.integers(0, 10**6))
    def test_random_dominant_vs_dense(self, m, h, c, k, seed):
        op = build_sweep_operator(m, h, c)
        dense = op.to_dense()
        rng = np.random.default_rng(seed)
        for rhs in (rng.standard_normal(m), rng.standard_normal((m, k)),
                    np.asfortranarray(rng.standard_normal((m, k)))):
            ref_thomas = thomas(op.diag, op.off, rhs)
            ref_dense = np.linalg.solve(dense, rhs)
            x = op.solve(rhs.copy(order="K"))
            assert x.shape == rhs.shape
            assert _rel(x, ref_thomas) <= 1e-13
            assert _rel(x, ref_dense) <= 1e-13

    def test_small_system(self):
        op = build_sweep_operator(3, 0.5, 0.1)
        b = np.array([1.0, 0.0, 1.0])
        ref = np.linalg.solve(op.to_dense(), b)
        assert np.allclose(op.solve(b.copy()), ref, rtol=1e-14)

    def test_solve_then_multiply(self, rng):
        # a C-ordered rhs is read, not overwritten
        op = build_sweep_operator(9, 0.1, 1e-3)
        rhs = rng.standard_normal((9, 4))
        before = rhs.copy()
        x = op.solve(rhs)
        assert np.array_equal(rhs, before)
        assert np.allclose(op.to_dense() @ x, rhs, rtol=1e-13, atol=1e-13)

    def test_size_one(self):
        op = build_sweep_operator(1, 0.5, 0.0)
        assert op.to_dense().shape == (1, 1)
        assert op.solve(np.array([2.0 * op.diag]))[0] == 2.0

    def test_multi_rhs_matches_columns(self, rng):
        m, k = 12, 7
        op = build_sweep_operator(m, 0.05, 2e-3)
        rhs = rng.standard_normal((m, k))
        block = op.solve(rhs)
        for j in range(k):
            assert np.array_equal(block[:, j], op.solve(rhs[:, j].copy()))

    def test_zero_pivot_rejected(self, monkeypatch):
        # hand LAPACK the negated diagonal: pttrf reports a nonpositive pivot
        real = trisolve.dpttrf
        monkeypatch.setattr(trisolve, "dpttrf", lambda d, e: real(-d, e))
        with pytest.raises(ValueError,
                           match=r"m=5, h=0\.25, mu_lambda0=0\.001.*info=1"):
            build_sweep_operator(5, 0.25, 1e-3)

    def test_solve_failure_raises(self, monkeypatch):
        # a right-hand side one row short is an illegal leading dimension
        real = trisolve.dpttrs
        monkeypatch.setattr(trisolve, "dpttrs",
                            lambda d, e, b, overwrite_b: real(d, e, b[:-1]))
        op = build_sweep_operator(5, 0.25, 1e-3)
        with pytest.raises(ValueError, match="pttrs.*info=-6"):
            op.solve(np.ones((5, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            build_sweep_operator(4, 1e-160, 1.0)

    def test_h_squared_underflow_named(self):
        # h**2 would be 0.0, and the division a ZeroDivisionError
        with pytest.raises(ValueError, match=r"^h\*\*2 is outside the float "
                                             r"range for h=1e-170$"):
            build_sweep_operator(4, 1e-170, 1.0)

    def test_mu_lambda0_type_named(self):
        with pytest.raises(ValueError, match="^mu_lambda0 must be a real "
                                             "number, got 'x'$"):
            build_sweep_operator(4, 0.1, "x")

    def test_rhs_shape_validation(self):
        op = build_sweep_operator(2, 0.5, 0.0)
        with pytest.raises(ValueError, match="first dimension"):
            op.solve(np.ones(3))
        with pytest.raises(ValueError, match="first dimension"):
            op.solve(np.ones((1, 2)))


class TestSweepOperator:
    @pytest.mark.parametrize("m,h,c", [
        (1, 0.1, 0.0), (5, 0.25, 0.0), (5, 0.25, 1e-4), (15, 0.05, 1e-3),
        (7, 0.2, 0.5), (31, 0.01, 2.0),
    ])
    def test_dominance_margin(self, m, h, c):
        op = build_sweep_operator(m, h, c)
        assert op.diag - 2.0 * abs(op.off) >= 2.0 / 3.0 - 1e-12

    def test_margin_formula(self):
        # margin = 2/3 + 4c/h^2 while c/h^2 <= 1/12, then exactly 1
        h = 0.5
        for c_over_h2 in (0.0, 0.05, 1.0 / 12.0):
            op = build_sweep_operator(9, h, c_over_h2 * h * h)
            assert op.diag - 2.0 * abs(op.off) == pytest.approx(
                2.0 / 3.0 + 4.0 * c_over_h2, rel=1e-13)
        for c_over_h2 in (0.2, 3.0):
            op = build_sweep_operator(9, h, c_over_h2 * h * h)
            assert op.diag - 2.0 * abs(op.off) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("c_over_h2", [1e16, 1e40, 1e200])
    def test_huge_scaling_factors(self, c_over_h2):
        # diag - 2|off| cancels to 0 here, though the margin is exactly 1
        h = 1e-31
        op = build_sweep_operator(7, h, c_over_h2 * h * h)
        assert np.all(op.d > 0.0)
        x = op.solve(np.ones(7))
        assert np.allclose(op.to_dense() @ x, 1.0, rtol=1e-10)

    def test_stencil_values(self):
        h, c = 0.25, 1e-3
        op = build_sweep_operator(4, h, c)
        assert op.diag == pytest.approx(10.0 / 12.0 + 2.0 * c / h**2)
        assert op.off == pytest.approx(1.0 / 12.0 - c / h**2)
        dense = op.to_dense()
        assert dense[1, 1] == op.diag
        assert dense[1, 2] == dense[2, 1] == op.off
        assert dense[0, 2] == 0.0

    @pytest.mark.parametrize("m,h,c", [
        (1, 0.1, 0.0), (2, 0.5, 0.02), (7, 0.25, 1e-3), (12, 0.05, 0.3),
        (9, 1e-3, 5.0),
    ])
    def test_equals_dense_oracle(self, m, h, c):
        # H - c d2 on the interior, from verify's own dense matrices
        avg, d2 = _dense_1d(m + 2, h)
        ref = (avg - c * d2)[1:-1, 1:-1]
        got = build_sweep_operator(m, h, c).to_dense()
        np.testing.assert_allclose(got, ref, rtol=0.0,
                                   atol=1e-15 * np.abs(ref).max())

    def test_validation(self):
        with pytest.raises(ValueError):
            build_sweep_operator(0, 0.1, 0.0)
        with pytest.raises(ValueError):
            build_sweep_operator(4, 0.0, 0.0)
        with pytest.raises(ValueError):
            build_sweep_operator(4, 0.1, -1.0)
