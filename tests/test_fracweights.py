import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import convolve

from fracadi import fracweights
from fracadi.fracweights import (
    MAX_WEIGHT_COUNT,
    causal_convolve,
    fold_block,
    grunwald_weights,
    rl_integral_oracle,
    scheme_weights,
    wsgd_integral,
)
from conftest import run_fresh

ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9)


def _recurrence_loop(alpha, count):
    """The ratio recurrence one entry at a time into an array, the form
    ``grunwald_weights`` had before it: the oracle of its bits."""
    w = np.empty(count + 1)
    w[0] = 1.0
    for k in range(1, count + 1):
        w[k] = w[k - 1] * (k - 1 + alpha) / k
    return w


class TestGrunwaldWeights:
    @pytest.mark.parametrize("count", [0, 1, 80, 10_000])
    def test_bitwise_equal_to_recurrence_loop(self, count):
        for a in (*ALPHAS, 0.3, 1e-6, 0.999999):
            got = grunwald_weights(a, count)
            want = _recurrence_loop(a, count)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), a

    def test_known_values_alpha_half(self):
        w = grunwald_weights(0.5, 3)
        assert w[0] == 1.0
        assert w[1] == 0.5
        assert w[2] == 0.375
        assert w[3] == 0.3125

    def test_length(self):
        assert grunwald_weights(0.3, 0).shape == (1,)
        assert grunwald_weights(0.3, 17).shape == (18,)

    def test_against_log_gamma_form(self):
        # conditioning of the closed form is fine up to k ~ 100
        from scipy.special import gammaln

        for a in ALPHAS:
            w = grunwald_weights(a, 100)
            k = np.arange(101)
            ref = np.exp(gammaln(k + a) - gammaln(a) - gammaln(k + 1.0))
            assert np.max(np.abs(w - ref) / ref) < 1e-12

    def test_positive_and_decreasing(self):
        for a in ALPHAS:
            w = grunwald_weights(a, 2000)
            assert np.all(w > 0)
            assert np.all(np.diff(w[1:]) < 0)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_alpha_validation(self, bad):
        with pytest.raises(ValueError):
            grunwald_weights(bad, 5)

    @pytest.mark.parametrize("bad", [-1, 2.5, "3"])
    def test_count_validation(self, bad):
        with pytest.raises(ValueError):
            grunwald_weights(0.5, bad)

    def test_count_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            grunwald_weights(0.5, MAX_WEIGHT_COUNT + 1)


class TestSchemeWeights:
    def test_known_values_alpha_half(self):
        lam = scheme_weights(0.5, 2)
        assert np.allclose(lam, [0.75, 0.625, 0.40625], rtol=0, atol=0)

    def test_known_values_alpha_quarter(self):
        lam = scheme_weights(0.25, 1)
        assert lam[0] == 0.875
        assert lam[1] == 0.34375

    def test_lambda_zero(self):
        for a in ALPHAS:
            assert scheme_weights(a, 0)[0] == 1.0 - a / 2.0

    def test_blend_consistency(self):
        for a in ALPHAS:
            omega = grunwald_weights(a, 50)
            expect = (1 - a / 2) * omega[1:] + (a / 2) * omega[:-1]
            assert np.array_equal(scheme_weights(a, 50)[1:], expect)

    def test_positive_and_eventually_decreasing(self):
        for a in ALPHAS:
            lam = scheme_weights(a, 500)
            assert np.all(lam > 0)
            assert np.all(np.diff(lam[1:]) < 0)

    def test_immutable(self):
        lam = scheme_weights(0.5, 5)
        with pytest.raises(ValueError):
            lam[0] = 2.0

    def test_len(self):
        assert len(scheme_weights(0.5, 7)) == 8


class TestWsgdIntegral:
    def test_second_order_on_cubic(self):
        # closed form of the order-a integral of t**3
        for a in (0.25, 0.5, 0.75):
            scale = math.gamma(4.0) / math.gamma(4.0 + a)
            errs = []
            for n in (40, 80, 160):
                tau = 1.0 / n
                t = np.arange(n + 1) * tau
                out = wsgd_integral(t**3, a, tau)
                errs.append(np.max(np.abs(out - scale * t ** (3 + a))))
            orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
            assert np.all(orders > 1.9) and np.all(orders < 2.1)
            assert errs[-1] < 1e-3

    def test_matches_quadrature_oracle(self):
        a, n = 0.6, 200
        tau = 1.0 / n
        t = np.arange(n + 1) * tau
        out = wsgd_integral(t**2 * np.sin(t), a, tau)
        ref = rl_integral_oracle(lambda s: s**2 * np.sin(s), a, 1.0, panels=800)
        assert abs(out[-1] - ref) < 5e-5

    def test_matches_shifted_grunwald_form(self):
        # the (0, -1) shift pair blends two shifted omega convolutions
        a, tau = 0.4, 1 / 32
        t = np.linspace(0.0, 1.0, 33) ** 3
        conv = np.convolve(grunwald_weights(a, 32), t)[:33]
        shifted = np.r_[0.0, conv[:-1]]
        ref = tau**a * ((1 - a / 2) * conv + (a / 2) * shifted)
        assert np.max(np.abs(wsgd_integral(t, a, tau) - ref)) \
            <= 1e-15 * np.max(np.abs(ref))

    def test_levels_along_first_axis(self, rng):
        # a grid per level is integrated column by column
        samples = rng.standard_normal((21, 3, 4))
        out = wsgd_integral(samples, 0.7, 0.05)
        assert out.shape == samples.shape
        for i in range(3):
            for j in range(4):
                col = wsgd_integral(samples[:, i, j], 0.7, 0.05)
                assert np.allclose(out[:, i, j], col, rtol=1e-13, atol=1e-14)

    def test_level_zero_value(self):
        out = wsgd_integral(np.array([0.0, 1.0, 8.0]), 0.5, 0.1)
        assert out[0] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.05, 0.95), st.integers(2, 30))
    def test_linearity(self, a, n):
        rng = np.random.default_rng(n)
        f = rng.standard_normal(n + 1)
        g = rng.standard_normal(n + 1)
        lhs = wsgd_integral(2.0 * f - 3.0 * g, a, 0.1)
        rhs = 2.0 * wsgd_integral(f, a, 0.1) - 3.0 * wsgd_integral(g, a, 0.1)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("inf")])
    def test_tau_validation(self, tau):
        with pytest.raises(ValueError):
            wsgd_integral(np.ones(5), 0.5, tau)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            wsgd_integral(np.array([]), 0.5, 0.1)
        with pytest.raises(ValueError):
            wsgd_integral(np.float64(1.0), 0.5, 0.1)


# n <= 32 stays in the first leaf; 33 and 65 fold blocks of 32; 600 and
# 1100 reach Toeplitz blocks up to 256 and an FFT block of 512
ENGINE_LENGTHS = (1, 31, 32, 33, 65, 600, 1100)


def _scipy_causal(kernel, samples):
    """The causal convolution by scipy.signal, the engine's oracle."""
    shaped = kernel.reshape(-1, *([1] * (samples.ndim - 1)))
    return convolve(shaped, samples)[:samples.shape[0]]


def _max_rel(out, ref):
    return np.max(np.abs(out - ref)) / np.max(np.abs(ref))


class TestCausalConvolve:
    @pytest.mark.parametrize("trailing", [(), (3, 4)], ids=["1d", "3x4"])
    @pytest.mark.parametrize("n", ENGINE_LENGTHS)
    def test_matches_scipy(self, n, trailing):
        rng = np.random.default_rng(n)
        kernel = rng.standard_normal(n)
        samples = rng.standard_normal((n, *trailing))
        out = causal_convolve(kernel, samples)
        assert out.shape == samples.shape
        assert _max_rel(out, _scipy_causal(kernel, samples)) <= 1e-14

    @pytest.mark.parametrize("trailing", [(), (3, 4)], ids=["1d", "3x4"])
    @pytest.mark.parametrize("n", ENGINE_LENGTHS)
    def test_wsgd_matches_scipy(self, n, trailing):
        rng = np.random.default_rng(n + 1)
        samples = rng.standard_normal((n, *trailing))
        a, tau = 0.3, 0.01
        ref = tau**a * _scipy_causal(scheme_weights(a, n - 1), samples)
        assert _max_rel(wsgd_integral(samples, a, tau), ref) <= 1e-14

    def test_first_level_exact(self):
        out = causal_convolve(np.array([0.3, 2.0, 5.0]), np.array([0.7, 1.0, 1.0]))
        assert out[0] == 0.3 * 0.7

    def test_kernel_must_cover_the_lags(self):
        with pytest.raises(ValueError, match="lags"):
            causal_convolve(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            causal_convolve(np.ones(3), np.array([]))

    def test_scipy_signal_not_imported(self):
        # the quadrature and a caputo_forcing-only solve run on numpy alone
        code = (
            "import dataclasses, sys\n"
            "import numpy as np\n"
            "from fracadi import make_example1, mesh_for, solve\n"
            "from fracadi.fracweights import wsgd_integral\n"
            "wsgd_integral(np.ones(700), 0.5, 0.1)\n"
            "p = dataclasses.replace(make_example1(0.5), forcing_f=None)\n"
            "solve(p, mesh_for(p, 4, n=40))\n"
            "print('scipy.signal' in sys.modules)\n"
        )
        assert run_fresh(code) == "False"


def _naive_fold(kernel, block, t):
    """targets[r] = sum_{i<b} kernel[b + r - i] * block[i], row by row."""
    b = block.shape[0]
    lags = b - np.arange(b)
    return np.array([kernel[lags + r] @ block for r in range(t)])


_TMB = fracweights._TOEPLITZ_MAX_BLOCK


class TestFoldBlock:
    # the Toeplitz product at the largest dense block and a short one, the
    # FFT just past it, each with fewer targets than sources and as many,
    # from a C- or F-ordered block into C-ordered rows
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("b, t", [(16, 16), (16, 5), (_TMB, _TMB),
                                      (_TMB, _TMB - 77), (2 * _TMB, 2 * _TMB),
                                      (2 * _TMB, 301)])
    def test_matches_naive_sum_in_place(self, b, t, order):
        rng = np.random.default_rng(b + t)
        kernel = rng.standard_normal(b + t)
        block = np.asarray(rng.standard_normal((b, 7)), order=order)
        store = rng.standard_normal((t + 3, 7))
        before = store.copy()
        targets = store[1:t + 1]  # rows of a larger array, as the history's
        fold_block(kernel, block, targets)
        ref = before[1:t + 1] + _naive_fold(kernel, block, t)
        assert np.max(np.abs(store[1:t + 1] - ref)) <= 1e-12 * np.max(np.abs(ref))
        # the fold wrote into the caller's rows and nowhere else
        assert np.shares_memory(targets, store)
        assert np.array_equal(store[0], before[0])
        assert np.array_equal(store[t + 1:], before[t + 1:])

    def test_toeplitz_chunks_do_not_change_the_sum(self, monkeypatch):
        rng = np.random.default_rng(5)
        kernel = rng.standard_normal(2 * _TMB)
        block = rng.standard_normal((_TMB, 3))
        whole = np.zeros((_TMB, 3))
        fold_block(kernel, block, whole)
        # one target row per dgemm call
        monkeypatch.setattr(fracweights, "_SCRATCH_BYTES", 1)
        rows = np.zeros((_TMB, 3))
        fold_block(kernel, block, rows)
        assert np.max(np.abs(rows - whole)) <= 1e-13 * np.max(np.abs(whole))

    def test_short_runs_do_not_import_scipy_fft(self):
        # only a block longer than _TOEPLITZ_MAX_BLOCK loads scipy.fft, and
        # only a call of gamma loads scipy.special, so importing the
        # package, a solve of 2 * _TOEPLITZ_MAX_BLOCK levels and a short
        # temporal study pay for neither
        code = (
            "import sys\n"
            "from fracadi import (StudyConfig, make_example1, mesh_for,\n"
            "                     run_study, solve)\n"
            "p = make_example1(0.5)\n"
            f"solve(p, mesh_for(p, 8, n={2 * _TMB}))\n"
            "run_study(StudyConfig(alphas=(0.5,), axis='temporal',\n"
            "                      ladder=(5, 10), fixed=8, emit=()))\n"
            "print([m for m in ('scipy.fft', 'scipy.special')\n"
            "       if m in sys.modules])\n"
        )
        assert run_fresh(code) == "[]"


class TestQuadratureOracle:
    def test_monomial_closed_forms(self):
        # I^a t**b = Gamma(b+1)/Gamma(b+1+a) * t**(b+a)
        for a in (0.1, 0.5, 0.9):
            for b in (1.0, 3.0):
                for t in (0.3, 1.0):
                    ref = math.gamma(b + 1) / math.gamma(b + 1 + a) * t ** (b + a)
                    got = rl_integral_oracle(lambda s: s**b, a, t, panels=2000)
                    assert abs(got - ref) / ref < 1e-12

    def test_constant(self):
        a, t = 0.35, 0.7
        got = rl_integral_oracle(lambda s: np.ones_like(s), a, t, panels=500)
        ref = t**a / math.gamma(1 + a)
        assert abs(got - ref) / ref < 1e-12

    def test_nan_propagates(self):
        got = rl_integral_oracle(lambda s: np.full_like(s, np.nan), 0.5, 1.0,
                                 panels=10)
        assert math.isnan(got)

    def test_validation(self):
        with pytest.raises(ValueError):
            rl_integral_oracle(lambda s: s, 0.5, 0.0)
        with pytest.raises(ValueError):
            rl_integral_oracle(lambda s: s, 0.5, 1.0, panels=0)
        with pytest.raises(ValueError):
            rl_integral_oracle(lambda s: s, 1.2, 1.0)
