"""Convolution weights and discrete fractional integrals of order alpha in (0, 1).

Two weight families live here.  The generating-function weights ``omega_k``
are the Taylor coefficients of (1 - z)^(-alpha) and satisfy

    omega_0 = 1,    omega_k = omega_{k-1} * (k - 1 + alpha) / k.

The scheme weights ``lambda_k`` blend two shifted omega sequences,

    lambda_0 = 1 - alpha/2,
    lambda_k = (1 - alpha/2) * omega_k + (alpha/2) * omega_{k-1},  k >= 1,

and are the time-memory coefficients used by the ADI solver.  Both families
are positive for alpha in (0, 1).

Causal convolutions out[k] = sum_{j<=k} kernel[j] * samples[k-j] have one
engine here, the blocked scheme of Hairer, Lubich & Schlichte (SIAM J. Sci.
Stat. Comput. 6, 1985): exact up to summation order, O(n log^2 n) per
column.  ``causal_convolve`` runs it over a whole array; the ADI solver's
memory term runs it online through ``completed_block`` and ``fold_block``.
Levels within a leaf of ``_LEAF`` levels are summed directly; older ones
arrive in dyadic blocks of b = ``_LEAF``, 2 ``_LEAF``, ... levels, each
folded into the t <= b levels after it.  A block of up to
``_TOEPLITZ_MAX_BLOCK`` levels is folded by one BLAS ``dgemm`` that adds the
Toeplitz product into the target rows in place (beta = 1), over row chunks
whose Toeplitz slice stays within ``_SCRATCH_BYTES``; a longer block by
``scipy.fft`` along axis 0, at ``next_fast_len(b + t)``, over column chunks
of the block and its targets.

``wsgd_integral`` applies the weighted-shifted Grunwald quadrature, which
is the causal convolution with the lambda weights, to a sampled function;
``rl_integral_oracle`` is a slow adaptive-quadrature reference for the same
Riemann-Liouville integral, used to validate it.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import dgemm

# Hard cap on weight-table length; 2**27 doubles is about 1 GiB per array.
MAX_WEIGHT_COUNT = 2**27

# levels of a causal convolution summed directly; older ones arrive in
# dyadic blocks
_LEAF = 16
# blocks up to this size are applied as a dense Toeplitz product, which is
# faster than the FFT and its set-up there
_TOEPLITZ_MAX_BLOCK = 512
# cap on the scratch of one Toeplitz row chunk or FFT column chunk
_SCRATCH_BYTES = 2**18


def _check_alpha(alpha: float) -> float:
    """The one rule for alpha, everywhere: a float strictly in (0, 1)."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    return alpha


def _check_count(count: int) -> int:
    if not isinstance(count, (int, np.integer)):
        raise ValueError(f"count must be an integer, got {type(count).__name__}")
    count = int(count)
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if count > MAX_WEIGHT_COUNT:
        raise ValueError(
            f"count {count} exceeds capacity limit {MAX_WEIGHT_COUNT}"
        )
    return count


def grunwald_weights(alpha: float, count: int) -> np.ndarray:
    """Return ``omega_0 .. omega_count`` for order ``alpha`` (length count+1).

    Computed by the stable ratio recurrence, in Python floats straight
    into the array.  For alpha in (0, 1) every entry is positive and the
    sequence is strictly decreasing; these are the convolution-quadrature
    weights of the fractional integral of order alpha.
    """
    alpha = _check_alpha(alpha)
    count = _check_count(count)
    # each step rounds the product, then the quotient: a cumulative
    # product of the ratios (k - 1 + alpha) / k rounds differently
    steps = itertools.accumulate(range(1, count + 1),
                                 lambda w, k: w * (k - 1 + alpha) / k,
                                 initial=1.0)
    return np.fromiter(steps, float, count + 1)


def scheme_weights(alpha: float, count: int) -> np.ndarray:
    """Return ``lambda_0 .. lambda_count`` (length count+1), read-only.

    Built from ``grunwald_weights``; the array is marked read-only so one
    table can be shared.
    """
    alpha = _check_alpha(alpha)
    omega = grunwald_weights(alpha, count)
    lam = np.empty_like(omega)
    lam[0] = 1.0 - alpha / 2.0
    lam[1:] = (1.0 - alpha / 2.0) * omega[1:] + (alpha / 2.0) * omega[:-1]
    lam.flags.writeable = False
    return lam


def completed_block(s: int) -> int:
    """Size b of the left dyadic block that level s completes, else 0.

    When s+1 = b * odd with b = _LEAF * 2^j, level s closes the block
    [s+1-b, s+1), the left child of the node [s+1-b, s+1+b).  Every pair of
    levels m < n outside a common leaf meets in exactly one such node, so
    folding each completed block into the b levels after it adds each term
    of the convolution once.
    """
    q, r = divmod(s + 1, _LEAF)
    return 0 if r or not q else _LEAF * (q & -q)


def fold_block(kernel: np.ndarray, block: np.ndarray,
               targets: np.ndarray) -> None:
    """Add a block of b source levels to the t <= b target levels after it.

    ``block`` is (b, columns) and ``targets`` (t, columns) C-ordered rows;
    in place, targets[r] += sum_{i<b} kernel[b + r - i] * block[i].  Short
    blocks use a dense Toeplitz product, added into the target rows by
    ``dgemm``; long ones the tail of one circular convolution of length n
    >= b + t, where no term wraps around.  Both keep their scratch near
    ``_SCRATCH_BYTES``: Toeplitz row chunks, FFT column chunks.
    """
    b, t = block.shape[0], targets.shape[0]
    if b <= _TOEPLITZ_MAX_BLOCK:
        # row r is target level b+r, column i is source level i: a window
        # of the kernel read backwards, copied to C order (no index table)
        rows = min(t, max(1, _SCRATCH_BYTES // (8 * b)))
        scratch = np.empty((rows, b))
        for r in range(0, t, rows):
            hi = min(r + rows, t)
            toeplitz = scratch[:hi - r]
            np.copyto(toeplitz,
                      sliding_window_view(kernel[r + 1:b + hi], b)[:, ::-1])
            # targets.T is F-ordered, so dgemm adds into it without a copy
            out = dgemm(1.0, block.T, toeplitz.T, beta=1.0,
                        c=targets[r:hi].T, overwrite_c=1)
            assert np.shares_memory(out, targets)
        return

    # imported here, not with the module: only runs of more than
    # 2 * _TOEPLITZ_MAX_BLOCK levels get here, and the import costs the
    # others about 30 ms of start-up
    import scipy.fft

    n = scipy.fft.next_fast_len(b + t, real=True)
    kernel_hat = scipy.fft.rfft(kernel[:b + t], n=n)[:, None]
    # a column's input, padded input, spectrum and output
    chunk = max(1, _SCRATCH_BYTES // (8 * b + 32 * n))
    for c in range(0, block.shape[1], chunk):
        spec = scipy.fft.rfft(block[:, c:c + chunk], n=n, axis=0)
        spec *= kernel_hat
        targets[:, c:c + chunk] += scipy.fft.irfft(spec, n=n, axis=0)[b:b + t]


def causal_convolve(kernel: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """out[k] = sum_{j<=k} kernel[j] * samples[k - j] along axis 0.

    ``samples`` has n >= 1 levels along axis 0 and any trailing shape;
    ``kernel`` is 1-D and covers the lags 0..n-1.  Each leaf is summed
    directly, so out[k] for k < ``_LEAF`` is a plain dot product and out[0]
    is exactly kernel[0] * samples[0].
    """
    kernel = np.asarray(kernel, dtype=float)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 0 or samples.shape[0] == 0:
        raise ValueError("samples must be a nonempty array of time levels")
    n = samples.shape[0]
    if kernel.ndim != 1 or kernel.shape[0] < n:
        raise ValueError(f"kernel must be 1-D with at least {n} lags, "
                         f"got shape {kernel.shape}")
    # fold_block adds into C-ordered rows of out in place
    flat = np.ascontiguousarray(samples.reshape(n, -1))
    out = np.empty_like(flat)
    lags = np.arange(min(n, _LEAF))
    near = np.tril(kernel[np.abs(lags[:, None] - lags)])
    for lo in range(0, n, _LEAF):
        h = min(_LEAF, n - lo)
        out[lo:lo + h] = near[:h, :h] @ flat[lo:lo + h]
    for s in range(_LEAF - 1, n - 1, _LEAF):
        b = completed_block(s)
        fold_block(kernel, flat[s + 1 - b:s + 1], out[s + 1:s + 1 + b])
    return out.reshape(samples.shape)


def wsgd_integral(samples: np.ndarray, alpha: float, tau: float) -> np.ndarray:
    """Second-order convolution quadrature of the order-alpha integral.

    ``samples[k]`` holds f(k*tau) for k = 0..n along axis 0 (any trailing
    shape, e.g. one grid per level), with f understood to vanish for t < 0.
    Returns the approximate integral at the same time levels,

        out[k] = tau**alpha * sum_{j=0}^{k} lambda_j * samples[k - j],

    the weighted-shifted Grunwald quadrature with shift pair (0, -1): its
    weights (1 - alpha/2) omega_j + (alpha/2) omega_{j-1} are exactly the
    scheme weights lambda_j of ``scheme_weights``.  The sum is the
    ``causal_convolve`` of lambda with the samples.
    """
    alpha = _check_alpha(alpha)
    tau = float(tau)
    if not (tau > 0.0) or not math.isfinite(tau):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 0 or samples.shape[0] == 0:
        raise ValueError("samples must be a nonempty array of time levels")
    lam = scheme_weights(alpha, samples.shape[0] - 1)
    # scaled in place: no third table-sized array beside samples and out
    out = causal_convolve(lam, samples)
    out *= tau**alpha
    return out


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


def rl_integral_oracle(
    f: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    t: float,
    panels: int = 2000,
) -> float:
    """Reference value of the Riemann-Liouville integral of order alpha at t.

    The kernel singularity at s = t is removed by substituting
    w = (t - s)**alpha, which turns the integral into

        (1 / Gamma(alpha + 1)) * int_0^{t**alpha} f(t - w**(1/alpha)) dw,

    evaluated with 8-point Gauss-Legendre on panels whose edges are graded
    quadratically toward w = 0 (where the transformed integrand varies
    fastest for small alpha).  ``f`` must accept numpy arrays.  Slow by
    design; intended as a test oracle, not for production use.
    """
    alpha = _check_alpha(alpha)
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"t must be positive and finite, got {t}")
    if not isinstance(panels, (int, np.integer)) or panels < 1:
        raise ValueError(f"panels must be a positive integer, got {panels}")

    edges = t**alpha * (np.arange(panels + 1) / panels) ** 2
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    w_nodes = mids[:, None] + halves[:, None] * _GAUSS_NODES[None, :]
    s_nodes = t - w_nodes ** (1.0 / alpha)
    vals = np.asarray(f(s_nodes), dtype=float)
    panel_sums = vals @ _GAUSS_WEIGHTS
    return float(np.dot(halves, panel_sums) / math.gamma(alpha + 1.0))
