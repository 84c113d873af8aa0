"""Convolution weights and discrete fractional integrals of order alpha in (0, 1).

Two weight families live here.  The generating-function weights ``omega_k``
are the Taylor coefficients of (1 - z)^(-alpha) and satisfy

    omega_0 = 1,    omega_k = omega_{k-1} * (k - 1 + alpha) / k.

The scheme weights ``lambda_k`` blend two shifted omega sequences,

    lambda_0 = 1 - alpha/2,
    lambda_k = (1 - alpha/2) * omega_k + (alpha/2) * omega_{k-1},  k >= 1,

and are the time-memory coefficients used by the ADI solver.  Both families
are positive for alpha in (0, 1).

``wsgd_integral`` applies the weighted-shifted Grunwald quadrature, which
is the convolution with the lambda weights, to a sampled function;
``rl_integral_oracle`` is a slow adaptive-quadrature reference for the same
Riemann-Liouville integral, used to validate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Hard cap on weight-table length; 2**27 doubles is about 1 GiB per array.
MAX_WEIGHT_COUNT = 2**27


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0) or not math.isfinite(alpha):
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

    Computed by the stable ratio recurrence; all entries are positive and
    the sequence is monotonically relevant for convolution quadrature of
    the fractional integral of order alpha.
    """
    alpha = _check_alpha(alpha)
    count = _check_count(count)
    w = np.empty(count + 1)
    w[0] = 1.0
    for k in range(1, count + 1):
        w[k] = w[k - 1] * (k - 1 + alpha) / k
    return w


@dataclass(frozen=True)
class WeightTable:
    """Immutable bundle of the two weight sequences for one alpha.

    ``omega`` and ``lam`` have equal length count+1; ``lam`` holds the
    lambda coefficients (the name avoids the Python keyword).  The arrays
    are marked read-only so a table can be shared across threads.
    """

    alpha: float
    omega: np.ndarray
    lam: np.ndarray

    def __post_init__(self) -> None:
        self.omega.flags.writeable = False
        self.lam.flags.writeable = False

    def __len__(self) -> int:
        return len(self.omega)


def scheme_weights(alpha: float, count: int) -> WeightTable:
    """Build the lambda coefficients alongside omega, indices 0..count."""
    alpha = _check_alpha(alpha)
    count = _check_count(count)
    omega = grunwald_weights(alpha, count)
    lam = np.empty(count + 1)
    lam[0] = 1.0 - alpha / 2.0
    if count >= 1:
        lam[1:] = (1.0 - alpha / 2.0) * omega[1:] + (alpha / 2.0) * omega[:-1]
    return WeightTable(alpha=alpha, omega=omega, lam=lam)


def wsgd_integral(samples: np.ndarray, alpha: float, tau: float) -> np.ndarray:
    """Second-order convolution quadrature of the order-alpha integral.

    ``samples[k]`` holds f(k*tau) for k = 0..n along axis 0 (any trailing
    shape, e.g. one grid per level), with f understood to vanish for t < 0.
    Returns the approximate integral at the same time levels,

        out[k] = tau**alpha * sum_{j=0}^{k} lambda_j * samples[k - j],

    the weighted-shifted Grunwald quadrature with shift pair (0, -1): its
    weights (1 - alpha/2) omega_j + (alpha/2) omega_{j-1} are exactly the
    scheme weights lambda_j of ``scheme_weights``.
    """
    alpha = _check_alpha(alpha)
    tau = float(tau)
    if not (tau > 0.0) or not math.isfinite(tau):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 0 or samples.shape[0] == 0:
        raise ValueError("samples must be a nonempty array of time levels")

    # scipy.signal takes about a second to import; only callers pay for it
    from scipy.signal import convolve

    n = samples.shape[0] - 1
    lam = scheme_weights(alpha, n).lam
    kernel = lam.reshape(-1, *([1] * (samples.ndim - 1)))
    return tau**alpha * convolve(kernel, samples)[: n + 1]


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
