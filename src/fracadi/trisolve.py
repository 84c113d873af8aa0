"""Tridiagonal line solves for the ADI sweeps.

A sweep matrix is the interior-point form of (H - c*delta2) along one axis,
with c = mu * lambda_0 >= 0 and the weights of H and delta2 taken from
``meshops.H_WEIGHTS`` and ``meshops.D2_WEIGHTS``: constant diagonal
10/12 + 2c/h**2 and off-diagonal 1/12 - c/h**2.  It is symmetric, and its
diagonal exceeds the off-diagonal magnitudes of its row by at least 2/3
for every admissible step, so by Gershgorin every eigenvalue is at least
2/3: the matrix is positive definite.  LAPACK's ``pttrf`` therefore factors it as L D L^T
without pivoting (the Thomas algorithm, in Fortran) once per run, and
``pttrs`` solves all columns of a grid sweep in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .fracweights import _integer, _positive
from .meshops import D2_WEIGHTS, H_WEIGHTS


@dataclass(frozen=True)
class TridiagOperator:
    """A constant symmetric tridiagonal matrix (``diag``, ``off``) and its
    L D L^T factor: ``d`` holds D and ``e`` the subdiagonal of L."""

    diag: float
    off: float
    d: np.ndarray = field(repr=False)
    e: np.ndarray = field(repr=False)

    @property
    def m(self) -> int:
        return self.d.size

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs for rhs of shape (m,) or (m, k).

        rhs may be overwritten: an F-contiguous float64 rhs receives the
        solution in place, so a sweep built in that layout is not copied.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.m:
            raise ValueError(f"rhs first dimension must be {self.m}")
        x, info = dpttrs(self.d, self.e, rhs, overwrite_b=True)
        if info != 0:
            raise ValueError(f"LAPACK pttrs failed with info={info} (m={self.m})")
        return x

    def to_dense(self) -> np.ndarray:
        ones = np.ones(self.m - 1)
        return (np.diag(np.full(self.m, self.diag))
                + self.off * (np.diag(ones, -1) + np.diag(ones, 1)))


def build_sweep_operator(m: int, h: float, mu_lambda0: float) -> TridiagOperator:
    """Factored interior-point sweep matrix (H - c*delta2) scaled by h**2 terms.

    For an axis with m interior unknowns and spacing h, the matrix has
    constant diagonal 10/12 + 2c/h**2 and off-diagonals 1/12 - c/h**2 with
    c = mu_lambda0 >= 0.  Its diagonal-dominance margin is 2/3 + 4c/h**2
    while c/h**2 <= 1/12 and exactly 1 beyond, never below 2/3, so it is
    not recomputed here: diag - 2|off| cancels to 0 in floating point once
    c/h**2 reaches about 1e16.  A factor that fails all the same is refused
    by ``pttrf``'s ``info``.
    """
    _integer(m, "m", 1)
    _positive(h, "h")
    if mu_lambda0 < 0.0 or not np.isfinite(mu_lambda0):
        raise ValueError(f"mu_lambda0 must be nonnegative, got {mu_lambda0}")
    c = mu_lambda0 / h**2
    if not np.isfinite(c):
        raise ValueError(f"mu_lambda0/h**2 overflows for h={h}, "
                         f"mu_lambda0={mu_lambda0}")

    (hs, hm, hscale), (ds, dm) = H_WEIGHTS, D2_WEIGHTS
    diag, off = hm / hscale - c * dm, hs / hscale - c * ds
    # the LAPACK wrappers reject an empty band; at m = 1 e is never read
    d, e, info = dpttrf(np.full(m, diag), np.full(max(m - 1, 1), off))
    if info != 0:
        raise ValueError(
            f"sweep matrix for m={m}, h={h}, mu_lambda0={mu_lambda0} is not "
            f"positive definite (LAPACK pttrf info={info})"
        )
    return TridiagOperator(diag, off, d, e)
