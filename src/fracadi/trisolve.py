"""Tridiagonal systems for the ADI sweeps.

The factorization is plain LU without pivoting (Thomas algorithm), which is
the right tool here because the sweep matrices are diagonally dominant by a
margin of at least 2/3 for every admissible step size.  The factor is
computed once at construction and reused across right-hand sides; ``solve``
accepts a matrix of stacked columns so one call handles a whole grid sweep.
"""

from __future__ import annotations

import numpy as np

# Relative pivot floor; factorization aborts rather than divide by a pivot
# this much smaller than the matrix scale.
_PIVOT_RTOL = 1e-13


class TridiagOperator:
    """A fixed tridiagonal matrix with a cached no-pivoting LU factor."""

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> None:
        diag = np.asarray(diag, dtype=float)
        sub = np.asarray(sub, dtype=float)
        sup = np.asarray(sup, dtype=float)
        n = diag.size
        if diag.ndim != 1 or n < 1:
            raise ValueError("diag must be a 1-D array of length >= 1")
        if sub.shape != (max(n - 1, 0),) or sup.shape != (max(n - 1, 0),):
            raise ValueError(
                f"band lengths must be {n - 1} for a system of size {n}"
            )
        for name, band in (("sub", sub), ("diag", diag), ("sup", sup)):
            if not np.all(np.isfinite(band)):
                raise ValueError(f"{name} band contains non-finite entries")

        self.n = n
        self._sub = sub.copy()
        self._diag = diag.copy()
        self._sup = sup.copy()

        scale = max(np.max(np.abs(diag)), np.max(np.abs(sub), initial=0.0),
                    np.max(np.abs(sup), initial=0.0))
        if scale == 0.0:
            raise ValueError("matrix is identically zero")
        floor = _PIVOT_RTOL * scale

        piv = diag.copy()
        mult = np.empty(max(n - 1, 0))
        for i in range(1, n):
            if abs(piv[i - 1]) <= floor:
                raise ValueError(
                    f"near-zero pivot at row {i - 1}; matrix needs pivoting"
                )
            mult[i - 1] = sub[i - 1] / piv[i - 1]
            piv[i] = diag[i] - mult[i - 1] * sup[i - 1]
        if abs(piv[n - 1]) <= floor:
            raise ValueError(f"near-zero pivot at row {n - 1}; matrix needs pivoting")
        self._piv = piv
        self._mult = mult

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Multiply by the original matrix; x may be (n,) or (n, k)."""
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n:
            raise ValueError(f"operand first dimension must be {self.n}")
        d = self._diag.reshape(-1, *([1] * (x.ndim - 1)))
        out = d * x
        if self.n > 1:
            sub = self._sub.reshape(-1, *([1] * (x.ndim - 1)))
            sup = self._sup.reshape(-1, *([1] * (x.ndim - 1)))
            out[1:] += sub * x[:-1]
            out[:-1] += sup * x[1:]
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs using the cached factor; rhs may be (n,) or (n, k)."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n:
            raise ValueError(f"rhs first dimension must be {self.n}")
        x = rhs.astype(float, copy=True)
        for i in range(1, self.n):
            x[i] -= self._mult[i - 1] * x[i - 1]
        x[self.n - 1] /= self._piv[self.n - 1]
        for i in range(self.n - 2, -1, -1):
            x[i] = (x[i] - self._sup[i] * x[i + 1]) / self._piv[i]
        return x

    def dominance_margin(self) -> float:
        """min over rows of |diag| - (|sub| + |sup|); negative if not dominant."""
        margins = np.abs(self._diag).copy()
        if self.n > 1:
            margins[1:] -= np.abs(self._sub)
            margins[:-1] -= np.abs(self._sup)
        return float(np.min(margins))

    def to_dense(self) -> np.ndarray:
        a = np.diag(self._diag)
        if self.n > 1:
            a += np.diag(self._sub, -1) + np.diag(self._sup, 1)
        return a


def build_sweep_operator(m: int, h: float, mu_lambda0: float) -> TridiagOperator:
    """Interior-point sweep matrix (H - c*delta2) scaled by h**2 terms.

    For an axis with m interior unknowns and spacing h, the matrix has
    constant diagonal 10/12 + 2c/h**2 and off-diagonals 1/12 - c/h**2 with
    c = mu_lambda0 >= 0.  Its diagonal-dominance margin is at least 2/3
    (exactly 2/3 + 4c/h**2 while c/h**2 <= 1/12, and >= 1 beyond), which is
    asserted here so a bad build fails immediately rather than during a
    sweep.
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"interior size m must be a positive integer, got {m}")
    if not (h > 0.0) or not np.isfinite(h):
        raise ValueError(f"h must be positive and finite, got {h}")
    if mu_lambda0 < 0.0 or not np.isfinite(mu_lambda0):
        raise ValueError(f"mu_lambda0 must be nonnegative, got {mu_lambda0}")

    diag_val, off_val = sweep_coefficients(h, mu_lambda0)
    op = TridiagOperator(
        np.full(m - 1, off_val), np.full(m, diag_val), np.full(m - 1, off_val)
    )
    margin = diag_val - 2.0 * abs(off_val) if m > 1 else diag_val
    if margin < 2.0 / 3.0 - 1e-12:
        raise AssertionError(
            f"sweep matrix dominance margin {margin} fell below 2/3"
        )
    return op


def sweep_coefficients(h: float, mu_lambda0: float) -> tuple[float, float]:
    """(diag, off) stencil values used by the sweep matrix for spacing h."""
    c = mu_lambda0 / h**2
    return 10.0 / 12.0 + 2.0 * c, 1.0 / 12.0 - c
