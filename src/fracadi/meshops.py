"""Uniform tensor meshes, grid functions, and fourth-order compact operators.

A field u lives on the (M1+1) x (M2+1) nodes of [0, L1] x [0, L2]; index i
runs along x, index j along y.  The second-difference operators use the
standard three-point stencil divided by h**2; the averaging operators apply
the compact weights (1/12, 10/12, 1/12) in one direction and act as the
identity on that direction's boundary rows.  Composite operators are built
from full-width one-dimensional kernels so that products such as Hx*Hy or
delta2x*delta2y agree exactly with their tensor-product algebra; the public
functions then zero the output frame, since frame values of second
differences are never used by the scheme.

Discrete inner products and norms sum over interior nodes only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Guard against accidental huge allocations (about 2 GiB of float64).
MAX_GRID_ENTRIES = 2**28


@dataclass(frozen=True)
class Mesh:
    """Uniform space-time mesh: M1 x M2 cells in space, N steps in time."""

    L1: float
    L2: float
    M1: int
    M2: int
    T: float
    N: int

    def __post_init__(self) -> None:
        for name in ("L1", "L2", "T"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {v}")
        for name in ("M1", "M2"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 2:
                raise ValueError(f"{name} must be an integer >= 2, got {v}")
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise ValueError(f"N must be an integer >= 1, got {self.N}")
        if (self.M1 + 1) * (self.M2 + 1) > MAX_GRID_ENTRIES:
            raise ValueError("spatial grid exceeds capacity limit")

    @property
    def h1(self) -> float:
        return self.L1 / self.M1

    @property
    def h2(self) -> float:
        return self.L2 / self.M2

    @property
    def tau(self) -> float:
        return self.T / self.N

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.M1 + 1) * self.h1

    @property
    def y(self) -> np.ndarray:
        return np.arange(self.M2 + 1) * self.h2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.M1 + 1, self.M2 + 1)


@dataclass(frozen=True)
class GridFn:
    """A real field sampled on the nodes of a mesh.

    ``values[i, j]`` is the value at (x_i, y_j).  Values are validated to be
    finite on construction and should be treated as immutable afterwards.
    """

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.mesh.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match mesh shape {self.mesh.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def interior(self) -> np.ndarray:
        return self.values[1:-1, 1:-1]


# ---------------------------------------------------------------------------
# raw stencil kernels on plain arrays (full width, no frame zeroing)

def _d2x(vals: np.ndarray, h1: float) -> np.ndarray:
    out = np.zeros_like(vals)
    out[1:-1, :] = (vals[:-2, :] - 2.0 * vals[1:-1, :] + vals[2:, :]) / h1**2
    return out


def _d2y(vals: np.ndarray, h2: float) -> np.ndarray:
    out = np.zeros_like(vals)
    out[:, 1:-1] = (vals[:, :-2] - 2.0 * vals[:, 1:-1] + vals[:, 2:]) / h2**2
    return out


def _avgx(vals: np.ndarray) -> np.ndarray:
    out = vals.copy()
    out[1:-1, :] = (vals[:-2, :] + 10.0 * vals[1:-1, :] + vals[2:, :]) / 12.0
    return out


def _avgy(vals: np.ndarray) -> np.ndarray:
    out = vals.copy()
    out[:, 1:-1] = (vals[:, :-2] + 10.0 * vals[:, 1:-1] + vals[:, 2:]) / 12.0
    return out


def _zero_frame(vals: np.ndarray) -> np.ndarray:
    vals[0, :] = 0.0
    vals[-1, :] = 0.0
    vals[:, 0] = 0.0
    vals[:, -1] = 0.0
    return vals


def _lambda_vals(vals: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Compact Laplacian of ``lambda_op`` on a plain array, frame zeroed."""
    out = _avgy(_d2x(vals, mesh.h1)) + _avgx(_d2y(vals, mesh.h2))
    return _zero_frame(out)


# ---------------------------------------------------------------------------
# public operators, GridFn in / GridFn out

def delta2_x(u: GridFn) -> GridFn:
    """Second difference in x; frame of the result is zero."""
    return GridFn(u.mesh, _zero_frame(_d2x(u.values, u.mesh.h1)))


def delta2_y(u: GridFn) -> GridFn:
    """Second difference in y; frame of the result is zero."""
    return GridFn(u.mesh, _zero_frame(_d2y(u.values, u.mesh.h2)))


def compact_h(u: GridFn) -> GridFn:
    """Two-dimensional compact average H = Hx Hy.

    True tensor product of the one-dimensional averages: corners are fixed
    and edge rows/columns see only the tangential 1-10-1 average.  Both
    factors are invertible, so H is invertible on the whole grid, and
    <Hu, u> >= ||u||^2 / 3 for zero-boundary u.
    """
    return GridFn(u.mesh, _avgx(_avgy(u.values)))


def lambda_op(u: GridFn) -> GridFn:
    """Compact Laplacian Hy*delta2x + Hx*delta2y; frame zeroed.

    Fourth-order consistent with H applied to the continuous Laplacian for
    smooth fields.
    """
    return GridFn(u.mesh, _lambda_vals(u.values, u.mesh))


def delta2x_delta2y(u: GridFn) -> GridFn:
    """Mixed fourth difference delta2x * delta2y; frame zeroed."""
    return GridFn(u.mesh, _zero_frame(_d2x(_d2y(u.values, u.mesh.h2), u.mesh.h1)))


# ---------------------------------------------------------------------------
# inner products and norms (interior sums)

def _check_same_mesh(u: GridFn, v: GridFn) -> None:
    if u.mesh != v.mesh:
        raise ValueError("grid functions live on different meshes")


def inner(u: GridFn, v: GridFn) -> float:
    """Discrete L2 inner product h1*h2 * sum over interior nodes."""
    _check_same_mesh(u, v)
    return u.mesh.h1 * u.mesh.h2 * float(np.sum(u.interior * v.interior))


def norm_l2(u: GridFn) -> float:
    return float(np.sqrt(inner(u, u)))


def grad_x(u: GridFn) -> np.ndarray:
    """Backward differences (u[i,j] - u[i-1,j]) / h1, shape (M1, M2+1)."""
    return (u.values[1:, :] - u.values[:-1, :]) / u.mesh.h1


def grad_y(u: GridFn) -> np.ndarray:
    """Backward differences (u[i,j] - u[i,j-1]) / h2, shape (M1+1, M2)."""
    return (u.values[:, 1:] - u.values[:, :-1]) / u.mesh.h2


def grad_xy(u: GridFn) -> np.ndarray:
    """Mixed cell differences, shape (M1, M2)."""
    v = u.values
    return (v[1:, 1:] - v[1:, :-1] - v[:-1, 1:] + v[:-1, :-1]) / (
        u.mesh.h1 * u.mesh.h2
    )


def norm_grad_xy(u: GridFn) -> float:
    """||delta_x delta_y u||: all cell fluxes i = 1..M1, j = 1..M2."""
    g = grad_xy(u)
    return float(np.sqrt(u.mesh.h1 * u.mesh.h2 * np.sum(g * g)))


# ---------------------------------------------------------------------------
# plain-text persistence

def write_csv(u: GridFn, path) -> None:
    """Write values as CSV rows i = 0..M1; %.17g round-trips float64."""
    np.savetxt(path, u.values, fmt="%.17g", delimiter=",")


def read_csv(mesh: Mesh, path) -> GridFn:
    vals = np.loadtxt(path, delimiter=",")
    vals = np.atleast_2d(vals)
    if vals.shape != mesh.shape:
        raise ValueError(
            f"CSV shape {vals.shape} does not match mesh shape {mesh.shape}"
        )
    return GridFn(mesh, vals)
