"""Uniform tensor meshes, grid functions, the compact stencils a step
applies, and CSV persistence.

A field u lives on the (M1+1) x (M2+1) nodes of [0, L1] x [0, L2]; index i
runs along x, index j along y.  The second-difference kernels use the
standard three-point stencil divided by h**2; the averaging kernels apply
the compact weights (1/12, 10/12, 1/12) in one direction and act as the
identity on that direction's boundary rows.  The kernels work on full-width
plain arrays, so products such as Hx*Hy agree exactly with their
tensor-product algebra, and Hx commutes with d2y (Hy with d2x) on interior
nodes, which the step's right-hand side uses.  The GridFn operators and
norms of the energy analysis, the compact Laplacian among them, are built
on these kernels in ``verify``.

A ``Mesh`` applies the one run-size rule, (N+1)(M1+1)(M2+1) <=
``MAX_RUN_ENTRIES``, when it is built, so a run too large to keep is
refused before anything is sampled on its mesh.

The raw kernels (``_d2x``, ``_d2y``, ``_avgx``, ``_avgy``) take an optional
``out=``: a C-contiguous float array of the input's shape, not overlapping
it, which receives the result and is returned.  Without it they allocate a
fresh C-ordered array and run the same code, so both forms give
bitwise-equal values.  A non-C-contiguous or misshaped ``out`` raises a
ValueError; overlap is not checked, since the check would cost more than a
small stencil.  The y-direction kernels run over the flat C-ordered view
and then rewrite the first and last columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Run-size limit on (N+1)(M1+1)(M2+1): the entries of a run's history, and
# of a caputo-only problem's forcing table beside it (2 GiB each at 2**28).
MAX_RUN_ENTRIES = 2**28


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
        entries = (int(self.N) + 1) * (int(self.M1) + 1) * (int(self.M2) + 1)
        if entries > MAX_RUN_ENTRIES:
            raise ValueError(f"M1={self.M1}, M2={self.M2}, N={self.N} give "
                             f"(N+1)(M1+1)(M2+1) = {entries} entries, over "
                             f"the run-size limit {MAX_RUN_ENTRIES}")

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
# raw stencil kernels on plain arrays (full width, no frame zeroing); see
# the module docstring for the ``out=`` contract

def _out_for(vals: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        return np.empty(vals.shape)
    if not out.flags.c_contiguous or out.shape != vals.shape:
        raise ValueError(
            f"out must be a C-contiguous array of shape {vals.shape}"
        )
    return out


def _x_stencil(vals: np.ndarray, out: np.ndarray, weight: float,
               scale: float) -> np.ndarray:
    # rows 1..-2 of out = ((l + weight*m) + r) / scale along axis 0
    o = out[1:-1]
    np.multiply(vals[1:-1], weight, out=o)
    np.add(vals[:-2], o, out=o)
    o += vals[2:]
    o /= scale
    return out


def _y_stencil(vals: np.ndarray, out: np.ndarray, weight: float,
               scale: float) -> np.ndarray:
    # the same along axis 1, over the flat C-ordered view: every node gets
    # its row neighbours except in columns 0 and -1, which the caller
    # rewrites (a copied reshape of a non-C ``vals`` is only read)
    flat = vals.reshape(-1)
    o = out.reshape(-1)[1:-1]
    np.multiply(flat[1:-1], weight, out=o)
    np.add(flat[:-2], o, out=o)
    o += flat[2:]
    o /= scale
    return out


def _d2x(vals: np.ndarray, h1: float,
         out: np.ndarray | None = None) -> np.ndarray:
    out = _x_stencil(vals, _out_for(vals, out), -2.0, h1**2)
    out[0] = 0.0
    out[-1] = 0.0
    return out


def _d2y(vals: np.ndarray, h2: float,
         out: np.ndarray | None = None) -> np.ndarray:
    out = _y_stencil(vals, _out_for(vals, out), -2.0, h2**2)
    out[:, 0] = 0.0
    out[:, -1] = 0.0
    return out


def _avgx(vals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = _x_stencil(vals, _out_for(vals, out), 10.0, 12.0)
    out[0] = vals[0]
    out[-1] = vals[-1]
    return out


def _avgy(vals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = _y_stencil(vals, _out_for(vals, out), 10.0, 12.0)
    out[:, 0] = vals[:, 0]
    out[:, -1] = vals[:, -1]
    return out


def _zero_frame(vals: np.ndarray) -> np.ndarray:
    vals[0, :] = 0.0
    vals[-1, :] = 0.0
    vals[:, 0] = 0.0
    vals[:, -1] = 0.0
    return vals


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
