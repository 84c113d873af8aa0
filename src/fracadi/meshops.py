"""Uniform tensor meshes, grid functions, the compact stencils (of a run's
H phi and of ``verify``'s operators), and CSV persistence.

A field u lives on the (M1+1) x (M2+1) nodes of [0, L1] x [0, L2]; index i
runs along x, index j along y.  The scheme is built from the compact
average H = (1, 10, 1)/12 and the second difference d2 = (1, -2, 1)/h**2.
Their weights are written only here, as ``H_WEIGHTS`` and ``D2_WEIGHTS``,
and read by the kernels, the step's fused right-hand side and the sweep
matrices H - c d2; ``verify``'s dense matrices repeat them as an
independent oracle.  One kernel, ``_stencil``, applies a three-point
stencil over the flat C-ordered view (step M2+1 along x, 1 along y) into a
fresh array; ``_d2x`` and ``_d2y`` vanish on their direction's boundary
rows, ``_avgx`` and ``_avgy`` are the identity there, and the y pass's
wrapped columns 0 and -1 are rewritten.  The kernels work on full-width
plain arrays, so products such as Hx*Hy agree exactly with their
tensor-product algebra, and Hx commutes with d2y (Hy with d2x) on interior
nodes, which the step's right-hand side uses.  The GridFn operators and
norms of the energy analysis are built on these kernels in ``verify``.

A ``Mesh`` applies the one run-size rule, (N+1)(M1+1)(M2+1) <=
``MAX_RUN_ENTRIES``, when it is built, so a run too large to keep is
refused before anything is sampled on its mesh.  Its node coordinates
``x`` and ``y``, and its ``frame`` (the boundary nodes, on which the
Dirichlet data are sampled and written), are computed once per mesh and
are read-only: every sample on the mesh shares them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Run-size limit on (N+1)(M1+1)(M2+1): the entries of a run's history, and
# of a caputo-only problem's forcing table beside it (2 GiB each at 2**28).
MAX_RUN_ENTRIES = 2**28

# H = (side, middle, side) / scale and d2 = (side, middle, side) / h**2 along
# one axis; ``_stencil`` takes the side weight to be 1
H_WEIGHTS = (1.0, 10.0, 12.0)
D2_WEIGHTS = (1.0, -2.0)


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

    @cached_property
    def x(self) -> np.ndarray:
        return _read_only(np.arange(self.M1 + 1) * self.h1)

    @cached_property
    def y(self) -> np.ndarray:
        return _read_only(np.arange(self.M2 + 1) * self.h2)

    @cached_property
    def frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The F = 2 (M1 + M2) boundary nodes, rows 0 and M1, then columns
        0 and M2 between them: their x and y, shape (1, F), and their flat
        indices into the (M1+1) x (M2+1) grid; read-only."""
        cols = self.M2 + 1
        inner = np.arange(1, self.M1) * cols
        index = np.concatenate((np.arange(cols), self.M1 * cols
                                + np.arange(cols), inner, inner + self.M2))
        return (_read_only(self.x[None, index // cols]),
                _read_only(self.y[None, index % cols]), _read_only(index))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.M1 + 1, self.M2 + 1)


def _read_only(vals: np.ndarray) -> np.ndarray:
    vals.flags.writeable = False
    return vals


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

def _stencil(vals: np.ndarray, step: int, weight: float,
             scale: float) -> np.ndarray:
    """((v[-step] + weight*v) + v[+step]) / scale over the flat C-ordered
    view, at every node with both neighbours; the caller writes the rest
    (a copied reshape of a non-C ``vals`` is only read)."""
    flat = vals.reshape(-1)
    out = np.empty(vals.shape)
    o = out.reshape(-1)[step:-step]
    np.multiply(flat[step:-step], weight, out=o)
    np.add(flat[:-2 * step], o, out=o)
    o += flat[2 * step:]
    o /= scale
    return out


def _d2x(vals: np.ndarray, h1: float) -> np.ndarray:
    out = _stencil(vals, vals.shape[1], D2_WEIGHTS[1], h1**2)
    out[0] = 0.0
    out[-1] = 0.0
    return out


def _d2y(vals: np.ndarray, h2: float) -> np.ndarray:
    out = _stencil(vals, 1, D2_WEIGHTS[1], h2**2)
    out[:, 0] = 0.0
    out[:, -1] = 0.0
    return out


def _avgx(vals: np.ndarray) -> np.ndarray:
    out = _stencil(vals, vals.shape[1], H_WEIGHTS[1], H_WEIGHTS[2])
    out[0] = vals[0]
    out[-1] = vals[-1]
    return out


def _avgy(vals: np.ndarray) -> np.ndarray:
    out = _stencil(vals, 1, H_WEIGHTS[1], H_WEIGHTS[2])
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
    """Write values as CSV rows i = 0..M1; %.17g round-trips float64.

    One format string covers the whole array, so the file is formatted in
    one call; its bytes are those of ``np.savetxt(path, u.values,
    fmt="%.17g", delimiter=",")``.
    """
    rows, cols = u.values.shape
    line = ",".join(["%.17g"] * cols) + "\n"
    with open(path, "w") as fh:
        fh.write(line * rows % tuple(u.values.ravel().tolist()))


def read_csv(mesh: Mesh, path) -> GridFn:
    vals = np.loadtxt(path, delimiter=",")
    vals = np.atleast_2d(vals)
    if vals.shape != mesh.shape:
        raise ValueError(
            f"CSV shape {vals.shape} does not match mesh shape {mesh.shape}"
        )
    return GridFn(mesh, vals)
