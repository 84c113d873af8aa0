"""Time stepping for the integral-form evolution equation.

One step advances the field u from level n to n+1 by solving

    (Hx - c d2x)(Hy - c d2y) u^{n+1} =
        (Hx + c d2x)(Hy + c d2y) u^n
        + mu * [ sum_{k=1}^{n+1} lambda_k L u^{n+1-k}
               + sum_{k=1}^{n}   lambda_k L u^{n-k} ]
        + tau * H phi + (tau/2) * H (f^n + f^{n+1}),

where L is the compact Laplacian, H = Hx Hy, mu = tau**(alpha+1) / 2 and
c = mu * lambda_0.  The left side factors into two tridiagonal sweeps (x
then y); the intermediate unknown u* = (Hy - c d2y) u^{n+1} needs boundary
values, which follow from applying the y-factor to the prescribed Dirichlet
trace.  The scheme is second order in time, fourth order in space, and
unconditionally stable for alpha in (0, 1).

``direct_step`` solves the same linear system without splitting through a
dense LU factorization; it exists as a cross-check oracle for small grids.

Both paths keep the trajectory u^0..u^n in one history array and share the
memory term mu * L S_n, where S_n = sum_{m<=n} kappa_{n-m} u^m is a causal
convolution with kappa_0 = lambda_1 and kappa_j = lambda_j + lambda_{j+1};
L is linear and fixed in time, so it is applied once per step to the sum.
S_n is evaluated exactly, only in a different summation order, by the
blocked FFT scheme of Hairer, Lubich & Schlichte (SIAM J. Sci. Stat.
Comput. 6, 1985): levels in the current leaf of ``_LEAF`` are summed
directly, and each completed left dyadic block adds its contribution to the
right sibling's levels at once, by a dense Toeplitz product for short
blocks and by one FFT convolution for long ones.  A run of N steps costs
O(N log^2 N) per grid node in the memory term, and no buffer beyond the
history itself grows with N.  Snapshots of the run are rows of the history.

States are advanced in place: step functions return the same object with
``current_level`` incremented.  A solve run is deterministic; identical
inputs give bitwise-identical trajectories.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .fracweights import WeightTable, scheme_weights, wsgd_integral
from .meshops import (
    GridFn,
    Mesh,
    _avgx,
    _avgy,
    _d2x,
    _d2y,
    _lambda_vals,
    _zero_frame,  # unused here; bench/tracer.py times the stencils by name
)
from .problems import ProblemSpec, sample_xy, sample_xyt
from .trisolve import TridiagOperator, build_sweep_operator, sweep_coefficients

# history + a couple of work arrays must stay under ~2 GiB
MAX_HISTORY_ENTRIES = 2**28

# memory-term levels summed directly; older levels arrive in dyadic blocks
_LEAF = 32
# blocks up to this size are applied as a dense Toeplitz product, which is
# faster than the FFT and its set-up there
_TOEPLITZ_MAX_BLOCK = 256
# cap on the scratch of one far-field column chunk
_SCRATCH_BYTES = 2**20

_DIVERGENCE_LIMIT = 1e100

# the direct path refuses grids with more cells than this per axis
_DENSE_CAP = 32


class SolverDivergenceError(RuntimeError):
    """Raised when a step produces non-finite or absurdly large values."""

    def __init__(self, level: int, message: str | None = None) -> None:
        self.level = level
        super().__init__(message or f"solution diverged at level {level}")


@dataclass(frozen=True)
class StepReport:
    level: int
    wall_time_ns: int
    rhs_norm: float
    solution_inf_norm: float


class _Workspace:
    """Per-run cached objects: sweep factors, sampled data, dense factor,
    memory kernel and its transforms.

    The forcing comes from the problem: ``forcing_f`` is sampled level by
    level when given; otherwise f = I^alpha g is tabulated once for all
    levels from ``caputo_forcing`` by the WSGD quadrature.
    """

    def __init__(self, problem: ProblemSpec, mesh: Mesh,
                 weights: WeightTable, mu: float) -> None:
        self.c = mu * weights.lam[0]
        self.sweep_x = build_sweep_operator(mesh.M1 - 1, mesh.h1, self.c)
        self.sweep_y = build_sweep_operator(mesh.M2 - 1, mesh.h2, self.c)
        phi_vals = sample_xy(problem.phi, mesh, field="phi")
        self.h_phi = _avgx(_avgy(phi_vals))
        self._mesh = mesh
        self._f_cache: dict[int, np.ndarray] = {}
        self.f_levels: np.ndarray | None = None
        self.dense = None
        self._forcing = problem.forcing_f
        if self._forcing is None:
            self.f_levels = _wsgd_forcing_levels(problem, mesh)
        lam = weights.lam
        self.kappa = lam[:-1] + lam[1:]
        self.kappa[0] = lam[1]
        self._kappa_hat: dict[int, np.ndarray] = {}

    def kappa_hat(self, b: int) -> np.ndarray:
        """rfft of kappa_0..kappa_{2b-1} (zero past the run's last lag)."""
        cached = self._kappa_hat.get(b)
        if cached is None:
            cached = np.fft.rfft(self.kappa[:2 * b], n=2 * b)
            self._kappa_hat[b] = cached
        return cached

    def f_at(self, level: int) -> np.ndarray:
        if self.f_levels is not None:
            return self.f_levels[level]
        cached = self._f_cache.get(level)
        if cached is None:
            cached = sample_xyt(self._forcing, self._mesh,
                                level * self._mesh.tau, field="forcing")
            self._f_cache[level] = cached
            for k in [k for k in self._f_cache if k < level - 1]:
                del self._f_cache[k]
        return cached


def _wsgd_forcing_levels(problem: ProblemSpec, mesh: Mesh) -> np.ndarray:
    """Tabulate f^k = I^alpha g(t_k) for all levels by the WSGD quadrature."""
    g = np.empty((mesh.N + 1, *mesh.shape))
    for k in range(mesh.N + 1):
        g[k] = sample_xyt(problem.caputo_forcing, mesh, k * mesh.tau,
                          field="caputo_forcing")
    return wsgd_integral(g, problem.alpha, mesh.tau)


@dataclass
class SolverState:
    """Everything the scheme carries between levels.

    ``history[k]`` is the accepted level-k solution for k <= current_level;
    ``u_current`` is a view of row ``current_level`` and always satisfies the
    prescribed boundary values of its own time level exactly.  A row k above
    ``current_level`` holds the pending far-field part of the memory sum
    S_{k-1} = sum_m kappa_{k-1-m} u^m, the contributions of completed dyadic
    blocks, until the step to level k overwrites it; rows no block has
    reached yet are zero.
    """

    mesh: Mesh
    weights: WeightTable
    mu: float
    current_level: int
    u_current: GridFn
    history: np.ndarray
    workspace: _Workspace = field(repr=False)
    last_report: StepReport | None = None


def init_state(problem: ProblemSpec, mesh: Mesh) -> SolverState:
    """Build the level-0 state; psi must vanish on the mesh nodes.

    Apply ``homogenize_initial`` to a problem with a nonzero psi first.
    """
    _check_consistent(problem, mesh)

    psi_vals = sample_xy(problem.psi, mesh, field="psi")
    if np.max(np.abs(psi_vals)) > 1e-12:
        raise ValueError(
            "initial displacement psi is nonzero on the mesh; "
            "apply homogenize_initial to the problem first"
        )
    if (mesh.N + 1) * (mesh.M1 + 1) * (mesh.M2 + 1) > MAX_HISTORY_ENTRIES:
        raise ValueError("history array would exceed the capacity limit")

    weights = scheme_weights(problem.alpha, mesh.N + 1)
    mu = mesh.tau ** (problem.alpha + 1.0) / 2.0
    workspace = _Workspace(problem, mesh, weights, mu)
    history = np.zeros((mesh.N + 1, *mesh.shape))
    return SolverState(
        mesh=mesh,
        weights=weights,
        mu=mu,
        current_level=0,
        u_current=GridFn(mesh, history[0]),
        history=history,
        workspace=workspace,
    )


def _check_consistent(problem: ProblemSpec, mesh: Mesh) -> None:
    pairs = (("L1", problem.L1, mesh.L1), ("L2", problem.L2, mesh.L2),
             ("T", problem.T, mesh.T))
    for name, pv, mv in pairs:
        if abs(pv - mv) > 1e-12 * max(1.0, abs(pv)):
            raise ValueError(
                f"mesh {name}={mv} does not match problem {name}={pv}"
            )


def _memory_sum(state: SolverState) -> np.ndarray:
    """S_n for the current level n: the pending far field stored in row
    n+1 plus the levels of n's own leaf, summed directly."""
    n = state.current_level
    history = state.history
    lo = n - n % _LEAF
    leaf = history[lo:n + 1].reshape(n - lo + 1, -1)
    near = state.workspace.kappa[n - lo::-1] @ leaf
    near += history[n + 1].ravel()
    return near.reshape(history.shape[1:])


def _fold_far_field(state: SolverState, s: int) -> None:
    """Once level s is stored, add the block it completes to the pending rows.

    When s+1 = b * odd with b = _LEAF * 2^j, level s closes the left dyadic
    block [lo, lo+b) of the node [lo, lo+2b); its contribution to S_n for
    n in [lo+b, lo+2b) is a Toeplitz product, or for long blocks the tail
    of one length-2b circular convolution, where no term wraps around.
    Every pair m < n outside a common leaf meets in exactly one such node,
    so each term is added once.
    """
    q, r = divmod(s + 1, _LEAF)
    if r or not q:
        return
    b = _LEAF * (q & -q)
    history = state.history
    # targets stop at S_{N-1}, stored in the last row
    t = min(b, history.shape[0] - s - 2)
    if t <= 0:
        return
    flat = history.reshape(history.shape[0], -1)
    block = flat[s + 1 - b:s + 1]
    pending = flat[s + 2:s + 2 + t]
    ws = state.workspace
    if b <= _TOEPLITZ_MAX_BLOCK:
        # row r is target n = lo+b+r, column i is source m = lo+i
        toeplitz = ws.kappa[b + np.arange(t)[:, None] - np.arange(b)]

        def contribution(cols: np.ndarray) -> np.ndarray:
            return toeplitz @ cols
    else:
        kappa_hat = ws.kappa_hat(b)[:, None]

        def contribution(cols: np.ndarray) -> np.ndarray:
            spec = np.fft.rfft(cols, n=2 * b, axis=0)
            spec *= kappa_hat
            return np.fft.irfft(spec, n=2 * b, axis=0)[b:b + t]

    # FFT: padded input, rfft spectrum and irfft output, ~48*b bytes a column
    chunk = max(1, _SCRATCH_BYTES // (48 * b))
    for c in range(0, flat.shape[1], chunk):
        pending[:, c:c + chunk] += contribution(block[:, c:c + chunk])


def _rhs_raw(state: SolverState) -> np.ndarray:
    """Right-hand side of the step from the state's level, frame included."""
    mesh = state.mesh
    ws = state.workspace
    n = state.current_level
    u = state.u_current.values
    c = ws.c

    v = _avgy(u) + c * _d2y(u, mesh.h2)
    rhs = _avgx(v) + c * _d2x(v, mesh.h1)

    rhs += state.mu * _lambda_vals(_memory_sum(state), mesh)

    fsum = ws.f_at(n) + ws.f_at(n + 1)
    rhs += mesh.tau * ws.h_phi + 0.5 * mesh.tau * _avgx(_avgy(fsum))
    return rhs


def _finish_step(state: SolverState, vals: np.ndarray, rhs: np.ndarray,
                 t0: int) -> SolverState:
    n = state.current_level
    if not np.all(np.isfinite(vals)) or np.max(np.abs(vals)) > _DIVERGENCE_LIMIT:
        raise SolverDivergenceError(n + 1)
    mesh = state.mesh
    state.history[n + 1] = vals
    _fold_far_field(state, n + 1)
    state.u_current = GridFn(mesh, state.history[n + 1])
    state.current_level = n + 1
    rhs_int = rhs[1:-1, 1:-1]
    state.last_report = StepReport(
        level=n + 1,
        wall_time_ns=time.perf_counter_ns() - t0,
        rhs_norm=float(np.sqrt(mesh.h1 * mesh.h2 * np.sum(rhs_int * rhs_int))),
        solution_inf_norm=float(np.max(np.abs(vals[1:-1, 1:-1]))),
    )
    return state


def adi_step(state: SolverState, problem: ProblemSpec) -> SolverState:
    """Advance one level with the two tridiagonal sweeps (in place)."""
    t0 = time.perf_counter_ns()
    mesh = state.mesh
    n = state.current_level
    if n >= mesh.N:
        raise ValueError(f"state already at the final level {mesh.N}")
    ws = state.workspace
    c = ws.c

    rhs = _rhs_raw(state)
    bvals = sample_xyt(problem.boundary, mesh, (n + 1) * mesh.tau,
                       field="boundary")

    diag_y, off_y = sweep_coefficients(mesh.h2, c)
    _, off_x = sweep_coefficients(mesh.h1, c)

    # boundary traces of the intermediate unknown u* = (Hy - c d2y) u^{n+1}
    star_lo = diag_y * bvals[0, 1:-1] + off_y * (bvals[0, :-2] + bvals[0, 2:])
    star_hi = diag_y * bvals[-1, 1:-1] + off_y * (bvals[-1, :-2] + bvals[-1, 2:])

    r = rhs[1:-1, 1:-1].copy()
    r[0, :] -= off_x * star_lo
    r[-1, :] -= off_x * star_hi
    ustar = ws.sweep_x.solve(r)

    ustar[:, 0] -= off_y * bvals[1:-1, 0]
    ustar[:, -1] -= off_y * bvals[1:-1, -1]
    interior = ws.sweep_y.solve(ustar.T).T

    vals = bvals
    vals[1:-1, 1:-1] = interior
    return _finish_step(state, vals, rhs, t0)


class _DenseOracle:
    """LU factor of the unsplit operator on interior nodes, plus the
    boundary-coupling block."""

    def __init__(self, mesh: Mesh, c: float) -> None:
        m1, m2 = mesh.M1 + 1, mesh.M2 + 1
        hx, dx = _dense_1d(m1, mesh.h1)
        hy, dy = _dense_1d(m2, mesh.h2)
        full = (
            np.kron(hx, hy)
            - c * (np.kron(dx, hy) + np.kron(hx, dy))
            + c * c * np.kron(dx, dy)
        )
        mask = np.zeros((m1, m2), dtype=bool)
        mask[1:-1, 1:-1] = True
        flat = mask.ravel()
        self.interior_idx = np.nonzero(flat)[0]
        self.boundary_idx = np.nonzero(~flat)[0]
        rows = full[self.interior_idx]
        self.lu = lu_factor(rows[:, self.interior_idx])
        self.coupling = rows[:, self.boundary_idx]

    def solve(self, rhs_int: np.ndarray, bvals_flat: np.ndarray) -> np.ndarray:
        b = rhs_int - self.coupling @ bvals_flat[self.boundary_idx]
        return lu_solve(self.lu, b)


def _dense_1d(m: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    # compact average (identity on boundary rows) and second difference
    avg = np.eye(m)
    d2 = np.zeros((m, m))
    for i in range(1, m - 1):
        avg[i, i - 1:i + 2] = (1.0 / 12.0, 10.0 / 12.0, 1.0 / 12.0)
        d2[i, i - 1:i + 2] = np.array((1.0, -2.0, 1.0)) / h**2
    return avg, d2


def direct_step(state: SolverState, problem: ProblemSpec) -> SolverState:
    """Advance one level by dense-solving the unsplit system (in place).

    Mathematically identical to ``adi_step``; exists to cross-check the
    splitting on small grids.  Refuses grids with more than ``_DENSE_CAP``
    cells per axis.
    """
    t0 = time.perf_counter_ns()
    mesh = state.mesh
    n = state.current_level
    if n >= mesh.N:
        raise ValueError(f"state already at the final level {mesh.N}")
    ws = state.workspace
    if max(mesh.M1, mesh.M2) > _DENSE_CAP:
        raise ValueError(
            f"grid {mesh.M1}x{mesh.M2} exceeds dense_cap={_DENSE_CAP}; "
            "the direct path is a small-grid reference only"
        )
    if ws.dense is None:
        ws.dense = _DenseOracle(mesh, ws.c)

    rhs = _rhs_raw(state)
    bvals = sample_xyt(problem.boundary, mesh, (n + 1) * mesh.tau,
                       field="boundary")
    interior = ws.dense.solve(rhs[1:-1, 1:-1].ravel(), bvals.ravel())

    vals = bvals
    vals[1:-1, 1:-1] = interior.reshape(mesh.M1 - 1, mesh.M2 - 1)
    return _finish_step(state, vals, rhs, t0)


# ---------------------------------------------------------------------------
# full solve loop

@dataclass
class SolveResult:
    problem: ProblemSpec
    mesh: Mesh
    final: GridFn
    e_inf: float | None
    final_error: float | None
    reports: list[StepReport]
    state: SolverState


_STEPPERS: dict[str, Callable] = {"adi": adi_step, "direct": direct_step}


def solve(problem: ProblemSpec, mesh: Mesh, method: str = "adi") -> SolveResult:
    """Run the scheme from level 0 to N and gather errors and step reports.

    ``method`` is "adi" (the two tridiagonal sweeps) or "direct" (the dense
    unsplit solve, a small-grid cross-check); any other value is rejected
    before any work.  The forcing source follows from the problem (see
    ``_Workspace``).  When the problem carries an exact solution, ``e_inf``
    is the largest interior max-norm error over all levels 1..N and
    ``final_error`` the error at the last level.  ``reports`` holds one
    ``StepReport`` per step, and every level of the trajectory stays
    available as ``result.state.history[k]``.
    """
    if method not in _STEPPERS:
        raise ValueError(f"unknown method {method!r}; choose from "
                         f"{sorted(_STEPPERS)}")
    stepper = _STEPPERS[method]
    state = init_state(problem, mesh)

    reports: list[StepReport] = []

    e_inf: float | None = None
    final_error: float | None = None
    track_error = problem.exact is not None
    if track_error:
        e_inf = 0.0

    for n in range(mesh.N):
        stepper(state, problem)
        reports.append(state.last_report)
        level = state.current_level
        if track_error:
            exact_vals = sample_xyt(problem.exact, mesh, level * mesh.tau,
                                    field="exact")
            err = float(np.max(np.abs(
                state.u_current.interior - exact_vals[1:-1, 1:-1]
            )))
            e_inf = max(e_inf, err)
            final_error = err

    return SolveResult(
        problem=problem,
        mesh=mesh,
        final=state.u_current,
        e_inf=e_inf,
        final_error=final_error,
        reports=reports,
        state=state,
    )
