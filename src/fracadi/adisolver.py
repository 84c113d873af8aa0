"""Time stepping for the integral-form evolution equation.

One step advances the field u from level n to n+1 by solving

    (Hx - c d2x)(Hy - c d2y) u^{n+1} =
        (Hx + c d2x)(Hy + c d2y) u^n
        + mu * [ sum_{k=1}^{n+1} lambda_k L u^{n+1-k}
               + sum_{k=1}^{n}   lambda_k L u^{n-k} ]
        + tau * H phi + (tau/2) * H (f^n + f^{n+1}),

where L = Hy d2x + Hx d2y is the compact Laplacian, H = Hx Hy,
mu = tau**(alpha+1) / 2 and c = mu * lambda_0.  The left side factors
into two tridiagonal sweeps (x then y); the intermediate unknown
u* = (Hy - c d2y) u^{n+1} needs boundary values, which follow from applying
the y-factor to the prescribed Dirichlet trace.  The scheme is second
order in time, fourth order in space, and unconditionally stable for alpha
in (0, 1).

``adi_step`` takes only the run's ``SolverState``.  Its skeleton
(``_step``) holds the level guard, the right-hand side, the boundary values
and the finish, and takes the interior solve as an argument: the sweeps
here, or the dense LU of the unsplit system in ``verify.solve_direct``, the
small-grid oracle that cross-checks the splitting.  The forcing is sampled
once per level: the step keeps f^n from the previous level and fetches
f^{n+1}.  The boundary values (in the step) and the exact solution (in
``_run``, for the error) are sampled a block of levels per call, t of shape
(b, 1, 1), with b = max(1, _BLOCK_BYTES // (8 (M1+1)(M2+1))): about 450
levels at M = 16, one at M = 256.  The finish takes |u^{n+1}| in one pass:
its max over all nodes is the divergence guard, which a NaN fails too, and
its max over the interior is the step report's ``solution_inf_norm``.  How
large a run may be is the mesh's rule (see ``meshops``), checked when the
mesh is built.

The right-hand side is one fused pass.  On interior nodes, with D = f^n +
f^{n+1} and S_n the memory sum below, it is

    Hx A + d2x B + tau Hx Hy phi,
    A = (Hy + c d2y) u^n + mu d2y S_n + (tau/2) Hy D,
    B = c (Hy + c d2y) u^n + mu Hy S_n,

since Hx commutes with d2y and Hy with d2x there.  Every operator is a
three-point stencil s (v_- + v_+) + m v along one axis, so with P = A/12 +
B/h1**2 and Q = 10 A/12 - 2 B/h1**2 the x part is P_- + P_+ + Q (P at the
x neighbours), and the y weights (s, m) of P and Q fold into one 4x3
matrix on the fields (u^n, S_n, D), built once per run.  A step forms the four weighted planes by one
matrix product, adds each pair's y neighbours over the flat C-ordered view
(columns 0 and -1 take wrapped values that nothing reads) and takes one x
pass; tau Hx Hy phi is a per-run plane.  The value is that of the formula
at the top up to rounding.  A step allocates no grid-sized temporary for
it: the run state holds seven work planes, built once in ``init_state``.
What a step still allocates are its forcing sample and the sweeps' arrays.

The step keeps the trajectory u^0..u^n in one history array and forms the
memory term mu * L S_n, where S_n = sum_{m<=n} kappa_{n-m} u^m is a causal
convolution with kappa_0 = lambda_1 and kappa_j = lambda_j + lambda_{j+1};
L is linear and fixed in time, so it is applied once per step to the sum.
S_n is evaluated exactly, only in a different summation order, by the
blocked causal convolution of ``fracweights`` (Hairer, Lubich & Schlichte,
SIAM J. Sci. Stat. Comput. 6, 1985), run online: levels in the current leaf
of ``_LEAF`` are summed directly, and the step that completes a left dyadic
block folds it into the pending sums of the levels after it
(``fold_block``).  A run of N steps costs O(N log^2 N) per grid node in the
memory term, and no buffer beyond the history itself grows with N.
Snapshots of the run are rows of the history.

States are advanced in place: step functions return the same object with
``current_level`` incremented.  A solve run is deterministic; identical
inputs give bitwise-identical trajectories.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fracweights import (
    _LEAF,
    completed_block,
    fold_block,
    scheme_weights,
    wsgd_integral,
)
from .meshops import (
    GridFn,
    Mesh,
    _avgx,
    _avgy,
    # unused here; bench/tracer.py times the stencils by these names
    _d2x,
    _d2y,
    _zero_frame,
)
from .problems import _COMPAT_TOL, ProblemSpec, sample_xy, sample_xyt
from .trisolve import TridiagOperator, build_sweep_operator

_DIVERGENCE_LIMIT = 1e100

# Bytes of one block of boundary or exact-solution samples: a sample call
# covers as many levels as fit, and at least one
_BLOCK_BYTES = 2**20


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


def _block_levels(mesh: Mesh) -> int:
    """Levels per block of boundary or exact-solution samples."""
    return max(1, _BLOCK_BYTES // (8 * (mesh.M1 + 1) * (mesh.M2 + 1)))


def _sample_levels(func: Callable, mesh: Mesh, lo: int, hi: int,
                   field: str) -> np.ndarray:
    """func at levels lo..hi-1 in one call, shape (hi-lo, M1+1, M2+1)."""
    t = np.arange(lo, hi) * mesh.tau
    return sample_xyt(func, mesh, t[:, None, None], field=field)


def _wsgd_forcing_levels(problem: ProblemSpec, mesh: Mesh) -> np.ndarray:
    """Tabulate f^k = I^alpha g(t_k) for all levels by the WSGD quadrature."""
    g = np.empty((mesh.N + 1, *mesh.shape))
    for k in range(mesh.N + 1):
        g[k] = sample_xyt(problem.caputo_forcing, mesh, k * mesh.tau,
                          field="caputo_forcing")
    return wsgd_integral(g, problem.alpha, mesh.tau)


def _forcing_source(problem: ProblemSpec,
                    mesh: Mesh) -> Callable[[int], np.ndarray]:
    """level -> f on the mesh: ``forcing_f`` sampled at t_k when given,
    otherwise a row of the table f = I^alpha g built from
    ``caputo_forcing``."""
    if problem.forcing_f is None:
        return _wsgd_forcing_levels(problem, mesh).__getitem__
    forcing = problem.forcing_f
    return lambda k: sample_xyt(forcing, mesh, k * mesh.tau, field="forcing")


def _tau_h_phi(problem: ProblemSpec, mesh: Mesh) -> np.ndarray:
    # bench/tracer.py labels a sample taken directly in init_state as psi,
    # and phi and psi can be one function, so phi is sampled here
    out = _avgx(_avgy(sample_xy(problem.phi, mesh, field="phi")))
    out *= mesh.tau
    return out


def _rhs_coefficients(c: float, mu: float, tau: float, h1: float,
                      h2: float) -> np.ndarray:
    """The fused pass's 4x3 weights: rows (P_s, Q_s, P_m, Q_m), the y
    neighbour and centre weights of P and Q (see the module docstring);
    columns the fields (u^n, S_n, D)."""
    hy = np.array([1.0 / 12.0, 10.0 / 12.0])   # (s, m) of Hy
    dy = np.array([1.0, -2.0]) / h2**2          # (s, m) of d2y
    a = np.column_stack([hy + c * dy, mu * dy, 0.5 * tau * hy])
    b = np.column_stack([c * (hy + c * dy), mu * hy, np.zeros(2)])
    p = a / 12.0 + b / h1**2
    q = 10.0 * a / 12.0 - 2.0 * b / h1**2
    return np.vstack([p[0], q[0], p[1], q[1]])


@dataclass
class SolverState:
    """One run: its problem and mesh, the trajectory, and the per-run
    operators every step reuses.

    ``history[k]`` is the accepted level-k solution for k <= current_level;
    ``u_current`` is a view of row ``current_level`` and always satisfies the
    prescribed boundary values of its own time level exactly.  A row k above
    ``current_level`` holds the pending far-field part of the memory sum
    S_{k-1} = sum_m kappa_{k-1-m} u^m, the contributions of completed dyadic
    blocks, until the step to level k overwrites it; rows no block has
    reached yet are zero.

    ``forcing(k)`` gives f at level k (see ``_forcing_source``) and
    ``f_current`` is f at ``current_level``.  ``boundary_rows`` holds the
    boundary samples of levels ``boundary_lo`` on, one block (see
    ``_block_levels``), which the step refills once it runs past them.  The
    x and y sweep factors, ``tau_h_phi`` (tau Hx Hy phi on the mesh), the
    fused pass's weights ``coef`` (see ``_rhs_coefficients``) and the memory
    kernel kappa (kappa_0 = lambda_1, kappa_j = lambda_j + lambda_{j+1})
    live here too; ``c`` is mu * lambda_0.

    ``work`` holds the per-run work planes, shape (7, M1+1, M2+1), that a
    step overwrites: planes 4-6 the fields u^n, S_n and D = f^n + f^{n+1};
    planes 0-3 their weighted sums ``coef`` @ planes 4-6, after which plane
    0 receives the right-hand side, which the step's report reads after
    the sweeps.
    """

    problem: ProblemSpec
    mesh: Mesh
    mu: float
    c: float
    history: np.ndarray
    forcing: Callable[[int], np.ndarray] = field(repr=False)
    f_current: np.ndarray = field(repr=False)
    tau_h_phi: np.ndarray = field(repr=False)
    coef: np.ndarray = field(repr=False)
    sweep_x: TridiagOperator = field(repr=False)
    sweep_y: TridiagOperator = field(repr=False)
    kappa: np.ndarray = field(repr=False)
    work: np.ndarray = field(repr=False)
    boundary_rows: np.ndarray = field(repr=False)
    boundary_lo: int = 0
    current_level: int = 0
    last_report: StepReport | None = None

    @property
    def u_current(self) -> GridFn:
        return GridFn(self.mesh, self.history[self.current_level])


def init_state(problem: ProblemSpec, mesh: Mesh) -> SolverState:
    """Build the level-0 state; psi must vanish on the mesh nodes.

    Apply ``homogenize_initial`` to a problem with a nonzero psi first.
    """
    _check_consistent(problem, mesh)

    psi_vals = sample_xy(problem.psi, mesh, field="psi")
    if np.max(np.abs(psi_vals)) > _COMPAT_TOL:
        raise ValueError(
            "initial displacement psi is nonzero on the mesh; "
            "apply homogenize_initial to the problem first"
        )

    lam = scheme_weights(problem.alpha, mesh.N + 1)
    mu = mesh.tau ** (problem.alpha + 1.0) / 2.0
    c = mu * lam[0]
    kappa = lam[:-1] + lam[1:]
    kappa[0] = lam[1]
    forcing = _forcing_source(problem, mesh)
    return SolverState(
        problem=problem,
        mesh=mesh,
        mu=mu,
        c=c,
        history=np.zeros((mesh.N + 1, *mesh.shape)),
        forcing=forcing,
        f_current=forcing(0),
        tau_h_phi=_tau_h_phi(problem, mesh),
        coef=_rhs_coefficients(c, mu, mesh.tau, mesh.h1, mesh.h2),
        sweep_x=build_sweep_operator(mesh.M1 - 1, mesh.h1, c),
        sweep_y=build_sweep_operator(mesh.M2 - 1, mesh.h2, c),
        kappa=kappa,
        work=np.empty((7, *mesh.shape)),
        boundary_rows=np.empty((0, *mesh.shape)),
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
    """S_n for the current level n, in the state's memory-sum plane: the
    levels of n's own leaf, summed directly, plus the pending far field
    stored in row n+1."""
    n = state.current_level
    history = state.history
    lo = n - n % _LEAF
    leaf = history[lo:n + 1].reshape(n - lo + 1, -1)
    out = state.work[5]
    near = out.reshape(-1)
    np.matmul(state.kappa[n - lo::-1], leaf, out=near)
    near += history[n + 1].reshape(-1)
    return out


def _fold_far_field(state: SolverState, s: int) -> None:
    """Once level s is stored, fold the block it completes (if any) into
    the pending rows of S_n for the levels n after it."""
    b = completed_block(s)
    history = state.history
    # targets stop at S_{N-1}, stored in the last row
    t = min(b, history.shape[0] - s - 2)
    if t <= 0:
        return
    flat = history.reshape(history.shape[0], -1)
    fold_block(state.kappa, flat[s + 1 - b:s + 1], flat[s + 2:s + 2 + t])


def _rhs_raw(state: SolverState, f_next: np.ndarray) -> np.ndarray:
    """Right-hand side of the step from the state's level, given f at the
    level after it, by the fused pass of the module docstring; written
    into work plane 0.  Only its interior nodes are read: the frame holds
    what the pass leaves there.
    """
    work = state.work
    rhs, _, p, q = work[:4]
    planes = work.reshape(7, -1)
    np.copyto(work[4], state.history[state.current_level])
    _memory_sum(state)
    np.add(state.f_current, f_next, out=work[6])

    # rows (P_s, Q_s, P_m, Q_m), then P and Q in rows 2 and 3: each centre
    # term plus its neighbours along the flat view
    weighted = planes[:4]
    np.matmul(state.coef, planes[4:], out=weighted)
    weighted[2:, 1:-1] += weighted[:2, :-2]
    weighted[2:, 1:-1] += weighted[:2, 2:]

    # the x pass: P_- + P_+ + Q, plus tau Hx Hy phi
    inner = rhs[1:-1]
    np.add(p[:-2], p[2:], out=inner)
    inner += q[1:-1]
    inner += state.tau_h_phi[1:-1]
    return rhs


def _boundary(state: SolverState, k: int) -> np.ndarray:
    """Boundary samples of level k: a row of the state's block, sampled
    from level k on once k runs past it.  The step writes the new level's
    interior into the row."""
    i = k - state.boundary_lo
    if not 0 <= i < len(state.boundary_rows):
        mesh = state.mesh
        hi = min(k + _block_levels(mesh), mesh.N + 1)
        state.boundary_rows = _sample_levels(state.problem.boundary, mesh,
                                             k, hi, "boundary")
        state.boundary_lo, i = k, 0
    return state.boundary_rows[i]


def _step(state: SolverState,
          interior: Callable[..., np.ndarray]) -> SolverState:
    """Advance one level in place; ``interior(state, rhs, bvals)`` solves
    for the interior nodes of the next level from the right-hand side and
    that level's boundary samples."""
    t0 = time.perf_counter_ns()
    mesh = state.mesh
    n = state.current_level
    if n >= mesh.N:
        raise ValueError(f"state already at the final level {mesh.N}")

    f_next = state.forcing(n + 1)
    vals = _boundary(state, n + 1)
    rhs = _rhs_raw(state, f_next)
    vals[1:-1, 1:-1] = interior(state, rhs, vals)

    mag = np.abs(vals)
    if not mag.max() <= _DIVERGENCE_LIMIT:
        raise SolverDivergenceError(n + 1)
    state.history[n + 1] = vals
    _fold_far_field(state, n + 1)
    state.f_current = f_next
    state.current_level = n + 1
    rhs_int = rhs[1:-1, 1:-1]
    state.last_report = StepReport(
        level=n + 1,
        wall_time_ns=time.perf_counter_ns() - t0,
        rhs_norm=float(np.sqrt(mesh.h1 * mesh.h2 * np.sum(rhs_int * rhs_int))),
        solution_inf_norm=float(mag[1:-1, 1:-1].max()),
    )
    return state


def _sweeps(state: SolverState, rhs: np.ndarray,
            bvals: np.ndarray) -> np.ndarray:
    """Interior of the next level by the x sweep, then the y sweep."""
    sx, sy = state.sweep_x, state.sweep_y

    # boundary traces of the intermediate unknown u* = (Hy - c d2y) u^{n+1}
    star_lo = sy.diag * bvals[0, 1:-1] + sy.off * (bvals[0, :-2] + bvals[0, 2:])
    star_hi = sy.diag * bvals[-1, 1:-1] + sy.off * (bvals[-1, :-2] + bvals[-1, 2:])

    # F order: the x sweep solves its columns in place, without a copy
    r = np.array(rhs[1:-1, 1:-1], order="F")
    r[0, :] -= sx.off * star_lo
    r[-1, :] -= sx.off * star_hi
    ustar = sx.solve(r)

    ustar[:, 0] -= sy.off * bvals[1:-1, 0]
    ustar[:, -1] -= sy.off * bvals[1:-1, -1]
    # ustar.T is C-ordered, so pttrs copies it to F order: the step's one
    # transpose
    return sy.solve(ustar.T).T


def adi_step(state: SolverState) -> SolverState:
    """Advance one level with the two tridiagonal sweeps (in place)."""
    return _step(state, _sweeps)


# ---------------------------------------------------------------------------
# full solve loop

@dataclass
class SolveResult:
    final: GridFn
    e_inf: float | None
    final_error: float | None
    reports: list[StepReport]
    state: SolverState


# bench/tracer.py times each step by wrapping this table's entry, so
# ``solve`` steps through it
_STEPPERS: dict[str, Callable] = {"adi": adi_step}


def _run(state: SolverState,
         stepper: Callable[[SolverState], SolverState]) -> SolveResult:
    """Step ``state`` to level N with ``stepper``, gathering errors and
    step reports as ``solve`` describes.  The error is tracked a block of
    levels at a time (see ``_block_levels``): after the block's steps, one
    exact-solution sample is compared with its rows of the history."""
    problem, mesh = state.problem, state.mesh
    reports: list[StepReport] = []
    e_inf: float | None = None
    final_error: float | None = None
    block = _block_levels(mesh)
    for lo in range(1, mesh.N + 1, block):
        hi = min(lo + block, mesh.N + 1)
        for _ in range(lo, hi):
            stepper(state)
            reports.append(state.last_report)
        if problem.exact is not None:
            err = _sample_levels(problem.exact, mesh, lo, hi,
                                 "exact")[:, 1:-1, 1:-1]
            np.subtract(state.history[lo:hi, 1:-1, 1:-1], err, out=err)
            level_err = np.abs(err, out=err).max(axis=(1, 2))
            final_error = float(level_err[-1])
            e_inf = max(e_inf or 0.0, float(level_err.max()))

    return SolveResult(
        final=state.u_current,
        e_inf=e_inf,
        final_error=final_error,
        reports=reports,
        state=state,
    )


def solve(problem: ProblemSpec, mesh: Mesh) -> SolveResult:
    """Run the scheme from level 0 to N and gather errors and step reports.

    The forcing source follows from the problem (see ``_forcing_source``).
    When the problem carries an exact solution, ``e_inf`` is the largest
    interior max-norm error over all levels 1..N and ``final_error`` the
    error at the last level.  ``reports`` holds one ``StepReport`` per step,
    and every level of the trajectory stays available as
    ``result.state.history[k]``.
    """
    return _run(init_state(problem, mesh), _STEPPERS["adi"])
