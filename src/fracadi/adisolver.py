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
(``_step``) holds the level guard, the right-hand side, the boundary sample
and the finish, and takes the interior solve as an argument: the sweeps
here, or the dense LU of the unsplit system in ``verify.solve_direct``, the
small-grid oracle that cross-checks the splitting.  Problem data are sampled
once per level and never cached: the step keeps f^n from the previous level
and fetches f^{n+1}.  The finish takes |u^{n+1}| in one pass: its max over
all nodes is the divergence guard, which a NaN fails too, and its max over
the interior is the step report's ``solution_inf_norm``.  How large a run
may be is the mesh's rule (see ``meshops``), checked when the mesh is
built.

The right-hand side is formed from one factored formula.  On interior
nodes Hx commutes with d2y and Hy with d2x, so with a = Hy u^n + c d2y u^n
and S_n the memory sum below it is

    Hx(a + mu d2y S_n + (tau/2) Hy(f^n + f^{n+1} + 2 phi))
        + d2x(c a + mu Hy S_n):

seven stencil passes, where applying the three products one after another
takes ten.  The value is that of the formula above up to rounding.  A step
allocates no grid-sized temporary for it: the run state holds four work
planes, built once in ``init_state``, and the compact stencils write into
them through ``out=`` (see ``meshops``).  What a step still allocates are
its problem-data samples and the sweeps' arrays.

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
    _d2x,
    _d2y,
    _zero_frame,  # unused here; bench/tracer.py times the stencils by name
)
from .problems import _COMPAT_TOL, ProblemSpec, sample_xy, sample_xyt
from .trisolve import TridiagOperator, build_sweep_operator

_DIVERGENCE_LIMIT = 1e100


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


def _two_phi(problem: ProblemSpec, mesh: Mesh) -> np.ndarray:
    # bench/tracer.py labels a sample taken directly in init_state as psi,
    # and phi and psi can be one function, so phi is sampled here
    return 2.0 * sample_xy(problem.phi, mesh, field="phi")


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
    ``f_current`` is f at ``current_level``.  The x and y sweep factors,
    ``two_phi`` (2 phi on the mesh) and the memory kernel kappa (kappa_0 =
    lambda_1, kappa_j = lambda_j + lambda_{j+1}) live here too; ``c`` is
    mu * lambda_0.

    ``work`` holds the per-run work planes, shape (4, M1+1, M2+1), that a
    step overwrites: the right-hand side (plane 0, which the step's report
    reads after the sweeps), a = (Hy + c d2y) u^n and then the argument of
    Hx (see ``_rhs_raw``), a stencil scratch plane, and the memory sum S_n,
    which the data sum f^n + f^{n+1} + 2 phi overwrites once S_n is used.
    """

    problem: ProblemSpec
    mesh: Mesh
    mu: float
    c: float
    history: np.ndarray
    forcing: Callable[[int], np.ndarray] = field(repr=False)
    f_current: np.ndarray = field(repr=False)
    two_phi: np.ndarray = field(repr=False)
    sweep_x: TridiagOperator = field(repr=False)
    sweep_y: TridiagOperator = field(repr=False)
    kappa: np.ndarray = field(repr=False)
    work: np.ndarray = field(repr=False)
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
        two_phi=_two_phi(problem, mesh),
        sweep_x=build_sweep_operator(mesh.M1 - 1, mesh.h1, c),
        sweep_y=build_sweep_operator(mesh.M2 - 1, mesh.h2, c),
        kappa=kappa,
        work=np.empty((4, *mesh.shape)),
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
    out = state.work[3]
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
    level after it, by the factored formula of the module docstring;
    written into work plane 0.  Only its interior nodes are read: the frame
    holds what the stencils leave there.
    """
    mesh = state.mesh
    u = state.history[state.current_level]
    c, mu = state.c, state.mu
    rhs, a, tmp, data = state.work
    memory = _memory_sum(state)

    # a = Hy u + c d2y u
    _avgy(u, out=a)
    a += np.multiply(_d2y(u, mesh.h2, out=tmp), c, out=tmp)

    # rhs holds the argument of d2x, c a + mu Hy S_n, until the last lines
    np.multiply(a, c, out=rhs)
    rhs += np.multiply(_avgy(memory, out=tmp), mu, out=tmp)

    # a += mu d2y S_n + (tau/2) Hy(f^n + f^{n+1} + 2 phi), the argument of
    # Hx; the data sum overwrites S_n
    a += np.multiply(_d2y(memory, mesh.h2, out=tmp), mu, out=tmp)
    data_sum = np.add(state.f_current, f_next, out=data)
    data_sum += state.two_phi
    a += np.multiply(_avgy(data_sum, out=tmp), 0.5 * mesh.tau, out=tmp)

    d2 = _d2x(rhs, mesh.h1, out=data)
    _avgx(a, out=rhs)
    rhs += d2
    return rhs


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
    vals = sample_xyt(state.problem.boundary, mesh, (n + 1) * mesh.tau,
                      field="boundary")
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
    step reports as ``solve`` describes."""
    problem, mesh = state.problem, state.mesh
    reports: list[StepReport] = []
    e_inf: float | None = None
    final_error: float | None = None
    for _ in range(mesh.N):
        stepper(state)
        reports.append(state.last_report)
        if problem.exact is not None:
            level = state.current_level
            exact_vals = sample_xyt(problem.exact, mesh, level * mesh.tau,
                                    field="exact")
            final_error = float(np.max(np.abs(
                state.history[level, 1:-1, 1:-1] - exact_vals[1:-1, 1:-1]
            )))
            e_inf = max(e_inf or 0.0, final_error)

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
