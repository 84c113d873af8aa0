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
levels at M = 16, one at M = 256.  The step reads the boundary only on the
frame, so it is sampled there alone (``sample_xyt(..., frame=True)``: one
call on the 2 (M1 + M2) frame points), and the sweeps' four edge terms
(``_edge_terms``) are formed for the whole block when it is sampled; a
step subtracts its row of each.  The new level is written straight into
its history row: the interior from the sweeps, the frame from the block.
The finish takes |u^{n+1}| in one pass into a work plane: its max over all
nodes is the overflow guard, which only a non-finite value (NaN too)
fails, and its max over the interior is the step report's
``solution_inf_norm``.  How large a run may be is the mesh's rule (see
``meshops``), checked when the mesh is built; how small or large tau and h
may be, ``_check_scaling``, checked by ``init_state`` before any
coefficient is formed.

The right-hand side is one fused pass.  On interior nodes, with D = f^n +
f^{n+1} and S_n the memory sum below, it is

    Hx A + d2x B + tau Hx Hy phi,
    A = (Hy + c d2y) u^n + mu d2y S_n + (tau/2) Hy D,
    B = c (Hy + c d2y) u^n + mu Hy S_n,

since Hx commutes with d2y and Hy with d2x there.  Every operator is a
three-point stencil s (v_- + v_+) + m v along one axis, so with P = A/12 +
B/h1**2 and Q = 10 A/12 - 2 B/h1**2 the x part is P_- + P_+ + Q (P at the
x neighbours), and the y weights (s, m) of P and Q fold into one 4x3
matrix on the fields (u^n, S_n, D), built once per run from the weights
in ``meshops``.  A step forms the four weighted planes by one matrix
product, adds each pair's y neighbours over the flat C-ordered view
(columns 0 and -1 take wrapped values that nothing reads) and takes one x
pass; tau Hx Hy phi is a per-run plane.  The value is that of the formula
at the top up to rounding.  A step allocates no grid-sized temporary for
it: the run state holds seven work planes, built once in ``init_state``.
What a step still allocates are its forcing sample and the sweeps' arrays,
and, once per block, the boundary block and its edge terms.

The step keeps the trajectory u^0..u^n in one history array and forms the
memory term mu * L S_n, where S_n = sum_{m<=n} kappa_{n-m} u^m is a causal
convolution with kappa_0 = lambda_1 and kappa_j = lambda_j + lambda_{j+1};
L is linear and fixed in time, so it is applied once per step to the sum.
S_n is evaluated exactly, only in a different summation order, by the
blocked causal convolution of ``fracweights`` (Hairer, Lubich & Schlichte,
SIAM J. Sci. Stat. Comput. 6, 1985), run online: levels in the current leaf
of ``_LEAF`` are summed directly, and the step that completes a left dyadic
block folds it into the pending sums of the levels after it
(``fold_block``, in place in the history rows).  Row n+1 holds the pending
far field of S_n until the step overwrites it with u^{n+1}, so S_n is one
vector-matrix product of (kappa_{n-lo}, ..., kappa_0, 1) with history rows
lo..n+1, lo the start of n's leaf.  A run of N steps costs O(N log^2 N)
per grid node in the memory term, and no buffer beyond the history itself
grows with N.  Snapshots of the run are rows of the history.

States are advanced in place: step functions return the same object with
``current_level`` incremented.  A solve run is deterministic; identical
inputs give bitwise-identical trajectories.
"""

from __future__ import annotations

import math
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
    D2_WEIGHTS,
    H_WEIGHTS,
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

# Bytes of one block of boundary or exact-solution samples: a sample call
# covers as many levels as fit, and at least one
_BLOCK_BYTES = 2**20
# Largest magnitude a scheme coefficient may take, so that the step's sums
# of a few weighted fields stay finite for data of ordinary size
_COEF_LIMIT = 1e300


class SolverDivergenceError(RuntimeError):
    """Raised when a step produces non-finite values."""

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
                   field: str, *, frame: bool = False) -> np.ndarray:
    """func at levels lo..hi-1 in one call, shape (hi-lo, M1+1, M2+1);
    with ``frame``, on the frame nodes only (see ``sample_xyt``)."""
    t = np.arange(lo, hi) * mesh.tau
    return sample_xyt(func, mesh, t[:, None, None], field=field, frame=frame)


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
    (hs, hm, hscale), (ds, dm) = H_WEIGHTS, D2_WEIGHTS
    hy = np.array([hs, hm]) / hscale   # (s, m) of Hy
    dy = np.array([ds, dm]) / h2**2    # (s, m) of d2y
    a = np.column_stack([hy + c * dy, mu * dy, 0.5 * tau * hy])
    b = np.column_stack([c * (hy + c * dy), mu * hy, np.zeros(2)])
    # x weights of Hx A + d2x B: P at the neighbours, Q at the centre
    p = hs * a / hscale + ds * b / h1**2
    q = hm * a / hscale + dm * b / h1**2
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
    ``_block_levels``) sampled on the frame only, which the step refills
    once it runs past them; ``edges`` holds the sweeps' four boundary terms
    for the same levels (see ``_edge_terms``).  The x and y sweep factors,
    ``tau_h_phi`` (tau Hx Hy phi on the mesh), the fused pass's weights
    ``coef`` (see ``_rhs_coefficients``) and the memory kernel kappa
    (kappa_0 = lambda_1, kappa_j = lambda_j + lambda_{j+1}) live here too;
    ``leaf_weights`` is (kappa_{_LEAF-1}, ..., kappa_0, 1), the weights of
    the memory sum's leaf rows and its pending row.  ``c`` is mu * lambda_0.

    ``work`` holds the per-run work planes, shape (7, M1+1, M2+1), that a
    step overwrites: planes 4-6 the fields u^n, S_n and D = f^n + f^{n+1};
    planes 0-3 their weighted sums ``coef`` @ planes 4-6, after which plane
    0 receives the right-hand side, which the step's report reads after
    the sweeps; the finish then takes |u^{n+1}| into plane 1 and the
    squares of the right-hand side into plane 2.
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
    leaf_weights: np.ndarray = field(repr=False)
    work: np.ndarray = field(repr=False)
    boundary_rows: np.ndarray = field(repr=False)
    edges: tuple = field(default=(), repr=False)
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
    _check_scaling(problem.alpha, lam[0], mesh)
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
        leaf_weights=np.append(kappa[:_LEAF][::-1], 1.0),
        work=np.empty((7, *mesh.shape)),
        boundary_rows=np.empty((0, *mesh.shape)),
    )


def _check_scaling(alpha: float, lam0: float, mesh: Mesh) -> None:
    """Refuse a time step tau or grid step h whose scheme coefficients
    would leave the float range, naming the steps and the quantity.

    The coefficients of the step (``_rhs_coefficients``) and the sweeps
    (``trisolve.build_sweep_operator``) are products of tau, mu =
    tau**(alpha + 1) / 2, c = mu lambda_0, h**2 and 1/h**2; they are
    compared with ``_COEF_LIMIT`` by their logarithms, before any is formed.
    """
    tau = f"tau = final_time / N = {mesh.tau:.6g}"
    h1 = f"h1 = domain[0] / M1 = {mesh.h1:.6g}"
    h2 = f"h2 = domain[1] / M2 = {mesh.h2:.6g}"
    log_tau, log_h1, log_h2 = (math.log(v)
                               for v in (mesh.tau, mesh.h1, mesh.h2))
    log_mu = (alpha + 1.0) * log_tau - math.log(2.0)
    log_c = log_mu + math.log(lam0)
    terms = (
        ("h1**2", 2.0 * log_h1, (h1,)),
        ("1 / h1**2", -2.0 * log_h1, (h1,)),
        ("h2**2", 2.0 * log_h2, (h2,)),
        ("1 / h2**2", -2.0 * log_h2, (h2,)),
        ("tau", log_tau, (tau,)),
        ("mu = tau**(alpha + 1) / 2", log_mu, (tau,)),
        ("mu / h1**2", log_mu - 2.0 * log_h1, (tau, h1)),
        ("mu / h2**2", log_mu - 2.0 * log_h2, (tau, h2)),
        ("c**2 / h2**2", 2.0 * (log_c - log_h2), (tau, h2)),
        ("c**2 / (h1 h2)**2", 2.0 * (log_c - log_h1 - log_h2),
         (tau, h1, h2)),
    )
    for quantity, log_value, steps in terms:
        if log_value > math.log(_COEF_LIMIT):
            raise ValueError(
                f"{quantity} is about 10**{log_value / math.log(10.0):.0f} "
                f"for {', '.join(steps)}, over the limit {_COEF_LIMIT:g} of "
                "a scheme coefficient; change final_time, domain or the "
                "step counts"
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
    """S_n for the current level n, in the state's memory-sum plane: one
    product over history rows lo..n+1, the levels of n's own leaf (from
    lo) and, weighted 1, the pending far field stored in row n+1."""
    n = state.current_level
    lo = n - n % _LEAF
    rows = state.history[lo:n + 2].reshape(n - lo + 2, -1)
    out = state.work[5]
    np.matmul(state.leaf_weights[lo - n - 2:], rows, out=out.reshape(-1))
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


def _edge_terms(state: SolverState, rows: np.ndarray) -> tuple:
    """The sweeps' four boundary terms for every level of a block of
    boundary samples: the x sweep's sx.off * u* on rows 0 and -1, where u*
    = (Hy - c d2y) u^{n+1} is the y factor applied to the boundary trace,
    and the y sweep's sy.off * u^{n+1} on columns 0 and -1."""
    sx, sy = state.sweep_x, state.sweep_y
    terms = []
    for trace in (rows[:, 0], rows[:, -1]):
        star = sy.diag * trace[:, 1:-1] + sy.off * (trace[:, :-2]
                                                    + trace[:, 2:])
        terms.append(sx.off * star)
    terms += [sy.off * rows[:, 1:-1, 0], sy.off * rows[:, 1:-1, -1]]
    return tuple(terms)


def _boundary(state: SolverState, k: int) -> int:
    """Index of level k in the state's boundary block, which is sampled on
    the frame from level k on, with its edge terms, once k runs past it."""
    i = k - state.boundary_lo
    if not 0 <= i < len(state.boundary_rows):
        mesh = state.mesh
        hi = min(k + _block_levels(mesh), mesh.N + 1)
        rows = _sample_levels(state.problem.boundary, mesh, k, hi,
                              "boundary", frame=True)
        state.boundary_rows, state.edges = rows, _edge_terms(state, rows)
        state.boundary_lo, i = k, 0
    return i


def _step(state: SolverState,
          interior: Callable[..., np.ndarray]) -> SolverState:
    """Advance one level in place; ``interior(state, rhs, i)`` solves for
    the interior nodes of the next level from the right-hand side and row
    i of the state's boundary block (that level's samples and edge terms).
    The new level is written straight into its history row."""
    t0 = time.perf_counter_ns()
    mesh = state.mesh
    n = state.current_level
    if n >= mesh.N:
        raise ValueError(f"state already at the final level {mesh.N}")

    f_next = state.forcing(n + 1)
    i = _boundary(state, n + 1)
    rhs = _rhs_raw(state, f_next)
    # row n+1 held the pending far field, which the memory sum has read
    new, frame = state.history[n + 1], state.boundary_rows[i]
    new[1:-1, 1:-1] = interior(state, rhs, i)
    new[0], new[-1] = frame[0], frame[-1]
    new[1:-1, 0], new[1:-1, -1] = frame[1:-1, 0], frame[1:-1, -1]

    work = state.work
    mag = np.abs(new, out=work[1])
    if not math.isfinite(mag.max()):
        raise SolverDivergenceError(n + 1)
    _fold_far_field(state, n + 1)
    state.f_current = f_next
    state.current_level = n + 1
    # the squares go to a contiguous stretch of plane 2: no grid temporary,
    # and np.sum adds them in the order it takes on a fresh array
    rhs_int, cell = rhs[1:-1, 1:-1], mesh.h1 * mesh.h2
    squares = work[2].reshape(-1)[:rhs_int.size].reshape(rhs_int.shape)
    rhs_norm = float(np.sqrt(cell * np.sum(
        np.multiply(rhs_int, rhs_int, out=squares))))
    if math.isinf(rhs_norm):  # the squares overflowed: scale by the max
        top = np.abs(rhs_int).max()
        np.divide(rhs_int, top, out=squares)
        rhs_norm = float(top * np.sqrt(cell * np.sum(
            np.multiply(squares, squares, out=squares))))
    state.last_report = StepReport(
        level=n + 1,
        wall_time_ns=time.perf_counter_ns() - t0,
        rhs_norm=rhs_norm,
        solution_inf_norm=float(mag[1:-1, 1:-1].max()),
    )
    return state


def _sweeps(state: SolverState, rhs: np.ndarray, i: int) -> np.ndarray:
    """Interior of the next level by the x sweep, then the y sweep, with
    the boundary terms of row i of the state's block."""
    sx, sy = state.sweep_x, state.sweep_y
    x_lo, x_hi, y_lo, y_hi = state.edges

    # F order: the x sweep solves its columns in place, without a copy
    r = np.array(rhs[1:-1, 1:-1], order="F")
    r[0, :] -= x_lo[i]
    r[-1, :] -= x_hi[i]
    ustar = sx.solve(r)

    ustar[:, 0] -= y_lo[i]
    ustar[:, -1] -= y_hi[i]
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
    # data near the float range may overflow in a step; the finish's guard
    # and its scaled rhs norm decide what that means, so the warning is noise
    with np.errstate(over="ignore"):
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
