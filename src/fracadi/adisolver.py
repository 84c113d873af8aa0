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
(``_step``) takes the interior solve as an argument: the sweeps here, or
the dense LU of the unsplit system in ``verify.solve_direct``, the
small-grid oracle that cross-checks the splitting.

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
at the top up to rounding; the pass writes only into the run's work
planes (see ``StepPlan``).

The step keeps the trajectory u^0..u^n in one history array and forms the
memory term mu * L S_n, where S_n = sum_{m<=n} kappa_{n-m} u^m with kappa_0
= lambda_1 and kappa_j = lambda_j + lambda_{j+1}; L is linear and fixed in
time, so it is applied once per step to the sum.  S_n is the blocked causal
convolution of ``fracweights``, run online and exact up to summation order:
row n+1 of the history holds the pending far field of S_n until the step
overwrites it with u^{n+1} (see ``SolverState``), and no buffer beyond the
history grows with N.

States are advanced in place, and a solve is deterministic: identical
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

# Bytes of one block of boundary, exact-solution or caputo-forcing samples:
# a sample call covers as many levels as fit, and at least one
_BLOCK_BYTES = 2**20
# Largest magnitude a scheme coefficient may take, so that the step's sums
# of a few weighted fields stay finite for data of ordinary size
_COEF_LIMIT = 1e300


class SolverDivergenceError(RuntimeError):
    """Raised when the new level of a step left the float range; the
    message names the level and the step's largest input."""

    def __init__(self, level: int, message: str) -> None:
        self.level = level
        super().__init__(message)


@dataclass(frozen=True)
class StepReport:
    level: int
    wall_time_ns: int
    rhs_norm: float
    solution_inf_norm: float


def _block_levels(mesh: Mesh) -> int:
    """Levels per block of boundary, exact-solution or caputo-forcing
    samples."""
    return max(1, _BLOCK_BYTES // (8 * (mesh.M1 + 1) * (mesh.M2 + 1)))


def _sample_levels(func: Callable, mesh: Mesh, lo: int, hi: int,
                   field: str, *, frame: bool = False) -> np.ndarray:
    """func at levels lo..hi-1 in one call, shape (hi-lo, M1+1, M2+1);
    with ``frame``, on the F frame nodes only, shape (hi-lo, F) (see
    ``sample_xyt``)."""
    t = np.arange(lo, hi) * mesh.tau
    return sample_xyt(func, mesh, t[:, None, None], field=field, frame=frame)


def _wsgd_forcing_levels(problem: ProblemSpec, mesh: Mesh) -> np.ndarray:
    """Tabulate f^k = I^alpha g(t_k) for all levels by the WSGD quadrature,
    sampling g a block of levels per call."""
    g = np.empty((mesh.N + 1, *mesh.shape))
    block = _block_levels(mesh)
    for lo in range(0, mesh.N + 1, block):
        hi = min(lo + block, mesh.N + 1)
        g[lo:hi] = _sample_levels(problem.caputo_forcing, mesh, lo, hi,
                                  "caputo_forcing")
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


@dataclass(frozen=True)
class StepPlan:
    """What a level reads but never changes, built once per run by
    ``_step_plan``, so that a level makes only its arithmetic calls.

    The run's constants: ``coef``, the fused pass's 4x3 weights (see
    ``_rhs_coefficients``); the memory kernel ``kappa`` (kappa_0 = lambda_1,
    kappa_j = lambda_j + lambda_{j+1}) and ``leaf_weights`` = (kappa_{_LEAF-1},
    ..., kappa_0, 1), the weights of the memory sum's leaf rows and its
    pending row; the x and y sweep factors; ``tau_h_phi``, tau Hx Hy phi on
    the mesh; and ``cell`` = h1 h2.

    ``work`` holds the seven work planes, shape (7, M1+1, M2+1), that a step
    overwrites, and the other fields are views of them, of the history and
    of ``tau_h_phi``.  Planes 4-6 are the fused pass's fields (u^n, S_n, D =
    f^n + f^{n+1}): ``fields`` flat, ``u_n`` and ``data`` planes 4 and 6 and
    ``memory`` plane 5 flat.  Planes 0-3 take ``weighted`` = ``coef @
    fields``, flat; ``centre`` is its rows 2-3 (the centre terms of P and Q)
    and ``below`` and ``above`` its rows 0-1 one node before and after, the
    y neighbours that ``centre`` adds.  The x pass writes ``rhs_mid``, rows
    1..M1-1 of plane 0, from ``p_below`` and ``p_above`` (plane 2 one row
    before and after), ``q_mid`` (plane 3) and ``phi_mid`` (of
    ``tau_h_phi``); ``rhs`` is plane 0, the right-hand side, and ``rhs_int``
    its interior, which the step's report reads after the sweeps.  The
    finish takes the squares of ``rhs_int`` into ``squares``, a contiguous
    stretch of plane 2, so that their sum is taken in the order it takes on
    a fresh array.  ``levels`` is the history with one flat row per level.
    """

    coef: np.ndarray
    kappa: np.ndarray
    leaf_weights: np.ndarray
    sweep_x: TridiagOperator
    sweep_y: TridiagOperator
    tau_h_phi: np.ndarray
    cell: float
    work: np.ndarray
    fields: np.ndarray
    u_n: np.ndarray
    memory: np.ndarray
    data: np.ndarray
    weighted: np.ndarray
    centre: np.ndarray
    below: np.ndarray
    above: np.ndarray
    p_below: np.ndarray
    p_above: np.ndarray
    q_mid: np.ndarray
    phi_mid: np.ndarray
    rhs: np.ndarray
    rhs_mid: np.ndarray
    rhs_int: np.ndarray
    squares: np.ndarray
    levels: np.ndarray


def _step_plan(problem: ProblemSpec, mesh: Mesh, lam: np.ndarray,
               history: np.ndarray) -> StepPlan:
    """The run's ``StepPlan``, from its scheme weights lam and history."""
    mu = mesh.tau ** (problem.alpha + 1.0) / 2.0
    c = mu * lam[0]
    kappa = lam[:-1] + lam[1:]
    kappa[0] = lam[1]
    # bench/tracer.py labels a sample taken directly in init_state as psi,
    # and phi and psi can be one function, so phi is sampled here
    tau_h_phi = _avgx(_avgy(sample_xy(problem.phi, mesh, field="phi")))
    tau_h_phi *= mesh.tau
    work = np.empty((7, *mesh.shape))
    planes = work.reshape(len(work), -1)
    weighted = planes[:4]
    rhs, _, p, q = work[:4]
    rhs_int = rhs[1:-1, 1:-1]
    return StepPlan(
        coef=_rhs_coefficients(c, mu, mesh.tau, mesh.h1, mesh.h2),
        kappa=kappa,
        leaf_weights=np.append(kappa[:_LEAF][::-1], 1.0),
        sweep_x=build_sweep_operator(mesh.M1 - 1, mesh.h1, c),
        sweep_y=build_sweep_operator(mesh.M2 - 1, mesh.h2, c),
        tau_h_phi=tau_h_phi,
        cell=mesh.h1 * mesh.h2,
        work=work,
        fields=planes[4:],
        u_n=work[4],
        memory=planes[5],
        data=work[6],
        weighted=weighted,
        centre=weighted[2:, 1:-1],
        below=weighted[:2, :-2],
        above=weighted[:2, 2:],
        p_below=p[:-2],
        p_above=p[2:],
        q_mid=q[1:-1],
        phi_mid=tau_h_phi[1:-1],
        rhs=rhs,
        rhs_mid=rhs[1:-1],
        rhs_int=rhs_int,
        squares=planes[2, :rhs_int.size].reshape(rhs_int.shape),
        levels=history.reshape(len(history), -1),
    )


@dataclass
class SolverState:
    """One run: its problem and mesh, the trajectory, the problem data a
    step reads, and ``plan``, the ``StepPlan`` every step reuses.

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
    ``_block_levels``) of b levels on the F nodes of ``mesh.frame``, shape
    (b, F), which the step refills once it runs past them; ``edges`` holds
    the sweeps' four boundary terms for the same levels (see
    ``_edge_terms``).
    """

    problem: ProblemSpec
    mesh: Mesh
    history: np.ndarray
    forcing: Callable[[int], np.ndarray] = field(repr=False)
    f_current: np.ndarray = field(repr=False)
    plan: StepPlan = field(repr=False)
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
    forcing = _forcing_source(problem, mesh)
    f_current = forcing(0)
    history = np.zeros((mesh.N + 1, *mesh.shape))
    return SolverState(
        problem=problem,
        mesh=mesh,
        history=history,
        forcing=forcing,
        f_current=f_current,
        plan=_step_plan(problem, mesh, lam, history),
        boundary_rows=np.empty((0, 0)),
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
    """S_n for the current level n, in the plan's memory-sum plane: one
    product over history rows lo..n+1, the levels of n's own leaf (from
    lo) and, weighted 1, the pending far field stored in row n+1."""
    n = state.current_level
    lo = n - n % _LEAF
    plan = state.plan
    np.matmul(plan.leaf_weights[lo - n - 2:], plan.levels[lo:n + 2],
              out=plan.memory)
    return plan.work[5]


def _fold_far_field(state: SolverState, s: int) -> None:
    """Once level s is stored, fold the block it completes (if any) into
    the pending rows of S_n for the levels n after it."""
    b = completed_block(s)
    flat = state.plan.levels
    # targets stop at S_{N-1}, stored in the last row
    t = min(b, len(flat) - s - 2)
    if t <= 0:
        return
    fold_block(state.plan.kappa, flat[s + 1 - b:s + 1], flat[s + 2:s + 2 + t])


def _rhs_raw(state: SolverState, f_next: np.ndarray) -> np.ndarray:
    """Right-hand side of the step from the state's level, given f at the
    level after it, by the fused pass of the module docstring; written
    into work plane 0.  Only its interior nodes are read: the frame holds
    what the pass leaves there.
    """
    plan = state.plan
    np.copyto(plan.u_n, state.history[state.current_level])
    _memory_sum(state)
    np.add(state.f_current, f_next, out=plan.data)

    # rows (P_s, Q_s, P_m, Q_m), then P and Q in rows 2 and 3: each centre
    # term plus its neighbours along the flat view
    np.matmul(plan.coef, plan.fields, out=plan.weighted)
    np.add(plan.centre, plan.below, out=plan.centre)
    np.add(plan.centre, plan.above, out=plan.centre)

    # the x pass: P_- + P_+ + Q, plus tau Hx Hy phi
    inner = plan.rhs_mid
    np.add(plan.p_below, plan.p_above, out=inner)
    np.add(inner, plan.q_mid, out=inner)
    np.add(inner, plan.phi_mid, out=inner)
    return plan.rhs


def _edge_terms(state: SolverState, rows: np.ndarray) -> tuple:
    """The sweeps' four boundary terms for every level of a block of frame
    samples, shape (b, F): the x sweep's sx.off * u* on rows 0 and -1,
    where u* = (Hy - c d2y) u^{n+1} is the y factor applied to the boundary
    trace (the frame's first two stretches of M2+1 nodes), and the y
    sweep's sy.off * u^{n+1} on columns 0 and -1 (its last two stretches of
    M1-1 nodes)."""
    sx, sy = state.plan.sweep_x, state.plan.sweep_y
    b, cols = len(rows), state.mesh.M2 + 1
    traces = rows[:, :2 * cols].reshape(b, 2, cols)
    star = sy.diag * traces[..., 1:-1] + sy.off * (traces[..., :-2]
                                                   + traces[..., 2:])
    sides = rows[:, 2 * cols:].reshape(b, 2, -1)
    return (*np.swapaxes(sx.off * star, 0, 1),
            *np.swapaxes(sy.off * sides, 0, 1))


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


# data near the float range may overflow in a step, and overflowed terms
# may cancel to NaN; the finish's guard and its scaled rhs norm decide what
# that means, so the warnings are noise
@np.errstate(over="ignore", invalid="ignore")
def _step(state: SolverState,
          interior: Callable[..., np.ndarray]) -> SolverState:
    """Advance one level in place; ``interior(state, rhs_int, i)`` solves
    for the interior nodes of the next level from the right-hand side's
    interior and row i of the state's boundary block (that level's samples
    and edge terms).  The new level is written straight into its history
    row: the block row on the frame, then the interior."""
    t0 = time.perf_counter_ns()
    mesh = state.mesh
    n = state.current_level
    if n >= mesh.N:
        raise ValueError(f"state already at the final level {mesh.N}")

    f_next = state.forcing(n + 1)
    i = _boundary(state, n + 1)
    _rhs_raw(state, f_next)
    # row n+1 held the pending far field, which the memory sum has read;
    # the frame and the interior overwrite all of it
    plan = state.plan
    plan.levels[n + 1][mesh.frame[2]] = state.boundary_rows[i]
    rhs_int = plan.rhs_int
    sol = interior(state, rhs_int, i)
    # the frame holds boundary samples, which sampling has checked are
    # finite, so the interior's max |u| is both the overflow guard (a NaN
    # fails it) and the norm
    peak = float(max(abs(sol.max()), abs(sol.min())))
    state.history[n + 1, 1:-1, 1:-1] = sol
    if not math.isfinite(peak):
        raise _overflow_error(state, n + 1, f_next, i)
    _fold_far_field(state, n + 1)
    state.f_current = f_next
    state.current_level = n + 1
    squares, cell = plan.squares, plan.cell
    rhs_norm = math.sqrt(cell * np.multiply(rhs_int, rhs_int,
                                            out=squares).sum())
    if math.isinf(rhs_norm):  # the squares overflowed: scale by the max
        top = np.abs(rhs_int).max()
        np.divide(rhs_int, top, out=squares)
        rhs_norm = float(top * math.sqrt(cell * np.multiply(
            squares, squares, out=squares).sum()))
    state.last_report = StepReport(
        level=n + 1,
        wall_time_ns=time.perf_counter_ns() - t0,
        rhs_norm=rhs_norm,
        solution_inf_norm=peak,
    )
    return state


def _overflow_error(state: SolverState, level: int, f_next: np.ndarray,
                    i: int) -> SolverDivergenceError:
    """The error of a step whose new level left the float range: it names
    the level, its t and the largest of the data the step took in, f at
    that level, its boundary row (row i of the block) or tau H phi."""
    t = f"t = {level * state.mesh.tau:.6g}"
    data = ((f"the forcing f at {t}", f_next),
            (f"the boundary at {t}", state.boundary_rows[i]),
            ("tau H phi", state.plan.tau_h_phi))
    peak, name = max((float(np.abs(v).max()), name) for name, v in data)
    return SolverDivergenceError(
        level, f"the step to level {level} ({t}) overflowed the float "
        f"range; its largest input is {name}, max |value| = {peak:.6g}")


def _sweeps(state: SolverState, rhs_int: np.ndarray, i: int) -> np.ndarray:
    """Interior of the next level by the x sweep, then the y sweep, from
    the right-hand side's interior and the boundary terms of row i of the
    state's block."""
    sx, sy = state.plan.sweep_x, state.plan.sweep_y
    x_lo, x_hi, y_lo, y_hi = state.edges

    # F order: the x sweep solves its columns in place, without a copy
    r = np.array(rhs_int, order="F")
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
    for lo in range(1, mesh.N + 1, block):
        hi = min(lo + block, mesh.N + 1)
        for _ in range(lo, hi):
            stepper(state)
            reports.append(state.last_report)
        if problem.exact is not None:
            err = _sample_levels(problem.exact, mesh, lo, hi,
                                 "exact")[:, 1:-1, 1:-1]
            # finite levels near the float range may differ by more than
            # it holds: that error is inf, not a warning
            with np.errstate(over="ignore"):
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
