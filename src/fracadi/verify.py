"""Self-verification suite: every analytic property the scheme relies on,
checked numerically with explicit tolerances.

Each check returns a CheckResult and can be run standalone with custom
parameters; ``run_checks`` bundles them into a quick smoke level and a full
level whose parameters match the package's acceptance gates.  The frozen
reference errors below were produced by the convergence ladders of this
scheme on the built-in benchmark (five significant digits); ``fracadi
study`` regenerates them (the commands are in README.md).

The slow references the checks compare against live here, not in the
solver: the GridFn operators and norms of the energy analysis (``delta2_x``
through ``norm_grad_xy``), the split and expanded products of the implicit
operator, and ``solve_direct``, a solve by the dense LU of the unsplit
system for grids up to ``_DENSE_CAP`` cells per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import lu_factor, lu_solve, toeplitz

from .adisolver import (
    SolveResult,
    SolverState,
    _run,
    _step,
    adi_step,
    init_state,
    solve,
)
from .fracweights import grunwald_weights, scheme_weights, wsgd_integral
from .meshops import (
    GridFn,
    Mesh,
    _avgx,
    _avgy,
    _d2x,
    _d2y,
    _zero_frame,
)
from .problems import (
    ProblemSpec,
    _zero_xy,
    make_example1,
    make_random_problem,
    sample_xy,
)
from .studies import StudyConfig, run_study

# Reference E_inf values for the built-in benchmark, frozen at five
# significant digits.  Temporal ladder: N = 5..80 at fixed 16x16 cells.
# Spatial ladder: M = 4..16 cells per axis at fixed N = 10000, alpha = 0.1.
TEMPORAL_LADDER = (5, 10, 20, 40, 80)
TEMPORAL_M = 16
TEMPORAL_REFERENCE = {
    0.25: (6.9507e-3, 1.7717e-3, 4.4606e-4, 1.1292e-4, 2.8847e-5),
    0.50: (1.0421e-2, 2.6014e-3, 6.5195e-4, 1.6294e-4, 4.1060e-5),
    0.75: (1.7341e-2, 4.3653e-3, 1.0899e-3, 2.7235e-4, 6.8480e-5),
}
SPATIAL_LADDER = (4, 8, 16)
SPATIAL_N = 10000
SPATIAL_ALPHA = 0.1
SPATIAL_REFERENCE = (5.0651e-4, 3.1111e-5, 1.9371e-6)

# solve_direct refuses grids with more cells than this per axis
_DENSE_CAP = 32


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.detail}"


# ---------------------------------------------------------------------------

def check_weights_oracle(
    alphas: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9),
    kmax: int = 1000,
    tol_floor: float = 1e-12,
) -> CheckResult:
    """Recurrence weights against the log-gamma closed form, plus positivity.

    The closed form exp(lgamma(k+a) - lgamma(a) - lgamma(k+1)) loses about
    eps * |lgamma| of relative accuracy because the individual terms are
    huge while their sum is small, so the pointwise tolerance grows with
    the log-gamma magnitudes; any real defect in the recurrence would blow
    past it by many orders.
    """
    # loaded here, on first use: nothing else in the package needs it
    from scipy.special import gammaln

    eps = np.finfo(float).eps
    worst_ratio = 0.0
    min_lam = math.inf
    for a in alphas:
        w = grunwald_weights(a, kmax)
        k = np.arange(kmax + 1)
        terms = (gammaln(k + a), np.full(kmax + 1, gammaln(a)),
                 gammaln(k + 1.0))
        ref = np.exp(terms[0] - terms[1] - terms[2])
        bound = np.maximum(tol_floor,
                           8.0 * eps * sum(np.abs(t) for t in terms))
        worst_ratio = max(worst_ratio,
                          float(np.max(np.abs(w - ref) / ref / bound)))
        min_lam = min(min_lam, float(np.min(scheme_weights(a, kmax))))
    passed = worst_ratio <= 1.0 and min_lam > 0.0
    return CheckResult(
        "weights-oracle", passed,
        f"max err/tolerance {worst_ratio:.3f} (<= 1), min lambda {min_lam:.3e}",
    )


def check_lambda_form(
    alphas: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    vectors: int = 10000,
    max_len: int = 50,
    seed: int = 12345,
    form_floor: float = -1e-12,
    eig_len: int = 30,
    eig_floor: float = -1e-10,
) -> CheckResult:
    """Nonnegativity of the lambda convolution quadratic form.

    For the lower-triangular Toeplitz matrix T with T[i, j] = lambda_{i-j},
    the form v.(T v) must be nonnegative for every real v; this is the
    discrete coercivity that drives the stability proof.  The symmetrized
    part's smallest eigenvalue is checked as well.
    """
    min_ratio = math.inf
    min_eig = math.inf
    for a in alphas:
        lam = scheme_weights(a, max_len)
        tmat = toeplitz(lam, np.r_[lam[0], np.zeros(max_len)])
        rng = np.random.default_rng(seed)
        for _ in range(vectors):
            size = int(rng.integers(1, max_len + 2))
            v = rng.standard_normal(size)
            form = float(v @ (tmat[:size, :size] @ v))
            min_ratio = min(min_ratio, form / float(v @ v))
        tsym = 0.5 * (tmat[: eig_len + 1, : eig_len + 1]
                      + tmat[: eig_len + 1, : eig_len + 1].T)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(tsym)[0]))
    passed = min_ratio >= form_floor and min_eig >= eig_floor
    return CheckResult(
        "memory-form-positivity", passed,
        f"min form ratio {min_ratio:.3e} (floor {form_floor:.0e}), "
        f"min sym eig {min_eig:.3e} (floor {eig_floor:.0e})",
    )


def check_wsgd_order(
    alphas: Sequence[float] = (0.25, 0.5, 0.75),
    ns: Sequence[int] = (40, 80, 160),
    order_window: tuple[float, float] = (1.9, 2.1),
    abs_tol: float = 1e-3,
) -> CheckResult:
    """Second-order accuracy of the discrete fractional integral on f = t**3."""
    lo, hi = order_window
    passed = True
    details = []
    for a in alphas:
        scale = math.gamma(4.0) / math.gamma(4.0 + a)
        errs = []
        for n in ns:
            tau = 1.0 / n
            t = np.arange(n + 1) * tau
            approx = wsgd_integral(t**3, a, tau)
            errs.append(float(np.max(np.abs(approx - scale * t ** (3.0 + a)))))
        orders = [math.log2(errs[i - 1] / errs[i]) for i in range(1, len(errs))]
        ok = all(lo <= o <= hi for o in orders) and errs[-1] <= abs_tol
        passed = passed and ok
        details.append(f"a={a}: orders {['%.3f' % o for o in orders]}, "
                       f"err {errs[-1]:.2e}")
    return CheckResult("wsgd-order", passed, "; ".join(details))


# ---------------------------------------------------------------------------

_IDENTITY_MESHES = (
    Mesh(1.0, 1.0, 8, 8, 1.0, 1),
    Mesh(1.5, 1.0, 12, 10, 1.0, 1),
    Mesh(2.0, 3.0, 9, 13, 1.0, 1),
)


def _random_zero_boundary(mesh: Mesh, rng: np.random.Generator) -> GridFn:
    vals = np.zeros(mesh.shape)
    vals[1:-1, 1:-1] = rng.standard_normal((mesh.M1 - 1, mesh.M2 - 1))
    return GridFn(mesh, vals)


# ---------------------------------------------------------------------------
# GridFn operators of the energy analysis; frames of second differences are
# zeroed, and inner products and norms sum over interior nodes only

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
    smooth fields.  The solver never forms it: its step moves Hx past
    delta2y and Hy past delta2x (see ``adisolver._rhs_raw``), so this is the
    oracle the step's right-hand side is checked against.
    """
    vals, mesh = u.values, u.mesh
    out = _avgy(_d2x(vals, mesh.h1))
    out += _avgx(_d2y(vals, mesh.h2))
    return GridFn(mesh, _zero_frame(out))


def delta2x_delta2y(u: GridFn) -> GridFn:
    """Mixed fourth difference delta2x * delta2y; frame zeroed."""
    return GridFn(u.mesh, _zero_frame(_d2x(_d2y(u.values, u.mesh.h2), u.mesh.h1)))


def inner(u: GridFn, v: GridFn) -> float:
    """Discrete L2 inner product h1*h2 * sum over interior nodes."""
    if u.mesh != v.mesh:
        raise ValueError("grid functions live on different meshes")
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


def split_product_apply(u: GridFn, c: float, sign: int = -1) -> GridFn:
    """(Hx + sign*c*d2x)(Hy + sign*c*d2y) u, frame zeroed."""
    mesh = u.mesh
    v = _avgy(u.values) + sign * c * _d2y(u.values, mesh.h2)
    out = _avgx(v) + sign * c * _d2x(v, mesh.h1)
    return GridFn(mesh, _zero_frame(out))


def unsplit_product_apply(u: GridFn, c: float, sign: int = -1) -> GridFn:
    """H u + sign*c*L u + c^2 d2x d2y u, frame zeroed.

    Expanding the split product shows the two forms agree identically; in
    floating point they differ only by rounding.
    """
    out = (
        compact_h(u).values
        + sign * c * lambda_op(u).values
        + c * c * delta2x_delta2y(u).values
    )
    return GridFn(u.mesh, _zero_frame(out))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def check_operator_identities(
    count: int = 100,
    seed: int = 777,
    rel_tol: float = 1e-12,
) -> CheckResult:
    """Summation-by-parts and positivity identities on random fields.

    For zero-boundary u, v:
      <d2x u, v> = -sum of x-flux products      (and the y analogue)
      ||dx u||^2 <= (4 / h1^2) ||u||^2
      <H u, u>  >= ||u||^2 / 3
      <d2x d2y u, u> = ||dx dy u||^2
      <L u, u>  <= 0
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for i in range(count):
        mesh = _IDENTITY_MESHES[i % len(_IDENTITY_MESHES)]
        u = _random_zero_boundary(mesh, rng)
        v = _random_zero_boundary(mesh, rng)
        hh = mesh.h1 * mesh.h2

        lhs = inner(delta2_x(u), v)
        rhs = -hh * float(np.sum(grad_x(u)[:, 1:-1] * grad_x(v)[:, 1:-1]))
        worst = max(worst, _rel(lhs, rhs))

        lhs = inner(delta2_y(u), v)
        rhs = -hh * float(np.sum(grad_y(u)[1:-1, :] * grad_y(v)[1:-1, :]))
        worst = max(worst, _rel(lhs, rhs))

        nsq = norm_l2(u) ** 2
        gx = hh * float(np.sum(grad_x(u)[:, 1:-1] ** 2))
        ok = ok and gx <= (4.0 / mesh.h1**2) * nsq * (1.0 + 1e-12)
        ok = ok and inner(compact_h(u), u) >= nsq / 3.0 * (1.0 - 1e-12)

        lhs = inner(delta2x_delta2y(u), u)
        rhs = norm_grad_xy(u) ** 2
        worst = max(worst, _rel(lhs, rhs))

        ok = ok and inner(lambda_op(u), u) <= rel_tol * nsq

    passed = ok and worst <= rel_tol
    return CheckResult(
        "operator-identities", passed,
        f"worst rel dev {worst:.3e} (tol {rel_tol:.0e}), bounds {'ok' if ok else 'violated'}",
    )


def check_factorization(
    count: int = 50,
    seed: int = 778,
    tol: float = 1e-13,
) -> CheckResult:
    """Split product of 1-D factors equals its expanded form, both signs.

    Exercised on fields with nonzero boundary values too, since the solver
    applies the expanded form to fields carrying Dirichlet data.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(count):
        mesh = _IDENTITY_MESHES[i % len(_IDENTITY_MESHES)]
        if i % 2 == 0:
            u = _random_zero_boundary(mesh, rng)
        else:
            u = GridFn(mesh, rng.standard_normal(mesh.shape))
        for c in (0.0, mesh.h1**2 / 12.0, 0.3):
            for sign in (-1, 1):
                a = split_product_apply(u, c, sign).values
                b = unsplit_product_apply(u, c, sign).values
                scale = max(1.0, float(np.max(np.abs(a))))
                worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    return CheckResult(
        "factorization-identity", worst <= tol,
        f"worst rel dev {worst:.3e} (tol {tol:.0e})",
    )


# ---------------------------------------------------------------------------

def equivalence_problem(alpha: float) -> ProblemSpec:
    """A problem with nonzero boundary data, drift and forcing, no exact
    solution; exists to make the splitting work hard."""

    def boundary(x, y, t):
        return np.sin(x + 0.3 * y) * np.sin(1.7 * t) * (1.0 + 0.2 * np.cos(y))

    def phi(x, y):
        return np.cos(2.0 * x) * np.sin(y + 0.1)

    def forcing(x, y, t):
        return np.cos(x - 0.5 * y + t) * (0.4 + 0.3 * t)

    return ProblemSpec(
        name="equivalence-probe",
        alpha=alpha,
        domain=(1.3, 1.0),
        T=0.8,
        phi=phi,
        psi=_zero_xy,
        boundary=boundary,
        forcing_f=forcing,
        psi_laplacian=_zero_xy,
    )


def _dense_1d(m: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    # compact average (identity on boundary rows) and second difference
    avg = np.eye(m)
    d2 = np.zeros((m, m))
    for i in range(1, m - 1):
        avg[i, i - 1:i + 2] = (1.0 / 12.0, 10.0 / 12.0, 1.0 / 12.0)
        d2[i, i - 1:i + 2] = np.array((1.0, -2.0, 1.0)) / h**2
    return avg, d2


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
        interior_idx = np.arange(m1 * m2).reshape(m1, m2)[1:-1, 1:-1].ravel()
        rows = full[interior_idx]
        self.lu = lu_factor(rows[:, interior_idx])
        self.coupling = rows[:, mesh.frame[2]]

    def interior(self, state: SolverState, rhs_int: np.ndarray,
                 i: int) -> np.ndarray:
        """Interior of the next level, the ``interior`` of ``_step``, from
        the right-hand side's interior: the boundary samples are row i of
        the state's block, in the order of ``mesh.frame``."""
        mesh = state.mesh
        b = rhs_int.ravel() - self.coupling @ state.boundary_rows[i]
        return lu_solve(self.lu, b).reshape(mesh.M1 - 1, mesh.M2 - 1)


def solve_direct(problem: ProblemSpec, mesh: Mesh) -> SolveResult:
    """``solve`` with the dense LU of the unsplit system in place of the
    sweeps: the oracle the splitting is checked against.

    The LU is built once per call; each level goes through the solver's own
    step skeleton, so only the interior solve differs.  Refuses grids with
    more than ``_DENSE_CAP`` cells per axis before any work.
    """
    if max(mesh.M1, mesh.M2) > _DENSE_CAP:
        raise ValueError(
            f"grid {mesh.M1}x{mesh.M2} exceeds dense_cap={_DENSE_CAP}; "
            "the direct path is a small-grid reference only"
        )
    state = init_state(problem, mesh)
    # c = mu lambda_0, formed here rather than read from the solver's plan
    mu = mesh.tau ** (problem.alpha + 1.0) / 2.0
    oracle = _DenseOracle(mesh, mu * scheme_weights(problem.alpha, 0)[0])
    return _run(state, lambda s: _step(s, oracle.interior))


def check_adi_direct(
    alphas: Sequence[float] = (0.1, 0.5, 0.9),
    grids: Sequence[tuple[int, int]] = ((6, 6), (8, 10), (12, 12)),
    ns: Sequence[int] = (4, 8),
    tol: float = 1e-11,
) -> CheckResult:
    """Split sweeps against the dense unsplit solve, level by level."""
    worst = 0.0
    for a in alphas:
        problem = equivalence_problem(a)
        for (m1, m2) in grids:
            for n in ns:
                mesh = Mesh(problem.L1, problem.L2, m1, m2, problem.T, n)
                r_adi = solve(problem, mesh)
                r_dir = solve_direct(problem, mesh)
                diff = float(np.max(np.abs(
                    r_adi.final.values - r_dir.final.values
                )))
                worst = max(worst, diff)
    return CheckResult(
        "splitting-equivalence", worst <= tol,
        f"max |adi - direct| {worst:.3e} (tol {tol:.0e})",
    )


def check_stability(
    seeds: Iterable[int] = range(20),
    m: int = 10,
    n: int = 64,
    data_factor: float = 10.0,
) -> CheckResult:
    """Solution norms against the a-priori energy envelope.

    The envelope is exp(6T) * (12 ||u0||^2 + 25 tau sum_k ||L u0 + H phi
    + H f^{k+1/2}||^2) with f^{k+1/2} taken as the average of adjacent
    levels; on top of that the norm must stay below ``data_factor`` times
    ||phi|| + max_k ||f^k||.
    """
    worst_env = 0.0
    worst_data = 0.0
    for seed in seeds:
        problem = make_random_problem(seed)
        mesh = Mesh(1.0, 1.0, m, m, 1.0, n)
        state = init_state(problem, mesh)
        hh = mesh.h1 * mesh.h2

        def l2(vals):
            v = vals[1:-1, 1:-1]
            return math.sqrt(hh * float(np.sum(v * v)))

        phi = sample_xy(problem.phi, mesh)
        h_phi = _avgx(_avgy(phi))
        hf = [_avgx(_avgy(state.forcing(k))) for k in range(n + 1)]
        data_norm = l2(phi)
        data_norm += max(l2(state.forcing(k)) for k in range(n + 1))

        env_sum = 0.0
        growth = math.exp(6.0 * mesh.T)
        for k in range(n):
            term = h_phi + 0.5 * (hf[k] + hf[k + 1])
            env_sum += l2(term) ** 2
            adi_step(state)
            un = l2(state.u_current.values)
            bound = math.sqrt(growth * 25.0 * mesh.tau * env_sum)
            worst_env = max(worst_env, un / bound if bound > 0 else math.inf)
            worst_data = max(worst_data, un / data_norm)
    passed = worst_env <= 1.0 + 1e-9 and worst_data <= data_factor
    return CheckResult(
        "stability-envelope", passed,
        f"max norm/envelope {worst_env:.3f} (<= 1), "
        f"max norm/data {worst_data:.3f} (<= {data_factor:g})",
    )


def check_manufactured(
    alphas: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    samples: int = 20,
    panels: int = 2500,
    tol: float = 1e-6,
) -> CheckResult:
    """Residual of the built-in exact solution in the integral equation."""
    from .problems import verify_manufactured

    worst = 0.0
    for i, a in enumerate(alphas):
        rep = verify_manufactured(make_example1(a), samples,
                                  panels=panels, seed=100 + i)
        worst = max(worst, rep.max_residual)
    return CheckResult(
        "manufactured-residual", worst <= tol,
        f"max residual {worst:.3e} (tol {tol:.0e})",
    )


# ---------------------------------------------------------------------------

def _ladder_check(name, alphas, axis, ladder, fixed, references, rel_tol,
                  rate_window) -> CheckResult:
    """Study ladder errors against ``references[alpha]``, plus rates."""
    cfg = StudyConfig(alphas=tuple(alphas), axis=axis, ladder=tuple(ladder),
                      fixed=fixed, emit=())
    per_alpha: dict[float, list] = {}
    for row in run_study(cfg).rows:
        per_alpha.setdefault(row.alpha, []).append(row)
    lo, hi = rate_window
    worst_rel = 0.0
    rates_ok = True
    for a, rows in per_alpha.items():
        for row, r in zip(rows, references[a]):
            worst_rel = max(worst_rel, abs(row.e_inf - r) / r)
        rates_ok = rates_ok and all(lo <= row.rate <= hi for row in rows[1:])
    passed = worst_rel <= rel_tol and rates_ok
    return CheckResult(
        name, passed,
        f"worst rel dev {worst_rel:.3e} (tol {rel_tol:g}), "
        f"rates {'in' if rates_ok else 'outside'} [{lo}, {hi}]",
    )


def check_temporal_reference(
    alphas: Sequence[float] = (0.25, 0.5, 0.75),
    ladder: Sequence[int] = TEMPORAL_LADDER,
    m: int = TEMPORAL_M,
    rel_tol: float = 0.01,
    rate_window: tuple[float, float] = (1.93, 2.07),
) -> CheckResult:
    """Temporal ladder errors against the frozen references, plus rates."""
    return _ladder_check("temporal-convergence", alphas, "temporal", ladder,
                         m, TEMPORAL_REFERENCE, rel_tol, rate_window)


def check_spatial_reference(
    ladder: Sequence[int] = SPATIAL_LADDER,
    n: int = SPATIAL_N,
    rel_tol: float = 0.02,
    rate_window: tuple[float, float] = (3.9, 4.1),
) -> CheckResult:
    """Spatial ladder errors against the frozen references, plus rates."""
    return _ladder_check("spatial-convergence", (SPATIAL_ALPHA,), "spatial",
                         ladder, n, {SPATIAL_ALPHA: SPATIAL_REFERENCE},
                         rel_tol, rate_window)


# ---------------------------------------------------------------------------

# every check in suite order, with the arguments the quick suite trims; the
# full suite runs each check at its defaults, the acceptance parameters
_SUITE = (
    (check_weights_oracle, {}),
    (check_lambda_form, dict(vectors=1000)),
    (check_wsgd_order, {}),
    (check_operator_identities, dict(count=30)),
    (check_factorization, dict(count=20)),
    (check_adi_direct, dict(grids=((6, 6), (8, 10)), ns=(4,))),
    (check_stability, dict(seeds=range(5))),
    (check_manufactured, dict(alphas=(0.5,), samples=8, panels=1500)),
    (check_temporal_reference, dict(alphas=(0.5,), ladder=(5, 10, 20))),
    (check_spatial_reference, dict(ladder=(4, 8), n=2500, rel_tol=0.05,
                                   rate_window=(3.8, 4.2))),
)


def run_checks(level: str = "quick") -> list[CheckResult]:
    """Run the whole suite; "quick" trims sample counts and ladder depth."""
    if level not in ("quick", "full"):
        raise ValueError(f"unknown check level {level!r}; use quick or full")
    return [check(**(quick if level == "quick" else {}))
            for check, quick in _SUITE]


def format_results(results: Sequence[CheckResult]) -> str:
    return "\n".join(r.line() for r in results) + "\n"
