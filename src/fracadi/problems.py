"""Problem definitions for the evolution equation in integral form

    du/dt = phi(x, y) + I^alpha[Laplacian u] + f(x, y, t),

on a rectangle with Dirichlet data, where I^alpha is the Riemann-Liouville
integral of order alpha in (0, 1) and u(x, y, 0) = psi(x, y).  This is the
standard reduction of a diffusion-wave equation of temporal order
gamma = alpha + 1; when the original source is g, the transformed forcing
is f = I^alpha g.

The solver requires psi == 0 on its mesh; ``homogenize_initial`` rewrites
any problem into that form by subtracting psi, which adds
Laplacian(psi) * t**alpha / Gamma(1 + alpha) to the forcing.

All callables must broadcast over numpy arrays.  Problems can be built-in
(``make_example1``), loaded from JSON files with expression strings, or
synthesized randomly for stress tests.
"""

from __future__ import annotations

import ast
import functools
import json
import math
import os
import stat
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .fracweights import (_check_alpha, _integer, _positive,
                          rl_integral_oracle)
from .meshops import Mesh

# initial-data tolerance: the boundary at t=0 must match psi, and psi counts
# as zero (``homogenize_initial``, ``adisolver.init_state``), within it
_COMPAT_TOL = 1e-12


def _zero_xy(x, y):
    return np.zeros(np.broadcast(x, y).shape)


def _zero_xyt(x, y, t):
    return np.zeros(np.broadcast(x, y, t).shape)


@dataclass(frozen=True)
class ProblemSpec:
    """One well-posed problem instance.

    ``forcing_f`` is the transformed source f = I^alpha g; ``caputo_forcing``
    optionally stores the original g.  At least one of the two must be
    given.  The solver samples ``forcing_f`` when it exists and otherwise
    tabulates f from ``caputo_forcing`` by discrete quadrature.
    ``exact``, ``exact_dt``, ``exact_laplacian`` are optional closed forms
    used for error measurement and residual verification.

    The callables must broadcast over numpy arrays, which they must not
    write into (the mesh's coordinates are read-only): x of shape (M1+1, 1),
    y of shape (1, M2+1), and t a float or, for the exact solution and
    ``caputo_forcing``, which are sampled a block of levels per call, an
    array of shape (b, 1, 1).  The boundary is sampled a block of levels
    per call on the mesh's frame only: x and y hold the F = 2 (M1 + M2)
    frame points, shape (1, F), and t has shape (b, 1).
    """

    name: str
    alpha: float
    domain: tuple[float, float]
    T: float
    phi: Callable
    psi: Callable
    boundary: Callable
    forcing_f: Callable | None = None
    caputo_forcing: Callable | None = None
    exact: Callable | None = None
    psi_laplacian: Callable | None = None
    exact_dt: Callable | None = None
    exact_laplacian: Callable | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        try:
            L1, L2 = self.domain
        except (TypeError, ValueError):
            raise ValueError(f"domain must be a pair (L1, L2), "
                             f"got {self.domain!r}") from None
        _positive(L1, "domain extents")
        _positive(L2, "domain extents")
        _positive(self.T, "final time T")
        # a field declared Callable holds one when it is required (its
        # default is MISSING) or given (it is not its default, None)
        for f in fields(self):
            value = getattr(self, f.name)
            if ("Callable" in str(f.type) and value is not f.default
                    and not callable(value)):
                raise ValueError(f"{f.name} must be callable, got {value!r}")
        if self.forcing_f is None and self.caputo_forcing is None:
            raise ValueError("either forcing_f or caputo_forcing must be given")
        self._check_compatibility()

    def _check_compatibility(self) -> None:
        # Dirichlet data at t=0 must agree with psi along every edge: nine
        # points per edge, the four edges' points interleaved
        L1, L2 = self.domain
        s = np.linspace(0.0, 1.0, 9)[:, None]
        zero, one = np.zeros_like(s), np.ones_like(s)
        x = np.hstack((s * L1, s * L1, zero, one * L1)).ravel()
        y = np.hstack((zero, one * L2, s * L2, s * L2)).ravel()
        diff = (_evaluate(self.boundary, "boundary", x, y, 0.0)
                - _evaluate(self.psi, "psi", x, y))
        worst = float(np.max(np.abs(diff)))
        if worst > _COMPAT_TOL:
            raise ValueError(
                f"boundary data at t=0 disagrees with psi by {worst:.3e} "
                f"(tolerance {_COMPAT_TOL:.0e})"
            )

    @property
    def L1(self) -> float:
        return self.domain[0]

    @property
    def L2(self) -> float:
        return self.domain[1]


def _evaluate(func: Callable, field: str, x, y, *t,
              shape: tuple | None = None) -> np.ndarray:
    """func(x, y) or func(x, y, t) as a fresh float array of ``shape``, by
    default the shape of the points (x, y), and t, broadcast together; a
    caller that knows it passes it.

    A non-finite value raises a ValueError naming ``field`` and the t and
    (x, y) of the first offending value, in place of numpy's floating-point
    warnings.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out = np.asarray(func(x, y, *t), dtype=float)
    if shape is None:
        shape = np.broadcast(x, y, *t).shape
    if out.shape != shape:  # broadcast_to costs more than the copy
        out = np.broadcast_to(out, shape)
    out = out.astype(float, copy=True)
    if not np.isfinite(out).all():
        k = tuple(np.argwhere(~np.isfinite(out))[0])
        px, py = (np.broadcast_to(v, shape)[k] for v in (x, y))
        at = f" at t={np.broadcast_to(t[0], shape)[k]:.17g}" if t else ""
        raise ValueError(
            f"{field} is {out[k]}{at}, (x, y) = ({px:.17g}, {py:.17g}); "
            "problem data must be finite"
        )
    return out


def sample_xy(func: Callable, mesh: Mesh, *, field: str = "data") -> np.ndarray:
    """Evaluate func(x, y) on all mesh nodes; scalars broadcast to the grid.

    Always returns a fresh writable array.  A non-finite value raises a
    ValueError naming ``field`` and the first offending node.
    """
    return _evaluate(func, field, mesh.x[:, None], mesh.y[None, :],
                     shape=mesh.shape)


def sample_xyt(func: Callable, mesh: Mesh, t, *, field: str = "data",
               frame: bool = False) -> np.ndarray:
    """Evaluate func(x, y, t) on all mesh nodes, as ``sample_xy`` does.

    ``t`` is one time, or an array of shape (b, 1, 1) for b levels in one
    call, which gives an array of shape (b, M1+1, M2+1); a non-finite
    value names its own t.

    With ``frame``, func is called once on the F = 2 (M1 + M2) nodes of
    ``mesh.frame`` only, x and y of shape (1, F) and t of shape (b, 1), and
    the result holds those nodes' values in the frame's order, shape (b, F)
    for an array t and (F,) for one time.
    """
    if not frame:
        shape = mesh.shape if isinstance(t, (int, float)) else None
        return _evaluate(func, field, mesh.x[:, None], mesh.y[None, :], t,
                         shape=shape)
    x, y, _ = mesh.frame
    vals = _evaluate(func, field, x, y, np.reshape(t, (-1, 1)))
    return vals.reshape(*np.shape(t)[:-2], -1)


def _number(value, label: str, kind: type = float):
    """``value`` from outside the program as a finite ``kind`` (int or float).

    Every number a user hands in goes through here: command-line flags,
    ``--config`` entries and a problem file's alpha, domain and final_time.
    An integral value such as 8.0 or "8" is an int.  A bool, a value that
    does not parse, a non-finite number or, for an int, a fractional part
    raise a ValueError that starts with ``label``.
    """
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if math.isfinite(number) and (kind is float or number.is_integer()):
            return kind(number)
    want = "an integer" if kind is int else "a number"
    raise ValueError(f"{label} must be {want}, got {value!r}")


def _read_object(path, label: str, known, *, dashes: bool = False) -> dict:
    """The JSON object in the outside file ``path``: a problem file or a
    ``--config``.

    The path must name a regular file (a device or a pipe could read
    without end), its bytes must be UTF-8 and hold one JSON object, and
    each key must be in ``known`` (with ``dashes``, read with ``-`` as
    ``_``); the first unknown key, sorted, is named.  Every failure is a
    ValueError that starts with ``label`` and the path.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise ValueError(f"{label} {path} is not a regular file")
        data = json.loads(Path(path).read_bytes().decode("utf-8"))
    except OSError as exc:
        raise ValueError(f"{label} {path} cannot be read: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{label} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{label} {path} must contain a JSON object")
    for key in sorted(data):
        if (key.replace("-", "_") if dashes else key) not in known:
            raise ValueError(f"{label} {path}: unknown key {key!r}")
    return data


def mesh_for(problem: ProblemSpec, m: int, *, n: int = 1) -> Mesh:
    """A mesh of m x m cells and n time steps over the problem's domain."""
    return Mesh(L1=problem.L1, L2=problem.L2, M1=m, M2=m, T=problem.T, N=n)


# ---------------------------------------------------------------------------
# built-in benchmark problem

def make_example1(alpha: float) -> ProblemSpec:
    """Benchmark on (0, pi)^2 with exact solution sin(x) sin(y) t**(alpha+3).

    The initial data are zero (both psi and the velocity-like phi), so no
    reduction step is needed.  The transformed forcing has the closed form

        f = sin(x) sin(y) [ (alpha+3) t**(alpha+2)
                            + 2 Gamma(alpha+4)/Gamma(2 alpha+4) t**(2 alpha+3) ],

    and the original Caputo-form source is

        g = sin(x) sin(y) [ Gamma(alpha+4)/2 * t**2 + 2 t**(alpha+3) ].
    """
    a = _check_alpha(alpha)
    c_num = math.gamma(a + 4.0)
    c_ratio = c_num / math.gamma(2.0 * a + 4.0)

    def exact(x, y, t):
        return np.sin(x) * np.sin(y) * t ** (a + 3.0)

    def exact_dt(x, y, t):
        return np.sin(x) * np.sin(y) * (a + 3.0) * t ** (a + 2.0)

    def exact_laplacian(x, y, t):
        return -2.0 * np.sin(x) * np.sin(y) * t ** (a + 3.0)

    def forcing_f(x, y, t):
        t = np.asarray(t, dtype=float)
        return np.sin(x) * np.sin(y) * (
            (a + 3.0) * t ** (a + 2.0) + 2.0 * c_ratio * t ** (2.0 * a + 3.0)
        )

    def caputo_forcing(x, y, t):
        t = np.asarray(t, dtype=float)
        return np.sin(x) * np.sin(y) * (
            0.5 * c_num * t**2 + 2.0 * t ** (a + 3.0)
        )

    return ProblemSpec(
        name="example1",
        alpha=a,
        domain=(math.pi, math.pi),
        T=1.0,
        phi=_zero_xy,
        psi=_zero_xy,
        boundary=_zero_xyt,
        forcing_f=forcing_f,
        caputo_forcing=caputo_forcing,
        exact=exact,
        psi_laplacian=_zero_xy,
        exact_dt=exact_dt,
        exact_laplacian=exact_laplacian,
    )


# sine modes per axis in each field of ``make_random_problem``
_RANDOM_MODES = 3


def make_random_problem(seed: int) -> ProblemSpec:
    """Seeded problem on (0, 1)^2 with zero boundary and initial data.

    phi and the forcing are low-order sine polynomials with coefficients
    drawn from the seed, so two calls with the same seed build identical
    problems.  No exact solution is attached; these exist for stability and
    robustness probes.
    """
    rng = np.random.default_rng(seed)
    amp = rng.uniform(-1.0, 1.0, size=(4, _RANDOM_MODES, _RANDOM_MODES))
    pq = np.arange(1, _RANDOM_MODES + 1)
    amp /= pq[None, :, None] * pq[None, None, :]

    def trig_sum(coeffs, x, y):
        out = 0.0
        for p in range(_RANDOM_MODES):
            sx = np.sin((p + 1) * math.pi * x)
            for q in range(_RANDOM_MODES):
                out = out + coeffs[p, q] * sx * np.sin((q + 1) * math.pi * y)
        return out

    def phi(x, y):
        return trig_sum(amp[0], x, y)

    def forcing_f(x, y, t):
        return (
            trig_sum(amp[1], x, y)
            + trig_sum(amp[2], x, y) * t
            + trig_sum(amp[3], x, y) * np.sin(3.0 * t)
        )

    return ProblemSpec(
        name=f"random-{seed}",
        alpha=float(rng.uniform(0.1, 0.9)),
        domain=(1.0, 1.0),
        T=1.0,
        phi=phi,
        psi=_zero_xy,
        boundary=_zero_xyt,
        forcing_f=forcing_f,
        psi_laplacian=_zero_xy,
    )


# ---------------------------------------------------------------------------
# reduction to zero initial displacement

def _max_abs_psi(spec: ProblemSpec, mesh: Mesh | None = None) -> float:
    """Largest |psi| over a 33x33 probe of the domain and, when given, over
    the nodes of ``mesh``: a psi can vanish on the probe and not on a mesh."""
    probe = Mesh(spec.L1, spec.L2, 32, 32, spec.T, 1)
    worst = float(np.max(np.abs(sample_xy(spec.psi, probe, field="psi"))))
    if mesh is not None:
        on_mesh = sample_xy(spec.psi, mesh, field="psi")
        worst = max(worst, float(np.max(np.abs(on_mesh))))
    return worst


def _shifted(func: Callable | None, term: Callable) -> Callable | None:
    """func + term as a field of (x, y, t), both called with t as a float
    array; a missing field (None) stays None."""
    if func is None:
        return None

    def shifted(x, y, t):
        t = np.asarray(t, dtype=float)
        return func(x, y, t) + term(x, y, t)

    return shifted


def homogenize_initial(spec: ProblemSpec,
                       mesh: Mesh | None = None) -> ProblemSpec:
    """Return an equivalent problem with psi == 0.

    Subtracting psi from the solution leaves phi alone, shifts the boundary
    data and any exact solution down by psi (and its Laplacian down by
    Laplacian(psi)), and adds the memory term
    Laplacian(psi) * t**alpha / Gamma(1 + alpha) to the transformed forcing
    (equivalently, adds Laplacian(psi) to the Caputo-form source).  A
    problem whose psi vanishes on the probe grid of ``_max_abs_psi`` and,
    when ``mesh`` is given, on the run's mesh nodes is returned itself (the
    same object), so the map is idempotent.  Pass the mesh the problem will
    be solved on: a psi such as sin(32 x) can vanish on the probe and not on
    the mesh.  The solution of the original problem is the reduced one plus
    psi sampled on the mesh.
    """
    if _max_abs_psi(spec, mesh) <= _COMPAT_TOL:
        return spec
    if spec.psi_laplacian is None:
        raise ValueError(
            "homogenize_initial needs psi_laplacian for a nonzero psi"
        )

    psi, lap = spec.psi, spec.psi_laplacian
    alpha, inv_gamma = spec.alpha, 1.0 / math.gamma(1.0 + spec.alpha)
    return replace(
        spec,
        psi=_zero_xy,
        psi_laplacian=_zero_xy,
        boundary=_shifted(spec.boundary, lambda x, y, t: -psi(x, y)),
        exact=_shifted(spec.exact, lambda x, y, t: -psi(x, y)),
        exact_laplacian=_shifted(spec.exact_laplacian,
                                 lambda x, y, t: -lap(x, y)),
        forcing_f=_shifted(spec.forcing_f, lambda x, y, t:
                           lap(x, y) * t**alpha * inv_gamma),
        caputo_forcing=_shifted(spec.caputo_forcing,
                                lambda x, y, t: lap(x, y)),
    )


# ---------------------------------------------------------------------------
# residual verification against the integral-form equation

@dataclass(frozen=True)
class ManufacturedReport:
    max_residual: float
    residuals: np.ndarray
    points: np.ndarray
    used_fd_time: bool
    used_fd_space: bool


def verify_manufactured(
    spec: ProblemSpec,
    samples: int = 20,
    *,
    panels: int = 2500,
    seed: int = 0,
) -> ManufacturedReport:
    """Check that spec.exact satisfies the integral-form equation pointwise.

    At random interior space-time points the residual

        du/dt - phi - I^alpha[Laplacian u] - f

    is evaluated with the slow quadrature oracle for the memory integral.
    Analytic derivative callables are used when the problem carries them;
    otherwise fourth-order finite differences on the exact solution fill in
    (accurate to roughly 1e-12, far below any meaningful residual).
    """
    if spec.exact is None:
        raise ValueError("verify_manufactured requires an exact solution")
    if spec.forcing_f is None:
        raise ValueError("verify_manufactured requires the transformed forcing")
    samples = _integer(samples, "samples", 1)

    rng = np.random.default_rng(seed)
    L1, L2, T = spec.L1, spec.L2, spec.T
    exact = spec.exact
    kt = 1e-3 * T
    kx = 1e-3 * L1
    ky = 1e-3 * L2

    use_fd_time = spec.exact_dt is None
    use_fd_space = spec.exact_laplacian is None

    def du_dt(x, y, t):
        if not use_fd_time:
            return float(spec.exact_dt(x, y, t))
        return float(
            (-exact(x, y, t + 2 * kt) + 8.0 * exact(x, y, t + kt)
             - 8.0 * exact(x, y, t - kt) + exact(x, y, t - 2 * kt)) / (12.0 * kt)
        )

    def lap_at(x, y):
        if not use_fd_space:
            return lambda s: spec.exact_laplacian(x, y, s)

        def fd_lap(s):
            dxx = (
                -exact(x + 2 * kx, y, s) + 16.0 * exact(x + kx, y, s)
                - 30.0 * exact(x, y, s) + 16.0 * exact(x - kx, y, s)
                - exact(x - 2 * kx, y, s)
            ) / (12.0 * kx**2)
            dyy = (
                -exact(x, y + 2 * ky, s) + 16.0 * exact(x, y + ky, s)
                - 30.0 * exact(x, y, s) + 16.0 * exact(x, y - ky, s)
                - exact(x, y - 2 * ky, s)
            ) / (12.0 * ky**2)
            return dxx + dyy

        return fd_lap

    residuals = np.empty(samples)
    points = np.empty((samples, 3))
    for k in range(samples):
        x = L1 * rng.uniform(0.1, 0.9)
        y = L2 * rng.uniform(0.1, 0.9)
        t = T * rng.uniform(0.2, 1.0)
        memory = rl_integral_oracle(lap_at(x, y), spec.alpha, t, panels)
        residuals[k] = (
            du_dt(x, y, t)
            - float(spec.phi(x, y))
            - memory
            - float(spec.forcing_f(x, y, t))
        )
        points[k] = (x, y, t)

    return ManufacturedReport(
        max_residual=float(np.max(np.abs(residuals))),
        residuals=residuals,
        points=points,
        used_fd_time=use_fd_time,
        used_fd_space=use_fd_space,
    )


# ---------------------------------------------------------------------------
# JSON problem files with expression strings

# cached: an import statement costs about 0.65 us a call, and a forcing may
# call gamma at every level
@functools.cache
def _scipy_gamma():
    from scipy.special import gamma

    return gamma


def _gamma(x):
    """scipy.special.gamma(x), loaded on the first call."""
    return _scipy_gamma()(x)


# gamma loads scipy.special on its first call, not with the package: it is
# about 3.8 MB of resident memory that only expressions calling gamma need
_EXPR_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "gamma": _gamma,
}
_EXPR_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_EXPR_UNARYOPS = (ast.UAdd, ast.USub)
# nodes admitted as they are; an operator is checked at its own node
_EXPR_STRUCTURE = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Load,
                   *_EXPR_BINOPS, *_EXPR_UNARYOPS)


def compile_expression(source: str, *, alpha: float,
                       variables: tuple[str, ...] = ("x", "y", "t"),
                       label: str = "expression") -> Callable:
    """Compile an arithmetic expression string into a vectorized callable.

    Only literals, the listed variables, ``alpha``, ``pi``, the operators
    ``+ - * / **`` and unary ``+ -``, and one-argument calls of a small set
    of elementary functions are admitted; a function's name may stand only
    as the function of a call.  Anything else raises a ValueError naming
    it, checked at its own node in one walk of the tree.  The returned
    callable always takes (x, y, t) regardless of which variables the
    expression mentions.
    Integer literals become floats, so a power such as ``9**9**9`` overflows
    at once instead of growing a big integer; an arithmetic error or a
    complex value during evaluation is raised as a ValueError that starts
    with ``label``.  An expression nested too deeply for the parser or the
    compiler raises ValueError too.
    """
    if not isinstance(source, str):
        raise ValueError(f"expression must be a string, got {source!r}")
    alpha = _check_alpha(alpha)
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {source!r}: {exc}") from exc
    except (RecursionError, MemoryError) as exc:
        raise ValueError(f"expression of {len(source)} characters is nested "
                         f"too deeply to parse") from exc

    allowed_names = set(variables) | {"alpha", "pi"}
    # the walk reaches a call before its function's name, which the Call
    # branch checks against _EXPR_FUNCS; every other name is a value
    callees = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
                raise ValueError(f"disallowed literal {node.value!r} in {source!r}")
            try:
                node.value = float(node.value)
            except OverflowError as exc:
                raise ValueError(f"literal too large in {source!r}") from exc
        elif isinstance(node, ast.Name):
            if node not in callees and node.id not in allowed_names:
                raise ValueError(f"unknown name {node.id!r} in {source!r}")
        elif isinstance(node, ast.Call):
            if (not isinstance(node.func, ast.Name)
                    or node.func.id not in _EXPR_FUNCS
                    or node.keywords):
                raise ValueError(f"disallowed function call in {source!r}")
            if len(node.args) != 1:
                raise ValueError(f"{node.func.id} takes one argument, got "
                                 f"{len(node.args)} in {source!r}")
            callees.add(node.func)
        elif isinstance(node, _EXPR_STRUCTURE):
            continue
        else:
            raise ValueError(
                f"disallowed syntax {type(node).__name__} in {source!r}"
            )

    try:
        code = compile(tree, "<problem-expression>", "eval")
    except (RecursionError, MemoryError) as exc:
        raise ValueError(f"expression of {len(source)} characters is nested "
                         f"too deeply to compile") from exc
    env = {"__builtins__": {}, **_EXPR_FUNCS, "pi": math.pi, "alpha": alpha}

    def f(x, y, t):
        try:
            value = eval(code, env, {"x": x, "y": y, "t": t})
        except ArithmeticError as exc:
            raise ValueError(f"{label}: evaluating {source!r} failed: {exc}") from exc
        if np.iscomplexobj(value):
            # e.g. (0-2)**alpha: a negative float to a fractional power
            raise ValueError(f"{label}: {source!r} has a complex value")
        return value

    return f


_SPACE_ONLY = ("phi", "psi", "psi_laplacian")
_SPACE_TIME = ("boundary", "forcing", "caputo_forcing", "exact",
               "exact_dt", "exact_laplacian")


def load_problem(path, *, alpha: float | None = None) -> ProblemSpec:
    """Build a ProblemSpec from a JSON file of expression strings.

    Required keys: domain (pair), final_time, phi, psi, boundary, and at
    least one of forcing / caputo_forcing; alpha is required in the file
    unless supplied as an override here.  Space-only fields may not mention
    t.  A path that is not a regular file, bytes that are not one JSON
    object, a malformed entry and any other key raise a ValueError naming
    the file and, for an entry, its key.
    """
    path = Path(path)
    data = _read_object(path, "problem file", {
        "name", "alpha", "domain", "final_time", *_SPACE_ONLY, *_SPACE_TIME})

    if alpha is None:
        if "alpha" not in data:
            raise ValueError(f"problem file {path} has no alpha and none was given")
        alpha = _number(data["alpha"], f"problem file {path}, key 'alpha'")
    alpha = _check_alpha(alpha)

    for key in ("domain", "final_time", "phi", "psi", "boundary"):
        if key not in data:
            raise ValueError(f"problem file {path} is missing key {key!r}")
    domain = data["domain"]
    if (not isinstance(domain, (list, tuple)) or len(domain) != 2):
        raise ValueError(f"problem file {path}: domain must be a pair")

    def compiled(key, variables):
        src = data.get(key)
        if src is None:
            return None
        try:
            return compile_expression(src, alpha=alpha, variables=variables,
                                      label=f"problem file {path}, key {key!r}")
        except ValueError as exc:
            raise ValueError(f"problem file {path}, key {key!r}: {exc}") from exc

    # a null phi, psi or boundary is zero (a missing one was refused above)
    funcs: dict = {"phi": _zero_xy, "psi": _zero_xy, "boundary": _zero_xyt}
    for key in _SPACE_ONLY:
        fn = compiled(key, ("x", "y"))
        if fn is not None:
            funcs[key] = (lambda g: (lambda x, y: g(x, y, 0.0)))(fn)
    for key in _SPACE_TIME:
        fn = compiled(key, ("x", "y", "t"))
        if fn is not None:
            funcs["forcing_f" if key == "forcing" else key] = fn

    # a null name is absent, as a null field is
    name = data.get("name")
    if name is None:
        name = path.stem
    elif not isinstance(name, str):
        raise ValueError(f"problem file {path}: name must be a string")

    return ProblemSpec(
        name=name,
        alpha=alpha,
        domain=tuple(_number(v, f"problem file {path}, key 'domain'")
                     for v in domain),
        T=_number(data["final_time"], f"problem file {path}, key 'final_time'"),
        **funcs,
    )


BUILTIN_PROBLEMS: dict[str, Callable[[float], ProblemSpec]] = {
    "example1": make_example1,
}


def get_problem(ref, alpha: float | None = None) -> ProblemSpec:
    """Resolve a reference: a ProblemSpec, a builtin name, or a JSON path.

    A ProblemSpec fixes its own alpha: a different ``alpha`` is refused.
    """
    if isinstance(ref, ProblemSpec):
        if alpha is not None and alpha != ref.alpha:
            raise ValueError(f"problem {ref.name!r} has alpha {ref.alpha}, "
                             f"not {alpha}")
        return ref
    if isinstance(ref, str) and ref in BUILTIN_PROBLEMS:
        if alpha is None:
            raise ValueError(f"builtin problem {ref!r} needs an alpha value")
        return BUILTIN_PROBLEMS[ref](alpha)
    if isinstance(ref, (str, os.PathLike)) and Path(ref).is_file():
        return load_problem(ref, alpha=alpha)
    raise ValueError(
        f"unknown problem {ref!r}: not a builtin "
        f"({', '.join(sorted(BUILTIN_PROBLEMS))}) and no such file"
    )
