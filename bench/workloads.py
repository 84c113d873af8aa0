"""The four benchmark workloads: inputs from a seed, the timed call, the check.

Every timed call looks fracadi's entry point up on its module at call time
(``adisolver.solve``, ``studies.run_study``, ``cli.main``), so the tracer's
wrappers apply when tracing is on.
"""

from __future__ import annotations

import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fracadi import adisolver, cli, studies
from fracadi.problems import (
    get_problem,
    load_problem,
    mesh_for,
    sample_xyt,
    verify_manufactured,
)
from fracadi.studies import StudyConfig
from fracadi.verify import (
    SPATIAL_REFERENCE,
    TEMPORAL_LADDER,
    TEMPORAL_M,
    TEMPORAL_REFERENCE,
)


@dataclass(frozen=True)
class Check:
    ok: bool
    e_inf: float | None
    detail: str


@dataclass
class Workload:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Check]
    setup_script: str        # fresh-process import + problem and mesh build
    solves: tuple            # (N, grid nodes) of every solve in one call
    expected_spans: frozenset
    validation: Check | None = None   # input check made before timing

    @property
    def history_bytes(self) -> int:
        """Size of the largest history array one solve allocates."""
        return max(8 * (n + 1) * g for n, g in self.solves)


_SETUP = """import time
t0 = time.perf_counter()
from fracadi import get_problem, homogenize_initial, mesh_for
{build}
print(time.perf_counter() - t0)
"""

_SOLVE_SPANS = frozenset({
    "adisolver.solve", "adisolver.init_state", "adisolver.step",
    "trisolve.solve", "trisolve.build", "meshops.stencil",
    "fracweights.scheme_weights", "problems.sample.forcing",
    "problems.sample.boundary", "problems.sample.exact",
    "problems.sample.phi", "problems.sample.psi",
})


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _example1_solve(name: str, alpha: float, m: int, n: int,
                    reference: float, rel_tol: float) -> Workload:
    problem = get_problem("example1", alpha)
    mesh = mesh_for(problem, m, n=n)

    def call():
        return adisolver.solve(problem, mesh)

    def check(result) -> Check:
        dev = _rel(result.e_inf, reference)
        return Check(dev <= rel_tol, result.e_inf,
                     f"e_inf {result.e_inf:.6e} vs {reference:.6e}: "
                     f"rel dev {dev:.2e} (tol {rel_tol:g})")

    build = f"p = get_problem('example1', {alpha!r}); mesh_for(p, {m}, n={n})"
    return Workload(name, call, check, _SETUP.format(build=build),
                    ((n, (m + 1) ** 2),), _SOLVE_SPANS)


def history_long(seed: int, workdir: Path) -> Workload:
    """Finest rung of the spatial acceptance ladder; inputs are pinned by
    that reference, so the seed does not change them."""
    return _example1_solve("history_long", 0.1, 16, 10000,
                           SPATIAL_REFERENCE[-1], 0.02)


# E_inf this code gives at alpha=0.5, M=256, N=200.  A reordered sum moves
# it by rounding (~1e-9 relative); a changed discretisation moves it more.
GRID_WIDE_E_INF = 6.483362e-06


def grid_wide(seed: int, workdir: Path) -> Workload:
    """Sweep-bound baseline; inputs fixed, the seed does not change them."""
    return _example1_solve("grid_wide", 0.5, 256, 200, GRID_WIDE_E_INF, 1e-6)


def ladder_temporal(seed: int, workdir: Path) -> Workload:
    """The temporal acceptance ladder; the seed orders the alphas."""
    order = np.random.default_rng(seed).permutation(len(TEMPORAL_REFERENCE))
    keys = sorted(TEMPORAL_REFERENCE)
    alphas = tuple(float(keys[i]) for i in order)
    config = StudyConfig(alphas=alphas, axis="temporal",
                         ladder=TEMPORAL_LADDER, fixed=TEMPORAL_M, emit=())
    rel_tol, (lo, hi) = 0.01, (1.93, 2.07)

    def call():
        return studies.run_study(config)

    def check(result) -> Check:
        bad = []
        finest = 0.0
        for alpha in alphas:
            rows = [r for r in result.rows if r.alpha == alpha]
            ref = TEMPORAL_REFERENCE[alpha]
            if len(rows) != len(ref):
                bad.append(f"alpha {alpha}: {len(rows)} rows")
                continue
            worst = max(_rel(r.e_inf, e) for r, e in zip(rows, ref))
            if worst > rel_tol:
                bad.append(f"alpha {alpha}: rel dev {worst:.2e}")
            if not all(lo <= r.rate <= hi for r in rows[1:]):
                bad.append(f"alpha {alpha}: rate outside [{lo}, {hi}]")
            finest = max(finest, rows[-1].e_inf)
        detail = "; ".join(bad) or (
            f"{len(result.rows)} rows within {rel_tol:g} of the reference, "
            f"rates in [{lo}, {hi}]")
        return Check(not bad, finest, detail)

    build = (f"for a in {alphas!r}:\n"
             f"    p = get_problem('example1', a)\n"
             f"    [mesh_for(p, {TEMPORAL_M}, n=n) for n in {TEMPORAL_LADDER!r}]")
    solves = tuple((n, (TEMPORAL_M + 1) ** 2)
                   for _ in alphas for n in TEMPORAL_LADDER)
    spans = _SOLVE_SPANS | {"studies.run_study", "problems.load"}
    return Workload("ladder_temporal", call, check, _SETUP.format(build=build),
                    solves, spans)


# u = sin(x + 0.7) sin(1.2 y + 0.4) (1 + t^(alpha+3)) + H(x, y) on
# (0, pi) x (0, 2), with H a seeded harmonic polynomial.  H is steady and
# has zero Laplacian, so it enters psi and the boundary data but cancels in
# the reduced problem the solver sees: the discretisation error, and hence
# e_inf, is the same for every seed up to rounding, while the expression
# strings, psi and the Dirichlet data differ.
_S = "sin(x + 0.7) * sin(1.2 * y + 0.4)"
_K = 2.44  # 1 + 1.2**2: -Laplacian(S) = _K * S
_ALPHA = 0.5
_M, _N, _EVERY = 64, 1000, 50
# Final-level interior max error this code gives (the same for all seeds)
CLI_FINAL_ERROR = 1.0120829e-07
_CLI_REL_TOL = 1e-6
_CLI_FILES = 4 + _N // _EVERY + 1  # final.csv/.svg, exact.svg, reports.csv


def inhomogeneous_problem(seed: int) -> dict:
    """JSON problem document with a nonzero psi and nonzero boundary data."""
    c = [float(v) for v in np.random.default_rng(seed).uniform(-1.0, 1.0, 5)]
    h = (f"({c[0]!r} + {c[1]!r} * x + {c[2]!r} * y"
         f" + {c[3]!r} * (x**2 - y**2) + {c[4]!r} * x * y)")
    time_factor = "(1 + t**(alpha + 3))"
    memory = ("(t**alpha / gamma(1 + alpha)"
              " + gamma(alpha + 4) / gamma(2 * alpha + 4) * t**(2 * alpha + 3))")
    return {
        "name": f"inhomogeneous-{seed}",
        "alpha": _ALPHA,
        "domain": [math.pi, 2.0],
        "final_time": 1.0,
        "phi": "0",
        "psi": f"{_S} + {h}",
        "psi_laplacian": f"-{_K!r} * {_S}",
        "boundary": f"{_S} * {time_factor} + {h}",
        "exact": f"{_S} * {time_factor} + {h}",
        "exact_dt": f"{_S} * (alpha + 3) * t**(alpha + 2)",
        "exact_laplacian": f"-{_K!r} * {_S} * {time_factor}",
        "forcing": f"{_S} * ((alpha + 3) * t**(alpha + 2) + {_K!r} * {memory})",
    }


def cli_inhomogeneous(seed: int, workdir: Path) -> Workload:
    """A seeded problem file solved and emitted through the CLI."""
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "problem.json"
    path.write_text(json.dumps(inhomogeneous_problem(seed), indent=1))
    out = workdir / "out"

    problem = load_problem(path)
    residual = verify_manufactured(problem).max_residual
    validation = Check(residual <= 1e-6, None,
                       f"manufactured residual {residual:.2e} (tol 1e-06)")
    mesh = mesh_for(problem, _M, n=_N)
    exact = sample_xyt(problem.exact, mesh, mesh.T)[1:-1, 1:-1]
    argv = ["solve", "--problem", str(path), "--m", str(_M), "--n", str(_N),
            "--out", str(out), "--emit", "csv,svg,reports,snapshots",
            "--snapshot-every", str(_EVERY)]

    def call():
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stderr.getvalue()

    def check(result) -> Check:
        code, stderr = result
        try:
            if code != 0:
                return Check(False, None, f"exit {code}: {stderr.strip()}")
            files = len(list(out.iterdir()))
            final = np.loadtxt(out / "final.csv", delimiter=",")[1:-1, 1:-1]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        err = float(np.max(np.abs(final - exact)))
        dev = _rel(err, CLI_FINAL_ERROR)
        ok = files == _CLI_FILES and dev <= _CLI_REL_TOL
        return Check(ok, err,
                     f"{files} files (want {_CLI_FILES}); final.csv error "
                     f"{err:.6e} vs {CLI_FINAL_ERROR:.6e}: rel dev {dev:.2e} "
                     f"(tol {_CLI_REL_TOL:g})")

    build = (f"p = get_problem({str(path)!r}, {_ALPHA!r})\n"
             f"homogenize_initial(p)\n"
             f"mesh_for(p, {_M}, n={_N})")
    spans = _SOLVE_SPANS | {"cli.main", "problems.load", "problems.homogenize",
                            "meshops.write_csv", "heatmap.emit"}
    return Workload("cli_inhomogeneous", call, check,
                    _SETUP.format(build=build), ((_N, (_M + 1) ** 2),), spans,
                    validation)


BUILDERS = {
    "history_long": history_long,
    "grid_wide": grid_wide,
    "ladder_temporal": ladder_temporal,
    "cli_inhomogeneous": cli_inhomogeneous,
}
