"""Compact ADI finite difference solver for 2D time-fractional
diffusion-wave problems, second order in time and fourth order in space,
with convergence-study tooling and a numerical self-check suite.

The package root exports the supported API: the solver and its run state,
problem construction, meshes and grid fields, studies and the self-checks.
Everything else (weights, stencils, norms, emitters) is imported from its
own module, e.g. ``fracadi.fracweights.wsgd_integral`` or
``fracadi.verify.lambda_op``.
"""

from .meshops import GridFn, Mesh
from .problems import (
    ProblemSpec,
    get_problem,
    homogenize_initial,
    load_problem,
    make_example1,
    mesh_for,
)
from .adisolver import (
    SolveResult,
    SolverDivergenceError,
    SolverState,
    StepReport,
    adi_step,
    init_state,
    solve,
)
from .studies import StudyConfig, run_study
from .verify import run_checks

__version__ = "0.1.0"

__all__ = [
    "solve", "init_state", "adi_step",
    "SolverState", "SolveResult", "StepReport", "SolverDivergenceError",
    "ProblemSpec", "get_problem", "load_problem", "make_example1",
    "homogenize_initial", "mesh_for",
    "Mesh", "GridFn", "StudyConfig", "run_study", "run_checks",
    "__version__",
]
