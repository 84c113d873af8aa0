"""Compact ADI finite difference solver for 2D time-fractional
diffusion-wave problems, second order in time and fourth order in space,
with convergence-study tooling and a numerical self-check suite."""

from .fracweights import (
    WeightTable,
    grunwald_weights,
    rl_integral_oracle,
    scheme_weights,
    wsgd_integral,
)
from .meshops import (
    GridFn,
    Mesh,
    compact_h,
    delta2_x,
    delta2_y,
    delta2x_delta2y,
    inner,
    lambda_op,
    norm_grad_x,
    norm_grad_xy,
    norm_grad_y,
    norm_inf,
    norm_l2,
    read_csv,
    write_csv,
    zeros_like,
)
from .trisolve import build_sweep_operator
from .problems import (
    ManufacturedReport,
    ProblemSpec,
    compile_expression,
    get_problem,
    homogenize_initial,
    load_problem,
    make_example1,
    make_random_problem,
    mesh_for,
    sample_xy,
    sample_xyt,
    verify_manufactured,
)
from .adisolver import (
    SolveResult,
    SolverDivergenceError,
    SolverState,
    StepReport,
    adi_step,
    direct_step,
    init_state,
    solve,
)
from .studies import (
    ConvergenceRow,
    StudyConfig,
    StudyResult,
    emit_csv,
    emit_table,
    read_study_csv,
    run_study,
)
from .heatmap import emit_heatmap
from .verify import CheckResult, format_results, run_checks

__version__ = "0.1.0"

__all__ = [
    "WeightTable", "grunwald_weights", "scheme_weights", "wsgd_integral",
    "rl_integral_oracle",
    "Mesh", "GridFn", "zeros_like", "delta2_x", "delta2_y", "compact_h",
    "lambda_op", "delta2x_delta2y", "inner", "norm_l2", "norm_inf",
    "norm_grad_x", "norm_grad_y", "norm_grad_xy", "write_csv", "read_csv",
    "build_sweep_operator",
    "ProblemSpec", "ManufacturedReport", "make_example1",
    "make_random_problem", "homogenize_initial", "verify_manufactured",
    "compile_expression", "load_problem", "get_problem", "mesh_for",
    "sample_xy", "sample_xyt",
    "SolverState", "StepReport", "SolveResult", "SolverDivergenceError",
    "init_state", "adi_step", "direct_step", "solve",
    "StudyConfig", "StudyResult", "ConvergenceRow", "run_study",
    "emit_table", "emit_csv", "read_study_csv",
    "emit_heatmap",
    "CheckResult", "run_checks", "format_results",
    "__version__",
]
