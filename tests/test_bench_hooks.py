"""The names ``bench/tracer.py`` wraps (``adisolver._STEPPERS``, the
``_zero_frame`` import in ``adisolver``, the ``_max_abs_psi`` import in
``cli``, and the module globals the solver calls through) still carry
every layer span: one traced solve, without running the bench."""

import sys
import time
from pathlib import Path

from fracadi import adisolver, get_problem, mesh_for

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_traced_solve_reaches_every_span():
    problem = get_problem("example1", 0.5)
    mesh = mesh_for(problem, 4, n=40)
    recorder = tracer.Tracer()
    t0 = time.perf_counter_ns()
    with recorder.recording() as run_id:
        adisolver.solve(problem, mesh)
    recorder.walls_ns[run_id] = time.perf_counter_ns() - t0

    metrics = recorder.metrics(run_id)
    missing = set(workloads._SOLVE_SPANS) - set(metrics["_reached"])
    assert not missing
    assert metrics["adisolver.step.count"] == 40
    assert metrics["trisolve.solve.count"] == 80
    assert metrics["problems.sample.forcing.per_step"] == 41 / 40
