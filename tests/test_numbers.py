"""Every number a library caller hands in meets one of three rules: a real
number (alpha), a positive finite real, or an integer with a floor.  A bad
value of any type is refused with a ValueError that starts with the
field's name, never an unnamed TypeError; numpy's scalars are numbers."""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from fracadi import (
    Mesh,
    StudyConfig,
    get_problem,
    load_problem,
    make_example1,
    run_study,
)
from fracadi.fracweights import (
    grunwald_weights,
    rl_integral_oracle,
    scheme_weights,
    wsgd_integral,
)
from fracadi.problems import compile_expression, verify_manufactured
from fracadi.studies import check_alphas, check_ladder
from fracadi.trisolve import build_sweep_operator

REAL, COUNT = "real", "count"


def _load(alpha, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"domain": [1.0, 1.0], "final_time": 1.0,
                                "phi": "0", "psi": "0", "boundary": "0",
                                "forcing": "x*y*t"}))
    return load_problem(path, alpha=alpha)


def _mesh(**kwargs):
    return Mesh(**{**dict(L1=1.0, L2=1.0, M1=4, M2=4, T=1.0, N=2), **kwargs})


def _study(**kwargs):
    return StudyConfig(**{**dict(alphas=(0.5,), axis="temporal",
                                 ladder=(5, 10), fixed=4, emit=()), **kwargs})


# site: (call with the value under test and a scratch directory, the
# field its message starts with, the kind of number, a value out of
# range, an accepted value)
SITES = {
    "ProblemSpec.alpha": (lambda v, _: replace(make_example1(0.5), alpha=v),
                          "alpha", REAL, 1.5, 0.5),
    "make_example1": (lambda v, _: make_example1(v), "alpha", REAL, 0.0, 0.5),
    "check_alphas": (lambda v, _: check_alphas((v,)), "alpha", REAL, 1.0, 0.5),
    "grunwald_weights.alpha": (lambda v, _: grunwald_weights(v, 5),
                               "alpha", REAL, -0.5, 0.5),
    "scheme_weights.alpha": (lambda v, _: scheme_weights(v, 5),
                             "alpha", REAL, 1.5, 0.5),
    "wsgd_integral.alpha": (lambda v, _: wsgd_integral(np.ones(3), v, 0.1),
                            "alpha", REAL, 1.5, 0.5),
    "rl_integral_oracle.alpha": (
        lambda v, _: rl_integral_oracle(np.cos, v, 1.0, 10),
        "alpha", REAL, 1.5, 0.5),
    "load_problem.alpha": (_load, "alpha", REAL, 1.5, 0.5),
    "compile_expression.alpha": (
        lambda v, _: compile_expression("x", alpha=v), "alpha", REAL, 1.5, 0.5),
    "wsgd_integral.tau": (lambda v, _: wsgd_integral(np.ones(3), 0.5, v),
                          "tau", REAL, 0.0, 0.1),
    "rl_integral_oracle.t": (lambda v, _: rl_integral_oracle(np.cos, 0.5, v, 10),
                             "t", REAL, -1.0, 1.0),
    "Mesh.L1": (lambda v, _: _mesh(L1=v), "L1", REAL, 0.0, 1.0),
    "Mesh.L2": (lambda v, _: _mesh(L2=v), "L2", REAL, -1.0, 1.0),
    "Mesh.T": (lambda v, _: _mesh(T=v), "T", REAL, 0.0, 1.0),
    "ProblemSpec.domain": (
        lambda v, _: replace(make_example1(0.5), domain=(3.0, v)),
        "domain", REAL, 0.0, 3.0),
    "ProblemSpec.T": (lambda v, _: replace(make_example1(0.5), T=v),
                      "final time T", REAL, -1.0, 1.0),
    "build_sweep_operator.h": (lambda v, _: build_sweep_operator(3, v, 0.0),
                               "h", REAL, 0.0, 0.25),
    "grunwald_weights.count": (lambda v, _: grunwald_weights(0.5, v),
                               "count", COUNT, -1, 5),
    "rl_integral_oracle.panels": (
        lambda v, _: rl_integral_oracle(np.cos, 0.5, 1.0, v),
        "panels", COUNT, 0, 10),
    "Mesh.M1": (lambda v, _: _mesh(M1=v), "M1", COUNT, 1, 4),
    "Mesh.M2": (lambda v, _: _mesh(M2=v), "M2", COUNT, 1, 4),
    "Mesh.N": (lambda v, _: _mesh(N=v), "N", COUNT, 0, 2),
    "build_sweep_operator.m": (lambda v, _: build_sweep_operator(v, 0.25, 0.0),
                               "m", COUNT, 0, 3),
    "check_ladder": (lambda v, _: check_ladder((v, 10), "temporal"),
                     "ladder", COUNT, 0, 5),
    "StudyConfig.fixed": (lambda v, _: _study(fixed=v), "fixed", COUNT, 1, 4),
    "verify_manufactured.samples": (
        lambda v, _: verify_manufactured(make_example1(0.5), v, panels=10),
        "samples", COUNT, 0, 1),
    "verify_manufactured.panels": (
        lambda v, _: verify_manufactured(make_example1(0.5), 1, panels=v),
        "panels", COUNT, 0, 10),
}

# each kind's bad values; the out-of-range one is the site's own
BAD = {
    REAL: ["0.5", None, True, math.nan, math.inf],
    COUNT: ["0.5", None, True, math.nan, math.inf, 2.0, np.float64(2.0)],
}


@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}-{value!r}")
    for site, (_, _, kind, out_of_range, _) in SITES.items()
    for value in [*BAD[kind], out_of_range]
    # load_problem's alpha=None asks for the file's own alpha
    if not (site == "load_problem.alpha" and value is None)
])
def test_bad_number_refused_by_name(site, value, tmp_path):
    call, field, _, _, _ = SITES[site]
    with pytest.raises(ValueError) as info:
        call(value, tmp_path)
    assert str(info.value).startswith(f"{field} "), str(info.value)


@pytest.mark.parametrize("site", SITES)
def test_python_and_numpy_numbers_accepted(site, tmp_path):
    call, _, kind, _, good = SITES[site]
    call(good, tmp_path)
    call(np.float32(good) if kind == REAL else np.int64(good), tmp_path)


# a path next to this file that does not exist
_MISSING = os.path.join(os.path.dirname(__file__), "no_such_problem.json")


# a real that float() cannot hold, then non-numbers: a problem's name, a
# problem reference (one naming no regular file is unknown, and says
# whether the path exists), a problem path that names no regular file,
# and an expression
@pytest.mark.parametrize("call, start", [
    (lambda: Mesh(10**400, 1.0, 4, 4, 1.0, 2),
     "L1 must be positive and finite, got 1000"),
    (lambda: replace(make_example1(0.5), name=None),
     "name must be a string, got None"),
    (lambda: replace(make_example1(0.5), name=3),
     "name must be a string, got 3"),
    (lambda: get_problem(3), "unknown problem 3"),
    (lambda: get_problem(None, 0.5), "unknown problem None"),
    (lambda: run_study(_study(problem=3)), "unknown problem 3"),
    (lambda: get_problem("", 0.5),
     "unknown problem '': not a builtin (example1) and no such file"),
    (lambda: get_problem(os.curdir, 0.5), f"unknown problem {os.curdir!r}: "
     "not a builtin (example1) and not a regular file"),
    (lambda: get_problem(os.devnull, 0.5), f"unknown problem {os.devnull!r}: "
     "not a builtin (example1) and not a regular file"),
    (lambda: get_problem(_MISSING, 0.5), f"unknown problem {_MISSING!r}: "
     "not a builtin (example1) and no such file"),
    (lambda: load_problem(os.curdir),
     f"problem file {os.curdir} is not a regular file"),
    (lambda: load_problem(os.devnull),
     f"problem file {os.devnull} is not a regular file"),
    (lambda: compile_expression(3, alpha=0.5),
     "expression must be a string, got 3"),
], ids=["Mesh.L1-10**400", "name-None", "name-3", "get_problem-3",
        "get_problem-None", "StudyConfig.problem-3", "get_problem-empty",
        "get_problem-directory", "get_problem-devnull", "get_problem-missing",
        "load_problem-directory", "load_problem-devnull",
        "compile_expression-3"])
def test_bad_reference_refused_by_name(call, start):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(start), str(info.value)
