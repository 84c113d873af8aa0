import json
import math
import re
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracadi import (
    Mesh,
    ProblemSpec,
    get_problem,
    homogenize_initial,
    load_problem,
    make_example1,
    mesh_for,
    solve,
)
from fracadi.fracweights import rl_integral_oracle
from fracadi.problems import (
    _EXPR_FUNCS,
    _zero_xy,
    _zero_xyt,
    compile_expression,
    make_random_problem,
    sample_xy,
    sample_xyt,
    verify_manufactured,
)
from conftest import run_fresh


class TestExample1:
    def test_point_values(self):
        p = make_example1(0.5)
        x = y = math.pi / 2.0
        assert float(p.exact(x, y, 1.0)) == pytest.approx(1.0)
        # forcing at the center peak, t = 1
        expect = 3.5 + 2.0 * math.gamma(4.5) / math.gamma(5.0)
        assert float(p.forcing_f(x, y, 1.0)) == pytest.approx(expect)
        assert float(p.forcing_f(x, y, 1.0)) == pytest.approx(4.46931, abs=5e-6)

    def test_zero_data(self):
        p = make_example1(0.3)
        assert float(p.psi(0.5, 0.5)) == 0.0
        assert float(p.phi(0.5, 0.5)) == 0.0
        assert float(p.boundary(0.0, 1.0, 0.7)) == 0.0

    def test_transformed_forcing_is_integral_of_caputo_source(self):
        # f must equal the order-alpha integral of g at any point
        for a in (0.25, 0.8):
            p = make_example1(a)
            x, y = 1.1, 0.7
            for t in (0.4, 1.0):
                ref = rl_integral_oracle(
                    lambda s: p.caputo_forcing(x, y, s), a, t, panels=1500)
                assert float(p.forcing_f(x, y, t)) == pytest.approx(
                    ref, rel=1e-11)

    def test_derivative_callables_match_finite_differences(self):
        p = make_example1(0.6)
        x, y, t = 0.9, 1.3, 0.8
        k = 1e-5
        fd_dt = (p.exact(x, y, t + k) - p.exact(x, y, t - k)) / (2 * k)
        assert float(p.exact_dt(x, y, t)) == pytest.approx(float(fd_dt), rel=1e-8)
        fd_lap = (
            p.exact(x + k, y, t) - 2 * p.exact(x, y, t) + p.exact(x - k, y, t)
        ) / k**2 + (
            p.exact(x, y + k, t) - 2 * p.exact(x, y, t) + p.exact(x, y - k, t)
        ) / k**2
        assert float(p.exact_laplacian(x, y, t)) == pytest.approx(
            float(fd_lap), rel=1e-5)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            make_example1(1.0)


class TestProblemSpecValidation:
    def test_incompatible_boundary_rejected(self):
        with pytest.raises(ValueError, match="disagrees"):
            ProblemSpec(
                name="bad", alpha=0.5, domain=(1.0, 1.0), T=1.0,
                phi=_zero_xy, psi=_zero_xy,
                boundary=lambda x, y, t: 1.0 + 0.0 * x,
                forcing_f=_zero_xyt,
            )

    @pytest.mark.parametrize("field", ["boundary", "psi"])
    def test_non_finite_probe_named(self, field):
        # a NaN difference passed the check, since max(worst, nan) is worst
        nan_xy = lambda x, y: np.log(x - 0.5) * 0.0  # noqa: E731
        data = dict(psi=_zero_xy, boundary=_zero_xyt)
        if field == "psi":
            data["psi"] = nan_xy
        else:
            data["boundary"] = lambda x, y, t: nan_xy(x, y) + t
        at = " at t=0" if field == "boundary" else ""
        with pytest.raises(ValueError) as info:
            ProblemSpec(name="nan", alpha=0.5, domain=(1.0, 1.0), T=1.0,
                        phi=_zero_xy, forcing_f=_zero_xyt, **data)
        assert str(info.value).startswith(f"{field} is nan{at}, (x, y) = (0, 0)")

    def test_missing_forcing_rejected(self):
        with pytest.raises(ValueError, match="forcing"):
            ProblemSpec(
                name="bad", alpha=0.5, domain=(1.0, 1.0), T=1.0,
                phi=_zero_xy, psi=_zero_xy, boundary=_zero_xyt,
            )

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0), dict(alpha=1.5), dict(domain=(0.0, 1.0)),
        dict(domain=(1.0,)), dict(T=-1.0),
    ])
    def test_scalar_validation(self, kwargs):
        base = dict(name="p", alpha=0.5, domain=(1.0, 1.0), T=1.0,
                    phi=_zero_xy, psi=_zero_xy, boundary=_zero_xyt,
                    forcing_f=_zero_xyt)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ProblemSpec(**base)


class TestSampling:
    def test_scalar_broadcast(self):
        mesh = Mesh(1.0, 1.0, 4, 4, 1.0, 1)
        vals = sample_xy(lambda x, y: 2.5, mesh)
        assert vals.shape == mesh.shape
        assert np.all(vals == 2.5)
        assert vals.flags.writeable

    def test_grid_placement(self):
        mesh = Mesh(1.0, 2.0, 2, 4, 1.0, 1)
        vals = sample_xyt(lambda x, y, t: x + 10 * y + 100 * t, mesh, 0.5)
        assert vals[1, 2] == pytest.approx(0.5 + 10 * 1.0 + 50.0)

    def test_non_finite_value_names_field_and_node(self):
        mesh = Mesh(1.0, 2.0, 2, 4, 1.0, 1)
        with pytest.raises(ValueError,
                           match=r"^boundary is inf at t=0.25, \(x, y\) = "
                                 r"\(0.5, 1\)"):
            sample_xyt(lambda x, y, t: 1.0 / ((x - 0.5) ** 2 + (y - 1.0) ** 2),
                       mesh, 0.25, field="boundary")
        with pytest.raises(ValueError, match=r"^data is nan, \(x, y\) = \(0, 0"):
            sample_xy(lambda x, y: np.log(x - 0.5), mesh)

    def test_block_of_levels(self):
        # t of shape (b, 1, 1) samples b levels in one call; a scalar
        # result, or one without t, broadcasts to the block
        mesh = Mesh(1.0, 2.0, 2, 4, 1.0, 4)
        t = np.array([0.25, 0.5, 0.75])[:, None, None]
        vals = sample_xyt(lambda x, y, t: x + 10 * y + 100 * t, mesh, t)
        assert vals.shape == (3, *mesh.shape)
        for i, ti in enumerate(t.ravel()):
            assert np.array_equal(
                vals[i], sample_xyt(lambda x, y, t: x + 10 * y + 100 * t,
                                    mesh, ti))
        assert np.all(sample_xyt(lambda x, y, t: 2.5, mesh, t) == 2.5)
        assert sample_xyt(_zero_xyt, mesh, t).shape == (3, *mesh.shape)

    def test_callable_writing_into_its_points_fails(self):
        # the mesh's coordinates are shared and read-only: a callable that
        # writes into them fails loudly and the mesh keeps its nodes
        mesh = Mesh(1.0, 2.0, 2, 4, 1.0, 2)
        x0, y0 = mesh.x.copy(), mesh.y.copy()

        def shift_x(x, y, t):
            x += 1.0
            return x + y + t

        with pytest.raises(ValueError, match="read-only"):
            sample_xyt(shift_x, mesh, 0.5)
        with pytest.raises(ValueError, match="read-only"):
            sample_xy(lambda x, y: np.multiply(y, 2.0, out=y), mesh)
        spec = ProblemSpec(name="writes-x", alpha=0.5, domain=(1.0, 2.0),
                           T=1.0, phi=_zero_xy, psi=_zero_xy,
                           boundary=_zero_xyt, forcing_f=shift_x)
        with pytest.raises(ValueError, match="read-only"):
            solve(spec, mesh)
        assert np.array_equal(mesh.x, x0) and np.array_equal(mesh.y, y0)
        # samples are fresh writable arrays, not the coordinates
        vals = sample_xy(lambda x, y: x + 0.0 * y, mesh)
        vals[1] = -1.0
        assert vals.flags.writeable and np.array_equal(mesh.x, x0)
        assert sample_xyt(lambda x, y, t: x, mesh, 0.5).flags.writeable

    def test_non_finite_value_names_its_level(self):
        # the t, x and y of the first non-finite value, at the second of
        # three levels
        mesh = Mesh(1.0, 2.0, 2, 4, 1.0, 4)
        t = np.array([0.25, 0.5, 0.75])[:, None, None]
        with pytest.raises(ValueError,
                           match=r"^boundary is inf at t=0.5, \(x, y\) = "
                                 r"\(0.5, 1\)"):
            sample_xyt(lambda x, y, t: 1.0 / ((x - 0.5) ** 2 + (y - 1.0) ** 2
                                              + (t - 0.5) ** 2),
                       mesh, t, field="boundary")


def _shifted_problem(alpha):
    """Exact solution sin(x) sin(y) (t**(alpha+3) + 1): the benchmark plus a
    time-independent displacement."""
    base = make_example1(alpha)
    inv_gamma = 1.0 / math.gamma(1.0 + alpha)

    def psi(x, y):
        return np.sin(x) * np.sin(y)

    def psi_lap(x, y):
        return -2.0 * np.sin(x) * np.sin(y)

    def forcing(x, y, t):
        t = np.asarray(t, dtype=float)
        return base.forcing_f(x, y, t) + 2.0 * np.sin(x) * np.sin(y) \
            * t**alpha * inv_gamma

    def exact(x, y, t):
        return base.exact(x, y, t) + np.sin(x) * np.sin(y)

    def exact_lap(x, y, t):
        return base.exact_laplacian(x, y, t) - 2.0 * np.sin(x) * np.sin(y)

    def caputo(x, y, t):
        return base.caputo_forcing(x, y, t) + 2.0 * np.sin(x) * np.sin(y)

    return ProblemSpec(
        name="shifted", alpha=alpha, domain=base.domain, T=base.T,
        phi=_zero_xy, psi=psi, boundary=_zero_xyt, forcing_f=forcing,
        caputo_forcing=caputo, exact=exact, psi_laplacian=psi_lap,
        exact_dt=base.exact_dt, exact_laplacian=exact_lap,
    )


class TestHomogenize:
    def test_already_reduced_is_identity(self):
        p = make_example1(0.5)
        assert homogenize_initial(p) is p

    def test_idempotent(self):
        reduced = homogenize_initial(_shifted_problem(0.5))
        assert homogenize_initial(reduced) is reduced

    def test_reduction_recovers_benchmark_fields(self):
        alpha = 0.4
        reduced = homogenize_initial(_shifted_problem(alpha))
        base = make_example1(alpha)
        mesh = mesh_for(base, 9, n=1)
        assert np.max(np.abs(sample_xy(reduced.psi, mesh))) == 0.0
        for t in (0.0, 0.3, 1.0):
            got = sample_xyt(reduced.forcing_f, mesh, t)
            ref = sample_xyt(base.forcing_f, mesh, t)
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)
            got = sample_xyt(reduced.exact, mesh, t)
            ref = sample_xyt(base.exact, mesh, t)
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)
            # boundary trace only matters on the frame
            bvals = sample_xyt(reduced.boundary, mesh, t)
            for trace in (bvals[0, :], bvals[-1, :], bvals[:, 0], bvals[:, -1]):
                assert np.allclose(trace, 0.0, atol=1e-12)
        got = sample_xyt(reduced.caputo_forcing, mesh, 0.7)
        ref = sample_xyt(base.caputo_forcing, mesh, 0.7)
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "t", [0.7, np.array([0.0, 0.3, 1.0])[:, None, None]],
        ids=["float", "block"])
    def test_each_shift_is_its_formula(self, t):
        # every shifted field is the original field plus its psi term, bit
        # for bit, for one time and for a block of levels
        alpha = 0.4
        base = _shifted_problem(alpha)
        p = replace(base, boundary=lambda x, y, t: base.psi(x, y) + t * x * y)
        reduced = homogenize_initial(p)
        mesh = mesh_for(p, 9, n=1)
        x, y, ta = mesh.x[:, None], mesh.y[None, :], np.asarray(t)
        psi, lap = p.psi(x, y), p.psi_laplacian(x, y)
        memory = lap * ta**alpha * (1.0 / math.gamma(1.0 + alpha))
        want = {
            "boundary": p.boundary(x, y, ta) - psi,
            "exact": p.exact(x, y, ta) - psi,
            "exact_laplacian": p.exact_laplacian(x, y, ta) - lap,
            "forcing_f": p.forcing_f(x, y, ta) + memory,
            "caputo_forcing": p.caputo_forcing(x, y, ta) + lap,
        }
        for name, ref in want.items():
            got = sample_xyt(getattr(reduced, name), mesh, t, field=name)
            ref = np.broadcast_to(ref, got.shape)
            assert got.tobytes() == ref.tobytes(), name

    def test_psi_decided_on_the_mesh(self):
        # psi vanishes on the 33x33 probe of (0, pi)^2, not on M=64 nodes
        base = make_example1(0.5)

        def psi(x, y):
            return np.sin(32.0 * x) * np.sin(y)

        p = ProblemSpec(
            name="fine", alpha=0.5, domain=base.domain, T=base.T,
            phi=_zero_xy, psi=psi,
            boundary=lambda x, y, t: psi(x, y) + 0.0 * t,
            forcing_f=_zero_xyt,
            psi_laplacian=lambda x, y: -1025.0 * psi(x, y),
        )
        assert homogenize_initial(p) is p
        assert homogenize_initial(p, mesh_for(p, 32, n=1)) is p
        reduced = homogenize_initial(p, mesh_for(p, 64, n=1))
        assert reduced is not p
        # the fields the problem lacks stay missing
        assert reduced.caputo_forcing is None and reduced.exact is None
        assert reduced.exact_laplacian is None
        assert np.max(np.abs(sample_xy(reduced.psi, mesh_for(p, 64)))) == 0.0

    def test_non_finite_probe_value_named(self):
        # infinite at a probe node only; the probe used to warn, not raise
        def psi(x, y):
            return (np.sin(np.pi * x) * np.sin(np.pi * y)
                    / ((x - 0.59375) ** 2 + (y - 0.59375) ** 2))

        p = ProblemSpec(
            name="pole", alpha=0.5, domain=(1.0, 1.0), T=1.0,
            phi=_zero_xy, psi=psi, boundary=_zero_xyt, forcing_f=_zero_xyt,
        )
        with pytest.raises(ValueError, match=re.escape(
                "psi is inf, (x, y) = (0.59375, 0.59375)")):
            homogenize_initial(p)

    def test_missing_laplacian_rejected(self):
        p = _shifted_problem(0.5)
        stripped = ProblemSpec(
            name=p.name, alpha=p.alpha, domain=p.domain, T=p.T, phi=p.phi,
            psi=p.psi, boundary=p.boundary, forcing_f=p.forcing_f,
        )
        with pytest.raises(ValueError, match="psi_laplacian"):
            homogenize_initial(stripped)


class TestVerifyManufactured:
    def test_benchmark_residual_analytic_path(self):
        rep = verify_manufactured(make_example1(0.5), samples=6, panels=1500)
        assert not rep.used_fd_time and not rep.used_fd_space
        assert rep.max_residual < 1e-10

    def test_benchmark_residual_fd_fallback(self):
        p = make_example1(0.5)
        stripped = ProblemSpec(
            name=p.name, alpha=p.alpha, domain=p.domain, T=p.T, phi=p.phi,
            psi=p.psi, boundary=p.boundary, forcing_f=p.forcing_f,
            exact=p.exact,
        )
        rep = verify_manufactured(stripped, samples=6, panels=1500)
        assert rep.used_fd_time and rep.used_fd_space
        assert rep.max_residual < 1e-6

    def test_shifted_problem_residual(self):
        rep = verify_manufactured(_shifted_problem(0.35), samples=5,
                                  panels=1500)
        assert rep.max_residual < 1e-9

    def test_requires_exact(self):
        with pytest.raises(ValueError, match="exact"):
            verify_manufactured(make_random_problem(0), samples=2)

    def test_deterministic(self):
        a = verify_manufactured(make_example1(0.3), samples=4, panels=600)
        b = verify_manufactured(make_example1(0.3), samples=4, panels=600)
        assert np.array_equal(a.residuals, b.residuals)
        assert np.array_equal(a.points, b.points)


_LEAVES = st.one_of(
    st.sampled_from(["x", "y", "t", "alpha", "pi"]),
    st.integers(0, 10**400).map(str),
    st.floats(0.0, allow_nan=False, allow_infinity=False).map(repr),
)


def _expressions(depth: int):
    """Expressions of the admitted grammar nested at most ``depth`` deep."""
    if depth == 0:
        return _LEAVES
    sub = _expressions(depth - 1)
    return st.one_of(
        _LEAVES,
        st.builds("({} {} {})".format, sub, st.sampled_from("+-*/"), sub),
        st.builds("({})**({})".format, sub, sub),
        st.builds("{}({})".format, st.sampled_from("+-"), sub),
        st.builds("{}({})".format, st.sampled_from(sorted(_EXPR_FUNCS)), sub),
    )


class TestCompileExpression:
    def test_basic(self):
        f = compile_expression("sin(x)*cos(y) + t**2", alpha=0.5)
        assert f(0.5, 0.2, 2.0) == pytest.approx(
            math.sin(0.5) * math.cos(0.2) + 4.0)

    def test_alpha_and_pi(self):
        f = compile_expression("alpha * pi + gamma(4)", alpha=0.25)
        assert f(0, 0, 0) == pytest.approx(0.25 * math.pi + 6.0)

    def test_gamma_loads_scipy_special_on_first_call(self):
        # a fresh interpreter: compiling an expression does not load
        # scipy.special, its first gamma does, and the values are the
        # same bits, a pole's inf among them
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from fracadi.problems import compile_expression\n"
            "f = compile_expression('gamma(x)', alpha=0.5)\n"
            "before = 'scipy.special' in sys.modules\n"
            "x = np.array([-2.5, -0.5, 0.0, 1e-3, 0.5, 1.0, 4.5, 171.5, 172.0])\n"
            "got = f(x, 0.0, 0.0)\n"
            "after = 'scipy.special' in sys.modules\n"
            "from scipy.special import gamma\n"
            "print(before, after, got.tobytes() == gamma(x).tobytes(),\n"
            "      got[2], f(4.0, 0.0, 0.0))\n"
        )
        assert run_fresh(code) == "False True True inf 6.0"

    def test_gamma_pole_names_the_field(self):
        mesh = Mesh(L1=1.0, L2=1.0, M1=4, M2=4, T=1.0, N=2)
        f = compile_expression("gamma(x) * t", alpha=0.5)
        with pytest.raises(ValueError, match="^forcing is inf at t=1, "
                                             "\\(x, y\\) = \\(0, "):
            sample_xyt(f, mesh, 1.0, field="forcing")

    def test_vectorized(self):
        f = compile_expression("x*y + t", alpha=0.5)
        x = np.array([1.0, 2.0])
        out = f(x, 3.0, 0.5)
        assert np.allclose(out, [3.5, 6.5])

    @pytest.mark.parametrize("src", [
        "__import__('os')",
        "x.real",
        "[1, 2]",
        "x < 1",
        "foo(x)",
        "sin(x, key=1)",
        "sin()",
        "gamma(x, x)",
        "lambda: 1",
        "x if t else y",
        "'abc'",
        "q + 1",
    ])
    def test_rejected_syntax(self, src):
        with pytest.raises(ValueError):
            compile_expression(src, alpha=0.5)

    def test_integer_literals_are_floats(self):
        f = compile_expression("x*0 + 9**9**9", alpha=0.5, label="forcing")
        with pytest.raises(ValueError, match="^forcing: .*9\\*\\*9"):
            f(np.zeros(3), 0.0, 0.0)
        assert isinstance(compile_expression("2**3", alpha=0.5)(0, 0, 0),
                          float)
        with pytest.raises(ValueError, match="too large"):
            compile_expression("1" + "0" * 400, alpha=0.5)

    def test_variable_subset(self):
        with pytest.raises(ValueError, match="t"):
            compile_expression("t + x", alpha=0.5, variables=("x", "y"))

    @settings(max_examples=150, deadline=timedelta(seconds=1))
    @given(source=_expressions(4))
    @example(source="9**9**9")
    @example(source="log(x - 0.5)")
    @example(source="(0-2)**alpha")
    @example(source="+".join(["x"] * 100_000))
    def test_fuzz_value_error_or_finite_grid(self, source):
        # any admitted expression either fails with a ValueError or samples
        # to a finite grid of the mesh's shape
        mesh = Mesh(1.0, 1.0, 3, 2, 1.0, 1)
        try:
            f = compile_expression(source, alpha=0.5, label="fuzz")
            out = sample_xyt(f, mesh, 0.5, field="fuzz")
        except ValueError:
            return
        assert out.shape == mesh.shape
        assert np.isfinite(out).all()



EXAMPLE_JSON = {
    "name": "benchmark-json",
    "alpha": 0.5,
    "domain": [math.pi, math.pi],
    "final_time": 1.0,
    "phi": "0",
    "psi": "0",
    "boundary": "0",
    "forcing": "sin(x)*sin(y)*((alpha+3)*t**(alpha+2)"
               " + 2*gamma(alpha+4)/gamma(2*alpha+4)*t**(2*alpha+3))",
    "exact": "sin(x)*sin(y)*t**(alpha+3)",
    "exact_dt": "sin(x)*sin(y)*(alpha+3)*t**(alpha+2)",
    "exact_laplacian": "-2*sin(x)*sin(y)*t**(alpha+3)",
    "psi_laplacian": "0",
}


class TestLoadProblem:
    def test_round_trip_matches_builtin(self, tmp_path):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(EXAMPLE_JSON))
        loaded = load_problem(path)
        builtin = make_example1(0.5)
        mesh = mesh_for(builtin, 7, n=1)
        for t in (0.2, 1.0):
            assert np.allclose(
                sample_xyt(loaded.forcing_f, mesh, t),
                sample_xyt(builtin.forcing_f, mesh, t), rtol=1e-13)
            assert np.allclose(
                sample_xyt(loaded.exact, mesh, t),
                sample_xyt(builtin.exact, mesh, t), rtol=1e-13)

    def test_alpha_override(self, tmp_path):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(EXAMPLE_JSON))
        loaded = load_problem(path, alpha=0.25)
        assert loaded.alpha == 0.25
        builtin = make_example1(0.25)
        mesh = mesh_for(builtin, 5, n=1)
        assert np.allclose(sample_xyt(loaded.forcing_f, mesh, 0.8),
                           sample_xyt(builtin.forcing_f, mesh, 0.8),
                           rtol=1e-13)

    def test_missing_key(self, tmp_path):
        data = dict(EXAMPLE_JSON)
        del data["boundary"]
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="boundary"):
            load_problem(path)

    def test_missing_alpha(self, tmp_path):
        data = dict(EXAMPLE_JSON)
        del data["alpha"]
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="alpha"):
            load_problem(path)
        assert load_problem(path, alpha=0.5).alpha == 0.5

    def test_null_means_zero(self, tmp_path):
        # a JSON null phi, psi or boundary is the zero field; a null
        # optional field is absent
        data = dict(EXAMPLE_JSON, phi=None, psi=None, boundary=None,
                    exact=None, caputo_forcing=None)
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(data))
        loaded = load_problem(path)
        assert loaded.phi is _zero_xy and loaded.psi is _zero_xy
        assert loaded.boundary is _zero_xyt
        assert loaded.exact is None and loaded.caputo_forcing is None
        assert loaded.forcing_f is not None

    def test_time_in_space_only_field(self, tmp_path):
        data = dict(EXAMPLE_JSON)
        data["psi"] = "t * x"
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="psi"):
            load_problem(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "prob.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            load_problem(path)

    def test_no_forcing_rejected(self, tmp_path):
        data = {k: v for k, v in EXAMPLE_JSON.items() if k != "forcing"}
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError,
                           match="either forcing_f or caputo_forcing"):
            load_problem(path)

    @pytest.mark.parametrize("key, value", [
        ("domain", ["a", 1]),
        ("domain", [1.0, None]),
        ("final_time", None),
        ("final_time", "soon"),
        ("alpha", [0.5]),
        # a JSON true used to load as 1.0
        ("alpha", True),
        ("final_time", True),
        ("domain", [True, 1.0]),
    ])
    def test_non_numeric_value_names_key(self, tmp_path, key, value):
        data = dict(EXAMPLE_JSON)
        data[key] = value
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as info:
            load_problem(path)
        assert str(path) in str(info.value)
        assert f"key {key!r}" in str(info.value)

    def test_name_defaults_to_stem(self, tmp_path):
        data = dict(EXAMPLE_JSON)
        del data["name"]
        path = tmp_path / "mystery.json"
        path.write_text(json.dumps(data))
        assert load_problem(path).name == "mystery"


class TestGetProblem:
    def test_builtin(self):
        p = get_problem("example1", 0.5)
        assert p.name == "example1" and p.alpha == 0.5

    def test_builtin_needs_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            get_problem("example1")

    def test_spec_passthrough(self):
        p = make_example1(0.3)
        assert get_problem(p) is p

    def test_path(self, tmp_path):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(EXAMPLE_JSON))
        assert get_problem(str(path)).name == "benchmark-json"

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("no-such-problem", 0.5)


class TestRandomProblem:
    def test_deterministic_per_seed(self):
        a = make_random_problem(7)
        b = make_random_problem(7)
        mesh = Mesh(1.0, 1.0, 6, 6, 1.0, 1)
        assert np.array_equal(sample_xyt(a.forcing_f, mesh, 0.37),
                              sample_xyt(b.forcing_f, mesh, 0.37))
        assert a.alpha == b.alpha

    def test_seeds_differ(self):
        mesh = Mesh(1.0, 1.0, 6, 6, 1.0, 1)
        a = sample_xy(make_random_problem(1).phi, mesh)
        b = sample_xy(make_random_problem(2).phi, mesh)
        assert not np.array_equal(a, b)

    def test_zero_boundary_and_initial(self):
        p = make_random_problem(3)
        mesh = Mesh(1.0, 1.0, 8, 8, 1.0, 1)
        assert np.max(np.abs(sample_xy(p.psi, mesh))) == 0.0
        vals = sample_xyt(p.forcing_f, mesh, 0.5)
        assert np.allclose(vals[0, :], 0.0, atol=1e-14)
        assert np.allclose(vals[:, -1], 0.0, atol=1e-14)
