import collections
import dataclasses
import functools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracadi import (
    GridFn,
    Mesh,
    SolverDivergenceError,
    adi_step,
    homogenize_initial,
    init_state,
    load_problem,
    make_example1,
    mesh_for,
    solve,
)
from fracadi import adisolver, fracweights
from fracadi.meshops import _zero_frame
from fracadi.problems import (
    ProblemSpec,
    _zero_xy,
    _zero_xyt,
    sample_xy,
    sample_xyt,
)
from fracadi.verify import (
    compact_h,
    equivalence_problem,
    lambda_op,
    solve_direct,
    split_product_apply,
    unsplit_product_apply,
)


def _mesh(problem, m1, m2, n):
    return Mesh(problem.L1, problem.L2, m1, m2, problem.T, n)


def _mu_c(problem, mesh):
    # the scheme's mu = tau^(alpha+1)/2 and c = mu lambda_0, formed here
    # rather than read from the solver
    mu = mesh.tau ** (problem.alpha + 1.0) / 2.0
    return mu, mu * fracweights.scheme_weights(problem.alpha, 0)[0]


class TestInitState:
    def test_initial_contents(self):
        p = make_example1(0.5)
        mesh = mesh_for(p, 6, n=4)
        state = init_state(p, mesh)
        assert state.current_level == 0
        assert np.all(state.u_current.values == 0.0)
        assert state.history.shape == (5, 7, 7)
        assert np.all(state.history == 0.0)
        assert np.shares_memory(state.u_current.values, state.history[0])
        assert len(state.plan.kappa) == mesh.N + 1

    def test_state_holds_only_the_run(self):
        # what a level reads but never changes lives in the plan
        names = [f.name for f in dataclasses.fields(adisolver.SolverState)]
        assert names == ["problem", "mesh", "history", "forcing",
                         "f_current", "plan", "boundary_rows", "edges",
                         "boundary_lo", "current_level", "last_report"]

    def test_nonzero_psi_rejected(self):
        p = make_example1(0.5)
        bad = ProblemSpec(
            name="bad", alpha=0.5, domain=p.domain, T=p.T, phi=p.phi,
            psi=lambda x, y: np.sin(x) * np.sin(y),
            boundary=_zero_xyt, forcing_f=p.forcing_f,
        )
        with pytest.raises(ValueError, match="homogenize"):
            init_state(bad, mesh_for(bad, 6, n=2))

    def test_mesh_problem_mismatch(self):
        p = make_example1(0.5)
        with pytest.raises(ValueError, match="match"):
            init_state(p, Mesh(1.0, 1.0, 6, 6, 1.0, 2))


class TestStepping:
    def test_boundary_values_exact(self):
        p = equivalence_problem(0.5)
        mesh = _mesh(p, 7, 9, 4)
        state = init_state(p, mesh)
        for _ in range(3):
            adi_step(state)
        t = state.current_level * mesh.tau
        bvals = sample_xyt(p.boundary, mesh, t)
        u = state.u_current.values
        assert np.array_equal(u[0, :], bvals[0, :])
        assert np.array_equal(u[-1, :], bvals[-1, :])
        assert np.array_equal(u[:, 0], bvals[:, 0])
        assert np.array_equal(u[:, -1], bvals[:, -1])

    def test_new_level_frame_equals_block_row(self):
        # each level's frame is its row of the boundary block, bitwise, on
        # the nodes of mesh.frame
        p = equivalence_problem(0.4)
        mesh = _mesh(p, 7, 9, 12)
        state = init_state(p, mesh)
        index = mesh.frame[2]
        for k in range(1, mesh.N + 1):
            adi_step(state)
            row = state.boundary_rows[k - state.boundary_lo]
            got = state.history[k].ravel()[index]
            assert np.array_equal(got.view(np.uint64), row.view(np.uint64))

    def test_history_matches_operator(self):
        # the history stores the accepted fields; u_current views the last
        p = equivalence_problem(0.3)
        mesh = _mesh(p, 8, 7, 5)
        state = init_state(p, mesh)
        fields = [state.u_current.values.copy()]
        for _ in range(4):
            adi_step(state)
            assert np.shares_memory(state.u_current.values,
                                    state.history[state.current_level])
            fields.append(state.u_current.values.copy())
        for k, u in enumerate(fields):
            assert np.array_equal(state.history[k], u)

    # level 70 lies past the first far-field blocks [0, 32) and [0, 64)
    @pytest.mark.parametrize("level, n_steps", [(3, 5), (70, 72)],
                             ids=["level3", "level70"])
    def test_rhs_from_scratch_recomputation(self, level, n_steps):
        p = equivalence_problem(0.3)
        mesh = _mesh(p, 8, 7, n_steps)
        state = init_state(p, mesh)
        fields = [state.u_current]
        for _ in range(level):
            adi_step(state)
            fields.append(state.u_current)
        n = state.current_level
        assert n == level
        got = _zero_frame(adisolver._rhs_raw(state, state.forcing(n + 1)))

        # independent reassembly from the stored levels
        lam = fracweights.scheme_weights(p.alpha, n_steps + 1)
        mu, c = _mu_c(p, mesh)
        ref = split_product_apply(fields[n], c, sign=+1).values.copy()
        for m in range(n + 1):
            coef = lam[n + 1 - m] + (lam[n - m] if m <= n - 1 else 0.0)
            ref += mu * coef * lambda_op(fields[m]).values
        phi_grid = GridFn(mesh, sample_xy(p.phi, mesh))
        ref += mesh.tau * compact_h(phi_grid).values
        fsum = sample_xyt(p.forcing_f, mesh, n * mesh.tau) \
            + sample_xyt(p.forcing_f, mesh, (n + 1) * mesh.tau)
        ref += 0.5 * mesh.tau * compact_h(GridFn(mesh, fsum)).values
        ref[0, :] = ref[-1, :] = 0.0
        ref[:, 0] = ref[:, -1] = 0.0
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, scale)

    # levels from 33 on read pending far-field rows as well as the leaf
    @settings(max_examples=25, deadline=None)
    @given(m1=st.integers(2, 16), m2=st.integers(2, 16),
           alpha=st.floats(0.05, 0.95), level=st.integers(33, 70))
    def test_factored_rhs_matches_unfused_formula(self, m1, m2, alpha, level):
        # the step's factored right-hand side against the three products
        # applied one after another, for the same memory sum S_n
        assume(m1 != m2)
        p = equivalence_problem(alpha)
        mesh = _mesh(p, m1, m2, level + 1)
        state = init_state(p, mesh)
        while state.current_level < level:
            adi_step(state)
        memory = GridFn(mesh, adisolver._memory_sum(state).copy())
        f_next = state.forcing(level + 1)
        got = adisolver._rhs_raw(state, f_next)[1:-1, 1:-1]

        phi = GridFn(mesh, sample_xy(p.phi, mesh))
        fsum = GridFn(mesh, state.f_current + f_next)
        mu, c = _mu_c(p, mesh)
        ref = (split_product_apply(state.u_current, c, +1).values
               + mu * lambda_op(memory).values
               + mesh.tau * compact_h(phi).values
               + 0.5 * mesh.tau * compact_h(fsum).values)[1:-1, 1:-1]
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_step_past_end_rejected(self):
        p = make_example1(0.5)
        state = init_state(p, mesh_for(p, 6, n=1))
        adi_step(state)
        with pytest.raises(ValueError, match="final"):
            adi_step(state)

    def test_adi_equals_direct(self):
        p = equivalence_problem(0.5)
        mesh = _mesh(p, 8, 10, 4)
        r1 = solve(p, mesh)
        r2 = solve_direct(p, mesh)
        assert np.max(np.abs(r1.final.values - r2.final.values)) < 1e-12

    def test_adi_equals_direct_one_interior_row(self):
        # M1 = 2: the x sweep solves one row, and the frame's columns hold
        # one node each
        p = equivalence_problem(0.5)
        mesh = _mesh(p, 2, 3, 6)
        adi = solve(p, mesh).state.history
        dense = solve_direct(p, mesh).state.history
        assert np.max(np.abs(adi - dense)) <= 1e-11

    # criterion 3's tolerance, on every level of random non-square runs
    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.05, 0.95), m1=st.integers(2, 12),
           m2=st.integers(2, 12), n=st.integers(1, 6))
    def test_adi_equals_direct_on_random_meshes(self, alpha, m1, m2, n):
        p = equivalence_problem(alpha)
        mesh = _mesh(p, m1, m2, n)
        adi = solve(p, mesh).state.history
        dense = solve_direct(p, mesh).state.history
        assert np.max(np.abs(adi - dense)) <= 1e-11

    def test_direct_cap(self):
        p = make_example1(0.5)
        with pytest.raises(ValueError, match="40x40 exceeds dense_cap"):
            solve_direct(p, mesh_for(p, 40, n=2))

    def test_divergence_detected(self):
        p = make_example1(0.5)
        huge = ProblemSpec(
            name="huge", alpha=0.5, domain=p.domain, T=p.T, phi=p.phi,
            psi=p.psi, boundary=p.boundary,
            forcing_f=lambda x, y, t: 1e308 + 0.0 * x * y,
        )
        with np.errstate(over="ignore"), pytest.raises(SolverDivergenceError) as info:
            solve(huge, mesh_for(p, 6, n=4))
        assert info.value.level >= 1

    @pytest.mark.parametrize("field, named", [
        ("forcing_f", "the forcing f at t = 0.25"),
        ("boundary", "the boundary at t = 0.25"),
    ])
    def test_overflow_names_largest_input(self, field, named):
        # finite data too large for the step's sums: the error names the
        # step, its t and the largest input, and does not say "diverged"
        p = make_example1(0.5)
        data = {"forcing_f": lambda x, y, t: 1.7e308 * np.sin(x) * np.sin(y),
                "boundary": lambda x, y, t: (1.7e308 * np.minimum(1.0, 4.0 * t)
                                             * np.cos(x * y / 20.0))}
        huge = dataclasses.replace(p, exact=None, **{field: data[field]})
        with pytest.raises(SolverDivergenceError) as info:
            solve(huge, mesh_for(p, 6, n=4))
        message = str(info.value)
        assert info.value.level == 1
        assert message.startswith("the step to level 1 (t = 0.25) overflowed "
                                  "the float range")
        assert named in message and "max |value| = 1." in message
        assert "diverged" not in message

    def test_direct_step_overflow_named_without_warning(self):
        # adi_step outside solve: the overflowing step raises the named
        # error, not numpy's RuntimeWarning (an error under this suite)
        p = make_example1(0.5)
        huge = dataclasses.replace(
            p, exact=None, boundary=lambda x, y, t: 1.7e308 * t + 0.0 * x * y)
        state = init_state(huge, mesh_for(p, 6, n=8))
        with pytest.raises(SolverDivergenceError) as info:
            for _ in range(8):
                adi_step(state)
        assert info.value.level == state.current_level + 1
        assert "the boundary at t = " in str(info.value)


def _count_samples(monkeypatch):
    """Count the solver's problem-data samples by field: the levels sampled
    (``np.size(t)`` of a call; one for phi and psi) and the calls."""
    levels, calls = collections.Counter(), collections.Counter()
    for name in ("sample_xy", "sample_xyt"):
        def counted(func, mesh, *t, _sample=getattr(adisolver, name), **kwargs):
            levels[kwargs["field"]] += np.size(t[0]) if t else 1
            calls[kwargs["field"]] += 1
            return _sample(func, mesh, *t, **kwargs)
        monkeypatch.setattr(adisolver, name, counted)
    return levels, calls


class TestSamplingCounts:
    """Each level's data is sampled once: the forcing at all N+1 levels, one
    level per call (a caputo_forcing table a block of levels per call), the
    boundary and exact solution at levels 1..N, a block of levels per call,
    phi and psi once."""

    def test_forcing_given(self, monkeypatch):
        p = make_example1(0.5)
        mesh = mesh_for(p, 6, n=40)
        assert adisolver._block_levels(mesh) == 2**20 // (8 * 7 * 7)
        levels, calls = _count_samples(monkeypatch)
        solve(p, mesh)
        assert levels == {"forcing": 41, "boundary": 40, "exact": 40,
                          "phi": 1, "psi": 1}
        assert calls["forcing"] == 41
        assert calls["boundary"] == calls["exact"] == 1

    def test_blocks_of_seven_levels(self, monkeypatch):
        # the same levels, the boundary and exact in ceil(40 / 7) calls
        p = make_example1(0.5)
        mesh = mesh_for(p, 6, n=40)
        monkeypatch.setattr(adisolver, "_BLOCK_BYTES", 7 * 8 * 7 * 7)
        assert adisolver._block_levels(mesh) == 7
        levels, calls = _count_samples(monkeypatch)
        solve(p, mesh)
        assert levels == {"forcing": 41, "boundary": 40, "exact": 40,
                          "phi": 1, "psi": 1}
        assert calls["boundary"] == calls["exact"] == math.ceil(40 / 7)

    def test_caputo_forcing_only(self, monkeypatch):
        # the table's N+1 levels in blocks too: one call, then with blocks
        # of seven levels ceil(41 / 7)
        p = dataclasses.replace(make_example1(0.5), forcing_f=None)
        mesh = mesh_for(p, 6, n=40)
        levels, calls = _count_samples(monkeypatch)
        for block_bytes in (adisolver._BLOCK_BYTES, 7 * 8 * 7 * 7):
            monkeypatch.setattr(adisolver, "_BLOCK_BYTES", block_bytes)
            b = adisolver._block_levels(mesh)
            levels.clear()
            calls.clear()
            solve(p, mesh)
            assert levels == {"caputo_forcing": 41, "boundary": 40,
                              "exact": 40, "phi": 1, "psi": 1}
            assert calls["caputo_forcing"] == math.ceil(41 / b)
            assert calls["boundary"] == calls["exact"] == math.ceil(40 / b)


class TestBlockSampling:
    """The boundary and exact solution sampled a block of levels per call
    give the values of one call per level."""

    @staticmethod
    def _homogenized_json(tmp_path):
        # nonzero psi and boundary data: the reduced problem's closures
        # subtract psi from the file's boundary and exact expressions
        doc = {"alpha": 0.5, "domain": [math.pi, 2.0], "final_time": 1.0,
               "phi": "0", "psi": "sin(x + 0.7) * sin(1.2 * y + 0.4) + 0.3*x",
               "psi_laplacian": "-2.44 * sin(x + 0.7) * sin(1.2 * y + 0.4)",
               "boundary": "sin(x + 0.7) * sin(1.2 * y + 0.4)"
                           " * (1 + t**(alpha + 3)) + 0.3*x",
               "exact": "sin(x + 0.7) * sin(1.2 * y + 0.4)"
                        " * (1 + t**(alpha + 3)) + 0.3*x",
               "forcing": "sin(x + 0.7) * sin(1.2 * y + 0.4) * t"}
        path = tmp_path / "inhomogeneous.json"
        path.write_text(json.dumps(doc))
        problem = load_problem(path)
        mesh = mesh_for(problem, 12, n=30)
        reduced = homogenize_initial(problem, mesh)
        assert reduced is not problem
        return reduced, mesh

    @pytest.mark.parametrize("which", ["example1", "json"])
    def test_block_equals_per_level(self, tmp_path, which):
        if which == "example1":
            p = make_example1(0.3)
            mesh = mesh_for(p, 12, n=30)
        else:
            p, mesh = self._homogenized_json(tmp_path)
        for name in ("boundary", "exact"):
            func = getattr(p, name)
            block = adisolver._sample_levels(func, mesh, 4, 17, name)
            per_level = np.stack([sample_xyt(func, mesh, k * mesh.tau)
                                  for k in range(4, 17)])
            # sin and pow may take a SIMD loop on an array t and a scalar
            # one on a float, which can differ in the last bit
            scale = np.max(np.abs(per_level))
            assert (np.max(np.abs(block - per_level))
                    <= 8 * np.finfo(float).eps * scale), name

    @pytest.mark.parametrize("which", ["example1", "json"])
    def test_frame_equals_grid_on_the_frame(self, tmp_path, which):
        if which == "example1":
            p = make_example1(0.3)
            mesh = mesh_for(p, 12, n=30)
        else:
            p, mesh = self._homogenized_json(tmp_path)
        mesh = dataclasses.replace(mesh, M2=mesh.M2 + 3)  # not square
        frame = adisolver._sample_levels(p.boundary, mesh, 4, 17,
                                         "boundary", frame=True)
        grid = adisolver._sample_levels(p.boundary, mesh, 4, 17, "boundary")
        nodes = 2 * (mesh.M1 + mesh.M2)
        assert grid.shape == (13, *mesh.shape)
        assert frame.shape == (13, nodes)
        on_frame = grid.reshape(13, -1)[:, mesh.frame[2]]
        # the same points in arrays of another length: a SIMD loop and a
        # scalar one may differ in the last bit
        scale = np.max(np.abs(grid))
        assert (np.max(np.abs(frame - on_frame))
                <= 8 * np.finfo(float).eps * scale)
        one = sample_xyt(p.boundary, mesh, 0.25, frame=True)
        assert one.shape == (nodes,)
        assert np.array_equal(one, sample_xyt(p.boundary, mesh, [[[0.25]]],
                                              frame=True)[0])

    def test_frame_calls_once_on_frame_points(self):
        p = make_example1(0.5)
        mesh = Mesh(p.L1, p.L2, 5, 7, p.T, 4)
        shapes = []

        def boundary(x, y, t):
            shapes.append((np.shape(x), np.shape(y), np.shape(t)))
            return x + y + t

        sample_xyt(boundary, mesh, np.zeros((3, 1, 1)), frame=True)
        assert shapes == [((1, 24), (1, 24), (3, 1))]

    def test_non_finite_frame_value_named(self):
        p = make_example1(0.5)
        mesh = mesh_for(p, 6, n=8)
        x_bad, t_bad = mesh.x[3], 5 * mesh.tau

        def bad(x, y, t):
            return np.where((x == x_bad) & (y == mesh.y[-1]) & (t == t_bad),
                            -np.inf, 0.0)

        where = f"at t={t_bad!r}, (x, y) = ({x_bad:.17g}, {mesh.y[-1]:.17g})"
        with pytest.raises(ValueError,
                           match="^boundary is -inf " + re.escape(where)):
            adisolver._sample_levels(bad, mesh, 1, 9, "boundary", frame=True)

    def test_edge_terms_equal_per_level_formula(self):
        # the sweeps' boundary terms of a block, bitwise, against one level
        # at a time as the x and y sweeps once formed them
        p = equivalence_problem(0.4)
        mesh = _mesh(p, 7, 9, 20)
        state = init_state(p, mesh)
        rows = adisolver._sample_levels(p.boundary, mesh, 1, 21, "boundary",
                                        frame=True)
        terms = adisolver._edge_terms(state, rows)
        sx, sy = state.plan.sweep_x, state.plan.sweep_y
        for i, row in enumerate(rows):
            bvals = np.zeros(mesh.shape)
            bvals.flat[mesh.frame[2]] = row
            lo = sy.diag * bvals[0, 1:-1] + sy.off * (bvals[0, :-2]
                                                      + bvals[0, 2:])
            hi = sy.diag * bvals[-1, 1:-1] + sy.off * (bvals[-1, :-2]
                                                       + bvals[-1, 2:])
            want = (sx.off * lo, sx.off * hi, sy.off * bvals[1:-1, 0],
                    sy.off * bvals[1:-1, -1])
            for got, ref in zip(terms, want):
                assert np.array_equal(got[i].view(np.uint64),
                                      ref.view(np.uint64))

    @pytest.mark.parametrize("name", ["boundary", "exact"])
    def test_non_finite_level_named(self, monkeypatch, name):
        # level 5 of 8, inside the one block of levels 1..8, is infinite
        p = make_example1(0.5)
        mesh = mesh_for(p, 6, n=8)
        assert adisolver._block_levels(mesh) >= 8
        t_bad = 5 * mesh.tau
        good = getattr(p, name)

        def bad(x, y, t):
            return good(x, y, t) + np.where(np.asarray(t) == t_bad,
                                            np.inf, 0.0)

        p = dataclasses.replace(p, **{name: bad})
        with pytest.raises(ValueError,
                           match=rf"^{name} is inf at t={t_bad!r}, "
                                 r"\(x, y\) = \(0, 0\)"):
            solve(p, mesh)


class TestForcingTable:
    def test_caputo_table_peaks_at_two_tables(self):
        # the samples g and the table, scaled in place, plus the fold's
        # column-chunk scratch: no third table-sized array
        p = dataclasses.replace(make_example1(0.5), forcing_f=None)
        mesh = mesh_for(p, 16, n=2000)
        table_bytes = 8 * (mesh.N + 1) * (mesh.M1 + 1) * (mesh.M2 + 1)
        # the table's FFT folds load scipy.fft; a process's first import of
        # it allocates about 0.6 MB of modules, which are not the fold's
        import scipy.fft  # noqa: F401
        tracemalloc.start()
        try:
            forcing = adisolver._wsgd_forcing_levels(p, mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forcing.nbytes == table_bytes
        assert peak <= 2 * table_bytes + 2 * fracweights._SCRATCH_BYTES, (
            peak / table_bytes)


def _memory_coefficients(lam, n):
    # coef[m] = lambda_{n+1-m} + lambda_{n-m}, the second term for m <= n-1
    coef = lam[1:n + 2][::-1].copy()
    if n >= 1:
        coef[:n] += lam[1:n + 1][::-1]
    return coef


# the oracle runs every step; build each read-only lambda table once
_lambda_table = functools.lru_cache(fracweights.scheme_weights)


def _naive_memory_sum(state):
    """The memory sum as one tensordot over the whole trajectory, written
    where the step reads S_n: the plan's memory-sum work plane."""
    n = state.current_level
    lam = _lambda_table(state.problem.alpha, state.mesh.N + 1)
    coef = _memory_coefficients(lam, n)
    out = state.plan.work[5]
    out[...] = np.tensordot(coef, state.history[:n + 1], axes=1)
    return out


# run lengths that straddle the leaf (one short of it, one leaf, one past
# it, one past the second), earlier leaf sizes' edges, and past the first
# FFT fold (a block of 2 * _TOEPLITZ_MAX_BLOCK levels)
_L = fracweights._LEAF
_N_STEPS = sorted({31, 32, 33, 65, 1000, 2000,
                   _L - 1, _L, _L + 1, 2 * _L + 1})
assert _N_STEPS[-1] > 2 * fracweights._TOEPLITZ_MAX_BLOCK + 1


class TestMemoryConvolution:
    """The blocked memory sum against the naive full-history sum."""

    @pytest.mark.parametrize("n_steps", _N_STEPS)
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("method", ["adi", "direct"])
    def test_trajectory_matches_naive_sum(self, monkeypatch, method, alpha,
                                          n_steps):
        p = equivalence_problem(alpha)
        mesh = _mesh(p, 5, 4, n_steps)
        run = {"adi": solve, "direct": solve_direct}[method]
        fast = run(p, mesh)
        with monkeypatch.context() as patched:
            patched.setattr(adisolver, "_memory_sum", _naive_memory_sum)
            naive = run(p, mesh)
        assert fast.state.current_level == n_steps
        for k in range(n_steps + 1):
            ref = naive.state.history[k]
            err = np.max(np.abs(fast.state.history[k] - ref))
            assert err <= 1e-13 * np.max(np.abs(ref)), k
        assert np.array_equal(fast.final.values, fast.state.history[n_steps])

    def test_column_chunks_do_not_change_the_sum(self, monkeypatch):
        # N = 600 reaches Toeplitz blocks up to 512: one dgemm per target
        # row instead of a few
        p = equivalence_problem(0.5)
        mesh = _mesh(p, 5, 4, 600)
        whole = solve(p, mesh).final.values
        monkeypatch.setattr(fracweights, "_SCRATCH_BYTES", 1)
        chunked = solve(p, mesh).final.values
        assert np.max(np.abs(chunked - whole)) <= 1e-13 * np.max(np.abs(whole))


class TestStepAllocation:
    def test_warm_step_allocates_few_grids(self):
        # the per-run work planes hold the right-hand side and its
        # temporaries, so a step allocates only its forcing sample, the
        # sweeps' output and a few reductions' temporaries; a step that
        # refills the boundary block also holds the block's sample and its
        # checked copy
        p = make_example1(0.5)
        mesh = mesh_for(p, 64, n=100)
        grid_bytes = 8 * (mesh.M1 + 1) * (mesh.M2 + 1)
        block = adisolver._block_levels(mesh)
        assert block == 31
        state = init_state(p, mesh)
        adi_step(state)
        peaks = {"plain": [], "refill": []}
        tracemalloc.start()
        try:
            while state.current_level < 40:
                level = state.current_level + 1
                if fracweights.completed_block(level):
                    adi_step(state)
                    continue
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                adi_step(state)
                kind = "refill" if (level - 1) % block == 0 else "plain"
                peaks[kind].append((tracemalloc.get_traced_memory()[1] - base)
                                   / grid_bytes)
        finally:
            tracemalloc.stop()
        # levels 2..40: one refills the block (level 32), the levels that
        # complete a leaf fold it and are skipped
        folds = sum(1 for level in range(2, 41)
                    if fracweights.completed_block(level))
        assert folds == 40 // fracweights._LEAF
        assert len(peaks["plain"]) == 38 - folds and len(peaks["refill"]) == 1
        assert max(peaks["plain"]) <= 6.0, max(peaks["plain"])
        assert max(peaks["refill"]) <= 2 * block + 6.0, peaks["refill"]

        n = state.current_level
        for _ in range(2):
            again = solve(p, mesh).state.history[:n + 1]
            assert np.array_equal(again.view(np.uint64),
                                  state.history[:n + 1].view(np.uint64))


class TestStepPlan:
    def test_views_share_the_run_arrays(self):
        p = equivalence_problem(0.5)
        mesh = _mesh(p, 6, 5, 40)
        state = init_state(p, mesh)
        plan = state.plan
        owners = (plan.work, state.history, plan.tau_h_phi)
        constants = {"coef", "kappa", "leaf_weights", "sweep_x", "sweep_y",
                     "tau_h_phi", "cell", "work"}
        views = {f.name: getattr(plan, f.name)
                 for f in dataclasses.fields(plan) if f.name not in constants}
        for name, view in views.items():
            assert any(np.shares_memory(view, a) for a in owners), name
        assert plan.cell == mesh.h1 * mesh.h2

        # each view reads the right nodes: number every entry of the owners
        for a in owners:
            a[...] = np.arange(a.size).reshape(a.shape) + a.size
        work, planes = plan.work, plan.work.reshape(7, -1)
        rhs, _, p_, q = work[:4]
        want = {
            "fields": planes[4:], "u_n": work[4], "memory": planes[5],
            "data": work[6], "weighted": planes[:4],
            "centre": planes[2:4, 1:-1], "below": planes[:2, :-2],
            "above": planes[:2, 2:], "p_below": p_[:-2], "p_above": p_[2:],
            "q_mid": q[1:-1], "phi_mid": plan.tau_h_phi[1:-1],
            "rhs": rhs, "rhs_mid": rhs[1:-1], "rhs_int": rhs[1:-1, 1:-1],
            "levels": state.history.reshape(41, -1),
        }
        assert set(want) | {"squares"} == set(views)
        for name, ref in want.items():
            assert np.array_equal(views[name], ref), name
        # the squares' stretch is contiguous, at the start of plane 2
        assert plan.squares.flags.c_contiguous
        assert plan.squares.shape == (mesh.M1 - 1, mesh.M2 - 1)
        assert np.array_equal(plan.squares.ravel(),
                              planes[2, :plan.squares.size])

    def test_steps_keep_the_plan(self):
        # a run steps through the same views, and gives the same bits as
        # a run whose state was never read
        p = equivalence_problem(0.3)
        mesh = _mesh(p, 7, 6, 40)
        state = init_state(p, mesh)
        plan, ids = state.plan, [id(v) for v in vars(state.plan).values()]
        while state.current_level < mesh.N:
            adi_step(state)
        assert state.plan is plan
        assert ids == [id(v) for v in vars(state.plan).values()]
        again = solve(p, mesh).state.history
        assert np.array_equal(again.view(np.uint64),
                              state.history.view(np.uint64))


class TestProductForms:
    def test_split_equals_unsplit(self, rng):
        mesh = Mesh(1.2, 0.9, 9, 11, 1.0, 1)
        u = GridFn(mesh, rng.standard_normal(mesh.shape))
        for c in (0.0, 1e-3, 0.2):
            for sign in (-1, 1):
                a = split_product_apply(u, c, sign).values
                b = unsplit_product_apply(u, c, sign).values
                scale = max(1.0, np.max(np.abs(a)))
                assert np.max(np.abs(a - b)) < 1e-13 * scale


class TestSolve:
    def test_benchmark_error_small_run(self):
        # frozen reference for the temporal ladder entry N=10 at 16 cells
        p = make_example1(0.5)
        res = solve(p, mesh_for(p, 16, n=10))
        assert res.e_inf == pytest.approx(2.6014e-3, rel=1e-4)
        assert res.final_error <= res.e_inf

    def test_deterministic(self):
        p = equivalence_problem(0.7)
        mesh = _mesh(p, 8, 8, 6)
        r1 = solve(p, mesh)
        r2 = solve(p, mesh)
        assert np.array_equal(r1.final.values, r2.final.values)
        assert [a.rhs_norm for a in r1.reports] == [a.rhs_norm
                                                    for a in r2.reports]

    def test_reports(self):
        p = make_example1(0.5)
        res = solve(p, mesh_for(p, 6, n=5))
        assert [r.level for r in res.reports] == [1, 2, 3, 4, 5]
        assert all(r.wall_time_ns > 0 for r in res.reports)
        assert all(np.isfinite(r.rhs_norm) for r in res.reports)

    def test_snapshots(self):
        # every level stays in the history; the final field is its last row
        p = make_example1(0.5)
        mesh = mesh_for(p, 6, n=5)
        res = solve(p, mesh)
        history = res.state.history
        assert history.shape == (6, 7, 7)
        assert np.all(history[0] == 0.0)
        assert np.shares_memory(res.final.values, history[5])
        for k in range(1, 6):
            exact_vals = sample_xyt(p.exact, mesh, k * mesh.tau)
            assert np.max(np.abs(history[k] - exact_vals)) <= res.e_inf

    def test_solution_matches_exact_profile(self):
        # solution at the final time is close to the separable exact profile
        p = make_example1(0.5)
        mesh = mesh_for(p, 12, n=40)
        res = solve(p, mesh)
        exact_vals = sample_xyt(p.exact, mesh, 1.0)
        assert np.max(np.abs(res.final.values - exact_vals)) < 5e-4

    def test_wsgd_forcing_second_order_against_analytic(self):
        # without forcing_f the solver tabulates f from caputo_forcing by
        # the discrete integral, which perturbs the solution by O(tau^2)
        p = make_example1(0.5)
        caputo_only = dataclasses.replace(p, forcing_f=None)
        diffs = []
        for n in (20, 40, 80):
            mesh = mesh_for(p, 8, n=n)
            r_analytic = solve(p, mesh)
            r_wsgd = solve(caputo_only, mesh)
            diffs.append(float(np.max(np.abs(
                r_wsgd.final.values - r_analytic.final.values))))
        for prev, cur in zip(diffs, diffs[1:]):
            assert 3.5 < prev / cur < 4.5

    def test_memory_cost_grows_at_most_linearly(self):
        p = make_example1(0.5)
        res = solve(p, mesh_for(p, 4, n=3000))
        times = np.array([r.wall_time_ns for r in res.reports], dtype=float)
        first = np.mean(times[100:1400])
        last = np.mean(times[1600:2900])
        # O(n) history work allows ~2-3x growth; quadratic would give >>10x
        assert last / first < 8.0
