import collections
import dataclasses
import functools
import math
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
    init_state,
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
        assert len(state.kappa) == mesh.N + 1
        assert state.mu == pytest.approx(mesh.tau ** 1.5 / 2.0)

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
        c = state.mu * lam[0]
        assert state.c == c
        ref = split_product_apply(fields[n], c, sign=+1).values.copy()
        for m in range(n + 1):
            coef = lam[n + 1 - m] + (lam[n - m] if m <= n - 1 else 0.0)
            ref += state.mu * coef * lambda_op(fields[m]).values
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
        ref = (split_product_apply(state.u_current, state.c, +1).values
               + state.mu * lambda_op(memory).values
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


def _count_samples(monkeypatch):
    """Count the solver's problem-data samples by field."""
    counts = collections.Counter()
    for name in ("sample_xy", "sample_xyt"):
        def counted(*args, _sample=getattr(adisolver, name), **kwargs):
            counts[kwargs["field"]] += 1
            return _sample(*args, **kwargs)
        monkeypatch.setattr(adisolver, name, counted)
    return counts


class TestSamplingCounts:
    """Each level's data is sampled once: the forcing at all N+1 levels,
    the boundary and exact solution at levels 1..N, phi and psi once."""

    def test_forcing_given(self, monkeypatch):
        p = make_example1(0.5)
        counts = _count_samples(monkeypatch)
        solve(p, mesh_for(p, 6, n=40))
        assert counts == {"forcing": 41, "boundary": 40, "exact": 40,
                          "phi": 1, "psi": 1}

    def test_caputo_forcing_only(self, monkeypatch):
        p = dataclasses.replace(make_example1(0.5), forcing_f=None)
        counts = _count_samples(monkeypatch)
        solve(p, mesh_for(p, 6, n=40))
        assert counts == {"caputo_forcing": 41, "boundary": 40, "exact": 40,
                          "phi": 1, "psi": 1}


class TestForcingTable:
    def test_caputo_table_peaks_at_two_tables(self):
        # the samples g and the table, scaled in place, plus the fold's
        # column-chunk scratch: no third table-sized array
        p = dataclasses.replace(make_example1(0.5), forcing_f=None)
        mesh = mesh_for(p, 16, n=2000)
        table_bytes = 8 * (mesh.N + 1) * (mesh.M1 + 1) * (mesh.M2 + 1)
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
    """The memory sum as one tensordot over the whole trajectory."""
    n = state.current_level
    lam = _lambda_table(state.problem.alpha, state.mesh.N + 1)
    coef = _memory_coefficients(lam, n)
    return np.tensordot(coef, state.history[:n + 1], axes=1)


class TestMemoryConvolution:
    """The blocked memory sum against the naive full-history sum."""

    @pytest.mark.parametrize("n_steps", [31, 32, 33, 65, 1000, 2000])
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
        # N = 600 reaches Toeplitz blocks 32..256 and one FFT block of 512
        p = equivalence_problem(0.5)
        mesh = _mesh(p, 5, 4, 600)
        whole = solve(p, mesh).final.values
        monkeypatch.setattr(fracweights, "_SCRATCH_BYTES", 1)
        chunked = solve(p, mesh).final.values
        assert np.max(np.abs(chunked - whole)) <= 1e-13 * np.max(np.abs(whole))


class TestStepAllocation:
    def test_warm_step_allocates_few_grids(self):
        # the per-run work planes hold the right-hand side and its stencil
        # temporaries, so a step allocates only its samples, the sweeps'
        # output and a few reductions' temporaries
        p = make_example1(0.5)
        mesh = mesh_for(p, 64, n=100)
        grid_bytes = 8 * (mesh.M1 + 1) * (mesh.M2 + 1)
        state = init_state(p, mesh)
        adi_step(state)
        peaks = []
        tracemalloc.start()
        try:
            while state.current_level < 40:
                if fracweights.completed_block(state.current_level + 1):
                    adi_step(state)
                    continue
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                adi_step(state)
                peaks.append((tracemalloc.get_traced_memory()[1] - base)
                             / grid_bytes)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 38
        assert max(peaks) <= 6.0, max(peaks)

        n = state.current_level
        for _ in range(2):
            again = solve(p, mesh).state.history[:n + 1]
            assert np.array_equal(again.view(np.uint64),
                                  state.history[:n + 1].view(np.uint64))


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
