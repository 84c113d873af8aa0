import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fracadi import StudyConfig, make_example1, run_study, studies
from fracadi.problems import ProblemSpec, make_random_problem
from fracadi.studies import (
    ConvergenceRow,
    emit_csv,
    emit_outputs,
    emit_table,
    read_study_csv,
)


def tiny_config(**overrides):
    base = dict(alphas=(0.5,), axis="temporal", ladder=(2, 4, 8), fixed=6,
                emit=())
    base.update(overrides)
    return StudyConfig(**base)


class TestStudyConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(axis="sideways"),
        dict(alphas=()),
        dict(alphas=(1.5,)),
        dict(ladder=()),
        dict(ladder=(4, 2)),
        dict(ladder=(2, 2)),
        dict(ladder=(0, 2)),
        dict(fixed=0),
        dict(emit=("pdf",)),
        dict(alphas=(0.5, 0.5)),
        dict(axis="spatial", ladder=(1, 2)),
        dict(fixed=1),
        dict(axis="spatial", ladder=(2, 4), fixed=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            tiny_config(**kwargs)

    def test_fixed_floor_named(self):
        # the CLI's floors: two cells on the temporal axis, one step on the
        # spatial axis
        with pytest.raises(ValueError, match=r"^fixed must be an integer "
                           r">= 2 on the temporal axis, got 1$"):
            tiny_config(fixed=1)
        tiny_config(axis="spatial", ladder=(2, 4), fixed=1)

    def test_spec_alpha_mismatch(self):
        p = make_example1(0.5)
        with pytest.raises(ValueError, match="alpha"):
            tiny_config(problem=p, alphas=(0.25,))
        tiny_config(problem=p, alphas=(0.5,))


class TestRunStudy:
    def test_rows_and_rates(self):
        res = run_study(tiny_config())
        rows = res.rows
        assert len(rows) == 3
        assert rows[0].rate is None
        for prev, row in zip(rows, rows[1:]):
            assert row.rate == math.log2(prev.e_inf / row.e_inf)
        for row in rows:
            assert row.alpha == 0.5
            assert row.e_inf == float(f"{row.e_inf:.4e}")
        # temporal axis: h fixed, tau halves
        assert rows[0].h == rows[1].h
        assert rows[0].tau == 2 * rows[1].tau

    def test_spatial_axis(self):
        res = run_study(StudyConfig(alphas=(0.5,), axis="spatial",
                                    ladder=(4, 8), fixed=50, emit=()))
        rows = res.rows
        assert rows[0].tau == rows[1].tau == 0.02
        assert rows[0].h == 2 * rows[1].h

    def test_alpha_major_ordering(self):
        res = run_study(tiny_config(alphas=(0.25, 0.75), ladder=(2, 4)))
        assert [r.alpha for r in res.rows] == [0.25, 0.25, 0.75, 0.75]
        assert set(res.finals) == {0.25, 0.75}

    def test_requires_exact(self):
        with pytest.raises(ValueError, match="exact"):
            run_study(tiny_config(problem=make_random_problem(0),
                                  alphas=(make_random_problem(0).alpha,)))

    def test_deterministic(self):
        a = run_study(tiny_config())
        b = run_study(tiny_config())
        assert a.rows == b.rows

    def test_oversized_rung_fails_before_first_solve(self, monkeypatch,
                                                     no_wide_samples):
        # the last rung's mesh breaks the run-size rule, so the study stops
        # before it solves the first
        calls = []

        def counted(*args, _solve=studies.solve):
            calls.append(args[1])
            return _solve(*args)

        monkeypatch.setattr(studies, "solve", counted)
        config = tiny_config(axis="spatial", ladder=(4, 16000), fixed=1)
        with pytest.raises(ValueError, match="run-size limit"):
            run_study(config)
        assert calls == []


def _shifted_dirichlet_problem(alpha):
    """u = S (1 + t**(alpha+3)) + H on (0, pi) x (0, 2), with S =
    sin(x + 0.7) sin(1.2 y + 0.4) (so -Laplacian S = 2.44 S) and H a
    harmonic polynomial: a time-dependent boundary and a nonzero psi =
    S + H, which the study's reduction shifts away."""
    k = 1.0 + 1.2**2
    memory_coef = math.gamma(alpha + 4.0) / math.gamma(2.0 * alpha + 4.0)

    def s(x, y):
        return np.sin(x + 0.7) * np.sin(1.2 * y + 0.4)

    def h(x, y):
        return 0.3 + 0.5 * x - 0.2 * y + 0.4 * (x**2 - y**2) + 0.25 * x * y

    def u(x, y, t):
        return s(x, y) * (1.0 + t ** (alpha + 3.0)) + h(x, y)

    def forcing(x, y, t):
        # u_t + I^alpha(-Laplacian u), with I^alpha t**(alpha+3) =
        # memory_coef t**(2 alpha + 3)
        memory = (t**alpha / math.gamma(1.0 + alpha)
                  + memory_coef * t ** (2.0 * alpha + 3.0))
        return s(x, y) * ((alpha + 3.0) * t ** (alpha + 2.0) + k * memory)

    return ProblemSpec(
        name="shifted-dirichlet", alpha=alpha, domain=(math.pi, 2.0), T=1.0,
        phi=lambda x, y: 0.0 * x * y, psi=lambda x, y: s(x, y) + h(x, y),
        boundary=u, forcing_f=forcing, exact=u,
        psi_laplacian=lambda x, y: -k * s(x, y),
    )


class TestOrdersOnShiftedDirichletData:
    """The paper's orders on a nonzero, time-dependent boundary and a
    nonzero psi: the frame sampling, the sweeps' edge terms and the psi
    shift all enter every level.  Same rate windows as the acceptance
    criteria on example1, whose boundary and psi are zero."""

    @pytest.mark.parametrize("alpha", [0.2, 0.5])
    def test_temporal_order_two(self, alpha):
        result = run_study(StudyConfig(
            alphas=(alpha,), axis="temporal", ladder=(10, 20, 40, 80),
            fixed=32, problem=_shifted_dirichlet_problem(alpha), emit=()))
        rates = [row.rate for row in result.rows[1:]]
        assert all(1.93 <= r <= 2.07 for r in rates), rates

    def test_spatial_order_four(self):
        result = run_study(StudyConfig(
            alphas=(0.5,), axis="spatial", ladder=(4, 8, 16), fixed=2000,
            problem=_shifted_dirichlet_problem(0.5), emit=()))
        rates = [row.rate for row in result.rows[1:]]
        assert all(3.8 <= r <= 4.2 for r in rates), rates


class TestEmission:
    ROWS = [
        ConvergenceRow(0.5, 0.19635, 0.2, 1.0421e-2, None),
        ConvergenceRow(0.5, 0.19635, 0.1, 2.6014e-3, 2.0021),
        ConvergenceRow(0.75, 0.19635, 0.2, 1.7341e-2, None),
    ]

    def test_table_layout(self):
        text = emit_table(self.ROWS)
        lines = text.splitlines()
        assert lines[0].split() == ["alpha", "h", "tau", "e_inf", "rate"]
        assert "*" in lines[1]
        assert "2.0021" in lines[2]
        assert lines[3] == ""  # group separator before the 0.75 block

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "study.csv"
        emit_csv(self.ROWS, path)
        back = read_study_csv(path)
        assert back == self.ROWS

    def test_csv_round_trip_from_run(self, tmp_path):
        rows = run_study(tiny_config()).rows
        path = tmp_path / "study.csv"
        emit_csv(rows, path)
        assert read_study_csv(path) == rows

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "study.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_study_csv(path)

    def test_emit_outputs(self, tmp_path):
        cfg = tiny_config(ladder=(2, 4), emit=("table", "csv", "svg"),
                          out_dir=str(tmp_path / "out"))
        res = run_study(cfg)
        written = emit_outputs(cfg, res)
        names = sorted(p.name for p in written)
        assert names == ["final_alpha0.5.svg", "study.csv", "study_table.txt"]
        for p in written:
            assert p.exists()
        svg = (tmp_path / "out" / "final_alpha0.5.svg").read_text()
        ET.fromstring(svg)

    def test_emit_outputs_nothing(self, tmp_path):
        cfg = tiny_config(ladder=(2,), emit=(),
                          out_dir=str(tmp_path / "none"))
        res = run_study(cfg)
        assert emit_outputs(cfg, res) == []
        assert not (tmp_path / "none").exists()
