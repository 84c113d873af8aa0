import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fracadi import StudyConfig, make_example1, run_study
from fracadi.problems import make_random_problem
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
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            tiny_config(**kwargs)

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
