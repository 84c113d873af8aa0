import json
import math
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import fracadi.cli as cli
from fracadi.verify import CheckResult


def run_cli(*argv):
    return cli.main(list(argv))


class TestSolveCommand:
    # a space after a comma used to be kept in the flag name
    @pytest.mark.parametrize("emit", ["csv,svg,reports", "csv, svg, reports"],
                             ids=["plain", "spaced"])
    def test_summary_and_files(self, tmp_path, capsys, emit):
        out = tmp_path / "out"
        code = run_cli("solve", "--problem", "example1", "--alpha", "0.5",
                       "--m", "8", "--n", "5", "--out", str(out),
                       "--emit", emit)
        assert code == 0
        text = capsys.readouterr().out
        assert "E_inf" in text and "example1" in text
        assert (out / "final.csv").exists()
        assert (out / "final.svg").exists()
        assert (out / "exact.svg").exists()
        assert (out / "reports.csv").exists()
        ET.fromstring((out / "final.svg").read_text())
        grid = np.loadtxt(out / "final.csv", delimiter=",")
        assert grid.shape == (9, 9)

    def test_snapshots(self, tmp_path):
        out = tmp_path / "snap"
        code = run_cli("solve", "--m", "6", "--n", "4", "--out", str(out),
                       "--emit", "snapshots", "--snapshot-every", "2")
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["snapshot_00000.csv", "snapshot_00002.csv",
                         "snapshot_00004.csv"]

    def test_snapshots_include_final_level(self, tmp_path):
        out = tmp_path / "snap"
        code = run_cli("solve", "--m", "6", "--n", "5", "--out", str(out),
                       "--emit", "csv,snapshots", "--snapshot-every", "2")
        assert code == 0
        names = sorted(p.name for p in out.glob("snapshot_*.csv"))
        assert names == ["snapshot_00000.csv", "snapshot_00002.csv",
                         "snapshot_00004.csv", "snapshot_00005.csv"]
        last = np.loadtxt(out / "snapshot_00005.csv", delimiter=",")
        assert np.array_equal(last, np.loadtxt(out / "final.csv",
                                               delimiter=","))

    @pytest.mark.parametrize("every", ["0", "-3"])
    def test_snapshot_interval_must_be_positive(self, tmp_path, capsys, every):
        code = run_cli("solve", "--m", "6", "--n", "4", "--out",
                       str(tmp_path), "--snapshot-every", every)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "--snapshot-every" in err["message"]

    def test_snapshots_need_interval(self, tmp_path, capsys):
        code = run_cli("solve", "--m", "6", "--n", "4",
                       "--out", str(tmp_path), "--emit", "snapshots")
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "snapshot" in err["message"]

    def test_unknown_problem(self, capsys):
        code = run_cli("solve", "--problem", "nope")
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"

    def test_problem_with_initial_displacement(self, tmp_path, capsys):
        # solver reduces to zero displacement internally; outputs restore it
        prob = {
            "alpha": 0.5,
            "domain": [math.pi, math.pi],
            "final_time": 1.0,
            "phi": "0",
            "psi": "sin(x)*sin(y)",
            "psi_laplacian": "-2*sin(x)*sin(y)",
            "boundary": "0",
            "forcing": "0",
        }
        ppath = tmp_path / "disp.json"
        ppath.write_text(json.dumps(prob))
        out = tmp_path / "out"
        code = run_cli("solve", "--problem", str(ppath), "--m", "8",
                       "--n", "4", "--out", str(out), "--emit",
                       "csv,snapshots", "--snapshot-every", "4")
        assert code == 0
        # the level-0 snapshot must show the displacement itself
        snap0 = np.loadtxt(out / "snapshot_00000.csv", delimiter=",")
        assert snap0[4, 4] == pytest.approx(1.0, abs=1e-12)
        grid = np.loadtxt(out / "final.csv", delimiter=",")
        assert np.max(np.abs(grid)) <= 1.5

    @pytest.mark.parametrize("m", [32, 64])
    def test_psi_decided_on_the_mesh(self, tmp_path, m):
        # psi vanishes on the nodes x = k pi/32 but not on the M=64 nodes;
        # deciding on a fixed probe grid left the M=64 run unreduced
        prob = {
            "alpha": 0.5,
            "domain": [math.pi, math.pi],
            "final_time": 1.0,
            "phi": "0",
            "psi": "sin(32 * x) * sin(y)",
            "psi_laplacian": "-1025 * sin(32 * x) * sin(y)",
            "boundary": "sin(32 * x) * sin(y)",
            "forcing": "0",
        }
        ppath = tmp_path / "fine_psi.json"
        ppath.write_text(json.dumps(prob))
        out = tmp_path / "out"
        code = run_cli("solve", "--problem", str(ppath), "--m", str(m),
                       "--n", "4", "--out", str(out), "--emit", "snapshots",
                       "--snapshot-every", "4")
        assert code == 0
        snap0 = np.loadtxt(out / "snapshot_00000.csv", delimiter=",")
        nodes = np.linspace(0.0, math.pi, m + 1)
        psi = np.sin(32 * nodes)[:, None] * np.sin(nodes)[None, :]
        assert np.max(np.abs(snap0 - psi)) <= 1e-12

    def test_caputo_forcing_only(self, tmp_path, capsys):
        # without a closed-form f the solver integrates g by quadrature
        prob = {
            "alpha": 0.5,
            "domain": [math.pi, math.pi],
            "final_time": 1.0,
            "phi": "0",
            "psi": "0",
            "boundary": "0",
            "caputo_forcing": "sin(x)*sin(y)*(gamma(alpha+4)/2*t**2"
                              " + 2*t**(alpha+3))",
            "exact": "sin(x)*sin(y)*t**(alpha+3)",
        }
        ppath = tmp_path / "caputo.json"
        ppath.write_text(json.dumps(prob))
        code = run_cli("solve", "--problem", str(ppath), "--m", "16",
                       "--n", "40", "--out", str(tmp_path / "out"))
        assert code == 0
        text = capsys.readouterr().out
        e_inf = float(text.split("E_inf = ")[1].split()[0])
        assert e_inf < 1e-3

    def test_overflowing_literal_fails_fast(self, tmp_path, capsys):
        # integer literals used to be evaluated as Python big ints
        prob = {
            "alpha": 0.5,
            "domain": [1.0, 1.0],
            "final_time": 1.0,
            "phi": "0",
            "psi": "0",
            "boundary": "0",
            "forcing": "x*0 + 9**9**9",
        }
        ppath = tmp_path / "huge.json"
        ppath.write_text(json.dumps(prob))
        start = time.perf_counter()
        code = run_cli("solve", "--problem", str(ppath), "--m", "4",
                       "--n", "2", "--out", str(tmp_path / "out"))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "'forcing'" in err["message"]

    @pytest.mark.parametrize("key, expr, point", [
        ("forcing", "log(x - 0.5)", "at t=0, (x, y) = (0, 0)"),
        ("phi", "sqrt(y - 0.3)", "(x, y) = (0, 0)"),
        ("boundary", "log(x - 0.5)*0", "at t=0, (x, y) = (0, 0)"),
        ("psi", "log(x - 0.5)*0", "(x, y) = (0, 0)"),
    ], ids=["forcing", "phi", "boundary", "psi"])
    def test_non_finite_data_named(self, tmp_path, capsys, key, expr, point):
        # NaN data used to surface as "solution diverged at level 1"; a NaN
        # boundary or psi passed the t=0 compatibility probe with numpy
        # warnings on stderr
        prob = {
            "alpha": 0.5,
            "domain": [1.0, 1.0],
            "final_time": 1.0,
            "phi": "0",
            "psi": "0",
            "boundary": "0",
            "forcing": "0",
            key: expr,
        }
        ppath = tmp_path / "nan.json"
        ppath.write_text(json.dumps(prob))
        code = run_cli("solve", "--problem", str(ppath), "--m", "4",
                       "--n", "2", "--out", str(tmp_path / "out"))
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{key} is nan")
        assert point in err["message"]

    def test_non_finite_psi_probe_named(self, tmp_path, capsys):
        # psi is infinite at a node of the 33x33 probe, not of the M=4 mesh;
        # the probe used to print a numpy warning and let the run go on
        prob = {
            "alpha": 0.5,
            "domain": [1.0, 1.0],
            "final_time": 1.0,
            "phi": "0",
            "psi": "sin(pi*x)*sin(pi*y)/((x-0.59375)**2 + (y-0.59375)**2)",
            "boundary": "0",
            "forcing": "0",
        }
        ppath = tmp_path / "pole.json"
        ppath.write_text(json.dumps(prob))
        code = run_cli("solve", "--problem", str(ppath), "--m", "4",
                       "--n", "2", "--out", str(tmp_path / "out"))
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert err["message"].startswith(
            "psi is inf, (x, y) = (0.59375, 0.59375)")

    @pytest.mark.parametrize("key, expr", [
        ("forcing", "x*0 + (0-2)**alpha"),
        ("phi", "(0-2)**alpha"),
        ("forcing", "+".join(["x"] * 100_000)),
        ("forcing", "-" * 200_000 + "x"),
    ], ids=["complex-forcing", "complex-phi", "long-sum", "deep-unary"])
    def test_bad_expression_names_key(self, tmp_path, capsys, key, expr):
        # a complex value was cast to its real part (or raised TypeError);
        # a deep expression raised RecursionError or MemoryError
        prob = {
            "alpha": 0.5,
            "domain": [1.0, 1.0],
            "final_time": 1.0,
            "phi": "0",
            "psi": "0",
            "boundary": "0",
            "forcing": "0",
            key: expr,
        }
        ppath = tmp_path / "bad.json"
        ppath.write_text(json.dumps(prob))
        start = time.perf_counter()
        code = run_cli("solve", "--problem", str(ppath), "--m", "4",
                       "--n", "2", "--out", str(tmp_path / "out"))
        assert time.perf_counter() - start < 2.0
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert f"key {key!r}" in err["message"]

    @pytest.mark.parametrize("flags, shown", [
        ((), "alpha=0.3"),
        (("--alpha", "0.7"), "alpha=0.7"),
    ], ids=["file", "flag"])
    def test_problem_file_alpha(self, tmp_path, capsys, flags, shown):
        # the file's alpha holds unless --alpha overrides it
        prob = {
            "alpha": 0.3,
            "domain": [1.0, 1.0],
            "final_time": 1.0,
            "phi": "0",
            "psi": "0",
            "boundary": "0",
            "forcing": "x * y * t",
        }
        ppath = tmp_path / "alpha.json"
        ppath.write_text(json.dumps(prob))
        code = run_cli("solve", "--problem", str(ppath), "--m", "4",
                       "--n", "2", *flags)
        assert code == 0
        assert shown in capsys.readouterr().out

    def test_builtin_alpha_default(self, capsys):
        assert run_cli("solve", "--m", "4", "--n", "2") == 0
        assert "alpha=0.5" in capsys.readouterr().out

    def test_non_numeric_final_time(self, tmp_path, capsys):
        prob = {
            "alpha": 0.5,
            "domain": [1.0, 1.0],
            "final_time": None,
            "phi": "0",
            "psi": "0",
            "boundary": "0",
            "forcing": "0",
        }
        ppath = tmp_path / "no_time.json"
        ppath.write_text(json.dumps(prob))
        code = run_cli("solve", "--problem", str(ppath), "--m", "4",
                       "--n", "2")
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert "'final_time'" in err["message"]

    def test_config_overrides_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.25, "n": 3}))
        code = run_cli("solve", "--alpha", "0.75", "--m", "6", "--n", "9",
                       "--config", str(cfg))
        assert code == 0
        text = capsys.readouterr().out
        assert "alpha=0.25" in text
        assert "steps 3" in text

    def test_config_takes_one_alpha(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": [0.25, 0.75]}))
        code = run_cli("solve", "--m", "4", "--n", "2", "--config", str(cfg))
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == "solve takes one alpha, got 2"

    def test_config_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = run_cli("solve", "--config", str(cfg))
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "bogus" in err["message"]


class TestStudyCommand:
    def test_table_and_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("study", "--alpha", "0.5", "--axis", "temporal",
                       "--ladder", "2,4", "--fixed", "6", "--out", str(out),
                       "--emit", "table,csv")
        assert code == 0
        text = capsys.readouterr().out
        assert "alpha" in text and "rate" in text
        csv_path = out / "study.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "alpha,h,tau,e_inf,rate"

    def test_multiple_alphas(self, tmp_path, capsys):
        code = run_cli("study", "--alpha", "0.25,0.75", "--ladder", "2,4",
                       "--fixed", "6", "--emit", "table",
                       "--out", str(tmp_path))
        assert code == 0
        text = capsys.readouterr().out
        assert "0.250" in text and "0.750" in text

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({
            "alpha": [0.5], "axis": "temporal", "ladder": [2, 4],
            "fixed": 6, "emit": ["csv"], "out": str(tmp_path / "o"),
        }))
        code = run_cli("study", "--config", str(cfg))
        assert code == 0
        assert (tmp_path / "o" / "study.csv").exists()

    @pytest.mark.parametrize("flags, shown", [
        ((), "0.300"),
        (("--alpha", "0.7"), "0.700"),
    ], ids=["file", "flag"])
    def test_problem_file_alpha(self, tmp_path, capsys, flags, shown):
        # the file's alpha holds unless --alpha overrides it
        prob = {
            "alpha": 0.3,
            "domain": [1.0, 1.0],
            "final_time": 1.0,
            "phi": "0",
            "psi": "0",
            "boundary": "0",
            "forcing": "x * y",
            "exact": "x * y * t",
        }
        ppath = tmp_path / "alpha.json"
        ppath.write_text(json.dumps(prob))
        code = run_cli("study", "--problem", str(ppath), "--ladder", "2,4",
                       "--fixed", "4", "--emit", "table",
                       "--out", str(tmp_path / "out"), *flags)
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:3]
        assert [row.split()[0] for row in rows] == [shown, shown]

    def test_builtin_alpha_default(self, tmp_path, capsys):
        code = run_cli("study", "--ladder", "2,4", "--fixed", "4",
                       "--emit", "table", "--out", str(tmp_path))
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1].split()[0] == "0.500"

    def test_bad_ladder(self, capsys):
        code = run_cli("study", "--ladder", "8,4", "--fixed", "6")
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    def test_exit_141_and_quiet(self, unbuffered):
        # a reader that has gone (`fracadi solve | head -1`) is not an error:
        # unbuffered, the first print fails; buffered, the final flush does
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            run = subprocess.run(
                [sys.executable, "-m", "fracadi.cli", "solve", "--m", "4",
                 "--n", "2"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert run.stderr == b""
        assert run.returncode == 141


class TestVerifyCommand:
    def test_pass_exit_zero(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_checks", lambda suite: [
            CheckResult("alpha-check", True, "fine"),
        ])
        assert run_cli("verify", "--suite", "quick") == 0
        assert "[PASS] alpha-check" in capsys.readouterr().out

    def test_fail_exit_one(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_checks", lambda suite: [
            CheckResult("good", True, "fine"),
            CheckResult("bad", False, "broken"),
        ])
        assert run_cli("verify") == 1
        out = capsys.readouterr().out
        assert "[FAIL] bad" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_help_mentions_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["--help"])
        text = capsys.readouterr().out
        for word in ("solve", "study", "verify"):
            assert word in text
