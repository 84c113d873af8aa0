import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracadi.cli as cli
from fracadi import get_problem, homogenize_initial, mesh_for, problems, solve
from fracadi.problems import sample_xy
from fracadi.studies import StudyConfig, run_study
from fracadi.verify import SPATIAL_N, TEMPORAL_LADDER, TEMPORAL_M, CheckResult


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
        # a boundary or psi is refused as the file loads, by the t=0
        # compatibility check, so the file is named first
        loaded = f"problem file {ppath}: " if key in ("boundary", "psi") else ""
        assert err["message"].startswith(f"{loaded}{key} is nan")
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

    def test_config_dashed_keys(self, tmp_path, capsys):
        # a key reads "-" as "_"; the first unknown key, sorted, is named
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"zz": 1, "snapshot-every": 2, "m-x": 3}))
        assert run_cli("solve", "--config", str(cfg)) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == f"config {cfg}: unknown key 'm-x'"
        cfg.write_text(json.dumps({"snapshot-every": 2, "emit": "snapshots",
                                   "m": 4, "n": 2}))
        assert run_cli("solve", "--config", str(cfg),
                       "--out", str(tmp_path / "out")) == 0
        assert "snapshot_00002.csv" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--problem", "--config"])
    @pytest.mark.parametrize("case", ["directory", "empty", "bytes", "deep",
                                      "missing", "array", "devnull"])
    def test_unreadable_file_named(self, tmp_path, capsys, flag, case):
        # a file that is not one JSON object in a regular file exits 1 with
        # one JSON line, a ValueError naming the path; a --problem that is
        # not a regular file reads as an unknown problem
        path = {"directory": tmp_path, "empty": "",
                "devnull": os.devnull}.get(case, tmp_path / f"{case}.json")
        if case == "bytes":
            path.write_bytes(b"\xff\xfe")
        elif case == "deep":
            path.write_text("[" * 100_000 + "]" * 100_000)
        elif case == "array":
            path.write_text("[1, 2]")
        code = run_cli("solve", "--m", "4", "--n", "2", flag, str(path),
                       "--out", str(tmp_path / "out"))
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        if flag == "--config":
            start = f"config {path} "
        elif case in ("bytes", "deep", "array"):
            start = f"problem file {path} "
        else:
            start = f"unknown problem {str(path)!r}: "
        assert err["message"].startswith(start), err["message"]

    def test_config_integral_numbers_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 6.0, "n": "3", "alpha": "0.25"}))
        code = run_cli("solve", "--config", str(cfg))
        assert code == 0
        text = capsys.readouterr().out
        assert "alpha=0.25  grid 6x6  steps 3" in text

    @pytest.mark.parametrize("value, shown", [(123, "'123'"),
                                              (["a", "b"], "'a,b'")],
                             ids=["number", "list"])
    def test_config_problem_is_flag_text(self, tmp_path, monkeypatch, capsys,
                                         value, shown):
        # a config entry is the text its flag would carry, so a problem
        # that is not a name is refused as one, not by a TypeError
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": value}))
        code = run_cli("solve", "--m", "4", "--n", "2", "--config", str(cfg))
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"unknown problem {shown}: ")

    def test_config_out_is_flag_text(self, tmp_path, monkeypatch, capsys):
        # {"out": 5} writes where --out 5 does
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": 5}))
        written = []
        for argv in (("--config", str(cfg)), ("--out", "5")):
            code = run_cli("solve", "--m", "4", "--n", "2", "--emit", "csv",
                           *argv)
            assert code == 0
            assert "wrote 5/final.csv" in capsys.readouterr().out
            written.append((tmp_path / "5" / "final.csv").read_bytes())
            (tmp_path / "5" / "final.csv").unlink()
        assert written[0] == written[1]

    def test_config_null_entry_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": None, "n": 2}))
        code = run_cli("solve", "--config", str(cfg))
        assert code == 0
        assert "grid 16x16  steps 2" in capsys.readouterr().out

    @pytest.mark.parametrize("command, entries, flag", [
        ("solve", {"m": 8.7}, "--m"),
        ("solve", {"n": True}, "--n"),
        ("solve", {"m": True}, "--m"),
        ("solve", {"alpha": "0.5x"}, "--alpha"),
        ("solve", {"snapshot_every": 2.5, "emit": "snapshots"},
         "--snapshot-every"),
        ("study", {"ladder": [2, 4.5]}, "--ladder"),
        ("study", {"ladder": "2,x"}, "--ladder"),
        ("study", {"fixed": 4.5}, "--fixed"),
        ("study", {"alpha": [0.5, "x"]}, "--alpha"),
    ], ids=["m-fraction", "n-bool", "m-bool", "alpha-string",
            "snapshot-fraction", "ladder-fraction", "ladder-string",
            "fixed-fraction", "alpha-list-string"])
    def test_config_bad_number_named(self, tmp_path, capsys, command,
                                     entries, flag):
        # a config number is never truncated or reported without its flag
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        base = {"solve": ("--m", "4", "--n", "2"),
                "study": ("--ladder", "2,4", "--fixed", "4")}[command]
        code = run_cli(command, *base, "--out", str(tmp_path / "out"),
                       "--config", str(cfg))
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{flag} must be ")

    @pytest.mark.parametrize("argv, flag", [
        (("solve", "--m", "abc"), "--m"),
        (("solve", "--n", "2.5"), "--n"),
        (("study", "--fixed", "x"), "--fixed"),
    ], ids=["m-string", "n-fraction", "fixed-string"])
    def test_flag_bad_number_named(self, tmp_path, capsys, argv, flag):
        # a flag value is checked by the rule a config entry meets, so it
        # fails with the JSON line and exit 1, not argparse's usage text
        code = run_cli(*argv, "--out", str(tmp_path / "out"))
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{flag} must be ")

    def test_integral_flag_accepted(self, capsys):
        assert run_cli("solve", "--m", "8.0", "--n", "2") == 0
        assert "grid 8x8  steps 2" in capsys.readouterr().out

    def test_flags_checked_before_problem_loads(self, capsys):
        for argv, start in [
            (("solve", "--snapshot-every", "0"), "--snapshot-every"),
            (("study", "--axis", "diagonal"), "axis must be"),
            (("study", "--emit", "pdf"), "unknown emit flags ['pdf']"),
            (("study", "--ladder", "4,2"), "ladder must be strictly increasing"),
            (("study", "--axis", "spatial", "--ladder", "1,2", "--fixed", "4"),
             "ladder entries of a spatial study (--ladder)"),
            (("study", "--alpha", "0.5,0.5"), "alphas must be distinct"),
            (("study", "--alpha", "1.5"),
             "alpha must lie strictly in (0, 1), got 1.5"),
            (("solve", "--alpha", "0.3,0.4"), "solve takes one alpha, got 2"),
            (("solve", "--m", "1"), "--m must be an integer >= 2, got 1"),
            (("solve", "--n", "0"), "--n must be an integer >= 1, got 0"),
            (("study", "--fixed", "0"), "--fixed must be an integer >= 2"),
            (("study", "--axis", "spatial", "--fixed", "0"),
             "--fixed must be an integer >= 1"),
        ]:
            code = run_cli(*argv, "--problem", "missing.json")
            assert code == 1
            err = json.loads(capsys.readouterr().err)
            assert err["message"].startswith(start), argv

    # c/h**2 of 1e16 and more, where the sweep matrix's dominance margin,
    # computed as diag - 2|off|, used to cancel to 0
    @pytest.mark.parametrize("key, value", [("domain", [1e-30, 1e-30]),
                                            ("final_time", 1e30)],
                             ids=["tiny-domain", "long-time"])
    def test_extreme_scaling_solves(self, tmp_path, capsys, key, value):
        prob = {"alpha": 0.5, "domain": [1.0, 1.0], "final_time": 1.0,
                "phi": "0", "psi": "0", "boundary": "0",
                "forcing": "sin(pi*x)*sin(pi*y)", key: value}
        ppath = tmp_path / "extreme.json"
        ppath.write_text(json.dumps(prob))
        code = run_cli("solve", "--problem", str(ppath), "--m", "8",
                       "--n", "8", "--emit", "csv", "--out",
                       str(tmp_path / "out"))
        assert code == 0, capsys.readouterr().err
        final = np.loadtxt(tmp_path / "out" / "final.csv", delimiter=",")
        assert final.shape == (9, 9) and np.all(np.isfinite(final))

    # coefficients of the scheme beyond the float range: tau**(alpha+1),
    # h**2 and 1/h**2 used to raise an unnamed OverflowError or print
    # numpy's RuntimeWarnings before the JSON line
    @pytest.mark.parametrize("key, value, named", [
        ("final_time", 1e300, "tau = final_time / N = 1.25e+299"),
        ("domain", [1e300, 1e300], "h1 = domain[0] / M1 = 1.25e+299"),
        ("domain", [1e-300, 1e-300], "h1 = domain[0] / M1 = 1.25e-301"),
    ], ids=["huge-time", "huge-domain", "tiny-domain"])
    def test_out_of_range_scaling_named(self, tmp_path, capsys, key, value,
                                        named):
        prob = {"alpha": 0.5, "domain": [1.0, 1.0], "final_time": 1.0,
                "phi": "0", "psi": "0", "boundary": "0",
                "forcing": "sin(x)*sin(y)", key: value}
        ppath = tmp_path / "extreme.json"
        ppath.write_text(json.dumps(prob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("solve", "--problem", str(ppath), "--m", "8",
                           "--n", "8")
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert named in err["message"] and "over the limit" in err["message"]

    @settings(max_examples=60, deadline=None)
    @given(exponents=st.tuples(*[st.floats(-300.0, 300.0)] * 3),
           alpha=st.floats(0.05, 0.95),
           forcing=st.sampled_from(["1", "sin(x) * cos(y) * t",
                                    "x + y + t", "exp(-t) * x * y"]))
    def test_extreme_problem_files(self, tmp_path_factory, exponents, alpha,
                                   forcing):
        # a problem file scaled anywhere in 1e-300..1e300 solves, or fails
        # with one named JSON line: never an overflow or an assertion, and
        # never numpy's warnings
        l1, l2, final_time = (10.0**e for e in exponents)
        prob = {"alpha": alpha, "domain": [l1, l2], "final_time": final_time,
                "phi": "0", "psi": "0", "boundary": "0", "forcing": forcing}
        tmp = tmp_path_factory.mktemp("extreme")
        ppath = tmp / "problem.json"
        ppath.write_text(json.dumps(prob))
        stdout, stderr = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(stdout), redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = run_cli("solve", "--problem", str(ppath), "--m", "4",
                           "--n", "4")
        assert time.perf_counter() - started < 10.0
        assert not caught, [str(w.message) for w in caught]
        lines = stderr.getvalue().splitlines()
        if code == 0:
            assert lines == []
        else:
            assert code == 1 and len(lines) == 1, lines
            err = json.loads(lines[0])
            assert err["error"] not in ("OverflowError", "AssertionError"), err

    def test_huge_forcing_solves(self, tmp_path, capsys):
        # a solution of the data's size, 1e198 here, is not a divergence
        prob = {"alpha": 0.5, "domain": [1.0, 1.0], "final_time": 1.0,
                "phi": "0", "psi": "0", "boundary": "0",
                "forcing": "1e200*sin(3.14159*x)*sin(3.14159*y)"}
        ppath = tmp_path / "huge.json"
        ppath.write_text(json.dumps(prob))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli("solve", "--problem", str(ppath), "--m", "8",
                           "--n", "8", "--emit", "csv,reports", "--out",
                           str(tmp_path / "out"))
        assert code == 0, capsys.readouterr().err
        final = np.loadtxt(tmp_path / "out" / "final.csv", delimiter=",")
        assert final.shape == (9, 9) and np.all(np.isfinite(final))
        assert 1e197 < np.abs(final).max() < 1e201
        reports = np.loadtxt(tmp_path / "out" / "reports.csv",
                             delimiter=",", skiprows=1)
        assert np.all(np.isfinite(reports[:, 2:]))

    # finite data whose step leaves the float range used to be reported as
    # "solution diverged at level 8" (boundary) and "at level 1" (forcing)
    @pytest.mark.parametrize("key, expr, step", [
        ("boundary", "1e307*t*(1+x)",
         "the step to level 8 (t = 1) overflowed the float range; its "
         "largest input is the boundary at t = 1, max |value| = 2e+307"),
        ("forcing", "1.7e308*sin(3.14159*x)*sin(3.14159*y)",
         "the step to level 1 (t = 0.125) overflowed the float range; its "
         "largest input is the forcing f at t = 0.125, max |value| = 1.7e+308"),
    ], ids=["boundary", "forcing"])
    def test_huge_data_overflow_named(self, tmp_path, capsys, key, expr,
                                      step):
        prob = {"alpha": 0.5, "domain": [1.0, 1.0], "final_time": 1.0,
                "phi": "0", "psi": "0", "boundary": "0", "forcing": "0",
                key: expr}
        ppath = tmp_path / "huge.json"
        ppath.write_text(json.dumps(prob))
        code = run_cli("solve", "--problem", str(ppath), "--m", "8",
                       "--n", "8")
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        err = json.loads(lines[0])
        assert err["error"] == "SolverDivergenceError", err
        assert err["message"].startswith(step), err
        assert "diverged" not in err["message"]

    def test_run_too_large_refused_before_sampling(self, capsys,
                                                   no_wide_samples):
        # 2 * 16001**2 entries break the run-size rule: the mesh is
        # refused before any field is sampled on it
        assert run_cli("solve", "--m", "16000", "--n", "1") == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert "run-size limit 268435456" in err["message"]


# a manufactured problem with nonzero psi and boundary data: S is an
# eigenfunction of the Laplacian (-Laplacian S = 2.44 S) and the polynomial
# part of psi is harmonic
_S = "sin(x + 0.7) * sin(1.2 * y + 0.4)"
_H = "(0.3 + 0.2 * x - 0.4 * y + 0.1 * (x**2 - y**2) + 0.25 * x * y)"
_PSI_PROBLEM = {
    "alpha": 0.5,
    "domain": [math.pi, 2.0],
    "final_time": 1.0,
    "phi": "0",
    "psi": f"{_S} + {_H}",
    "psi_laplacian": f"-2.44 * {_S}",
    "boundary": f"{_S} * (1 + t**(alpha + 3)) + {_H}",
    "exact": f"{_S} * (1 + t**(alpha + 3)) + {_H}",
    "forcing": f"{_S} * ((alpha + 3) * t**(alpha + 2) + 2.44 * "
               "(t**alpha / gamma(1 + alpha) + gamma(alpha + 4) "
               "/ gamma(2 * alpha + 4) * t**(2 * alpha + 3)))",
}
# a problem file whose own alpha differs from the builtins' default
_ALPHA_PROBLEM = {
    "alpha": 0.3,
    "domain": [1.0, 1.0],
    "final_time": 1.0,
    "phi": "0",
    "psi": "0",
    "boundary": "0",
    "forcing": "x * y",
    "exact": "x * y * t",
}


class TestStudyCommand:
    def test_nonzero_psi_matches_solve(self, tmp_path, capsys):
        # study reduces psi on each run's mesh as solve does, so both
        # report the same E_inf, and the kept final field has psi back
        ppath = tmp_path / "psi.json"
        ppath.write_text(json.dumps(_PSI_PROBLEM))
        code = run_cli("study", "--problem", str(ppath), "--ladder",
                       "5,10,20", "--fixed", "8", "--emit", "table",
                       "--out", str(tmp_path / "study"))
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:4]
        studied = [row.split()[3] for row in rows]
        solved = []
        for n in (5, 10, 20):
            out = tmp_path / f"solve{n}"
            code = run_cli("solve", "--problem", str(ppath), "--m", "8",
                           "--n", str(n), "--emit", "csv", "--out", str(out))
            assert code == 0
            text = capsys.readouterr().out
            solved.append(text.split("E_inf = ")[1].split()[0])
        assert studied == solved

        config = StudyConfig(alphas=(0.5,), axis="temporal", ladder=(5, 20),
                             fixed=8, problem=str(ppath))
        final = run_study(config).finals[0.5].values
        assert np.array_equal(final, np.loadtxt(out / "final.csv",
                                                delimiter=","))

    @pytest.mark.parametrize("nonzero_psi", [True, False],
                             ids=["psi", "zero-psi"])
    def test_psi_restored_by_one_rule(self, tmp_path, nonzero_psi):
        # solve's final and snapshots and study's kept final are the reduced
        # problem's solution plus psi on the mesh (plus 0.0 when psi is
        # zero), bit for bit
        ref = "example1"
        if nonzero_psi:
            ref = str(tmp_path / "psi.json")
            Path(ref).write_text(json.dumps(_PSI_PROBLEM))
        problem = get_problem(ref, 0.5)
        mesh = mesh_for(problem, 8, n=10)
        reduced = homogenize_initial(problem, mesh)
        assert (reduced is not problem) == nonzero_psi
        psi = (sample_xy(problem.psi, mesh) if nonzero_psi
               else np.zeros(mesh.shape))
        history = solve(reduced, mesh).state.history
        want = history + psi

        out = tmp_path / "solve"
        code = run_cli("solve", "--problem", ref, "--alpha", "0.5", "--m",
                       "8", "--n", "10", "--emit", "csv,snapshots",
                       "--snapshot-every", "5", "--out", str(out))
        assert code == 0
        for level, name in ((10, "final.csv"), (0, "snapshot_00000.csv"),
                            (5, "snapshot_00005.csv"),
                            (10, "snapshot_00010.csv")):
            got = np.loadtxt(out / name, delimiter=",")
            assert got.tobytes() == want[level].tobytes(), name

        config = StudyConfig(alphas=(0.5,), axis="temporal", ladder=(10,),
                             fixed=8, problem=ref)
        kept = run_study(config).finals[0.5].values
        assert kept.tobytes() == want[10].tobytes()

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
        ppath = tmp_path / "alpha.json"
        ppath.write_text(json.dumps(_ALPHA_PROBLEM))
        code = run_cli("study", "--problem", str(ppath), "--ladder", "2,4",
                       "--fixed", "4", "--emit", "table",
                       "--out", str(tmp_path / "out"), *flags)
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:3]
        assert [row.split()[0] for row in rows] == [shown, shown]

    @pytest.mark.parametrize("flags, alphas", [
        ((), ["0.3", "0.3"]),
        (("--alpha", "0.3,0.6"), ["0.3", "0.3", "0.6", "0.6"]),
    ], ids=["file", "flag"])
    def test_problem_file_loaded_once_per_alpha(self, tmp_path, monkeypatch,
                                                flags, alphas):
        ppath = tmp_path / "alpha.json"
        ppath.write_text(json.dumps(_ALPHA_PROBLEM))
        loads = []
        load = problems.load_problem
        monkeypatch.setattr(problems, "load_problem", lambda *args, **kw: (
            loads.append(kw.get("alpha")) or load(*args, **kw)))
        out = tmp_path / "out"
        code = run_cli("study", "--problem", str(ppath), "--ladder", "2,4",
                       "--fixed", "4", "--emit", "csv", "--out", str(out),
                       *flags)
        assert code == 0
        assert len(loads) == len(set(alphas)), loads
        rows = (out / "study.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == alphas

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
    @pytest.mark.parametrize("command", ["solve", "study", "verify"])
    def test_defaults_are_flag_text(self, command):
        # every value a command reads is text, as from argv or --config
        args = vars(cli.build_parser().parse_args([command]))
        assert all(v is None or isinstance(v, str)
                   for k, v in args.items() if k != "func")

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_help_mentions_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["--help"])
        text = capsys.readouterr().out
        for word in ("solve", "study", "verify"):
            assert word in text

    @pytest.mark.parametrize("axis, fixed", [("temporal", TEMPORAL_M),
                                             ("spatial", SPATIAL_N)])
    def test_study_defaults_are_the_reference_sizes(self, monkeypatch, capsys,
                                                    axis, fixed):
        # study's --ladder and --fixed default to the frozen reference
        # ladders' sizes, and its help says so
        seen = []

        def fake_run_study(config):
            seen.append(config)
            raise RuntimeError("stop")

        monkeypatch.setattr(cli, "run_study", fake_run_study)
        assert run_cli("study", "--axis", axis) == 1
        assert (seen[0].ladder, seen[0].fixed) == (TEMPORAL_LADDER, fixed)
        capsys.readouterr()
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["study", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "(default: 5,10,20,40,80)" in text
        assert "(defaults: 16 / 10000)" in text

    @pytest.mark.parametrize("argv", [
        ("study", "--axis", "diagonal", "--ladder", "2,4", "--fixed", "4"),
        ("verify", "--suite", "extreme"),
    ], ids=["axis", "suite"])
    def test_bad_choice_is_json_line(self, capsys, argv):
        code = run_cli(*argv)
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ValueError"
