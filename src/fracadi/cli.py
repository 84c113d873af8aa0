"""Command-line front end.

Three subcommands:

  solve    run one problem at one resolution, optionally dumping the final
           field (CSV/SVG), per-step reports, and level snapshots
  study    run a refinement ladder and tabulate errors and observed orders
  verify   run the numerical self-check suite (quick or full)

A JSON config file can be passed with --config; its entries override any
flags given on the command line.  Failures print one machine-readable JSON
line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .adisolver import solve
from .heatmap import emit_heatmap
from .meshops import GridFn, write_csv
from .problems import (
    BUILTIN_PROBLEMS,
    _max_abs_psi,  # unused here; bench/tracer.py wraps it by name
    _number,
    get_problem,
    homogenize_initial,
    mesh_for,
    sample_xy,
)
from .studies import (
    _EMIT_CHOICES as _STUDY_EMIT,
    _FIXED_LEAST,
    StudyConfig,
    check_alphas,
    check_axis,
    check_emit,
    check_ladder,
    emit_outputs,
    emit_table,
    run_study,
)
from .verify import (
    SPATIAL_N,
    TEMPORAL_LADDER,
    TEMPORAL_M,
    format_results,
    run_checks,
)

_SOLVE_EMIT = ("csv", "svg", "reports", "snapshots")
# alpha of a builtin problem when neither --alpha nor --config sets one
_BUILTIN_ALPHA = 0.5
# exit status when stdout's reader has gone: 128 + SIGPIPE, as a shell
# reports a process that signal ended
_SIGPIPE_EXIT = 141


def build_parser() -> argparse.ArgumentParser:
    # argparse only splits argv: each value is checked by the code that
    # uses it, so a bad flag and a bad --config entry fail alike
    parser = argparse.ArgumentParser(
        prog="fracadi",
        description="compact ADI solver for time-fractional diffusion-wave "
                    "problems, plus convergence studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run one problem at one resolution")
    ps.add_argument("--problem", default="example1",
                    help="builtin name or JSON problem file (default: example1)")
    ps.add_argument("--alpha", default=None,
                    help="fractional order in (0, 1) (default: the problem "
                         f"file's alpha; {_BUILTIN_ALPHA} for a builtin)")
    ps.add_argument("--m", default=16,
                    help="cells per spatial axis (default: 16)")
    ps.add_argument("--n", default=10,
                    help="time steps (default: 10)")
    ps.add_argument("--out", default="out", help="output directory")
    ps.add_argument("--emit", default="",
                    help=f"comma list from {','.join(_SOLVE_EMIT)}")
    ps.add_argument("--snapshot-every", default=None,
                    help="emit every k-th level (and the last) as a snapshot")
    ps.add_argument("--config", default=None,
                    help="JSON config; entries override flags")
    ps.set_defaults(func=cmd_solve)

    pt = sub.add_parser("study", help="run a refinement ladder")
    pt.add_argument("--problem", default="example1")
    pt.add_argument("--alpha", default=None,
                    help="comma list of fractional orders (default: the "
                         f"problem file's alpha; {_BUILTIN_ALPHA} for a "
                         "builtin)")
    pt.add_argument("--axis", default="temporal",
                    help="temporal or spatial (default: temporal)")
    pt.add_argument("--ladder", default=TEMPORAL_LADDER,
                    help="comma list of N (temporal) or M (spatial) values "
                         f"(default: {','.join(map(str, TEMPORAL_LADDER))})")
    pt.add_argument("--fixed", default=None,
                    help="fixed M for temporal axis / fixed N for spatial "
                         f"(defaults: {TEMPORAL_M} / {SPATIAL_N})")
    pt.add_argument("--out", default="out")
    pt.add_argument("--emit", default="table",
                    help="comma list from table,csv,svg")
    pt.add_argument("--config", default=None,
                    help="JSON config; entries override flags")
    pt.set_defaults(func=cmd_study)

    pv = sub.add_parser("verify", help="run the numerical self-checks")
    pv.add_argument("--suite", default="quick",
                    help="quick or full (default: quick)")
    pv.set_defaults(func=cmd_verify)
    return parser


def _apply_config(args: argparse.Namespace) -> None:
    if getattr(args, "config", None) is None:
        return
    path = Path(args.config)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config {path} must contain a JSON object")
    for key, value in data.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest) or dest in ("func", "command", "config"):
            raise ValueError(f"config {path}: unknown key {key!r}")
        setattr(args, dest, value)


def _parse_list(value, cast):
    if isinstance(value, (list, tuple)):
        return tuple(cast(v) for v in value)
    value = str(value).strip()
    if not value:
        return ()
    return tuple(cast(v.strip()) for v in value.split(","))


def _alphas(args: argparse.Namespace) -> tuple:
    """The run's alphas.  --alpha (or the config's alpha) wins; otherwise
    None, for a problem file's own alpha, or ``_BUILTIN_ALPHA`` for a
    builtin problem."""
    if args.alpha is not None:
        return _parse_list(args.alpha, lambda v: _number(v, "--alpha"))
    if args.problem in BUILTIN_PROBLEMS:
        return (_BUILTIN_ALPHA,)
    return (None,)  # get_problem reads the file's alpha


def _count(value, flag: str, least: int) -> int:
    """A count flag as an int of at least ``least``, checked before the
    problem loads (``Mesh`` keeps its own rule for API callers)."""
    count = _number(value, flag, int)
    if count < least:
        raise ValueError(f"{flag} must be an integer >= {least}, got {count}")
    return count


def cmd_solve(args: argparse.Namespace) -> int:
    # every flag is checked before the problem is loaded and sampled
    emit = _parse_list(args.emit, str)
    check_emit(emit, _SOLVE_EMIT)
    m = _count(args.m, "--m", 2)
    n = _count(args.n, "--n", 1)
    every = (None if args.snapshot_every is None
             else _count(args.snapshot_every, "--snapshot-every", 1))
    if "snapshots" in emit and every is None:
        raise ValueError("emitting snapshots requires --snapshot-every")

    alphas = _alphas(args)
    if len(alphas) != 1:
        raise ValueError(f"solve takes one alpha, got {len(alphas)}")
    problem = get_problem(args.problem, alphas[0])
    mesh = mesh_for(problem, m, n=n)

    # the solver wants zero initial displacement; reduce, then add psi back
    reduced = homogenize_initial(problem, mesh)
    psi = (0.0 if reduced is problem
           else sample_xy(problem.psi, mesh, field="psi"))
    result = solve(reduced, mesh)
    final = GridFn(mesh, result.final.values + psi)

    print(f"problem {problem.name}  alpha={problem.alpha:g}  "
          f"grid {mesh.M1}x{mesh.M2}  steps {mesh.N}")
    print(f"final max |u| = {float(np.max(np.abs(final.values))):.6e}")
    if result.e_inf is not None:
        print(f"E_inf = {result.e_inf:.4e}  final-level error = "
              f"{result.final_error:.4e}")

    out = Path(args.out)
    written: list[Path] = []
    if emit:
        out.mkdir(parents=True, exist_ok=True)
    if "csv" in emit:
        path = out / "final.csv"
        write_csv(final, path)
        written.append(path)
    if "svg" in emit:
        path = out / "final.svg"
        emit_heatmap(final, path,
                     title=f"{problem.name}, alpha={problem.alpha:g}, "
                           f"t={mesh.T:g}")
        written.append(path)
        if problem.exact is not None:
            from .problems import sample_xyt
            exact_grid = GridFn(mesh, sample_xyt(problem.exact, mesh, mesh.T,
                                                 field="exact"))
            path = out / "exact.svg"
            emit_heatmap(exact_grid, path,
                         title=f"{problem.name} exact, t={mesh.T:g}")
            written.append(path)
    if "reports" in emit:
        path = out / "reports.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["level", "wall_time_ns", "rhs_norm",
                             "solution_inf_norm"])
            for rep in result.reports:
                writer.writerow([rep.level, rep.wall_time_ns,
                                 repr(rep.rhs_norm),
                                 repr(rep.solution_inf_norm)])
        written.append(path)
    if "snapshots" in emit:
        history = result.state.history
        for level in sorted({*range(0, mesh.N + 1, every), mesh.N}):
            path = out / f"snapshot_{level:05d}.csv"
            write_csv(GridFn(mesh, history[level] + psi), path)
            written.append(path)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    # --axis, --alpha, --ladder, --fixed and --emit are checked by
    # StudyConfig's own rules before the problem is loaded
    check_axis(args.axis)
    alphas = _alphas(args)
    if alphas != (None,):  # a file's own alpha is checked when it loads
        check_alphas(alphas)
    ladder = _parse_list(args.ladder, lambda v: _number(v, "--ladder", int))
    check_ladder(ladder, args.axis)
    fixed = args.fixed
    if fixed is None:
        fixed = TEMPORAL_M if args.axis == "temporal" else SPATIAL_N
    fixed = _count(fixed, "--fixed", _FIXED_LEAST[args.axis])
    emit = _parse_list(args.emit, str)
    check_emit(emit, _STUDY_EMIT)

    problem = args.problem
    if alphas == (None,):  # the file's own alpha: load the file once
        problem = get_problem(problem)
        alphas = (problem.alpha,)
    config = StudyConfig(alphas=alphas, axis=args.axis, ladder=ladder,
                         fixed=fixed, problem=problem, out_dir=str(args.out),
                         emit=emit)
    result = run_study(config)
    if "table" in emit or not emit:
        print(emit_table(result.rows), end="")
    for path in emit_outputs(config, result):
        print(f"wrote {path}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_checks(args.suite)
    print(format_results(results), end="")
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`); silence the final flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _SIGPIPE_EXIT
    except Exception as exc:  # surface everything as one stderr JSON line
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
