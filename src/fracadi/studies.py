"""Convergence studies: run a refinement ladder, tabulate errors and rates.

A study solves one problem family over a ladder of resolutions for each
requested alpha.  The reported error is E_inf, the largest interior
max-norm error over all time levels of a run.  Errors are rounded to five
significant digits before rates are formed, so emitted tables are
self-consistent: rate_i = log2(e_{i-1} / e_i) holds exactly for the printed
numbers.  Doubling ladders make the rate an observed order of accuracy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from .adisolver import solve
from .fracweights import _check_alpha
from .meshops import GridFn
from .problems import (
    ProblemSpec,
    get_problem,
    homogenize_initial,
    mesh_for,
    sample_xy,
)

_EMIT_CHOICES = ("table", "csv", "svg")
_AXES = ("temporal", "spatial")
# least fixed resolution per axis: two cells (temporal), one step (spatial)
_FIXED_LEAST = {"temporal": 2, "spatial": 1}


def check_emit(emit, choices: tuple[str, ...]) -> None:
    """Reject an ``emit`` entry that is not one of ``choices``."""
    bad = set(emit) - set(choices)
    if bad:
        raise ValueError(f"unknown emit flags {sorted(bad, key=str)}; "
                         f"choose from {choices}")


def check_axis(axis) -> None:
    """Reject a refinement axis other than temporal or spatial."""
    if axis not in _AXES:
        raise ValueError(f"axis must be temporal or spatial, got {axis!r}")


def check_alphas(alphas) -> None:
    """Reject an empty alphas list, an alpha outside (0, 1) or a repeat."""
    if not alphas:
        raise ValueError("at least one alpha is required")
    for a in alphas:
        _check_alpha(a)
    repeated = sorted({a for a in alphas if alphas.count(a) > 1})
    if repeated:
        raise ValueError(f"alphas must be distinct, repeated: {repeated}")


def check_ladder(ladder, axis: str) -> None:
    """Reject a ladder that is empty, has an entry that is not a positive
    integer, does not strictly increase or, on the spatial axis, has an
    entry below the mesh's two cells per axis."""
    if not ladder:
        raise ValueError("ladder must be nonempty")
    if any(int(v) != v or v < 1 for v in ladder):
        raise ValueError(f"ladder entries must be positive integers: {ladder}")
    if list(ladder) != sorted(set(ladder)):
        raise ValueError(f"ladder must be strictly increasing: {ladder}")
    if axis == "spatial" and ladder[0] < 2:
        raise ValueError(f"ladder entries of a spatial study (--ladder) are "
                         f"cells per axis and must be >= 2: {ladder}")


@dataclass(frozen=True)
class StudyConfig:
    """What to run and what to write.

    ``axis`` selects the refinement direction: "temporal" runs the ladder
    over step counts N at fixed spatial resolution ``fixed``; "spatial"
    runs it over cell counts M (both axes) at fixed N.  ``ladder`` entries
    should double for the rates to be read as orders.  ``problem`` is a
    builtin name, a JSON file path, or a ProblemSpec.
    """

    alphas: tuple[float, ...]
    axis: str
    ladder: tuple[int, ...]
    fixed: int
    problem: object = "example1"
    out_dir: str = "out"
    emit: tuple[str, ...] = ("table",)

    def __post_init__(self) -> None:
        check_axis(self.axis)
        check_alphas(self.alphas)
        check_ladder(self.ladder, self.axis)
        least = _FIXED_LEAST[self.axis]
        if int(self.fixed) != self.fixed or self.fixed < least:
            raise ValueError(f"fixed must be an integer >= {least} on the "
                             f"{self.axis} axis, got {self.fixed}")
        check_emit(self.emit, _EMIT_CHOICES)
        if isinstance(self.problem, ProblemSpec):
            if tuple(self.alphas) != (self.problem.alpha,):
                raise ValueError(
                    "an explicit ProblemSpec fixes alpha; the alphas list "
                    "must be exactly (problem.alpha,)"
                )


@dataclass(frozen=True)
class ConvergenceRow:
    alpha: float
    h: float
    tau: float
    e_inf: float
    rate: float | None


@dataclass
class StudyResult:
    rows: list[ConvergenceRow]
    finals: dict[float, GridFn] = field(default_factory=dict)


def _round_sig(e: float) -> float:
    # five significant digits, matching the table formatting
    return float(f"{e:.4e}")


def run_study(config: StudyConfig) -> StudyResult:
    """Execute every ladder entry for every alpha, in order.

    Each run is an independent solve, so results do not depend on the order
    of execution; rows appear alpha-major, coarse to fine.  Every problem is
    loaded and every run's mesh built before the first solve, so a run that
    breaks the mesh's size rule fails at once.  A problem with a nonzero psi
    is reduced by ``homogenize_initial`` on each run's mesh, as the CLI's
    solve does; E_inf is unchanged by the shift.  The final field of the
    finest run per alpha, with psi added back, is kept for optional
    rendering.
    """
    rows: list[ConvergenceRow] = []
    finals: dict[float, GridFn] = {}

    sizes = [(config.fixed, int(e)) if config.axis == "temporal"
             else (int(e), config.fixed) for e in config.ladder]
    runs = []
    for alpha in config.alphas:
        problem = get_problem(config.problem, alpha)
        if problem.exact is None:
            raise ValueError(
                f"problem {problem.name!r} has no exact solution; "
                "a convergence study needs one"
            )
        runs += [(problem, mesh_for(problem, m, n=n)) for m, n in sizes]

    for problem, mesh in runs:
        # the solver wants zero initial displacement; reduce per mesh, then
        # add psi back to the kept final field as the CLI's solve does
        reduced = homogenize_initial(problem, mesh)
        psi = (0.0 if reduced is problem
               else sample_xy(problem.psi, mesh, field="psi"))
        result = solve(reduced, mesh)
        e = _round_sig(result.e_inf)
        prev = rows[-1] if rows and rows[-1].alpha == problem.alpha else None
        rate = None
        if prev is not None and e > 0.0:
            rate = math.log2(prev.e_inf / e)
        rows.append(ConvergenceRow(
            alpha=problem.alpha, h=mesh.h1, tau=mesh.tau, e_inf=e, rate=rate,
        ))
        finals[problem.alpha] = GridFn(mesh, result.final.values + psi)
    return StudyResult(rows=rows, finals=finals)


def emit_table(rows: list[ConvergenceRow]) -> str:
    """Fixed-width text table, one blank line between alpha groups."""
    lines = [f"{'alpha':>7} {'h':>12} {'tau':>12} {'e_inf':>12} {'rate':>9}"]
    last_alpha = None
    for row in rows:
        if last_alpha is not None and row.alpha != last_alpha:
            lines.append("")
        last_alpha = row.alpha
        rate = f"{row.rate:9.4f}" if row.rate is not None else f"{'*':>9}"
        lines.append(
            f"{row.alpha:7.3f} {row.h:12.6g} {row.tau:12.6g} "
            f"{row.e_inf:12.4e} {rate}"
        )
    return "\n".join(lines) + "\n"


def emit_csv(rows: list[ConvergenceRow], path) -> None:
    """Write rows as CSV; repr-formatted floats round-trip exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "h", "tau", "e_inf", "rate"])
        for row in rows:
            writer.writerow([
                repr(row.alpha), repr(row.h), repr(row.tau), repr(row.e_inf),
                "" if row.rate is None else repr(row.rate),
            ])


def read_study_csv(path) -> list[ConvergenceRow]:
    rows: list[ConvergenceRow] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["alpha", "h", "tau", "e_inf", "rate"]:
            raise ValueError(f"unexpected study CSV header: {header}")
        for rec in reader:
            if len(rec) != 5:
                raise ValueError(f"malformed study CSV row: {rec}")
            rows.append(ConvergenceRow(
                alpha=float(rec[0]), h=float(rec[1]), tau=float(rec[2]),
                e_inf=float(rec[3]), rate=None if rec[4] == "" else float(rec[4]),
            ))
    return rows


def emit_outputs(config: StudyConfig, result: StudyResult) -> list[Path]:
    """Write the requested artifacts into config.out_dir; returns paths."""
    from .heatmap import emit_heatmap

    written: list[Path] = []
    out = Path(config.out_dir)
    if config.emit:
        out.mkdir(parents=True, exist_ok=True)
    if "table" in config.emit:
        path = out / "study_table.txt"
        path.write_text(emit_table(result.rows))
        written.append(path)
    if "csv" in config.emit:
        path = out / "study.csv"
        emit_csv(result.rows, path)
        written.append(path)
    if "svg" in config.emit:
        for alpha, final in sorted(result.finals.items()):
            path = out / f"final_alpha{alpha:g}.svg"
            emit_heatmap(final, path, title=f"numerical solution, alpha={alpha:g}")
            written.append(path)
    return written
