"""Layer spans recorded from outside the program.

While a traced call runs, ``Tracer.recording`` replaces fracadi callables
with timing wrappers at the reference each caller actually uses: module
globals such as ``adisolver._avgx`` and ``cli.solve``, the stepper table
``adisolver._STEPPERS`` and the method ``TridiagOperator.solve``.  The
originals are put back when the call returns, so untraced calls in the same
process run unwrapped.

Each wrapper appends one span row

    [name, start_ns, end_ns, parent_index, run_id, value]

to an in-memory list; ``parent_index`` is the enclosing span (-1 at the
root) and ``run_id`` numbers the traced calls.  ``value`` is an optional
number taken from the call (unknowns solved, bytes written, history entries
read).  Span names are ``<module>.<boundary>``; the module is the layer.
"""

from __future__ import annotations

import csv
import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from fracadi import adisolver, cli, problems, studies, trisolve

_STENCILS = ("_avgx", "_avgy", "_d2x", "_d2y", "_zero_frame")

# (label, ProblemSpec attribute) for naming problem-data samples
_FIELDS = (
    ("forcing", "forcing_f"),
    ("forcing", "caputo_forcing"),
    ("boundary", "boundary"),
    ("exact", "exact"),
    ("phi", "phi"),
    ("psi", "psi"),
)

# The self times of nested spans partition the root span; allow this much
# relative gap to the wall time measured around the call.
SELF_SUM_TOL = 0.03


def _get(obj, key):
    return obj[key] if isinstance(obj, dict) else getattr(obj, key)


def _set(obj, key, value) -> None:
    if isinstance(obj, dict):
        obj[key] = value
    else:
        setattr(obj, key, value)


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[1])


class Tracer:
    """In-memory span recorder for traced calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = -1
        self.walls_ns: dict[int, int] = {}
        self._ranges: dict[int, tuple[int, int]] = {}
        self._stack: list[int] = []
        self._problems: dict[int, object] = {}
        self._field_labels: dict[int, list[str]] = {}

    # -- recording -------------------------------------------------------

    def wrap(self, fn, name, value=None):
        """Wrap fn so each call records a span.

        ``name`` is a string or a function of the call's positional
        arguments; ``value(args, result)`` runs after the span closes.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        fixed = None if callable(name) else name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [fixed or name(args), 0, 0, stack[-1] if stack else -1,
                   self.run_id, None]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if value is not None:
                row[5] = value(args, result)
            return result

        return wrapper

    def _register(self, problem) -> None:
        if id(problem) in self._problems:
            return
        self._problems[id(problem)] = problem
        for label, attr in _FIELDS:
            func = getattr(problem, attr)
            if func is not None:
                self._field_labels.setdefault(id(func), []).append(label)

    def _solve_name(self, args) -> str:
        self._register(args[0])
        return "adisolver.solve"

    def _loaded(self, args, result) -> None:
        self._register(result)

    def _sample_name(self, args) -> str:
        labels = self._field_labels.get(id(args[0]))
        if not labels:
            return "problems.sample.other"
        # phi and psi are often the same zero function; init_state samples
        # psi, the workspace samples phi
        if "psi" in labels and sys._getframe(2).f_code.co_name == "init_state":
            return "problems.sample.psi"
        return "problems.sample." + labels[0]

    def _targets(self):
        """(container, key, span name, value hook) for every boundary."""
        sample = self._sample_name
        solve = self._solve_name
        targets = [
            (adisolver, "solve", solve, None),
            (studies, "solve", solve, None),
            (cli, "solve", solve, None),
            (adisolver, "init_state", "adisolver.init_state", None),
            (adisolver, "sample_xy", sample, None),
            (adisolver, "sample_xyt", sample, None),
            (cli, "sample_xy", sample, None),
            (problems, "sample_xyt", sample, None),
            (adisolver, "build_sweep_operator", "trisolve.build", None),
            (trisolve.TridiagOperator, "solve", "trisolve.solve",
             lambda args, result: args[1].size),
            (adisolver, "scheme_weights", "fracweights.scheme_weights", None),
            (studies, "get_problem", "problems.load", self._loaded),
            (cli, "get_problem", "problems.load", self._loaded),
            (cli, "_max_abs_psi", "problems.homogenize", None),
            (cli, "homogenize_initial", "problems.homogenize", self._loaded),
            (cli, "write_csv", "meshops.write_csv", _file_bytes),
            (cli, "emit_heatmap", "heatmap.emit", _file_bytes),
            (studies, "run_study", "studies.run_study", None),
            (cli, "main", "cli.main", None),
        ]
        # history entries read by the step that produced level n+1: n+1 rows
        step_value = (lambda args, result:
                      args[0].current_level * args[0].u_current.values.size)
        for method in adisolver._STEPPERS:
            targets.append((adisolver._STEPPERS, method, "adisolver.step",
                            step_value))
        targets += [(adisolver, k, "meshops.stencil", None) for k in _STENCILS]
        return targets

    @contextmanager
    def recording(self):
        """Install the wrappers for one traced call, then restore them."""
        self.run_id += 1
        self._problems.clear()
        self._field_labels.clear()
        first = len(self.spans)
        saved = []
        try:
            for obj, key, name, value in self._targets():
                original = _get(obj, key)
                saved.append((obj, key, original))
                _set(obj, key, self.wrap(original, name, value))
            yield self.run_id
        finally:
            for obj, key, original in reversed(saved):
                _set(obj, key, original)
            self._ranges[self.run_id] = (first, len(self.spans))

    # -- aggregation -----------------------------------------------------

    def _aggregate(self, run_id):
        lo, hi = self._ranges[run_id]
        rows = self.spans[lo:hi]
        covered = [0] * len(rows)
        for row in rows:
            if row[3] >= lo:
                covered[row[3] - lo] += row[2] - row[1]
        agg = defaultdict(lambda: {"count": 0, "ns": 0, "self_ns": 0,
                                   "value": 0, "durations": []})
        studies_solves = 0
        for row, kids in zip(rows, covered):
            a = agg[row[0]]
            dur = row[2] - row[1]
            a["count"] += 1
            a["ns"] += dur
            a["self_ns"] += dur - kids
            if row[5] is not None:
                a["value"] += row[5]
            if row[0] == "adisolver.step":
                a["durations"].append(dur)
            elif (row[0] == "adisolver.solve" and row[3] >= lo
                  and self.spans[row[3]][0] == "studies.run_study"):
                studies_solves += 1
        return agg, studies_solves, len(rows)

    def metrics(self, run_id) -> dict[str, float]:
        """Per-layer metrics of one traced call."""
        agg, studies_solves, span_count = self._aggregate(run_id)

        def s(name, key="ns"):
            return agg[name][key] / 1e9 if name in agg else 0.0

        def n(name, key="count"):
            return agg[name][key] if name in agg else 0

        steps = n("adisolver.step")
        step_us = np.asarray(agg["adisolver.step"]["durations"]) / 1e3 \
            if steps else np.zeros(1)
        history_entries = n("adisolver.step", "value")
        step_self = s("adisolver.step", "self_ns")
        history_bytes = 8 * history_entries
        sample_names = [k for k in agg if k.startswith("problems.sample.")]

        m = {
            "adisolver.solve.s": s("adisolver.solve"),
            "adisolver.solve.self_s": s("adisolver.solve", "self_ns"),
            "adisolver.init_state.s": s("adisolver.init_state"),
            "adisolver.step.count": steps,
            "adisolver.step.s": s("adisolver.step"),
            "adisolver.step.self_s": step_self,
            "adisolver.step.p50_us": float(np.percentile(step_us, 50)),
            "adisolver.step.p99_us": float(np.percentile(step_us, 99)),
            "adisolver.history.bytes_computed": history_bytes,
            "adisolver.history.flops_computed": 2 * history_entries,
            "adisolver.history.gbps_computed":
                history_bytes / step_self / 1e9 if step_self > 0 else 0.0,
            "trisolve.solve.count": n("trisolve.solve"),
            "trisolve.solve.s": s("trisolve.solve"),
            "trisolve.unknowns_solved": n("trisolve.solve", "value"),
            "trisolve.build.s": s("trisolve.build"),
            "meshops.stencil.count": n("meshops.stencil"),
            "meshops.stencil.s": s("meshops.stencil"),
            "meshops.write_csv.s": s("meshops.write_csv"),
            "meshops.write_csv.bytes": n("meshops.write_csv", "value"),
            "problems.sample.count": sum(n(k) for k in sample_names),
            "problems.sample.s": sum(s(k) for k in sample_names),
            "problems.sample.forcing.per_step":
                n("problems.sample.forcing") / steps if steps else 0.0,
            "problems.load.s": s("problems.load"),
            "problems.homogenize.s": s("problems.homogenize"),
            "fracweights.scheme_weights.count": n("fracweights.scheme_weights"),
            "fracweights.scheme_weights.s": s("fracweights.scheme_weights"),
            "studies.run_study.s": s("studies.run_study"),
            "studies.solve.count": studies_solves,
            "studies.self_s": s("studies.run_study", "self_ns"),
            "heatmap.emit.count": n("heatmap.emit"),
            "heatmap.emit.s": s("heatmap.emit"),
            "heatmap.bytes": n("heatmap.emit", "value"),
            "cli.main.s": s("cli.main"),
            "cli.self_s": s("cli.main", "self_ns"),
            "trace.spans": span_count,
            "trace.self_sum_ratio":
                sum(a["self_ns"] for a in agg.values()) / self.walls_ns[run_id],
        }
        for field in [*dict.fromkeys(label for label, _ in _FIELDS), "other"]:
            m[f"problems.sample.{field}.s"] = s(f"problems.sample.{field}")
        m["_reached"] = sorted(agg)
        return m

    def write_spans(self, path) -> None:
        """Write every recorded span as CSV (times in ns)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start_ns", "end_ns", "parent", "run_id",
                             "value"])
            writer.writerows(
                [r[0], r[1], r[2], r[3], r[4], "" if r[5] is None else r[5]]
                for r in self.spans
            )


# counts that must repeat exactly from one traced call to the next
_EXACT_COUNTS = (
    "adisolver.step.count", "adisolver.history.bytes_computed",
    "adisolver.history.flops_computed", "trisolve.solve.count",
    "trisolve.unknowns_solved", "meshops.stencil.count",
    "problems.sample.count", "problems.sample.forcing.per_step",
    "fracweights.scheme_weights.count", "studies.solve.count",
    "heatmap.emit.count", "heatmap.bytes", "meshops.write_csv.bytes",
    "trace.spans",
)


def selfcheck(per_call: list[dict], solves, expected_spans) -> list[str]:
    """Tracer self-checks; returns one message per failure.

    ``solves`` lists (N, grid nodes) for every solve in one call, from
    which the closed forms follow: 2N Thomas solves per ADI solve, history
    bytes 8 G N(N+1)/2, and N+1 forcing samples (one per level).
    """
    failures = []
    steps = sum(n for n, _ in solves)
    closed = {
        "trisolve.solve.count": 2 * steps,
        "adisolver.history.bytes_computed":
            sum(8 * g * n * (n + 1) // 2 for n, g in solves),
        "problems.sample.forcing.per_step":
            sum(n + 1 for n, _ in solves) / steps,
    }
    for i, m in enumerate(per_call):
        missing = sorted(set(expected_spans) - set(m["_reached"]))
        if missing:
            failures.append(f"call {i}: boundaries never reached: {missing}")
        for name, want in closed.items():
            if m[name] != want:
                failures.append(f"call {i}: {name} = {m[name]}, "
                                f"closed form {want}")
        ratio = m["trace.self_sum_ratio"]
        if abs(ratio - 1.0) > SELF_SUM_TOL:
            failures.append(f"call {i}: layer self times sum to {ratio:.4f} "
                            f"of traced wall time (tol {SELF_SUM_TOL})")
    for name in _EXACT_COUNTS:
        values = {m[name] for m in per_call}
        if len(values) > 1:
            failures.append(f"{name} differs between calls: {sorted(values)}")
    return failures
