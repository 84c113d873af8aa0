"""What the benchmark measures: workloads, metrics, units and bounds.

This module is the single source for ``BENCHMARK.json`` (regenerate it with
``python3 bench/run.py --write-benchmark-json``) and for the metric names a
run prints, so the two cannot drift apart.  It imports nothing heavy.
"""

from __future__ import annotations

RUN_SECONDS = 25

# BLAS/OpenMP threads in the workload process.  One thread: every workload
# is a single-threaded closed loop, and at alpha=0.1, M=16, N=6000 one
# OpenBLAS thread measured 4.8 s against 5.5 s at the 2-thread default on a
# 2-core host.
BLAS_THREADS = 1

# Fresh interpreter processes started per run, between calls and spread over
# the run, to time import + problem and mesh construction; the fastest is
# reported.
SETUP_SAMPLES = 9

WORKLOADS = (
    ("history_long",
     "example1 alpha=0.1 M=16 N=1e4 via solve(): the O(N^2 M^2) history sum "
     "dominates, so a fast convolution must win here"),
    ("grid_wide",
     "example1 alpha=0.5 M=256 N=200 via solve(): Thomas sweeps and compact "
     "stencils dominate, history is small"),
    ("ladder_temporal",
     "temporal ladder alpha 0.25/0.5/0.75 x N=5..80 at M=16 via run_study: "
     "per-solve setup and numpy call overhead, almost no history"),
    ("cli_inhomogeneous",
     "seeded JSON problem with nonzero psi and boundary through cli.main "
     "solve, M=64 N=1000, writing 25 CSV/SVG files"),
)

# (name, unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("e_inf", "1", "lower", 0.01),
    ("pass_frac", "ratio", "higher", 0.01),
)

_SAMPLE_FIELDS = ("forcing", "boundary", "exact", "phi", "psi", "other")

# (name, unit, better)
PER_LAYER = (
    ("adisolver.solve.s", "s", "lower"),
    ("adisolver.solve.self_s", "s", "lower"),
    ("adisolver.init_state.s", "s", "lower"),
    ("adisolver.step.count", "count", "lower"),
    ("adisolver.step.s", "s", "lower"),
    ("adisolver.step.self_s", "s", "lower"),
    ("adisolver.step.p50_us", "us", "lower"),
    ("adisolver.step.p99_us", "us", "lower"),
    ("adisolver.history.bytes_computed", "B", "lower"),
    ("adisolver.history.flops_computed", "flop", "lower"),
    ("adisolver.history.gbps_computed", "GB/s", "higher"),
    ("trisolve.solve.count", "count", "lower"),
    ("trisolve.solve.s", "s", "lower"),
    ("trisolve.unknowns_solved", "count", "lower"),
    ("trisolve.build.s", "s", "lower"),
    ("meshops.stencil.count", "count", "lower"),
    ("meshops.stencil.s", "s", "lower"),
    ("meshops.write_csv.s", "s", "lower"),
    ("meshops.write_csv.bytes", "B", "lower"),
    ("problems.sample.count", "count", "lower"),
    ("problems.sample.s", "s", "lower"),
    *((f"problems.sample.{f}.s", "s", "lower") for f in _SAMPLE_FIELDS),
    ("problems.sample.forcing.per_step", "count", "lower"),
    ("problems.load.s", "s", "lower"),
    ("problems.homogenize.s", "s", "lower"),
    ("fracweights.scheme_weights.count", "count", "lower"),
    ("fracweights.scheme_weights.s", "s", "lower"),
    ("studies.run_study.s", "s", "lower"),
    ("studies.solve.count", "count", "lower"),
    ("studies.self_s", "s", "lower"),
    ("heatmap.emit.count", "count", "lower"),
    ("heatmap.emit.s", "s", "lower"),
    ("heatmap.bytes", "B", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_ratio", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.selfcheck_failures", "count", "lower"),
)

def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
