"""Run one fracadi benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-benchmark-json

With ``--trace 0`` the run times the workload's user-facing call in a
closed loop for S seconds and reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced calls and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
record of the run (environment, every sample, every check) and, when
traced, every span go to ``.bench_out/`` at the repository root.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Untraced calls a run makes at least, so that wall_s is the fastest of
# several even when one call takes a third of the run.
MIN_CALLS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json from bench/spec.py")
    args = parser.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        parser.error("--workload is required")
    return args


def _l3_bytes() -> int | None:
    """L3 size as the C library reports it (from CPUID, not a file)."""
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"],
                             capture_output=True, text=True, timeout=10)
        return int(out.stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _environment(threads: int, workload) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(),
        "blas_threads": threads,
        "history_array_bytes": workload.history_bytes,
    }


def _setup_seconds(workload, env) -> float:
    """Import fracadi and build the workload's problem and mesh in a fresh
    interpreter; the child reports its own elapsed time."""
    proc = subprocess.run([sys.executable, "-c", workload.setup_script],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _timed(workload) -> dict:
    """One call and its check; a failure is recorded, not raised."""
    t0 = time.perf_counter()
    try:
        result = workload.call()
    except Exception:
        return {"wall_s": time.perf_counter() - t0, "ok": False,
                "e_inf": None, "detail": traceback.format_exc()}
    wall = time.perf_counter() - t0
    try:
        check = workload.check(result)
    except Exception:
        return {"wall_s": wall, "ok": False, "e_inf": None,
                "detail": "check raised " + traceback.format_exc()}
    return {"wall_s": wall, "ok": check.ok, "e_inf": check.e_inf,
            "detail": check.detail}


def _loop(workload, seconds, tracer=None, take_setup=None):
    """Closed loop for about ``seconds`` of calls: one call at a time, and a
    new one only if it would end at most half a call past the deadline or
    fewer than MIN_CALLS calls have been made.  With a tracer, calls
    alternate untraced/traced and both kinds get a sample.  Calls (with a
    tracer, untraced/traced pairs) take turns on the CPUs the process may
    use, so that contention on one core does not hold every call back.
    With ``take_setup``, spec.SETUP_SAMPLES set-up times are taken between
    calls, spread evenly over the run; the loop's clock stops while they
    run.  Returns the call samples and the set-up times."""
    cpus = sorted(os.sched_getaffinity(0))
    samples, setup = [], []
    paused = 0.0
    start = time.perf_counter()

    def setup_until(count):
        nonlocal paused
        t0 = time.perf_counter()
        while len(setup) < count:
            setup.append(take_setup())
        paused += time.perf_counter() - t0

    while True:
        turn = len(samples) // (1 if tracer is None else 2)
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
        if take_setup:
            share = (time.perf_counter() - start - paused) / seconds
            setup_until(max(1, min(spec.SETUP_SAMPLES,
                                   round(spec.SETUP_SAMPLES * share))))
        traced = tracer is not None and len(samples) % 2 == 1
        if traced:
            with tracer.recording() as run_id:
                sample = _timed(workload)
            tracer.walls_ns[run_id] = int(sample["wall_s"] * 1e9)
        else:
            sample = _timed(workload)
        samples.append({"traced": traced, **sample})
        enough = len(samples) >= (MIN_CALLS if tracer is None else 2)
        elapsed = time.perf_counter() - start - paused
        if enough and elapsed + sample["wall_s"] / 2 >= seconds:
            break
    if take_setup:
        setup_until(spec.SETUP_SAMPLES)
    os.sched_setaffinity(0, cpus)
    return samples, setup


def _untraced_metrics(samples, setup, attempted, failed) -> dict:
    e_values = [s["e_inf"] for s in samples if s["e_inf"] is not None]
    walls = [s["wall_s"] for s in samples]
    return {
        # The fastest call and the fastest set-up: contention from other
        # tenants of the host only adds time, and it comes in phases that
        # move a median by up to half (see bench/README.md).  The medians
        # go to the run record only.
        "wall_s": min(walls),
        "setup_s": min(setup),
        "wall_median_s": statistics.median(walls),
        "setup_median_s": statistics.median(setup),
        "calls": len(walls),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        # 1e300 marks a run in which no call produced an error value
        "e_inf": statistics.median(e_values) if e_values else 1e300,
        "pass_frac": 1.0 - failed / attempted,
    }


def _traced_metrics(workload, samples, tracer) -> tuple[dict, list]:
    from tracer import selfcheck

    per_call = [tracer.metrics(run_id) for run_id in sorted(tracer.walls_ns)]
    failures = selfcheck(per_call, workload.solves, workload.expected_spans)
    traced = statistics.median(s["wall_s"] for s in samples if s["traced"])
    untraced = statistics.median(
        s["wall_s"] for s in samples if not s["traced"])
    metrics = {
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.selfcheck_failures": len(failures),
    }
    for name, *_ in spec.PER_LAYER:
        if name not in metrics:
            metrics[name] = statistics.median(m[name] for m in per_call)
    return metrics, failures


def main(argv=None) -> int:
    args = _parse(argv)
    if args.write_benchmark_json:
        text = json.dumps(spec.benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if not (SRC / "fracadi").is_dir():
        print(f"fracadi sources not found under {SRC}", file=sys.stderr)
        return 2

    # Pin BLAS threads before numpy is first imported, here and in the
    # setup children.
    threads = min(spec.BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    from tracer import Tracer
    from workloads import BUILDERS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        workload = BUILDERS[args.workload](args.seed, workdir)
        env = _environment(threads, workload)
        tracer = Tracer() if args.trace else None
        take_setup = (None if args.trace else
                      lambda: _setup_seconds(workload, os.environ))
        samples, setup = _loop(workload, args.seconds, tracer, take_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = samples + ([{"ok": workload.validation.ok, "detail":
                          "input validation: " + workload.validation.detail}]
                        if workload.validation else [])
    failed = sum(not c["ok"] for c in checks)
    failures = []
    if args.trace:
        metrics, failures = _traced_metrics(workload, samples, tracer)
        tracer.write_spans(OUT / f"spans-{args.workload}.csv")
    else:
        metrics = _untraced_metrics(samples, setup, len(checks), failed)

    for detail in dict.fromkeys(c["detail"] for c in checks if not c["ok"]):
        print(f"check failed: {detail}", file=sys.stderr)
    for msg in failures:
        print(f"tracer self-check failed: {msg}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "environment": env, "setup_s": setup, "samples": samples,
              "checks": [c["detail"] for c in checks],
              "tracer_selfcheck_failures": failures, "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    reported = spec.PER_LAYER if args.trace else spec.END_TO_END
    print("# environment " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, *_ in reported},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
