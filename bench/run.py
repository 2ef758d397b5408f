#!/usr/bin/env python3
"""Benchmark entry point for zslada.

    python3 bench/run.py --workload synth-pipeline --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up runs several times and reports its median as
``setup_s``; the timed stages then repeat until ``--seconds`` have
passed and each end-to-end metric is the median over repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics instead, plus the tracing overhead.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
a report with the workload's own stage metrics, output checks,
determinism digests and environment.  Each output check is one attempted
operation, and a failed check is a failed operation.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("synth-pipeline", "awa-adapt", "cub-eval")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Repeat set-up at least this often and until it has taken this long.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 50


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy shrinks every shape; used by selftest.py")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable CPU count; must run before numpy loads.
    ``ZSLADA_THREADS`` is removed so scoring runs at its default of 1."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    os.environ.pop("ZSLADA_THREADS", None)
    return nproc


def import_package() -> None:
    """Import zslada from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "zslada" / "__init__.py").is_file():
        raise SystemExit(f"error: no zslada package under {src}")
    sys.path.insert(0, str(src))
    import zslada

    if Path(zslada.__file__).resolve().parent != (src / "zslada").resolve():
        raise SystemExit(f"error: zslada imported from {zslada.__file__}, not {src}")


def environment(nproc: int) -> dict:
    import ctypes
    import platform

    import numpy as np
    from zslada.metrics import eval_workers

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "nproc": nproc, "machine": platform.machine(),
            "ZSLADA_THREADS": os.environ.get("ZSLADA_THREADS"),
            "eval_workers": eval_workers()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setup(workload, seed: int, workdir: Path):
    times = []
    inputs = None
    while (len(times) < SETUP_MIN_REPEATS
           or (sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS)):
        inputs = None
        gc.collect()
        t0 = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        times.append(time.perf_counter() - t0)
    return inputs, times


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_blas_threads()
    import_package()
    from spans import Tracer, metric_names, metric_unit
    from workloads import TOY_SIZES, WORKLOADS

    cls = WORKLOADS[args.workload]
    workload = cls(TOY_SIZES[args.workload]) if args.size == "toy" else cls()
    env = environment(nproc)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    try:
        inputs, setup_times = time_setup(workload, args.seed, workdir)
        checks: list[tuple[str, bool]] = []
        plain, traced = [], []
        digests = []
        tracer = Tracer() if args.trace else None
        start = time.perf_counter()
        while True:
            use_tracer = tracer is not None and len(traced) < len(plain)
            if use_tracer:
                tracer.run_id = len(traced) + 1
                tracer.install(callers=[sys.modules[cls.__module__]])
            try:
                rep = workload.run(inputs, args.seed, tracer if use_tracer else None)
            finally:
                if use_tracer:
                    tracer.uninstall()
            (traced if use_tracer else plain).append(rep.stages)
            checks.extend(workload.check(inputs, rep))
            digests.append(workload.digest(rep))
            del rep
            done = time.perf_counter() - start >= args.seconds
            if done and (tracer is None or traced):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def median(reps, key):
        return statistics.median(r[key] for r in reps)

    units = {"wall_s": "s", **workload.stages}
    stage_metrics = {k: {"value": median(plain, k), "unit": u} for k, u in units.items()}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": env,
              "setup_s_runs": setup_times, "stage_runs": plain,
              "stage_metrics": stage_metrics, "digests": digests,
              "digests_repeat": all(d == digests[0] for d in digests)}
    if tracer is None:
        metrics = {"setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                   "wall_s": stage_metrics["wall_s"],
                   "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"}}
    else:
        layer, same_calls = tracer.layer_metrics()
        checks.append(("traced_calls_repeat", same_calls))
        checks.append(("every_net_span_has_a_role", tracer.unknown_role_spans() == 0))
        overhead = median(traced, "wall_s") - stage_metrics["wall_s"]["value"]
        metrics = {name: {"value": layer[name], "unit": metric_unit(name)}
                   for name in metric_names()}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(spans_path)
        report.update(traced_stage_runs=traced, trace_overhead_s=overhead,
                      spans_file=str(spans_path.relative_to(ROOT)),
                      spans=len(tracer.spans))
    report["checks"] = [{"name": n, "passed": bool(ok)} for n, ok in checks]
    failed = sum(1 for _, ok in checks if not ok)
    print(json.dumps({"report": report}, default=float))
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
