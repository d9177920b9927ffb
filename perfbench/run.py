#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else. The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run. The line before it is a run record with
the machine, library versions, sizes and workload-specific details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_TRAIN_OPS = 2

# name -> unit; every workload reports all of these with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "op_mean_ms": "ms",
    "positions_per_s": "1/s",
    "peak_rss_mb": "MB",
    "baseline_mae_m": "m",
    "corrected_mae_m": "m",
}


def pin_blas_threads() -> int:
    """Pin BLAS to at most BLAS_THREADS threads; must run before numpy loads."""
    threads = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def environment_record(threads: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import uwbcorr from this checkout's src/, or exit without a result."""
    if not (SRC / "uwbcorr" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import uwbcorr

    if Path(uwbcorr.__file__).resolve().parent != SRC / "uwbcorr":
        sys.exit(f"perfbench: imported uwbcorr from {uwbcorr.__file__}, not {SRC}")


def timed_run(w, args, workdir, tally, record) -> dict:
    """End-to-end metrics with tracing off, scaled to the reference speed.

    The host-speed calibration runs before every set-up, every half second
    during the timed phase, and once at the end. Inside train() and
    evaluate_model() it runs before a gradient step or a solve, and its time
    is taken out of the operation's timing.
    """
    import workloads as wl
    from calibration import Speed, sampling_inside

    setup_speed, speed = Speed(), Speed()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        setup_speed.sample()
        t0 = time.perf_counter()
        inputs = wl.setup(w, args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
    setup_speed.sample()
    if w.n_train:
        ops = []
        t0 = time.perf_counter()
        with sampling_inside(speed, wl.training, ("compute_gradients", "baseline_position")):
            while len(ops) < MIN_TRAIN_OPS or time.perf_counter() - t0 < args.seconds:
                speed.sample()
                ops.append(wl.train_op(w, inputs, tally, speed.spent))
        speed.sample()
        rss = peak_rss_mb()
        wl.train_checks(inputs, ops, tally)
        summary = wl.train_summary(ops, speed.factor())
    else:
        fixes, first, wall = wl.stream(
            inputs, tally, args.seconds, wl.MIN_FIXES, between=speed.maybe_sample
        )
        speed.sample()
        rss = peak_rss_mb()
        wl.stream_checks(inputs, first, tally)
        summary = wl.stream_summary(fixes, first, wall, speed.factor())
    values = {
        "setup_s": statistics.median(setup_times) * setup_speed.factor(),
        "peak_rss_mb": rss,
        **summary["metrics"],
    }
    record["setup_s_each_raw"] = setup_times
    record["speed_factor"] = {"setup": setup_speed.factor(), "timed": speed.factor()}
    record["calibrations"] = len(setup_speed.samples) + len(speed.samples)
    record["details_raw"] = summary["details"]
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def traced_run(w, args, workdir, tally, record) -> dict:
    """Per-layer metrics from traced operations.

    Training workloads run one untraced warm-up operation, then alternate
    traced and untraced operations; the fix stream runs one untraced pass
    over its pool and then traced fixes. The overhead is the traced median
    over the untraced median, minus one.
    """
    import layers
    import tracing
    import workloads as wl

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        inputs = wl.setup(w, args.seed, workdir)
    setup_spans = tracer.spans
    tracer.clear()
    t0 = time.perf_counter()
    if w.n_train:
        ops = [wl.train_op(w, inputs, tally)]
        traced, untraced = [], []
        wall = 0.0
        while not untraced or time.perf_counter() - t0 < args.seconds:
            if len(traced) <= len(untraced):
                with tracing.installed(tracer):
                    t1 = time.perf_counter()
                    ops.append(wl.train_op(w, inputs, tally))
                    wall += time.perf_counter() - t1
                traced.append(ops[-1])
            else:
                ops.append(wl.train_op(w, inputs, tally))
                untraced.append(ops[-1])
        wl.train_checks(inputs, ops, tally)
        overhead = statistics.median(op.train_s + op.eval_s for op in traced) / statistics.median(
            op.train_s + op.eval_s for op in untraced
        )
    else:
        untraced, first, _ = wl.stream(inputs, tally, 0.0, len(inputs.eval_set))
        with tracing.installed(tracer):
            fixes, first, wall = wl.stream(inputs, tally, args.seconds, wl.MIN_FIXES, first)
        wl.stream_checks(inputs, first, tally)
        pool = len(untraced)
        overhead = statistics.median(f.latency_s for f in fixes[:pool]) / statistics.median(
            f.latency_s for f in untraced
        )
    values, lowered = layers.summarize(
        setup_spans, tracer.spans, wall, overhead - 1.0, w.sizes()["batch_size"]
    )
    record["percentiles_lowered_to_tail_rule"] = lowered
    record["spans"] = len(tracer.spans)
    record["not_traced"] = tracer.missing
    return {k: {"value": values[k], "unit": u} for k, u in layers.PER_LAYER.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_blas_threads()
    import_package()

    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; use one of {sorted(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    workdir = HERE / ".work" / f"{w.name}-{os.getpid()}"
    tally = wl.Tally()
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment_record(threads),
        "sizes": w.sizes(),
    }

    if args.trace:
        metrics = traced_run(w, args, workdir, tally, record)
    else:
        metrics = timed_run(w, args, workdir, tally, record)

    try:
        workdir.parent.rmdir()
    except OSError:
        pass
    record["unsolvable"] = tally.unsolvable
    record["failures"] = tally.failures
    print(json.dumps({"run_record": record}, default=float))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
