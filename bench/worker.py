"""Runs one workload in a fresh process and prints its raw measurements as JSON.

``run.py`` starts this script once per workload run, so the peak resident
memory it reports belongs to that workload alone. Until ``--seconds`` have
passed (and at least ``MIN_REPS`` times) it repeats one iteration:

    calibrate, set up (repeated for SETUP_SLICE_S), calibrate, timed call

and, with ``--trace 1``, a traced set-up and traced call right after the
untraced one, so each traced call has an untraced partner measured under the
same machine state. The calibration (``calibrate``) is a fixed piece of
interpreter, BLAS and memory work that does not touch the library; its times
tell ``run.py`` how fast the machine was while the workload ran. Checking the
outputs and turning the measurements into metrics is left to ``run.py``.

Usage: python3 bench/worker.py --workload NAME --data DIR --seed N --seconds S --trace 0|1
"""

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

SETUP_SLICE_S = 0.3  # set-ups take 0.01-0.3 s; each iteration repeats them for this long
MIN_REPS = 3

_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.normal(size=(400, 100))
_CAL_B = _CAL_RNG.normal(size=(100, 400))
_CAL_C = np.empty((400, 400))
_CAL_X = _CAL_RNG.normal(size=2_000_000)  # 16 MB, beyond the caches


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter, BLAS and memory-bound work (~0.15 s).

    It allocates no arrays, so it leaves the allocator as the workload left it.
    """
    start = time.perf_counter_ns()
    counts = {}
    for i in range(300_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    for _ in range(60):
        np.matmul(_CAL_A, _CAL_B, out=_CAL_C)
    for _ in range(40):
        np.multiply(_CAL_X, -1.0, out=_CAL_X)
    return (time.perf_counter_ns() - start) / 1e9


def _timed(fn, *args):
    gc.collect()  # every timing starts from the same heap state
    start = time.perf_counter_ns()
    result = fn(*args)
    return result, (time.perf_counter_ns() - start) / 1e9


def _operation(workload, state, seed, root, tracer=None):
    """One timed call plus the description of its output; failures are recorded, not raised."""
    rep = {"traced": tracer is not None}
    try:
        if tracer is None:
            result, rep["run_s"] = _timed(workload.run, state, seed)
        else:
            gc.collect()
            with tracer.span("workload.run") as span:
                result = workload.run(state, seed)
            rep["run_s"] = (span["end_ns"] - span["start_ns"]) / 1e9
        rep["outputs"] = workload.describe(result, root)
    except Exception:  # a failing call is counted against error_rate; the run goes on
        rep["error"] = traceback.format_exc()
        print(rep["error"], file=sys.stderr)
    return rep


def _traced_operation(workload, data, seed):
    """Set up and make the timed call under a fresh tracer; return the repetition and its spans."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("workload.setup"):
            state = workload.setup(data)
        rep = _operation(workload, state, seed, data, tracer)
    finally:
        tracer.uninstall()
    return rep, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import conceptbag  # noqa: F401  (imported before the timings, which must not include it)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_s, calibration_s, reps, traces = [], [], [], []
    state = None
    start = time.monotonic()
    while len(reps) < MIN_REPS * (1 + args.trace) or time.monotonic() - start < args.seconds:
        calibration_s.append(calibrate())
        sliced = time.monotonic()
        while state is None or time.monotonic() - sliced < SETUP_SLICE_S:
            state = None  # free the previous set-up before timing the next one
            state, seconds = _timed(workload.setup, args.data)
            setup_s.append(seconds)
        calibration_s.append(calibrate())
        reps.append(_operation(workload, state, args.seed, args.data))
        if args.trace:
            rep, spans = _traced_operation(workload, args.data, args.seed)
            reps.append(rep)
            traces.append(spans)
        counts = workload.setup_counts(state)
        state = None
    calibration_s.append(calibrate())

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "calibration_s": calibration_s,
                "setup_counts": counts,
                "reps": reps,
                "traces": traces,
                "peak_rss_mb": peak_kib / 1024,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
