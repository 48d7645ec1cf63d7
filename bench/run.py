"""Benchmark entry point for the conceptbag pipeline.

    python3 bench/run.py --workload concept_cv --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root. For each workload it generates the inputs from
``--seed`` under ``.bench_work/``, runs ``worker.py`` on them in a fresh
process, checks every output and prints the metrics, one per line with their
unit, then a last line holding one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones, measured untraced; with ``--trace 1`` they are the
per-layer ones from traced repetitions, and the spans are written to
``.bench_work/trace-<workload>-<seed>.json``. End-to-end times are scaled to
a reference machine speed (``CALIBRATION_REF_S``). See ``bench/README.md``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import LAYER_METRICS, annotate_folds, check_spans, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {  # name -> (unit, better)
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "accuracy": ("fraction", "higher"),
}
DEADLINE_S = 170  # a run must end within 180 s
# One BLAS thread: on a shared two-CPU machine a second thread made the sparse
# solver's vector operations slower and their timings more scattered.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc raises its mmap threshold (and its trim threshold with it) as the
# program frees large arrays, and where they ended up made concept_cv's peak
# memory differ by 14 MiB between seeds. Both are fixed at the values glibc
# moves them to at most, so peak memory depends on the program alone.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}
# The development machine (Intel Xeon, 2 vCPUs shared with other tenants) runs
# 40-80% slower for minutes at a time. Wall times are therefore scaled by how
# long worker.calibrate() took during the same run, to the speed at which it
# takes CALIBRATION_REF_S there when nothing else is running.
CALIBRATION_REF_S = 0.15


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def _measure(workload, data: Path, seed: int, seconds: float, trace: int, budget: float):
    env = dict(os.environ, **{k: str(BLAS_THREADS) for k in BLAS_ENV}, **MALLOC_ENV)
    command = [
        sys.executable,
        str(BENCH / "worker.py"),
        *("--workload", workload.name, "--data", str(data), "--seed", str(seed)),
        *("--seconds", str(seconds), "--trace", str(trace)),
    ]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env, timeout=budget)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the worker
        raise BenchmarkError(f"worker for {workload.name} ran past {budget:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker for {workload.name} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check(workload, raw: dict, summary: dict):
    """Count the operations and their failures; return (attempted, failed, problems)."""
    problems = [f"set-up: {p}" for p in workload.check_setup(raw["setup_counts"], summary)]
    reps = raw["reps"]
    first = next((r["outputs"] for r in reps if "outputs" in r), None)
    traced = iter(raw["traces"])
    failed = 0
    for i, rep in enumerate(reps):
        found = check_spans(next(traced)) if rep["traced"] else []
        if "outputs" in rep:
            found += workload.check(rep["outputs"], first)
        else:
            found.append("raised " + rep["error"].strip().splitlines()[-1])
        failed += bool(found)
        problems += [f"repetition {i}: {p}" for p in found]
    return len(reps), failed, problems


def _median(values):
    return statistics.median(values) if values else 0.0


def _host_scale(raw: dict) -> float:
    """Factor that turns this run's wall times into times at the reference machine speed.

    The calibration times are averaged without their highest and lowest fifth:
    a single calibration caught in a short stall would otherwise move the
    whole run's figures.
    """
    cal = sorted(raw["calibration_s"])
    cut = len(cal) // 5
    return CALIBRATION_REF_S / statistics.fmean(cal[cut : len(cal) - cut])


def _metrics(workload, raw: dict, trace: int) -> dict:
    reps = [r for r in raw["reps"] if "outputs" in r]
    if not trace:
        scale = _host_scale(raw)
        values = {
            "setup_s": _median(raw["setup_s"]) * scale,
            "run_s": _median([r["run_s"] for r in reps]) * scale,
            "peak_rss_mb": raw["peak_rss_mb"],
            "accuracy": reps[0]["outputs"][workload.quality],
        }
        units = END_TO_END
    else:
        per_rep = [layer_metrics(spans) for spans in raw["traces"]]
        values = {name: _median([m[name] for m in per_rep]) for name in per_rep[0]}
        # each traced call directly follows its untraced partner (worker.py)
        pairs = zip(raw["reps"][0::2], raw["reps"][1::2])
        values["trace_overhead_s"] = _median(
            [t["run_s"] - u["run_s"] for u, t in pairs if "outputs" in u and "outputs" in t]
        )
        units = LAYER_METRICS
    return {name: {"value": values[name], "unit": units[name][0]} for name in units}


def _shares(metrics: dict, run_s: float) -> str:
    """Share of the traced run_s spent in each timed layer span, largest first."""
    timed = {
        name: m["value"] / run_s
        for name, m in metrics.items()
        if m["unit"] == "s" and not name.endswith("load_s") and name != "trace_overhead_s" and m["value"] > 0
    }
    return ", ".join(f"{name} {share:.3f}" for name, share in sorted(timed.items(), key=lambda kv: -kv[1]))


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    workload = WORKLOADS[name]
    work = ROOT / ".bench_work"
    data = work / f"{name}-{seed}-{os.getpid()}"
    try:
        summary = workload.generate(data, seed)
        raw = _measure(workload, data, seed, seconds, trace, deadline - time.monotonic())
    finally:
        shutil.rmtree(data, ignore_errors=True)
    attempted, failed, problems = _check(workload, raw, summary)
    if attempted == failed:
        raise BenchmarkError(f"every operation of {name} failed: {problems[:3]}")
    metrics = _metrics(workload, raw, trace)
    context = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "sizes": workload.sizes(),
        "setup_reps": len(raw["setup_s"]),
        "untraced_reps": sum(not r["traced"] for r in raw["reps"]),
        "traced_reps": len(raw["traces"]),
        "run_s_samples": [r["run_s"] for r in raw["reps"] if "run_s" in r],
        "calibration_s_samples": raw["calibration_s"],
        "host_scale": _host_scale(raw),  # end-to-end times are wall times times this
    }
    print(f"# {name} context {json.dumps(context, sort_keys=True)}")
    for problem in problems:
        print(f"# {name} FAILED {problem}")
    samples = {"setup_s": context["setup_reps"], "run_s": context["untraced_reps"]}
    units = LAYER_METRICS if trace else END_TO_END
    for metric, m in metrics.items():
        n = samples.get(metric, context["traced_reps"] if trace else 1)
        print(f"# {name} {metric} = {m['value']:.6g} {m['unit']} ({units[metric][1]} is better, n={n})")
    if trace:
        traced_run_s = _median([r["run_s"] for r in raw["reps"] if r["traced"] and "outputs" in r])
        print(f"# {name} share of traced run_s {traced_run_s:.4g} s: {_shares(metrics, traced_run_s)}")
        for spans in raw["traces"]:
            annotate_folds(spans)
        work.mkdir(exist_ok=True)
        trace_path = work / f"trace-{name}-{seed}.json"
        trace_path.write_text(json.dumps({"context": context, "repetitions": raw["traces"]}), encoding="utf-8")
        print(f"# {name} spans written to {trace_path.relative_to(ROOT)}")
    else:
        if workload.quality != "accuracy":
            print(f"# {name} {workload.quality} = {metrics['accuracy']['value']:.6g} (reported as accuracy)")
        print(f"# {name} error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run a conceptbag benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "conceptbag" / "__init__.py").is_file():
        print(f"error: no conceptbag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, time.monotonic() + DEADLINE_S)
            print(json.dumps(result))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
