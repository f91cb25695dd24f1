"""Pipeline benchmark for polyshap.

    python3 perfbench/run.py --workload sweep-d10 --seed 0 --seconds 15 --trace 0

Runs one workload closed-loop (one caller, the next request only after the
previous one returns) for --seconds, checks the outputs, and prints every
metric with its unit. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones. With --trace 1 the first half of the time
runs untraced and the second half traced, and the metrics are the per-layer
ones. ``--workload all`` runs every workload, each in its own process.
A report with the environment, the checks and every failure is written to
perfbench/out/, and the spans of a traced run next to it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("sweep-d10", "solve-d40-log", "draw-d128-k1")
SETUP_REPEATS = 3
# One BLAS thread keeps every workload on one core. On a shared 2-core
# machine two threads made solve-d40-log about 17% faster but widened its
# run-to-run spread about fivefold.
BLAS_THREADS = "1"


class LibraryMissing(RuntimeError):
    """The checkout has no polyshap sources to benchmark."""


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import polyshap; print(time.perf_counter() - t)"
)


def import_library() -> list[float]:
    """Import numpy and the checkout's polyshap; return the seconds each import took.

    The import here is timed once, and then again in fresh interpreters.
    """
    src = ROOT / "src"
    if not (src / "polyshap" / "__init__.py").is_file():
        raise LibraryMissing(f"no polyshap sources under {src}")
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import polyshap

    took = [time.perf_counter() - t0]
    if Path(polyshap.__file__).resolve().parent != src / "polyshap":
        raise LibraryMissing(f"imported polyshap from {polyshap.__file__}, not from {src}")
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(src)], capture_output=True, text=True, check=True
        )
        took.append(float(probe.stdout))
    return took


def openblas_threads() -> int | None:
    """The thread count OpenBLAS reports at run time, if numpy links it."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = [ln.split()[-1] for ln in fh if "openblas" in ln.lower()]
    if not paths:
        return None
    lib = ctypes.CDLL(paths[0])
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def environment(seed: int) -> dict[str, Any]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": openblas_threads(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload_seed": seed,
    }


@dataclass
class Phase:
    """One closed-loop stretch: a latency sample per request, and the outputs to check."""

    latencies_s: list[float] = field(default_factory=list)  # per estimate; inf for a failed request
    outputs: list[tuple[int, Any]] = field(default_factory=list)
    errors: list[tuple[int, str]] = field(default_factory=list)
    estimates: int = 0
    elapsed_s: float = 0.0

    @property
    def runs_per_s(self) -> float:
        return self.estimates / self.elapsed_s


def timed_loop(
    workload: Any,
    requests: Iterator,
    seconds: float,
    min_requests: int,
    first_index: int = 0,
    tracer: Any = None,
) -> Phase:
    """Issue requests one after another until ``seconds`` have passed and ``min_requests`` are done."""
    phase = Phase()
    per = workload.estimates_per_request
    start = time.perf_counter()
    deadline = start + seconds
    done = 0
    for index, request in enumerate(requests, start=first_index):
        if tracer is not None:
            tracer.current_estimate = index
        t0 = time.perf_counter()
        try:
            out = request()
        except Exception as exc:  # a failed request is counted, the run goes on
            t1 = time.perf_counter()
            phase.errors.append((index, f"{type(exc).__name__}: {exc}"))
            phase.latencies_s.append(math.inf)
        else:
            t1 = time.perf_counter()
            phase.outputs.append((index, out))
            phase.latencies_s.append((t1 - t0) / per)
            phase.estimates += per
        done += 1
        if t1 >= deadline and done >= min_requests:
            break
    phase.elapsed_s = time.perf_counter() - start
    return phase


def percentile(sorted_xs: list[float], pct: int) -> float:
    """Nearest rank: the value at rank ceil(pct * n / 100) of the sorted samples."""
    return sorted_xs[math.ceil(pct * len(sorted_xs) / 100) - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it, never below 50."""
    return max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50


def end_to_end(setup_s: float, phase: Phase) -> tuple[dict[str, tuple[float, str]], dict[str, Any]]:
    """The gated end-to-end metrics, and the latency record for the report.

    The rate and the median per-estimate time are reported but not gated:
    on a machine whose speed alternates between a fast and a slow mode,
    they follow the mix of the two, which changes from run to run. The tail
    sits in the slow mode and stays put.
    """
    xs = sorted(phase.latencies_s)
    n = len(xs)
    pct = tail_percentile(n)
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_ms_tail": (percentile(xs, pct) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    latency = {
        "runs_per_s": phase.runs_per_s,
        "run_ms_p50": percentile(xs, 50) * 1e3,
        "samples": n,
        "tail_percentile": pct,
        "samples_beyond_tail": n - math.ceil(pct * n / 100),
        "elapsed_s": phase.elapsed_s,
        "latencies_ms": [x * 1e3 for x in phase.latencies_s],
    }
    return metrics, latency


def run_workload(args: argparse.Namespace) -> int:
    try:
        imports_s = import_library()
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import layers
    import workloads
    from spans import Tracer, totals_by_name

    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, ROOT)
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_runs.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports_s) + statistics.median(setup_runs)

    requests = workload.requests()
    seconds = args.seconds / 2 if args.trace else args.seconds
    phases = [timed_loop(workload, requests, seconds, workload.min_requests)]
    if args.trace:
        tracer = Tracer()
        with tracer.patched(layers.patches(tracer)):
            phases.append(
                timed_loop(workload, requests, seconds, 1, len(phases[0].latencies_s), tracer)
            )

    checks = workload.check([out for phase in phases for out in phase.outputs])
    for phase in phases:
        for index, error in phase.errors:
            checks.attempted += workload.estimates_per_request
            checks.fail(f"request {index}", error, workload.estimates_per_request)

    report: dict[str, Any] = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup": {"imports_s": imports_s, "repeats_s": setup_runs},
    }
    if args.trace:
        totals = totals_by_name(tracer)
        error = layers.budget_error(tracer, totals)
        if error:
            checks.errors.append(error)
        overhead = phases[0].runs_per_s / phases[1].runs_per_s - 1
        metrics = layers.layer_metrics(tracer, totals, overhead)
        spans_path = OUT / f"spans-{args.workload}.npz"
        tracer.write(spans_path)
        report["spans"] = {"path": str(spans_path.relative_to(ROOT)), "count": len(tracer)}
        report["traced_estimates"] = tracer.counts["estimates"]
    else:
        metrics, report["latency"] = end_to_end(setup_s, phases[0])

    report["checks"] = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failed_frac": checks.failed / checks.attempted if checks.attempted else 1.0,
        "mse": checks.mse,
        "zero_estimate_mse": checks.zero_mse,
        **checks.info,
        "errors": checks.errors,
        "failures": checks.failure_lines(),
    }
    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"report-{args.workload}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print("environment: " + json.dumps(report["environment"]))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    if not args.trace:
        latency = report["latency"]
        print(f"{'runs_per_s (not gated)':34s} {latency['runs_per_s']:14.6g} 1/s")
        print(f"{'run_ms_p50 (not gated)':34s} {latency['run_ms_p50']:14.6g} ms")
        print(f"tail: p{latency['tail_percentile']} of {latency['samples']} samples, "
              f"{latency['samples_beyond_tail']} beyond")
    print(f"checks: correct={checks.correct} attempted={checks.attempted} "
          f"failed={checks.failed}; report {report_path.relative_to(ROOT)}")
    for line in checks.errors + checks.failure_lines():
        print(f"  {line}")
    result = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Run each workload in its own process, one after another."""
    codes = []
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, check=False).returncode)
    return next((code for code in codes if code), 0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
