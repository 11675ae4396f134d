"""Run one workload, measure it, check every output and print the result.

An untraced run (``--trace 0``) sets up the workload several times, then
runs whole request cycles for about ``--seconds`` seconds and reports the
end-to-end metrics.  A traced run (``--trace 1``) runs a fixed number of
cycles untraced, then sets up again and runs the same requests with the
tracer installed, and reports the per-layer metrics plus the tracing
overhead.  The last line of standard output is the JSON result.
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
import warnings
from pathlib import Path

import numpy as np
import scipy

import hostspeed
import tracing
from workloads import WORKLOADS, CheckFailed, CountingSink

SETUP_REPEATS = 3
OUT_DIR = ".perfbench_out"



# -- environment ------------------------------------------------------------------


def git_commit(root: Path) -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    # the ceiling keeps git from reporting a repository that merely
    # contains the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": git_commit(root),
        "seed": seed,
    }


# -- requests ---------------------------------------------------------------------


def execute(workload, request, tracer=None) -> tuple:
    """(seconds spent in request.run, error text or None).

    Only request.run is timed; the check and the output cleanup run after
    the clock stops, with tracing paused.
    """
    t0 = time.perf_counter()
    try:
        output = request.run()
        error = None
    except Exception as exc:  # a failed request is counted, not fatal
        output, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    try:
        if error is None:
            request.check(output)
    except CheckFailed as exc:
        error = f"check failed: {exc}"
    except Exception as exc:
        error = f"check raised {type(exc).__name__}: {exc}"
    finally:
        workload.cleanup(request)
        if tracer is not None:
            tracer.active = True
    return elapsed, error


class Run:
    """Outcome bookkeeping shared by the untraced and traced modes."""

    def __init__(self, cls, seed: int, workdir: Path, size: str):
        self.cls = cls
        self.seed = seed
        self.workdir = workdir
        self.size = size
        self.sink = CountingSink()
        self.attempted = 0
        self.failures: list = []
        self._setups = 0

    def record(self, index: int, kind: str, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append((index, kind, error))

    def new_workload(self):
        self._setups += 1
        workdir = self.workdir / f"setup{self._setups}"
        shutil.rmtree(self.workdir / f"setup{self._setups - 1}",
                      ignore_errors=True)
        workdir.mkdir(parents=True)
        return self.cls(self.seed, workdir, self.sink, self.size)

    def set_up(self):
        """Generate the inputs and run one warm-up request; (workload, s)."""
        t0 = time.perf_counter()
        workload = self.new_workload()
        workload.setup()
        warm = workload.request(0)
        _, error = execute(workload, warm)
        self.record(-1, warm.kind, error)
        return workload, time.perf_counter() - t0

    def run_request(self, workload, index: int, tracer=None) -> float:
        """Run and check request `index`; its latency in seconds."""
        request = workload.request(index)
        if tracer is not None:
            tracer.request = f"r{index}"
        elapsed, error = execute(workload, request, tracer)
        self.record(index, request.kind, error)
        return elapsed

    def run_timed(self, workload, seconds: float) -> tuple:
        """Whole cycles until another cycle would end past `seconds`.

        The host-speed probe runs, untimed, before each request and after
        the last.  Returns the requests' wall times and, for each, the mean
        probe time before and after it.
        """
        cycle = len(workload.cycle)
        latencies, probes = [], [hostspeed.probe()]
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            for _ in range(cycle):
                latencies.append(self.run_request(workload, len(latencies)))
                probes.append(hostspeed.probe())
            now = time.perf_counter()
            if (now - start) + (now - cycle_start) > seconds:
                return latencies, [0.5 * (a + b)
                                   for a, b in zip(probes, probes[1:])]


# -- metrics ----------------------------------------------------------------------


def tail(latencies: list) -> tuple:
    """(value, percentile, samples beyond) of the highest percentile that
    has at least ten samples beyond it (the maximum if there are fewer)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    pct = 100.0 * k / (n - 1) if n > 1 else 100.0
    return ordered[k], pct, n - 1 - k


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# The gated end-to-end metrics; timings are at nominal host speed
# (hostspeed.py).  error_rate is printed only: it is 0 on a correct run,
# and the JSON result carries it as attempted and failed.
END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def cycle_rates(latencies: list, failed: set, cycle: int) -> list:
    """Per cycle: completed requests divided by the summed request time."""
    rates = []
    for first in range(0, len(latencies), cycle):
        indices = range(first, first + cycle)
        completed = sum(i not in failed for i in indices)
        rates.append(completed / sum(latencies[i] for i in indices))
    return rates


def timing_metrics(latencies: list, failed: set, cycle: int) -> dict:
    value, pct, beyond = tail(latencies)
    return {
        # the median over cycles is not thrown by a few slow seconds
        "requests_per_s": statistics.median(
            cycle_rates(latencies, failed, cycle)),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * value,
        "tail_note": f"(p{pct:.1f}, {beyond} samples beyond it, "
                     f"n={len(latencies)})",
    }


def untraced(run: Run, seconds: float, start: float, lines: list) -> dict:
    imported = time.perf_counter() - start
    setups, setup_probes = [], []
    for _ in range(SETUP_REPEATS):
        workload, elapsed = run.set_up()
        setups.append(elapsed)
        setup_probes.append(hostspeed.probe())
    timed_failures = len(run.failures)
    latencies, probes = run.run_timed(workload, seconds)
    failed = {index for index, _, _ in run.failures[timed_failures:]}
    cycle = len(workload.cycle)
    scaled = [hostspeed.at_reference_speed(t, p)
              for t, p in zip(latencies, probes)]
    metrics = timing_metrics(scaled, failed, cycle)
    wall = timing_metrics(latencies, failed, cycle)
    # identical set-ups in one process differ by up to 1.5x, more than
    # the probe explains, so the fastest repeat stands for set-up
    wall["setup_s"] = imported + min(setups)
    metrics["setup_s"] = hostspeed.at_reference_speed(
        wall["setup_s"], statistics.median(setup_probes))
    metrics["peak_rss_mb"] = wall["peak_rss_mb"] = peak_rss_mb()

    speed = hostspeed.REFERENCE_S / statistics.median(probes)
    lines.append(f"host speed {speed:.4f} of nominal (median probe "
                 f"{1e3 * statistics.median(probes):.3f} ms, nominal "
                 f"{1e3 * hostspeed.REFERENCE_S:.3f} ms)")
    lines.append(f"imports_s {imported:.4f} s; set-up repeats (s): "
                 + ", ".join(f"{s:.4f}" for s in setups)
                 + "; probe after each (ms): "
                 + ", ".join(f"{1e3 * s:.3f}" for s in setup_probes))
    for name, unit in END_TO_END_UNITS.items():
        note = f"  {metrics['tail_note']}" if name == "latency_tail_ms" else ""
        lines.append(f"{name} {metrics[name]:.6g} {unit}  "
                     f"(wall {wall[name]:.6g}){note}")
    lines.append(f"error_rate {len(failed) / len(latencies):.6g} "
                 f"({len(failed)}/{len(latencies)} timed requests)")
    kinds = workload.cycle
    per_kind = {
        kind: scaled[i::len(kinds)] for i, kind in enumerate(kinds)
    }
    lines.append("median ms by request kind (nominal speed): " + ", ".join(
        f"{kind} {1e3 * statistics.median(lat):.2f}"
        for kind, lat in per_kind.items()))
    return {k: {"value": metrics[k], "unit": unit}
            for k, unit in END_TO_END_UNITS.items()}


def traced(run: Run, root: Path, env: dict, lines: list) -> dict:
    """Per-layer metrics from a fixed number of request cycles.

    After an untraced set-up and warm-up, the inputs are generated again
    with the tracer installed.  Then each request runs twice in a row,
    untraced and traced, so that slow drifts of the machine cancel out of
    the overhead estimate.
    """
    workload, _ = run.set_up()
    tracer = tracing.Tracer(stdout_chars=lambda: run.sink.chars)
    tracer.install(tracing.TARGETS)
    try:
        t0 = time.perf_counter()
        workload = run.new_workload()
        workload.setup()
        setup_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    n = workload.trace_cycles * len(workload.cycle)
    plain = with_trace = 0.0
    for index in range(n):
        plain += run.run_request(workload, index)
        tracer.install(tracing.TARGETS)
        try:
            with_trace += run.run_request(workload, index, tracer)
        finally:
            tracer.uninstall()

    summary = tracer.summary()
    values = tracing.layer_metrics(summary)
    values["trace.overhead_frac"] = with_trace / plain - 1.0
    lines.append(f"traced pass: {n} requests, set-up {setup_s:.4f} s, "
                 f"requests {with_trace:.4f} s traced, {plain:.4f} s untraced")
    lines.append("layer self time (s) and share of the traced pass:")
    for name in sorted(summary, key=lambda k: -summary[k]["self_s"]):
        entry = summary[name]
        lines.append(f"  {name:36s} calls {entry['calls']:6d}  "
                     f"self {entry['self_s']:9.4f} s  "
                     f"{100 * entry['self_s'] / (setup_s + with_trace):6.2f} %")
    units = {name: unit for name, unit, _ in tracing.layer_metric_specs()}
    for name, value in values.items():
        lines.append(f"{name} {value:.6g} {units[name]}")

    out = root / OUT_DIR / f"trace-{run.cls.name}-seed{run.seed}.json"
    out.write_text(json.dumps(
        {"workload": run.cls.name, "environment": env,
         "summary": summary, "spans": tracer.to_records()}) + "\n")
    lines.append(f"spans written to {out.relative_to(root)}")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


# -- entry points -----------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: Path, start: float) -> int:
    env = environment(root, seed)
    workdir = root / OUT_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    run = Run(WORKLOADS[name], seed, workdir, "full")
    lines = [f"perfbench workload={name} seed={seed} trace={int(trace)}"]
    try:
        if trace:
            metrics = traced(run, root, env, lines)
        else:
            metrics = untraced(run, seconds, start, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for index, kind, error in run.failures:
        print(f"FAILED request {index} ({kind}): {error}", file=sys.stderr)
    lines.append("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args, script: Path, root: Path) -> int:
    """Every workload, each in a fresh process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(script), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        status = status or proc.returncode
    return status


def parse_args(argv, root: Path):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="loopnet benchmark: run one workload (or --all) and "
        "print its metrics; the last line is a JSON result.",
    )
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv, start: float, root: Path, script: Path) -> int:
    args = parse_args(argv, root)
    # The short pulses some workloads use on purpose end above -15 dB.
    warnings.filterwarnings("ignore", message=r"kappa_b\(T\)/kappa0 = ")
    (root / OUT_DIR).mkdir(exist_ok=True)
    if args.all:
        return run_all(args, script, root)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), root, start)
