"""Span recording around loopnet's public functions, for the traced run.

`Tracer.install` wraps each target function and rebinds the wrapper under
every name that refers to the original inside the loaded ``loopnet``
modules, so calls made by the library itself (``loopnet.cli`` calling
``simulate_transfer``, ``phase_tuned_network`` calling
``phase_scan_coefficients``) are recorded too.  Spans stay in memory;
`Tracer.uninstall` restores the original bindings.  Nothing here is
imported or installed by an untraced run.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str
    error: bool = False
    work: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One traced function and the work counts recorded for each call.

    name:    span name, or a callable(bound arguments) -> span name.
    before:  callable(tracer, bound) -> state, evaluated before the call.
    after:   callable(tracer, bound, result, state) -> dict of work counts.
    """

    module: str
    function: str
    name: object
    before: object = None
    after: object = None


# Work counts whose per-function aggregate is the maximum, not the sum.
MAX_AGGREGATED = {"max_mag_err"}
# Work counts that, like self time, exclude what child spans recorded.
SELF_COUNTED = {"bytes_written"}


class Tracer:
    def __init__(self, stdout_chars=lambda: 0):
        self.spans: list[Span] = []
        self.request = "setup"
        self.active = True
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.stdout_chars = stdout_chars

    # -- installation -----------------------------------------------------

    def install(self, targets) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if (n == "loopnet" or n.startswith("loopnet.")) and m is not None
        ]
        for target in targets:
            owner = sys.modules[target.module]
            original = getattr(owner, target.function)
            wrapper = self._wrap(original, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, target: Target):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            name = target.name(bound) if callable(target.name) else target.name
            state = target.before(self, bound) if target.before else None
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), math.nan, parent, self.request)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if target.after:
                span.work = target.after(self, bound, result, state)
            return result

        return wrapper

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct child spans."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def summary(self) -> dict:
        """Per span name: calls, errors, self_s, total_s and summed work."""
        own_work = [dict(s.work) for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                for key in SELF_COUNTED & s.work.keys():
                    parent = own_work[s.parent]
                    parent[key] = parent.get(key, 0) - s.work[key]
        out: dict = {}
        for span, own, work in zip(self.spans, self.self_times(), own_work):
            entry = out.setdefault(
                span.name,
                {"calls": 0, "errors": 0, "self_s": 0.0, "total_s": 0.0,
                 "work": {}},
            )
            entry["calls"] += 1
            entry["errors"] += int(span.error)
            entry["self_s"] += own
            entry["total_s"] += span.end - span.start
            for key, value in work.items():
                if key in MAX_AGGREGATED:
                    entry["work"][key] = max(entry["work"].get(key, value), value)
                else:
                    entry["work"][key] = entry["work"].get(key, 0) + value
        return out

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "request": s.request, "error": s.error,
             "work": s.work}
            for s in self.spans
        ]


# -- targets ------------------------------------------------------------------


def _n_steps(t_final: float, dt: float) -> int:
    return max(1, int(round(t_final / dt)))


def _integrate_name(bound) -> str:
    controls = bound.arguments["controls"]
    scheduled = bool(controls.ports) or bool(controls.hamiltonian)
    return "lindblad.integrate_scheduled" if scheduled else "lindblad.integrate_static"


def _integrate_work(tracer, bound, result, state) -> dict:
    a = bound.arguments
    return {"steps": _n_steps(a["t_final"], a["dt"])}


def _mag_err(tracer, bound, result, state) -> dict:
    target = np.asarray(bound.arguments["magnitudes"], dtype=float)
    return {"max_mag_err": float(np.abs(np.abs(result) - target).max())}


def _scan_work(tracer, bound, result, state) -> dict:
    return {
        "phases": len(result),
        "converged": sum(c is not None for c in result),
    }


def _records(tracer, bound, result, state) -> dict:
    return {"records": len(result)}


def _steps(tracer, bound, result, state) -> dict:
    """RK4 steps behind a protocol or trajectory sampled once per step."""
    return {"steps": len(result.times) - 1}


def _sweep_work(tracer, bound, result, state) -> dict:
    a = bound.arguments
    networks = len(a["coeffs_list"])
    return {
        "networks": networks,
        "network_steps": networks * _n_steps(a["T"], a["dt"]),
    }


def _accepted(tracer, bound, result, state) -> dict:
    return {"accepted": int(result is not None)}


def _dir_bytes(path) -> int:
    root = Path(path)
    if not root.is_dir():
        return 0
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _cli_before(tracer, bound):
    return (
        _dir_bytes(bound.arguments["args"].output_dir),
        tracer.stdout_chars(),
    )


def _cli_after(tracer, bound, result, state) -> dict:
    files0, chars0 = state
    written = (
        _dir_bytes(bound.arguments["args"].output_dir) - files0
        + tracer.stdout_chars() - chars0
    )
    return {"bytes_written": written}


def _cli(command: str, function: str) -> Target:
    return Target("loopnet.cli", function, f"cli.{command}", _cli_before, _cli_after)


TARGETS = [
    Target("loopnet.network", "unitary_with_magnitudes",
           "network.unitary_with_magnitudes", after=_mag_err),
    Target("loopnet.contraction", "contract_network", "contraction.contract_network"),
    Target("loopnet.contraction", "contract", "contraction.contract"),
    Target("loopnet.transfer", "phase_scan_coefficients",
           "transfer.phase_scan_coefficients", after=_scan_work),
    Target("loopnet.paths", "enumerate_paths", "paths.enumerate_paths",
           after=_records),
    Target("loopnet.paths", "validity_check", "paths.validity_check"),
    Target("loopnet.transfer", "synthesize_controls",
           "transfer.synthesize_controls", after=_steps),
    Target("loopnet.transfer", "simulate_transfer",
           "transfer.simulate_transfer", after=_steps),
    Target("loopnet.transfer", "transfer_sweep", "transfer.transfer_sweep",
           after=_sweep_work),
    Target("loopnet.transfer", "find_network_in_class",
           "transfer.find_network_in_class", after=_accepted),
    Target("loopnet.transfer", "phase_tuned_network",
           "transfer.phase_tuned_network", after=_accepted),
    Target("loopnet.lindblad", "integrate", _integrate_name, after=_integrate_work),
    _cli("transfer", "cmd_transfer"),
    _cli("sweep", "_cmd_transfer_sweep"),
    _cli("validate", "cmd_validate"),
    _cli("contract", "cmd_contract"),
    _cli("paths", "cmd_paths"),
    _cli("simulate", "cmd_simulate"),
]


# Extra statistics per span name: (metric suffix, unit, better, how).
# "how" is a work key (summed or max count), "rate:<key>" (work per second
# of the function's total span time) or "us_per_call".
EXTRA = {
    "network.unitary_with_magnitudes": [("max_mag_err", "1", "lower", "max_mag_err")],
    "contraction.contract_network": [("us_per_call", "us", "lower", "us_per_call")],
    "contraction.contract": [("us_per_call", "us", "lower", "us_per_call")],
    "transfer.phase_scan_coefficients": [
        ("phases", "count", "lower", "phases"),
        ("converged", "count", "higher", "converged"),
    ],
    "paths.enumerate_paths": [
        ("records", "count", "lower", "records"),
        ("records_per_s", "1/s", "higher", "rate:records"),
    ],
    "paths.validity_check": [],
    "transfer.synthesize_controls": [
        ("steps", "count", "lower", "steps"),
        ("steps_per_s", "1/s", "higher", "rate:steps"),
    ],
    "transfer.simulate_transfer": [
        ("steps", "count", "lower", "steps"),
        ("steps_per_s", "1/s", "higher", "rate:steps"),
    ],
    "transfer.transfer_sweep": [
        ("networks", "count", "lower", "networks"),
        ("network_steps", "count", "lower", "network_steps"),
        ("network_steps_per_s", "1/s", "higher", "rate:network_steps"),
    ],
    "transfer.find_network_in_class": [("accepted", "count", "higher", "accepted")],
    "transfer.phase_tuned_network": [("accepted", "count", "higher", "accepted")],
    "lindblad.integrate_static": [
        ("steps", "count", "lower", "steps"),
        ("steps_per_s", "1/s", "higher", "rate:steps"),
    ],
    "lindblad.integrate_scheduled": [
        ("steps", "count", "lower", "steps"),
        ("steps_per_s", "1/s", "higher", "rate:steps"),
    ],
}
for _command in ("transfer", "sweep", "validate", "contract", "paths", "simulate"):
    EXTRA[f"cli.{_command}"] = [
        ("bytes_written", "bytes", "lower", "bytes_written")
    ]


def layer_metric_specs() -> list[tuple]:
    """(metric name, unit, better) of every per-layer metric, in order."""
    specs = []
    for name, extras in EXTRA.items():
        specs += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.self_s", "s", "lower"),
            (f"{name}.errors", "count", "lower"),
        ]
        specs += [(f"{name}.{suffix}", unit, better)
                  for suffix, unit, better, _ in extras]
    specs.append(("trace.overhead_frac", "1", "lower"))
    return specs


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values keyed by metric name.

    A function the workload never calls reports zero calls and zero for
    every other statistic.
    """
    values = {}
    for name, extras in EXTRA.items():
        entry = summary.get(name)
        if entry is None:
            entry = {"calls": 0, "errors": 0, "self_s": 0.0, "total_s": 0.0,
                     "work": {}}
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]
        values[f"{name}.errors"] = entry["errors"]
        for suffix, _, _, how in extras:
            if how == "us_per_call":
                value = (1e6 * entry["total_s"] / entry["calls"]
                         if entry["calls"] else 0.0)
            elif how.startswith("rate:"):
                work = entry["work"].get(how[5:], 0)
                value = work / entry["total_s"] if entry["total_s"] > 0 else 0.0
            else:
                value = entry["work"].get(how, 0)
            values[f"{name}.{suffix}"] = value
    return values
