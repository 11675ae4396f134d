"""Tests of the benchmark itself, at tiny request sizes.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import loopnet.cli  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_UNITS = {"count", "bytes", "1"}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the tiny pulses end long before the transfer is complete
pytestmark = pytest.mark.filterwarnings("ignore:kappa_b")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_cycle_has_no_errors(name, tmp_path):
    run = harness.Run(WORKLOADS[name], 3, tmp_path, "tiny")
    workload, _ = run.set_up()
    for index in range(len(workload.cycle)):
        run.run_request(workload, index)
    assert run.failures == []
    assert run.attempted == len(workload.cycle) + 1


def raise_b0_sample(path: Path, delta: float) -> None:
    lines = path.read_text().splitlines()
    row = len(lines) // 2
    fields = lines[row].split(",")
    fields[1] = "%.17g" % (float(fields[1]) + delta)  # column b0
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_raised_b0_sample_counts_as_failed(tmp_path):
    run = harness.Run(WORKLOADS["transfer-cli"], 3, tmp_path, "tiny")
    workload = run.new_workload()
    make = workload.request

    def perturbed(index):
        request = make(index)
        inner = request.run

        def run_then_perturb():
            inner()
            raise_b0_sample(request.outdir / "trajectory.csv", 1e-3)

        request.run = run_then_perturb
        return request

    workload.request = perturbed
    for index in range(2):
        run.run_request(workload, index)
    assert [f[2].startswith("check failed: b0") for f in run.failures] == [True, True]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_counts_repeat(name, tmp_path):
    original = loopnet.cli.simulate_transfer
    units = {n: u for n, u, _ in tracing.layer_metric_specs()}
    counts = []
    for attempt in range(2):
        root = tmp_path / f"run{attempt}"
        (root / harness.OUT_DIR).mkdir(parents=True)
        run = harness.Run(WORKLOADS[name], 5, root / "work", "tiny")
        metrics = harness.traced(run, root, {}, [])
        assert run.failures == []
        assert set(metrics) == set(units)
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
        counts.append({
            k: v["value"] for k, v in metrics.items()
            if units[k] in WORK_UNITS and k != "trace.overhead_frac"
        })
    assert counts[0] == counts[1]
    assert any(k.endswith(".calls") and v > 0 for k, v in counts[0].items())
    assert loopnet.cli.simulate_transfer is original  # tracer uninstalled


def test_untraced_result_carries_the_end_to_end_metrics(tmp_path):
    run = harness.Run(WORKLOADS["transfer-cli"], 3, tmp_path, "tiny")
    metrics = harness.untraced(run, 0.5, time.perf_counter(), [])
    assert run.failures == []
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


def test_tail_has_ten_samples_beyond_it():
    value, pct, beyond = harness.tail([float(i) for i in range(40)])
    assert (value, beyond) == (29.0, 10)
    assert pct == pytest.approx(100 * 29 / 39)


def test_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "transfer-cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
