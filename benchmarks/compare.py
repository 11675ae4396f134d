"""Parent-versus-change numbers for one perfbench workload, written as JSON.

    python3 benchmarks/compare.py --workload W --parent PATH
                                  [--seeds S ...] [--scheduled] [-o FILE]

Run from the root of a loopnet checkout (the "change").  PATH is a second
checkout to compare against (the "parent"), for example one made with
`git archive <commit> | tar -x -C PATH`.  W is a workload of BENCHMARK.json.
The report goes to BENCH_<W>.json (or FILE) and holds:

- traced: `perfbench/run.py --workload W --seed 1 --trace 1` on each tree,
  keeping `self_s` of every layer that either tree calls;
- paired: `perfbench/run.py --workload W --seed S --trace 0` on both trees
  for each seed (default: ten pairs, the last one the held-out seed 7919),
  alternating which tree runs first.  Each gated end-to-end metric gets
  its runs, median and quartiles per tree, and the number of pairs in
  which the change reads better; failed and attempted requests are kept
  per run, and the held-out seed is also reported on its own;
- tier1_wall_s: the wall time of the tier-1 suite (`python -m pytest -q`
  with `src` on the path) on each tree, and tier1_durations: the lines of
  that run's `--durations=10` report;
- src_lines: the line count of src/loopnet/*.py on each tree (the total
  of `wc -l`);
- minor_faults_per_request: the minor page faults of each request of
  workload seed 1 on each tree, read from getrusage(RUSAGE_SELF).ru_minflt
  just before and after the request runs (its check and clean-up are not
  counted), in a child process that runs the tree's own
  perfbench/workloads.py in-process; request 0 warms up and is left out of
  the median, the mean and the per-request list;
- with --scheduled, a scheduled Lindblad run on a chain of one, two and
  three imperfect circulators with a qubit on each (D^2 = 4, 16 and 64:
  sampled kappa on every qubit port and a sampled sigma_z term, T = 2,
  dt = 5e-3), best of 3, in us per RK4 step, each with the number of real
  coordinates integrated and the largest difference between the two
  trees' stored density matrices.  Each chain starts from every qubit up,
  where integrate steps only the few coordinates reachable from it, and
  from a full-rank state, which keeps all D^2.

Every child process runs with one BLAS thread.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEEDS = [7, 101, 102, 103, 104, 105, 106, 107, 108, 7919]
HELD_OUT = 7919
SCHEDULED_T, SCHEDULED_DT, SCHEDULED_REPEATS = 2.0, 5e-3, 3
SCHEDULED_QUBITS = (1, 2, 3)  # D^2 = 4, 16 and 64
FAULT_REQUESTS = 40


def child_env(tree: Path | None = None) -> dict:
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("PYTHONPATH", None)
    if tree is not None:
        env["PYTHONPATH"] = str(tree / "src")
    return env


def end_to_end(tree: Path) -> dict:
    """Gated end-to-end metric -> True where higher is better."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}


def perfbench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """The result JSON of one run; a run with failed requests exits 1."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=tree, env=child_env(), capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{tree}: perfbench exited {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(lines[-1])


def tier1(tree: Path) -> tuple:
    """The tier-1 suite's wall time and its slowest-durations lines."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tree, env=child_env(tree), capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: tier-1 failed\n{proc.stdout[-2000:]}")
    durations = [line for line in proc.stdout.splitlines()
                 if re.match(r"\d+\.\d+s (setup|call|teardown) ", line)]
    return wall, durations


def src_lines(tree: Path) -> int:
    """Newlines in src/loopnet/*.py, the total that `wc -l` prints."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "loopnet").glob("*.py"))


def faults_worker(workload: str, n_requests: int) -> None:
    """Minor page faults of requests 1..n_requests of `workload` at seed 1,
    run in-process from perfbench/workloads.py of the tree in the working
    directory; prints them as JSON."""
    import resource

    tree = Path.cwd()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from workloads import WORKLOADS, CountingSink

    def minflt() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    counts = []
    with tempfile.TemporaryDirectory() as scratch:
        work = WORKLOADS[workload](1, Path(scratch), CountingSink())
        work.setup()
        for index in range(n_requests + 1):
            request = work.request(index)
            before = minflt()
            try:
                request.run()
            except Exception:  # the paired runs report failed requests
                pass
            counts.append(minflt() - before)
            work.cleanup(request)
    print(json.dumps(counts[1:]))


def minor_faults(trees: dict, workload: str) -> dict:
    here = str(Path(__file__).resolve().parent)
    code = (f"import sys; sys.path.insert(0, {here!r}); import compare; "
            f"compare.faults_worker({workload!r}, {FAULT_REQUESTS})")
    report = {}
    for side, tree in trees.items():
        out = subprocess.run([sys.executable, "-c", code], cwd=tree,
                             env=child_env(), capture_output=True, text=True,
                             check=True).stdout
        counts = json.loads(out.strip().splitlines()[-1])
        report[side] = {"median": statistics.median(counts),
                        "mean": statistics.fmean(counts),
                        "per_request": counts}
    return report


def scheduled_worker(n_qubits: int, full_rank: bool, out_path: str) -> None:
    """The scheduled run on a chain of n_qubits (D = 2^n_qubits) from
    every qubit up or from a full-rank state; imports loopnet from
    sys.path."""
    import numpy as np

    import loopnet as lp
    from loopnet.network import SIGMA_MINUS, SIGMA_Z

    rng = np.random.default_rng(64)
    ports, blocks, systems, connections = [], [], [], []
    n_circ = 3 * n_qubits  # circulator k owns ports 3k..3k+2
    for k in range(n_qubits):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        circ, qubit = f"circ{k}", f"qubit{k}"
        ports += [lp.Port(3 * k + j, circ, float(k)) for j in range(3)]
        ports.append(lp.Port(n_circ + k, qubit, float(k)))
        blocks += [
            lp.ScatteringBlock(circ, lp.perturbed_circulator(
                0.1, 0.5 * (a + a.conj().T))),
            lp.ScatteringBlock(qubit, np.array([[1.0 + 0.0j]])),
        ]
        connections += [lp.Connection(3 * k + 2, n_circ + k),
                        lp.Connection(n_circ + k, 3 * k + 2)]
        if k < n_qubits - 1:
            connections += [lp.Connection(3 * k + 1, 3 * k + 3),
                            lp.Connection(3 * k + 3, 3 * k + 1)]
        systems.append(lp.LocalSystem(
            qubit, 2, np.zeros((2, 2), dtype=complex),
            {n_circ + k: lp.Coupling(SIGMA_MINUS, 1.0)},
        ))
    net = lp.Network(ports, blocks, systems, connections,
                     lp.Geometry(k0=0.0, v_p=1.0, kappa0=1.0))
    grid = np.linspace(0.0, SCHEDULED_T, 201)
    controls = lp.controls_from_network(
        net,
        kappa_schedules={
            n_circ + k: lp.Schedule.sampled(grid, 1.0 + 0.5 * np.sin(grid + k))
            for k in range(n_qubits)
        },
        phi_schedules={n_circ: lp.Schedule.constant(0.3)},
        hamiltonian_terms=[(
            np.kron(SIGMA_Z, np.eye(2 ** (n_qubits - 1))),
            lp.Schedule.sampled(grid, 0.2 * np.cos(grid)),
        )],
    )
    model = lp.contract_network(net)
    d = 2**n_qubits
    if full_rank:
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho0 = a @ a.conj().T
        rho0 /= np.trace(rho0)
    else:
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[0, 0] = 1.0
    best = float("inf")
    for _ in range(SCHEDULED_REPEATS):
        start = time.perf_counter()
        traj = lp.integrate(model, controls, rho0, t_final=SCHEDULED_T,
                            dt=SCHEDULED_DT)
        best = min(best, time.perf_counter() - start)
    np.save(out_path, traj.rhos)
    # a tree without Trajectory.reachable integrates all D^2 coordinates
    coordinates = len(getattr(traj, "reachable", range(d * d)))
    print(json.dumps({"steps": len(traj.times) - 1, "best_s": best,
                      "coordinates": coordinates}))


def scheduled(trees: dict) -> dict:
    import numpy as np

    here = str(Path(__file__).resolve().parent)
    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        cases = [(n, full) for n in SCHEDULED_QUBITS for full in (False, True)]
        for i, (n_qubits, full_rank) in enumerate(cases):
            result = {"D2": 4**n_qubits,
                      "start": "full-rank" if full_rank else "excited"}
            rhos = {}
            for side in list(trees) if i % 2 == 0 else list(trees)[::-1]:
                out_path = str(Path(scratch) / f"{side}{n_qubits}.npy")
                code = (f"import sys; sys.path[:0] = "
                        f"[{str(trees[side] / 'src')!r}, {here!r}]; "
                        f"import compare; compare.scheduled_worker("
                        f"{n_qubits}, {full_rank}, {out_path!r})")
                out = subprocess.run([sys.executable, "-c", code],
                                     env=child_env(), capture_output=True,
                                     text=True, check=True).stdout
                run = json.loads(out.strip().splitlines()[-1])
                result[side] = {
                    "steps": run["steps"],
                    "coordinates": run["coordinates"],
                    "us_per_step": 1e6 * run["best_s"] / run["steps"],
                }
                rhos[side] = np.load(out_path)
            result["max_abs_rho_difference"] = float(
                np.abs(rhos["parent"] - rhos["change"]).max())
            runs.append(result)
    return {"T": SCHEDULED_T, "dt": SCHEDULED_DT,
            "best_of": SCHEDULED_REPEATS, "runs": runs}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=SEEDS)
    parser.add_argument("--scheduled", action="store_true",
                        help="add the scheduled Lindblad chain runs at "
                             "D^2 = 4, 16 and 64, from every qubit up and "
                             "from a full-rank state")
    parser.add_argument("-o", "--output", type=Path, default=None)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": Path.cwd().resolve()}
    metrics = end_to_end(trees["change"])
    output = args.output or Path(f"BENCH_{args.workload}.json")

    traced = {}
    for side, tree in trees.items():
        values = perfbench(tree, args.workload, 1, 1)["metrics"]
        traced[side] = {name: m["value"] for name, m in values.items()}
    layers = sorted(
        name[:-len(".self_s")] for name in traced["change"]
        if name.endswith(".self_s")
        and any(traced[side].get(name[:-len(".self_s")] + ".calls")
                for side in trees)
    )

    runs = {side: {name: [] for name in metrics} for side in trees}
    requests = {side: [] for side in trees}
    for i, seed in enumerate(args.seeds):
        for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
            result = perfbench(trees[side], args.workload, seed, 0)
            requests[side].append({"seed": seed,
                                   "attempted": result["attempted"],
                                   "failed": result["failed"]})
            for name in metrics:
                runs[side][name].append(result["metrics"][name]["value"])

    paired = {
        "seeds": args.seeds,
        **{side: {name: summary(values) for name, values in runs[side].items()}
           for side in trees},
        "pairs_change_better": {
            name: sum((c > p) if higher else (c < p) for p, c in zip(
                runs["parent"][name], runs["change"][name]))
            for name, higher in metrics.items()
        },
        "requests": requests,
    }
    if HELD_OUT in args.seeds:
        i = args.seeds.index(HELD_OUT)
        paired["held_out_seed"] = {
            "seed": HELD_OUT,
            **{side: {name: runs[side][name][i] for name in metrics}
               for side in trees},
        }

    report = {
        "command": f"python3 benchmarks/compare.py --workload {args.workload}"
                   " --parent PATH --seeds " + " ".join(map(str, args.seeds))
                   + " --scheduled" * args.scheduled,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "blas_threads": 1},
        "traced_seed1_self_s": {
            side: {f"{layer}.self_s": traced[side].get(f"{layer}.self_s")
                   for layer in layers}
            for side in trees
        },
        "paired_untraced": paired,
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "minor_faults_per_request": minor_faults(trees, args.workload),
    }
    tier1_runs = {side: tier1(tree) for side, tree in trees.items()}
    report["tier1_wall_s"] = {side: run[0] for side, run in tier1_runs.items()}
    report["tier1_durations"] = {side: run[1]
                                 for side, run in tier1_runs.items()}
    if args.scheduled:
        report["scheduled"] = scheduled(trees)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
