"""Before/after numbers for `lindblad.integrate`, written as JSON.

    python3 benchmarks/bench_lindblad.py --parent PATH [--seeds S ...]
                                         [-o BENCH_lindblad.json]

Run from the root of a loopnet checkout (the "change").  PATH is a second
checkout to compare against (the "parent"), for example one made with
`git archive <commit> | tar -x -C PATH`.  For each tree, one after the other:

- `perfbench/run.py --workload master-equation --seed 1 --trace 1`, from
  which `self_s` of lindblad.integrate_static, lindblad.integrate_scheduled
  and cli.simulate is kept;
- `perfbench/run.py --workload master-equation --seed S --trace 0` for each
  seed (default: ten pairs, the last one 7919), alternating which tree runs
  first; the gated end-to-end metrics are kept with their median and
  quartiles, and the number of pairs in which the change reads better;
- a scheduled three-qubit run (D^2 = 64: sampled kappa and Hamiltonian
  schedules on a chain of three imperfect circulators, T = 2, dt = 5e-3),
  best of 3, reported per RK4 step, with the largest difference between
  the two trees' stored density matrices.

Every child process runs with one BLAS thread.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEEDS = [7, 101, 102, 103, 104, 105, 106, 107, 108, 7919]
SELF_S = ("lindblad.integrate_static", "lindblad.integrate_scheduled",
          "cli.simulate")
# metric -> True where higher is better, as in BENCHMARK.json
END_TO_END = {"setup_s": False, "requests_per_s": True,
              "latency_p50_ms": False, "latency_tail_ms": False,
              "peak_rss_mb": False}
D64_T, D64_DT, D64_REPEATS = 2.0, 5e-3, 3


def child_env() -> dict:
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("PYTHONPATH", None)
    return env


def perfbench(tree: Path, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "master-equation",
         "--seed", str(seed), "--trace", str(trace)],
        cwd=tree, env=child_env(), capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if result["failed"]:
        raise SystemExit(f"{tree}: {result['failed']} failed requests")
    return {name: m["value"] for name, m in result["metrics"].items()}


def d64_worker(out_path: str) -> None:
    """The scheduled D^2 = 64 run; imports loopnet from sys.path."""
    import numpy as np

    import loopnet as lp
    from loopnet.network import SIGMA_MINUS, SIGMA_Z

    rng = np.random.default_rng(64)
    ports, blocks, systems, connections = [], [], [], []
    for k in range(3):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        circ, qubit = f"circ{k}", f"qubit{k}"
        ports += [lp.Port(3 * k + j, circ, float(k)) for j in range(3)]
        ports.append(lp.Port(9 + k, qubit, float(k)))
        blocks += [
            lp.ScatteringBlock(circ, lp.perturbed_circulator(
                0.1, 0.5 * (a + a.conj().T))),
            lp.ScatteringBlock(qubit, np.array([[1.0 + 0.0j]])),
        ]
        connections += [lp.Connection(3 * k + 2, 9 + k),
                        lp.Connection(9 + k, 3 * k + 2)]
        if k < 2:
            connections += [lp.Connection(3 * k + 1, 3 * k + 3),
                            lp.Connection(3 * k + 3, 3 * k + 1)]
        systems.append(lp.LocalSystem(
            qubit, 2, np.zeros((2, 2), dtype=complex),
            {9 + k: lp.Coupling(SIGMA_MINUS, 1.0)},
        ))
    net = lp.Network(ports, blocks, systems, connections,
                     lp.Geometry(k0=0.0, v_p=1.0, kappa0=1.0))
    grid = np.linspace(0.0, D64_T, 201)
    controls = lp.controls_from_network(
        net,
        kappa_schedules={
            9 + k: lp.Schedule.sampled(grid, 1.0 + 0.5 * np.sin(grid + k))
            for k in range(3)
        },
        phi_schedules={9: lp.Schedule.constant(0.3)},
        hamiltonian_terms=[(
            np.kron(np.kron(SIGMA_Z, np.eye(2)), np.eye(2)),
            lp.Schedule.sampled(grid, 0.2 * np.cos(grid)),
        )],
    )
    model = lp.contract_network(net)
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    best = float("inf")
    for _ in range(D64_REPEATS):
        start = time.perf_counter()
        traj = lp.integrate(model, controls, rho0, t_final=D64_T, dt=D64_DT)
        best = min(best, time.perf_counter() - start)
    np.save(out_path, traj.rhos)
    print(json.dumps({"steps": len(traj.times) - 1, "best_s": best}))


def d64(tree: Path, out_path: Path) -> dict:
    code = (f"import sys; sys.path[:0] = [{str(tree / 'src')!r}, "
            f"{str(Path(__file__).resolve().parent)!r}]; "
            f"import bench_lindblad as b; b.d64_worker({str(out_path)!r})")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, check=True).stdout
    run = json.loads(out.strip().splitlines()[-1])
    return {"steps": run["steps"],
            "us_per_step": 1e6 * run["best_s"] / run["steps"]}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"runs": values, "median": median,
            "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=SEEDS)
    parser.add_argument("-o", "--output", type=Path,
                        default=Path("BENCH_lindblad.json"))
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": Path.cwd().resolve()}

    traced = {}
    for side, tree in trees.items():
        metrics = perfbench(tree, 1, 1)
        traced[side] = {f"{k}.self_s": metrics[f"{k}.self_s"] for k in SELF_S}
    untraced = {side: {name: [] for name in END_TO_END} for side in trees}
    for i, seed in enumerate(args.seeds):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for side in order:
            metrics = perfbench(trees[side], seed, 0)
            for name in END_TO_END:
                untraced[side][name].append(metrics[name])

    import numpy as np

    scratch = Path(args.output).resolve().parent / ".bench_lindblad_tmp"
    scratch.mkdir(exist_ok=True)
    sched = {side: d64(tree, scratch / f"{side}.npy")
             for side, tree in trees.items()}
    rhos = {side: np.load(scratch / f"{side}.npy") for side in trees}
    for side in trees:
        (scratch / f"{side}.npy").unlink()
    scratch.rmdir()
    sched["max_abs_rho_difference"] = float(
        np.abs(rhos["parent"] - rhos["change"]).max())

    report = {
        "command": "python3 benchmarks/bench_lindblad.py --parent PATH "
                   + "--seeds " + " ".join(map(str, args.seeds)),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "blas_threads": 1},
        "traced_seed1_self_s": traced,
        "untraced_master_equation": {
            "seeds": args.seeds,
            **{side: {name: summary(vals)
                      for name, vals in untraced[side].items()}
               for side in trees},
            "pairs_change_better": {
                name: sum((c > p) if higher else (c < p) for p, c in zip(
                    untraced["parent"][name], untraced["change"][name]))
                for name, higher in END_TO_END.items()
            },
        },
        "scheduled_d64": {
            "T": D64_T, "dt": D64_DT, "best_of": D64_REPEATS, **sched,
        },
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
