"""The four benchmark workloads.

Each workload is a closed loop driven by one client: the next request is
sent when the previous one has returned.  Requests come in a fixed cycle of
kinds; the parameters of request i are drawn from (workload seed, i), so
the same seed always produces the same requests.  Inputs that several
requests share (network files, network pools, magnitude patterns, control
protocols) are generated by `setup`.

The request kinds of a workload are sized to cost about the same at the
commit that defined the benchmark, so the latency percentiles sit inside
one mode instead of jumping between modes as the request mix shifts.

Only the public ``loopnet`` API and ``loopnet.cli.main`` are called, always
through module attributes looked up at call time, so the tracer's wrappers
are seen in the traced run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm

import loopnet as lp
import loopnet.cli as lp_cli

SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
TWO_PI = 2.0 * np.pi


class CheckFailed(Exception):
    """A request returned, but its output failed the independent check."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Request:
    kind: str
    run: object  # () -> output; timed
    check: object  # (output) -> None, raises CheckFailed; not timed
    outdir: Path | None = None


class CountingSink(io.TextIOBase):
    """Stand-in for stdout that discards text and counts characters."""

    def __init__(self):
        self.chars = 0

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)


# -- input builders -------------------------------------------------------------


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (a + a.conj().T)
    return h / np.abs(np.linalg.eigvalsh(h)).max()


def circulator(rng: np.random.Generator, eps: float) -> np.ndarray:
    return lp.perturbed_circulator(eps, random_hermitian(rng, 3))


def circulator_chain(
    rng: np.random.Generator,
    n_circ: int,
    qubit_at: list,
    eps: float,
    kappa: float,
    v_p: float,
) -> lp.Network:
    """Perturbed 3-port circulators in a line, qubits on chosen circulators.

    Circulator k owns ports 3k..3k+2 and sits at z = k.  Its second port
    is linked both ways to the first port of circulator k+1; a qubit on
    circulator k is linked both ways to its third port.  N = 3 n_circ +
    len(qubit_at) ports.
    """
    ports, blocks, connections, systems = [], [], [], []
    for k in range(n_circ):
        ports += [lp.Port(3 * k + j, f"circ{k}", float(k)) for j in range(3)]
        blocks.append(lp.ScatteringBlock(f"circ{k}", circulator(rng, eps)))
    for k in range(n_circ - 1):
        connections += [lp.Connection(3 * k + 1, 3 * k + 3),
                        lp.Connection(3 * k + 3, 3 * k + 1)]
    port = 3 * n_circ
    for i, k in enumerate(qubit_at):
        name = f"qubit{i}"
        ports.append(lp.Port(port, name, float(k)))
        blocks.append(lp.ScatteringBlock(name, np.array([[1.0 + 0.0j]])))
        connections += [lp.Connection(port, 3 * k + 2),
                        lp.Connection(3 * k + 2, port)]
        systems.append(lp.LocalSystem(
            name, 2, np.zeros((2, 2), dtype=complex),
            {port: lp.Coupling(SIGMA_MINUS, kappa)},
        ))
        port += 1
    geometry = lp.Geometry(k0=0.0, v_p=v_p, kappa0=kappa)
    return lp.Network(ports, blocks, systems, connections, geometry)


def oriented(coeffs):
    """Coefficients with sender and receiver swapped if needed for a -> b."""
    if np.cos(coeffs.delta_plus - coeffs.delta_minus) >= 0:
        return lp.swap_roles(coeffs)
    return coeffs


def read_csv(path: Path) -> dict:
    """Numeric CSV columns by header name."""
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, j] for j, name in enumerate(header)}


def read_csv_skipping_text(path: Path) -> np.ndarray:
    """Numeric columns of a CSV whose first column is text."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) for v in row[1:]] for row in rows])


def require_finite(columns: dict, what: str) -> None:
    for name, values in columns.items():
        require(np.all(np.isfinite(values)), f"{what}: non-finite {name}")


# -- base ---------------------------------------------------------------------


class Workload:
    name = ""
    # request kinds of one cycle, and the cycles the traced pass runs
    cycle: tuple = ()
    trace_cycles = 1
    sizes: dict = {}

    def __init__(self, seed: int, workdir: Path, sink: CountingSink,
                 size: str = "full"):
        self.seed = seed
        self.workdir = Path(workdir)
        self.sink = sink
        self.size = self.sizes[size]
        self._dirs = 0

    def rng(self, *key) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def setup(self) -> None:
        """Generate the shared inputs from the seed."""

    def request(self, index: int) -> Request:
        kind = self.cycle[index % len(self.cycle)]
        return getattr(self, "make_" + kind.split(":")[0])(index, kind)

    def fresh_dir(self) -> Path:
        self._dirs += 1
        return self.workdir / f"out{self._dirs}"

    def cli(self, argv: list) -> None:
        """Run the CLI in-process with stdout sent to the sink."""
        with contextlib.redirect_stdout(self.sink):
            try:
                code = lp_cli.main([str(a) for a in argv])
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        if code != 0:
            raise RuntimeError(f"loopnet {argv[0]} exited with code {code}")

    @staticmethod
    def cleanup(request: Request) -> None:
        if request.outdir is not None:
            shutil.rmtree(request.outdir, ignore_errors=True)


# -- transfer-cli ---------------------------------------------------------------


def check_transfer_outputs(outdir: Path, dt: float, kappa0: float = 1.0) -> None:
    """Independent check of one `loopnet transfer` output directory.

    b0_closed_form integrates with the trapezoid rule on the output grid,
    so it differs from the RK4 trajectory by O(dt^2): about 50 dt^2 over
    the initial transient (1.9e-4 at dt = 2e-3, 1.2e-5 at dt = 5e-4).  The
    tolerance is 1e-6 plus twice that.
    """
    traj = read_csv(outdir / "trajectory.csv")
    controls = read_csv(outdir / "controls.csv")
    require_finite(traj, "trajectory.csv")
    require_finite(controls, "controls.csv")
    success = traj["success"]
    require(np.all((success >= 0.0) & (success <= 1.0)), "success outside [0, 1]")
    b0 = traj["b0"]
    excess = float((b0 - traj["dark_bound"]).max())
    require(excess <= 1e-6, f"b0 exceeds dark_bound by {excess:.3e}")

    manifest = json.loads((outdir / "manifest.json").read_text())
    coeffs = lp.transfer_coefficients(lp.load_network(outdir / "network.json"))
    if manifest["parameters"]["swap_roles"]:
        coeffs = lp.swap_roles(coeffs)
    # the protocol is sampled at half steps; the trajectory at whole steps.
    # phi_a - phi_b = -delta_+, so R has no y component.
    kb = controls["kappa_b"][::2]
    root = np.sqrt(kappa0 * kb)
    r0 = kappa0 * coeffs.eta_a + kb * coeffs.eta_b
    rvec = np.stack([2.0 * root * coeffs.beta_plus, np.zeros_like(kb),
                     kappa0 * coeffs.eta_a - kb * coeffs.eta_b], axis=1)
    bvec = np.stack([traj["bx"], traj["by"], traj["bz"]], axis=1)
    closed = lp.b0_closed_form(traj["t"], bvec, r0, rvec, b0[0])
    mismatch = float(np.abs(closed - b0).max())
    tolerance = 1e-6 + 100.0 * dt**2
    require(mismatch <= tolerance,
            f"b0 differs from its closed form by {mismatch:.3e}")


class TransferCli(Workload):
    """`loopnet transfer --random` with criterion-11 settings per request."""

    name = "transfer-cli"
    cycle = ("transfer",)
    trace_cycles = 12
    sizes = {
        "full": {"T": 12.0, "dt": 2e-3},
        "tiny": {"T": 1.0, "dt": 2e-3},
    }

    def make_transfer(self, index: int, kind: str) -> Request:
        rng = self.rng(index)
        outdir = self.fresh_dir()
        argv = [
            "transfer", "--random", "--swap-roles",
            "--seed", int(rng.integers(0, 2**31)),
            "--eps", repr(float(rng.uniform(0.0, 0.3))),
            "--phase", repr(float(rng.uniform(0.0, TWO_PI))),
            "--T", self.size["T"], "--dt", self.size["dt"],
            "-o", outdir,
        ]
        return Request(kind, lambda: self.cli(argv),
                       lambda _: check_transfer_outputs(outdir, self.size["dt"]),
                       outdir)


# -- ensemble-sweep -------------------------------------------------------------


def check_sweep_summaries(summaries, expected: int) -> None:
    require(len(summaries) == expected, "wrong number of sweep summaries")
    for s in summaries:
        values = [s.success, s.max_bound_excess, s.max_closed_form_mismatch,
                  s.kappa_b_final_db, s.b0_final]
        require(np.all(np.isfinite(values)), "non-finite sweep summary")
        require(0.0 <= s.success <= 1.0, f"success {s.success} outside [0, 1]")
        require(s.max_bound_excess <= 1e-6,
                f"bound excess {s.max_bound_excess:.3e}")
        require(s.max_closed_form_mismatch < 1e-6,
                f"closed-form mismatch {s.max_closed_form_mismatch:.3e}")


def check_cli_sweep(outdir: Path, expected: int) -> None:
    with open(outdir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == expected, "wrong number of sweep rows")
    for row in rows:
        require(row["error"] == "", f"seed {row['seed']} failed: {row['error']}")
        values = [float(row[k]) for k in
                  ("success", "dark_residual", "cos_delta", "swapped")]
        require(np.all(np.isfinite(values)), "non-finite sweep row")
        require(0.0 <= values[0] <= 1.0, "success outside [0, 1]")


class EnsembleSweep(Workload):
    """Batched transfer_sweep over pooled class networks, and the CLI sweep."""

    name = "ensemble-sweep"
    # (class, batch slot); a class's batch sizes are the "batches" entry
    cycle = ("sweep:c09:0", "sweep:c10:1", "sweep:c09:2",
             "sweep:c10:0", "sweep:c09:1", "sweep:c10:2", "cli_sweep")
    trace_cycles = 2
    sizes = {
        # phase tuning rejects most seeds, so its pool is smaller
        "full": {"pool": {"c09": 16, "c10": 8},
                 "batches": {"c09": (1, 4, 16), "c10": (1, 4, 8)},
                 "T": 5.0, "dt": 5e-3, "ratio_db": 10.0, "cli_seeds": 6},
        "tiny": {"pool": {"c09": 2, "c10": 2},
                 "batches": {"c09": (1, 2, 2), "c10": (1, 2, 2)},
                 "T": 0.5, "dt": 5e-3, "ratio_db": 10.0, "cli_seeds": 1},
    }

    def setup(self) -> None:
        # The pools come from fixed seeds, as in acceptance criteria 09 and
        # 10: the cost of rejection sampling varies several-fold from seed
        # to seed, and set-up time should not.  The workload seed shuffles
        # which networks form each batch.
        pool = self.size["pool"]
        # criterion-09 class: every retro-reflectance in [0.04, 0.15]
        c09 = [lp.find_network_in_class(0.04, 0.15, seed)
               for seed in range(pool["c09"])]
        # criterion-10 class: same reflectances, phase-tuned to a dark channel
        c10, seed = [], 0
        while len(c10) < pool["c10"]:
            found = lp.phase_tuned_network(seed, 0.04, 0.15, 1.5e-3)
            if found is not None:
                c10.append(found[1])
            seed += 1
        rng = self.rng(0)
        self.pools = {
            "c09": [c09[i] for i in rng.permutation(len(c09))],
            "c10": [c10[i] for i in rng.permutation(len(c10))],
        }

    def make_sweep(self, index: int, kind: str) -> Request:
        _, cls, slot = kind.split(":")
        batch = self.size["batches"][cls][int(slot)]
        pool = self.pools[cls]
        start = (index * 5) % len(pool)
        nets = [pool[(start + j) % len(pool)] for j in range(batch)]
        size = self.size

        def run():
            coeffs = [oriented(lp.transfer_coefficients(n)) for n in nets]
            return lp.transfer_sweep(coeffs, 1.0, ratio_db=size["ratio_db"],
                                     T=size["T"], dt=size["dt"])

        return Request(kind, run, lambda out: check_sweep_summaries(out, batch))

    def make_cli_sweep(self, index: int, kind: str) -> Request:
        rng = self.rng(index)
        outdir = self.fresh_dir()
        size = self.size
        argv = [
            "transfer", "--random", "--swap-roles",
            "--sweep", size["cli_seeds"], "--threads", 1,
            "--seed", int(rng.integers(0, 2**31)),
            "--eps", repr(float(rng.uniform(0.0, 0.3))),
            "--phase", repr(float(rng.uniform(0.0, TWO_PI))),
            "--T", size["T"], "--dt", size["dt"],
            "--ratio-db", size["ratio_db"],
            "-o", outdir,
        ]
        return Request(kind, lambda: self.cli(argv),
                       lambda _: check_cli_sweep(outdir, size["cli_seeds"]),
                       outdir)


# -- network-design -------------------------------------------------------------


def check_design_outputs(net: lp.Network, outdir: Path) -> None:
    s, w = lp.assemble_S(net), lp.assemble_W(net)
    identities = lp.verify_inversion_identities(s, w)
    worst = max(identities.values())
    require(worst < 1e-10, f"inversion identity residual {worst:.3e}")

    model = json.loads((outdir / "effective_model.json").read_text())
    s_eff = np.array([[complex(*z) for z in row] for row in model["s_eff"]])
    rho = float(np.abs(np.linalg.eigvals(s @ w)).max())
    series, _ = lp.truncated_series_oracle(s, w, None, 100)
    oracle = series[np.ix_(model["external_outputs"], model["external_inputs"])]
    bound = max(2.0 * rho**101 / (1.0 - rho), 1e-13)
    err = float(np.abs(oracle - s_eff).max())
    require(err <= bound, f"S_eff differs from the series by {err:.3e}")

    paths = read_csv_skipping_text(outdir / "paths.csv")
    require(len(paths) > 0 and np.all(np.isfinite(paths)), "bad paths.csv")


def check_phase_scan(circ_a, circ_b, phases, scan, picks) -> None:
    require(len(scan) == len(phases), "phase scan length")
    for k in picks:
        ref_net = lp.two_qubit_network(circ_a, circ_b,
                                       interconnect_phase=float(phases[k]))
        try:
            ref = lp.transfer_coefficients(ref_net)
        except lp.errors.LoopnetError:
            require(scan[k] is None, f"phase {k}: scan converged, direct did not")
            continue
        got = scan[k]
        require(got is not None, f"phase {k}: scan did not converge")
        pairs = [(got.t_aa, ref.t_aa), (got.t_ab, ref.t_ab),
                 (got.t_ba, ref.t_ba), (got.t_bb, ref.t_bb),
                 (got.eta_a, ref.eta_a), (got.eta_b, ref.eta_b),
                 (got.beta_plus, ref.beta_plus),
                 (got.beta_minus, ref.beta_minus)]
        err = max(abs(a - b) for a, b in pairs)
        require(err <= 1e-12, f"phase {k}: scan differs by {err:.3e}")


def check_completion(u: np.ndarray, records: list) -> None:
    dev = float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())
    require(dev <= 1e-12, f"completion is not unitary ({dev:.3e})")
    require(len(records) > 0, "no paths")
    weights = np.array([r.weight for r in records])
    require(np.all(np.isfinite(weights)), "non-finite path weight")


class NetworkDesign(Workload):
    """Network checks, phase scans and unitary completion; no integration."""

    name = "network-design"
    # two completions, twelve network checks and six phase scans per cycle.
    # With two short completions instead of one long one, a run holds
    # about 26, so the tail (ten samples beyond it) lies inside the
    # completions rather than on the edge between them and the checks.
    cycle = tuple(
        kind for half in (0, 1)
        for kind in (f"complete:{half}",) + tuple(
            kind for k in range(3 * half, 3 * half + 3)
            for kind in (f"check:{2 * k}", f"scan:{k}", f"check:{2 * k + 1}")
        )
    )
    trace_cycles = 4
    sizes = {
        "full": {"chains": (2, 4, 6, 8, 10, 12, 14, 16), "pairs": 4,
                 "patterns": 3, "n_phase": 256, "restarts": 10, "sweeps": 500},
        "tiny": {"chains": (2, 3, 4, 5, 6, 7, 8, 9), "pairs": 4,
                 "patterns": 1, "n_phase": 16, "restarts": 2, "sweeps": 20},
    }

    def setup(self) -> None:
        rng = self.rng(0)
        geometry = lp.Geometry(k0=0.0, v_p=3e8, kappa0=1e6)
        nets = [
            lp.two_qubit_network(circulator(rng, 0.1), circulator(rng, 0.1),
                                 kappa_a=1e6, kappa_b=1e6, geometry=geometry)
            for _ in range(self.size["pairs"])
        ]
        nets += [
            circulator_chain(rng, n, [0, n - 1], eps=0.1, kappa=1e6, v_p=3e8)
            for n in self.size["chains"]
        ]
        self.networks = []
        netdir = self.workdir / "networks"
        netdir.mkdir(parents=True, exist_ok=True)
        for i, net in enumerate(nets):
            path = netdir / f"net{i}.json"
            lp.save_network(net, path)
            self.networks.append((net, path))
        self.pairs = [(circulator(rng, 0.1), circulator(rng, 0.1))
                      for _ in range(6)]
        self.phases = np.linspace(0.0, TWO_PI, self.size["n_phase"],
                                  endpoint=False)
        # datasheet-like magnitude patterns: |entries| of near-circulators
        self.patterns = [
            np.abs(circulator(rng, float(rng.uniform(0.1, 0.3))))
            for _ in range(self.size["patterns"])
        ]

    def make_check(self, index: int, kind: str) -> Request:
        net, path = self.networks[int(kind.split(":")[1])]
        outdir = self.fresh_dir()

        def run():
            for command in ("validate", "contract", "paths"):
                self.cli([command, path, "-o", outdir])

        return Request(kind, run, lambda _: check_design_outputs(net, outdir),
                       outdir)

    def make_scan(self, index: int, kind: str) -> Request:
        circ_a, circ_b = self.pairs[int(kind.split(":")[1])]
        phases = self.phases
        picks = self.rng(index).choice(len(phases), size=4, replace=False)
        return Request(
            kind,
            lambda: lp.phase_scan_coefficients(circ_a, circ_b, phases),
            lambda scan: check_phase_scan(circ_a, circ_b, phases, scan, picks),
        )

    def make_complete(self, index: int, kind: str) -> Request:
        number = 2 * (index // len(self.cycle)) + int(kind.split(":")[1])
        target = self.patterns[number % len(self.patterns)]
        size = self.size

        def run():
            u = lp.unitary_with_magnitudes(
                target, seed=number, n_restarts=size["restarts"],
                n_sweeps=size["sweeps"],
            )
            net = lp.two_qubit_network(u, u)
            return u, lp.enumerate_paths(net, max_order=5, min_weight=1e-4)

        return Request(kind, run, lambda out: check_completion(*out))


# -- master-equation ------------------------------------------------------------


def observable(n_qubits: int, token: str) -> np.ndarray:
    d = 2**n_qubits
    if token == "P0":
        op = np.zeros((d, d), dtype=complex)
        op[0, 0] = 1.0
        return op
    op = np.array([[1.0 + 0.0j]])
    for _ in range(n_qubits):
        op = np.kron(op, SIGMA_Z)
    return op


def check_static_run(net: lp.Network, outdir: Path, tokens: list) -> None:
    traj = read_csv(outdir / "trajectory.csv")
    require_finite(traj, "trajectory.csv")
    n_qubits = len(net.systems)
    d = 2**n_qubits
    gen = lp.build_generator(lp.contract_network(net), lp.Controls(), 0.0)
    rho0 = np.zeros((d, d), dtype=complex)
    rho0[0, 0] = 1.0  # "excited": every qubit up
    times = traj["t"]
    for k in (len(times) // 2, len(times) - 1):
        vec = expm(gen * times[k]) @ rho0.reshape(-1, order="F")
        rho = vec.reshape(d, d, order="F")
        for token in tokens:
            exact = np.trace(rho @ observable(n_qubits, token))
            got = complex(traj[f"re_{token}"][k], traj[f"im_{token}"][k])
            err = abs(got - exact)
            require(err < 1e-8, f"{token} at t={times[k]} differs from expm "
                                f"by {err:.3e}")


class MasterEquation(Workload):
    """lindblad.integrate: static `loopnet simulate` and scheduled runs."""

    name = "master-equation"
    # an odd number of kinds keeps the median inside one kind's group
    cycle = ("static:1", "scheduled:0", "static:2", "static:3", "scheduled:1")
    trace_cycles = 2
    sizes = {
        # t_final per qubit count, chosen so every request kind costs about
        # the same as one scheduled T = 20 run at the defining commit
        "full": {"t_final": {1: 10.5, 2: 11.8, 3: 9.25}, "dt": 1e-3,
                 "T": 20.0, "sched_dt": 5e-3, "protocols": 2},
        "tiny": {"t_final": {1: 0.2, 2: 0.2, 3: 0.2}, "dt": 1e-3,
                 "T": 0.5, "sched_dt": 5e-3, "protocols": 1},
    }

    def setup(self) -> None:
        rng = self.rng(0)
        netdir = self.workdir / "networks"
        netdir.mkdir(parents=True, exist_ok=True)
        self.static = {}
        for n_qubits in (1, 2, 3):
            net = circulator_chain(rng, n_qubits, list(range(n_qubits)),
                                   eps=0.1, kappa=1.0, v_p=1.0)
            path = netdir / f"static{n_qubits}.json"
            lp.save_network(net, path)
            self.static[n_qubits] = (net, path)
        # criterion-08 inputs: networks that already favour a -> b transfer
        self.protocols = []
        while len(self.protocols) < self.size["protocols"]:
            net = lp.random_imperfect_network(
                float(rng.uniform(0.0, 0.2)), float(rng.uniform(0.0, TWO_PI)),
                int(rng.integers(0, 2**31)),
            )
            coeffs = lp.transfer_coefficients(net)
            if np.cos(coeffs.delta_plus - coeffs.delta_minus) >= 0:
                continue
            protocol = lp.synthesize_controls(
                coeffs, 1.0, ratio_db=25.0, T=self.size["T"],
                dt=self.size["sched_dt"],
            )
            self.protocols.append([net, coeffs, protocol, None])

    def make_static(self, index: int, kind: str) -> Request:
        n_qubits = int(kind.split(":")[1])
        net, path = self.static[n_qubits]
        outdir = self.fresh_dir()
        tokens = ["P0", "Z" * n_qubits]
        argv = ["simulate", path,
                "--t-final", self.size["t_final"][n_qubits],
                "--dt", self.size["dt"], "--initial", "excited",
                "--observables", ",".join(tokens), "-o", outdir]
        return Request(kind, lambda: self.cli(argv),
                       lambda _: check_static_run(net, outdir, tokens), outdir)

    def make_scheduled(self, index: int, kind: str) -> Request:
        entry = self.protocols[int(kind.split(":")[1]) % len(self.protocols)]
        net, coeffs, protocol, _ = entry
        size = self.size

        def run():
            controls = lp.controls_from_network(
                net,
                kappa_schedules={
                    0: lp.Schedule.constant(1.0),
                    7: lp.Schedule.sampled(protocol.times, protocol.kappa_b),
                },
                phi_schedules={
                    0: lp.Schedule.constant(protocol.phase_diff),
                    7: lp.Schedule.constant(0.0),
                },
                hamiltonian_terms=[(
                    0.5 * np.kron(np.eye(2), SIGMA_Z),
                    lp.Schedule.sampled(protocol.times, protocol.h_bz),
                )],
            )
            return lp.integrate(
                lp.contract_network(net), controls, lp.basis_state(4, 1),
                t_final=size["T"], dt=size["sched_dt"],
                observables={"p_du": lp.basis_state(4, 2)},
            )

        def check(traj):
            if entry[3] is None:  # reference Bloch trajectory, computed once
                entry[3] = lp.simulate_transfer(coeffs, protocol).success_traj
            p_du = traj.observables["p_du"]
            require(np.all(np.isfinite(p_du)), "non-finite p_du")
            err = float(np.abs(p_du.real - entry[3]).max())
            require(err < 1e-6, f"Lindblad and Bloch differ by {err:.3e}")

        return Request(kind, run, check)


WORKLOADS = {w.name: w for w in (TransferCli, EnsembleSweep, NetworkDesign,
                                 MasterEquation)}
