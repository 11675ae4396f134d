"""Command-line frontend: validate, contract, paths, simulate, transfer.

All commands write their outputs plus a run manifest (manifest.json) into
--output-dir.  CSV files use 17 significant digits and LF line endings so
that re-running a command with identical inputs reproduces byte-identical
files.  Exit codes: 0 success, 1 schema/usage error, 2 physics-validity
error (non-unitary block, non-convergent loop, wrong directionality, ...).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .contraction import contract_network
from .errors import (
    DimensionMismatch,
    DuplicateConnection,
    InvalidParameter,
    LoopnetError,
    PhaseAndDistanceBothGiven,
    PortCoverageGap,
    SchemaError,
    SelfLoopConnection,
    WrongDirectionality,
)
from .lindblad import Controls, basis_state, integrate
from .network import (
    NAMED_OPERATORS,
    Network,
    _matrix_to_pairs,
    _pairs_to_matrix,
    assemble_W,
    embed_operator,
    internal_projectors,
    load_network,
    save_network,
    unitarity_deviation,
)
from .paths import default_tau_min, enumerate_paths, validity_check
from .transfer import (
    dark_state_residual,
    random_imperfect_network,
    simulate_transfer,
    swap_roles,
    synthesize_controls,
    transfer_coefficients,
)

SCHEMA_ERRORS = (
    SchemaError,
    DuplicateConnection,
    PortCoverageGap,
    PhaseAndDistanceBothGiven,
    SelfLoopConnection,
    DimensionMismatch,
    InvalidParameter,
)

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_PHYSICS = 2


# -- output plumbing -------------------------------------------------------


def write_csv(path: Path, header: list, columns: list) -> None:
    """CSV with 17 significant digits and LF line endings; each column holds
    strings or numbers, and every row goes through one %-format string."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    row_format = ",".join(
        "%s" if len(c) and isinstance(c[0], str) else "%.17g" for c in columns
    ) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row_format % row for row in zip(*columns))


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(
    outdir: Path,
    command: str,
    parameters: dict,
    outputs: list,
    input_file=None,
    seed=None,
) -> None:
    manifest = {
        "command": command,
        "input_file": str(input_file) if input_file else None,
        "input_sha256": sha256_of(input_file) if input_file else None,
        "parameters": parameters,
        "seed": seed,
        "version": __version__,
        "outputs": sorted(outputs),
    }
    path = outdir / "manifest.json"
    path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", newline="\n"
    )


def _outdir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- validate ---------------------------------------------------------------


def cmd_validate(args) -> int:
    net = load_network(args.net)
    tol = args.tol_unitary

    failures = []
    for block in net.blocks:
        dev = unitarity_deviation(np.asarray(block.matrix, dtype=complex))
        print(f"block {block.element_id}: unitarity deviation {dev:.3e}")
        if dev > tol:
            failures.append(f"NonUnitaryBlock:{block.element_id}")

    w = assemble_W(net)
    i_i, _, i_o, _ = internal_projectors(w)
    w_dev = max(
        float(np.abs(w.conj().T @ w - i_o).max()),
        float(np.abs(w @ w.conj().T - i_i).max()),
        float(np.abs(w - i_i @ w @ i_o).max()),
    )
    print(f"connection matrix: partial-isometry deviation {w_dev:.3e}")
    if w_dev > tol:
        failures.append("InvalidConnectionMatrix")

    if failures:
        # skip the loop analysis: S is not trustworthy
        for reason in failures:
            print(f"FAIL {reason}")
        return EXIT_PHYSICS

    report = validity_check(
        net,
        tau_min=args.tau_min,
        weight_threshold=args.weight_threshold,
    )
    print(f"spectral_radius_SW = {report.spectral_radius_SW:.6g}")
    print(f"sigma_max_SW       = {report.sigma_max_SW:.6g}")
    print(f"tau_min            = {report.tau_min:.6g}")
    print(f"weight_threshold   = {report.weight_threshold:.6g}")
    print(f"n_cut              = {report.n_cut}")

    records = enumerate_paths(
        net, max_order=6, min_weight=max(1e-3, args.weight_threshold / 100)
    )
    top = sorted(records, key=lambda r: -abs(r.weight))[:10]
    print("heaviest paths (port sequence, traversals, |w|, tau):")
    for r in top:
        seq = ">".join(str(p) for p in r.port_sequence)
        print(f"  {seq}  n={r.n_traversals}  |w|={abs(r.weight):.6g}  "
              f"tau={r.delay:.6g}")

    if not report.converged:
        print("FAIL NonConvergentLoop")
        return EXIT_PHYSICS
    if not report.valid:
        print(
            f"FAIL WeakLoopViolation: {len(report.violating_paths)} paths "
            f"with delay >= tau_min carry weight >= threshold "
            f"(max |w| = {report.max_violating_weight:.6g})"
        )
        return EXIT_PHYSICS
    print("PASS")
    return EXIT_OK


# -- contract ---------------------------------------------------------------


def cmd_contract(args) -> int:
    net = load_network(args.net)
    model = contract_network(net)
    outdir = _outdir(args)
    payload = {
        "s_eff": _matrix_to_pairs(model.s_eff),
        "l_eff_coeffs": _matrix_to_pairs(model.l_eff_coeffs),
        "h_eff": _matrix_to_pairs(model.h_eff),
        "external_inputs": model.external_inputs,
        "external_outputs": model.external_outputs,
        "diagnostics": {
            "spectral_radius_SW": model.routing.spectral_radius_SW,
            "sigma_max_SW": model.routing.sigma_max_SW,
        },
    }
    out = outdir / "effective_model.json"
    out.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", newline="\n"
    )
    write_manifest(
        outdir,
        "contract",
        {"net": str(args.net), "tol_unitary": args.tol_unitary},
        [out.name],
        input_file=args.net,
    )
    print(f"wrote {out}")
    return EXIT_OK


# -- paths --------------------------------------------------------------------


def cmd_paths(args) -> int:
    net = load_network(args.net)
    records = enumerate_paths(
        net, max_order=args.max_order, min_weight=args.min_weight
    )
    records = sorted(records, key=lambda r: (-abs(r.weight), r.port_sequence))
    outdir = _outdir(args)
    out = outdir / "paths.csv"
    write_csv(
        out,
        ["path", "n", "re_w", "im_w", "abs_w", "tau"],
        [
            [">".join(str(p) for p in r.port_sequence) for r in records],
            [float(r.n_traversals) for r in records],
            [r.weight.real for r in records],
            [r.weight.imag for r in records],
            [abs(r.weight) for r in records],
            [r.delay for r in records],
        ],
    )
    write_manifest(
        outdir,
        "paths",
        {
            "net": str(args.net),
            "max_order": args.max_order,
            "min_weight": args.min_weight,
            "tau_min": args.tau_min,
            "weight_threshold": args.weight_threshold,
        },
        [out.name],
        input_file=args.net,
    )
    tau_min = args.tau_min if args.tau_min is not None else default_tau_min(net)
    n_viol = sum(
        1
        for r in records
        if r.delay >= tau_min and abs(r.weight) >= args.weight_threshold
    )
    print(
        f"wrote {out} ({len(records)} paths, {n_viol} with delay >= "
        f"{tau_min:.6g} and |w| >= {args.weight_threshold:.6g})"
    )
    return EXIT_OK


# -- simulate -----------------------------------------------------------------


def _initial_state(net: Network, spec: str) -> np.ndarray:
    d = net.joint_dimension()
    named = {"ground": d - 1, "excited": 0}
    if d == 4:
        named.update({"up-up": 0, "up-down": 1, "down-up": 2, "down-down": 3})
    if spec in named:
        return basis_state(d, named[spec])
    if spec.startswith("basis:"):
        return basis_state(d, int(spec.split(":", 1)[1]))
    path = Path(spec)
    if path.exists():
        rho = _pairs_to_matrix(json.loads(path.read_text()))
        if rho.shape != (d, d):
            raise SchemaError(
                f"initial state has shape {rho.shape}, expected {(d, d)}"
            )
        return rho
    raise SchemaError(f"unknown initial state {spec!r}")


def _observable(net: Network, token: str) -> np.ndarray:
    d = net.joint_dimension()
    if token.startswith("P") and token[1:].isdigit():
        return basis_state(d, int(token[1:]))
    if all(ch in "IXYZ" for ch in token) and len(token) == len(net.systems):
        op = np.eye(d, dtype=complex)
        for ch, sysm in zip(token, net.systems):
            if ch == "I":
                continue
            if sysm.hilbert_dim != 2:
                raise SchemaError(
                    f"Pauli {ch!r} on non-qubit system {sysm.element_id!r}"
                )
            local = NAMED_OPERATORS[f"sigma_{ch.lower()}"]
            op = op @ embed_operator(net, sysm.element_id, local)
        return op
    raise SchemaError(f"unknown observable {token!r}")


def cmd_simulate(args) -> int:
    net = load_network(args.net)
    if not net.systems:
        raise SchemaError("network has no local systems to simulate")
    model = contract_network(net)
    rho0 = _initial_state(net, args.initial)
    names = [t for t in args.observables.split(",") if t]
    observables = {name: _observable(net, name) for name in names}
    traj = integrate(
        model, Controls(), rho0, t_final=args.t_final, dt=args.dt,
        observables=observables,
    )
    outdir = _outdir(args)
    out = outdir / "trajectory.csv"
    header = ["t"]
    columns = [traj.times]
    for name in names:
        header += [f"re_{name}", f"im_{name}"]
        columns += [traj.observables[name].real, traj.observables[name].imag]
    write_csv(out, header, columns)
    write_manifest(
        outdir,
        "simulate",
        {
            "net": str(args.net),
            "t_final": args.t_final,
            "dt": args.dt,
            "observables": args.observables,
            "initial": args.initial,
        },
        [out.name],
        input_file=args.net,
    )
    print(
        f"wrote {out} (max trace drift {traj.max_trace_drift:.3e}, "
        f"max herm drift {traj.max_herm_drift:.3e})"
    )
    return EXIT_OK


# -- transfer -----------------------------------------------------------------


def _transfer_network(args) -> Network:
    if args.net is not None:
        return load_network(args.net)
    return random_imperfect_network(args.eps, args.phase, args.seed)


def _run_transfer(net: Network, args):
    """(coeffs, protocol, result, swapped) for one network."""
    coeffs = transfer_coefficients(net)
    swapped = False
    if np.cos(coeffs.delta_plus - coeffs.delta_minus) >= 0:
        if not args.swap_roles:
            raise WrongDirectionality(
                "channel favours b -> a transfer; rerun with --swap-roles"
            )
        coeffs = swap_roles(coeffs)
        swapped = True
    protocol = synthesize_controls(
        coeffs, args.kappa0, ratio_db=args.ratio_db, T=args.T, dt=args.dt
    )
    result = simulate_transfer(coeffs, protocol)
    return coeffs, protocol, result, swapped


def cmd_transfer(args) -> int:
    if (args.net is None) == (not args.random):
        raise SchemaError("give exactly one of --net or --random")
    if args.sweep:
        return _cmd_transfer_sweep(args)

    net = _transfer_network(args)
    outdir = _outdir(args)
    outputs = []
    if args.net is None:
        save_network(net, outdir / "network.json")
        outputs.append("network.json")

    coeffs, protocol, result, swapped = _run_transfer(net, args)
    write_csv(
        outdir / "controls.csv",
        ["t", "kappa_b", "h_bz"],
        [protocol.times, protocol.kappa_b, protocol.h_bz],
    )
    write_csv(
        outdir / "trajectory.csv",
        ["t", "b0", "bx", "by", "bz", "success", "dark_bound"],
        [
            result.times,
            result.b0,
            *result.bvec.T,
            result.success_traj,
            result.dark_bound,
        ],
    )
    outputs += ["controls.csv", "trajectory.csv"]
    write_manifest(
        outdir,
        "transfer",
        {
            "net": str(args.net) if args.net else None,
            "random": bool(args.random),
            "eps": args.eps,
            "phase": args.phase,
            "kappa0": args.kappa0,
            "ratio_db": args.ratio_db,
            "T": args.T,
            "dt": args.dt,
            "swap_roles": swapped,
        },
        outputs,
        input_file=args.net,
        seed=args.seed if args.net is None else None,
    )
    print(
        f"success={result.success:.17g} "
        f"dark_residual={dark_state_residual(coeffs):.17g} "
        f"cos_delta={np.cos(coeffs.delta_plus - coeffs.delta_minus):.17g}"
    )
    return EXIT_OK


def _cmd_transfer_sweep(args) -> int:
    if args.net is not None:
        raise SchemaError("--sweep requires --random")
    seeds = [args.seed + i for i in range(args.sweep)]

    def one(seed):
        local = argparse.Namespace(**vars(args))
        local.seed = seed
        try:
            net = _transfer_network(local)
            coeffs, _, result, swapped = _run_transfer(net, local)
            return (
                float(seed),
                result.success,
                dark_state_residual(coeffs),
                float(np.cos(coeffs.delta_plus - coeffs.delta_minus)),
                float(swapped),
                "",
            )
        except LoopnetError as exc:
            return (float(seed), np.nan, np.nan, np.nan, np.nan,
                    type(exc).__name__)

    # in order: the seeds are CPU-bound, and threads only add lock contention
    rows = [one(seed) for seed in seeds]

    outdir = _outdir(args)
    out = outdir / "sweep.csv"
    write_csv(
        out,
        ["seed", "success", "dark_residual", "cos_delta", "swapped", "error"],
        list(zip(*rows)),
    )
    write_manifest(
        outdir,
        "transfer-sweep",
        {
            "random": True,
            "eps": args.eps,
            "phase": args.phase,
            "kappa0": args.kappa0,
            "ratio_db": args.ratio_db,
            "T": args.T,
            "dt": args.dt,
            "sweep": args.sweep,
            "threads": args.threads,
        },
        [out.name],
        seed=args.seed,
    )
    ok = [r for r in rows if not r[5]]
    print(f"wrote {out} ({len(ok)}/{len(rows)} seeds succeeded)")
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def _positive(convert):
    """argparse type: a finite number > 0, parsed by convert."""

    def parse(text: str):
        value = convert(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(
                f"expected a finite number > 0, got {text!r}"
            )
        return value

    parse.__name__ = f"positive {convert.__name__}"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopnet",
        description="Contract, validate and simulate weakly looped "
        "quantum input-output networks.",
    )
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-unitary", type=float, default=1e-10)
    common.add_argument("--weight-threshold", type=float, default=0.05)
    common.add_argument("--tau-min", type=float, default=None)
    common.add_argument("-o", "--output-dir", default=".")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check a network file and its weak-loop validity")
    p.add_argument("net")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("contract", parents=[common],
                       help="emit the contracted effective model")
    p.add_argument("net")
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("paths", parents=[common],
                       help="enumerate weighted scattering paths")
    p.add_argument("net")
    p.add_argument("--max-order", type=int, default=6)
    p.add_argument("--min-weight", type=float, default=1e-3)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("simulate", parents=[common],
                       help="integrate the effective master equation")
    p.add_argument("net")
    p.add_argument("--t-final", type=_positive(float), required=True)
    p.add_argument("--dt", type=_positive(float), default=1e-3)
    p.add_argument("--observables", default="")
    p.add_argument("--initial", default="ground")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("transfer", parents=[common],
                       help="synthesize and simulate a dark-state transfer")
    p.add_argument("--net", default=None)
    p.add_argument("--random", action="store_true")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phase", type=float, default=0.0)
    p.add_argument("--kappa0", type=_positive(float), default=1.0)
    p.add_argument("--ratio-db", type=float, default=25.0)
    p.add_argument("--T", type=_positive(float), default=20.0)
    p.add_argument("--dt", type=_positive(float), default=1e-3)
    p.add_argument("--swap-roles", action="store_true")
    p.add_argument("--sweep", type=int, default=0,
                   help="run this many consecutive seeds, one after another")
    p.add_argument("--threads", type=_positive(int), default=4,
                   help="no effect; kept for compatibility and the manifest")
    p.set_defaults(func=cmd_transfer)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return EXIT_SCHEMA if exc.code else EXIT_OK
    try:
        return args.func(args)
    except SCHEMA_ERRORS as exc:
        print(f"schema error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except LoopnetError as exc:
        print(f"physics error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
