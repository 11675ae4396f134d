"""Command-line frontend: validate, contract, paths, simulate, transfer.

All commands write their outputs plus a run manifest (manifest.json) into
--output-dir.  CSV files have LF line endings and every number is exactly
the bytes of "%.17g", so that re-running a command with identical inputs
reproduces byte-identical files; an integer kernel produces them for 0 and
1e-11 < |x| < 1e15, reading the ASCII digits of 4-digit groups from a
table, and "%.17g" itself for every other value.  A table is formatted in
blocks of about _BLOCK values, all in one workspace that each write_csv
call allocates once.  Exit codes:
0 success, 1 schema/usage error or an output directory or file that cannot
be made or written, 2 physics-validity error (non-unitary block,
non-convergent loop, wrong directionality, ...).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .contraction import contract_network
from .errors import (
    InvalidParameter,
    LoopnetError,
    SchemaError,
    WrongDirectionality,
)
from .lindblad import Controls, basis_state, integrate
from .network import (
    NAMED_OPERATORS,
    TOL_UNITARY,
    Network,
    _json_text,
    _matrix_to_pairs,
    _pairs_to_matrix,
    assemble_W,
    embed_operator,
    internal_projectors,
    load_network,
    read_json,
    save_network,
    unitarity_deviation,
)
from .paths import (
    DEFAULT_WEIGHT_THRESHOLD,
    default_tau_min,
    enumerate_paths,
    validity_check,
    violates,
)
from .transfer import (
    dark_state_residual,
    oriented,
    random_imperfect_network,
    simulate_transfer,
    synthesize_controls,
    transfer_coefficients,
)

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_PHYSICS = 2


# -- output plumbing -------------------------------------------------------


_U = np.uint64
_POW5 = np.array([5**k for k in range(28)], _U)  # 5**27 < 2**63
_SLOT = np.arange(18, dtype=np.int8)[:, None]
_LEAD = np.frombuffer(b"0.000", np.uint8)[:, None]  # shown while e <= _LEAD_E
_LEAD_E = np.array([-1, -1, -2, -3, -4], np.int8)[:, None]
_EXP = np.array([101, 45, 48, 48], np.int8)[:, None]  # "e-XX" for -11 <= e < -4
_EXP_E = np.array([0, 0, 0, -1], np.int8)[:, None]
_EXP_TENS = np.array([0, 0, 1, -10], np.int8)[:, None]
_CELL = 29  # sign, "0.000", 17 digits and a point, "e-XX", separator
# _DIGITS4[g]: the four ASCII digits of g = 0..9999 as one 4-byte word
_DIGITS4 = np.array([b"%04d" % g for g in range(10**4)]).view(np.uint32)
_BLOCK = 5120  # values per block: a whole table is written fastest near here


def _scaled(m, q, e):
    """(round half to even, truncation) of m 2**q 10**(16 - e) for uint64
    m < 2**53 and -11 <= e <= 15: the product m 5**(16 - e) is exact in two
    uint64 limbs of 32-bit partial products, and is shifted right by 1 to 63."""
    k = 16 - e
    f = _POW5[k]
    m0, m1, f0, f1 = m & _U(2**32 - 1), m >> _U(32), f & _U(2**32 - 1), f >> _U(32)
    low, mid = m0 * f0, m1 * f0 + m0 * f1
    lo = low + (mid << _U(32))
    hi = m1 * f1 + (mid >> _U(32)) + (lo < low)
    s = (-(k + q)).astype(_U)
    t = (lo >> s) | (hi << (_U(64) - s))
    rem, half = lo & ((_U(1) << s) - _U(1)), _U(1) << (s - _U(1))
    return t + (rem + (t & _U(1)) > half), t


def _g17(x: np.ndarray, cells: np.ndarray, digits: np.ndarray) -> None:
    """Fill cells (width, x.size) uint8 so that column i is the bytes of
    "%.17g" % x[i] padded with NUL; rows 28 and up of a kernel-formatted
    column and the last row are left as they are.  digits (19, x.size)
    uint8 is scratch.

    0 and 1e-11 < |x| < 1e15 are formatted here in integer arithmetic
    (the double nearest 1e-11 lies below 10**-11): the 17 digits d are a
    leading digit and four 4-digit groups, whose ASCII bytes are gathered
    from the table _DIGITS4.  Every other value is formatted by "%.17g"
    itself."""
    n = x.size
    a = np.abs(x)
    zero = a == 0
    fast = zero | ((a > 1e-11) & (a < 1e15))
    a[~fast | zero] = 1.0  # a stand-in: these cells are overwritten below
    bits = a.view(_U)  # a = m 2**q
    m = (bits & _U(2**52 - 1)) | _U(2**52)
    q = (bits >> _U(52)).astype(np.int64) - 1075
    # 17 digits d of a = d 10**(e - 16); log10 may miss e by one
    e = np.maximum(np.floor(np.log10(a)).astype(np.int64), -11)
    d, t = _scaled(m, q, e)
    miss = (t >= 10**17).astype(np.int64) - (t < 10**16)
    i = np.flatnonzero(miss)
    if i.size:
        e[i] += miss[i]
        d[i] = _scaled(m[i], q[i], e[i])[0]
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    d[zero] = 0
    e[zero] = 0
    # d = lead 10**16 + four 4-digit groups, whose ASCII digits are
    # gathered from _DIGITS4; ASCII digit i goes in row 1 + i
    d = d.astype(np.int64)
    lead = d // 10**16
    rest = d - lead * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    g0, g2 = high // 10**4, low // 10**4
    groups = g0, high - g0 * 10**4, g2, low - g2 * 10**4
    digits[1] = lead + 48
    for row, g in zip((2, 6, 10, 14), groups):
        words = np.take(_DIGITS4, g)
        digits[row:row + 4] = words.view(np.uint8).reshape(n, 4).T
    # the index of the last nonzero digit, -1 for d = 0
    last = ((digits[1:18] != 48) * _SLOT[1:]).max(axis=0) - 1
    e = e.astype(np.int8)
    # %g: d.ddde-XX for e < -4, else the point after digit p = e
    # ("0.000ddd" for p < 0); trailing fraction zeros and a bare point go
    expo = e < -4
    p = e * ~expo
    digits[1:18] *= _SLOT[:17] <= np.maximum(last, p)
    point = p + 1 + (p < 0) * (16 - p)  # slot 17: no point among the digits
    cells[0] = np.signbit(x) * np.uint8(45)
    cells[1:6] = (p <= _LEAD_E) * _LEAD
    cells[6:24] = digits[:18] + (_SLOT < point) * (digits[1:] - digits[:18])
    cells[6 + point, np.arange(n)] = ((last > p) & (p >= 0)) * np.uint8(46)
    cells[24:28] = expo * (_EXP + e * _EXP_E + (e <= -10) * _EXP_TENS)
    i = np.flatnonzero(~fast)
    if i.size:
        width = len(cells)
        text = np.array([b"%.17g" % v for v in x[i].tolist()], f"S{width - 1}")
        cells[:-1, i] = text.view(np.uint8).reshape(i.size, width - 1).T


def write_csv(path: Path, header: list, columns: list) -> None:
    """CSV with LF line endings; each column holds strings or numbers, and a
    number is written as the exact bytes of "%.17g" (see _g17).

    The rows go in blocks of about _BLOCK values (whole rows), and every
    block reuses one workspace allocated once per call: the block's values,
    its NUL-padded cells of one width with one separator byte each, and the
    digit planes.  The block's row-major bytes, with the padding deleted by
    bytes.translate, are written out."""
    n_rows = len(columns[0]) if columns else 0
    text = {j: np.array([s.encode() for s in c]) for j, c in enumerate(columns)
            if len(c) and isinstance(c[0], str)}
    width = max([_CELL] + [s.itemsize + 1 for s in text.values()])
    rows = max(1, min(n_rows, _BLOCK // max(len(columns), 1)))
    values = np.zeros((rows, len(columns)))
    cells = np.zeros((width, values.size), np.uint8)
    digits = np.zeros((19, values.size), np.uint8)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for r0 in range(0, n_rows, rows):
            block = values[:min(rows, n_rows - r0)]
            for j, c in enumerate(columns):
                if j not in text:
                    block[:, j] = c[r0:r0 + rows]
            size = block.size
            _g17(block.ravel(), cells[:, :size], digits[:, :size])
            grid = cells[:, :size].reshape(width, *block.shape)
            for j, s in text.items():
                grid[:-1, :, j] = 0
                grid[:s.itemsize, :, j] = (
                    s[r0:r0 + rows].view(np.uint8).reshape(len(block), -1).T
                )
            grid[-1] = ord(",")
            grid[-1, :, -1] = ord("\n")
            fh.write(grid.transpose(1, 2, 0).tobytes().translate(None, b"\0"))


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
    path.write_text(_json_text(manifest, sort_keys=True) + "\n", newline="\n")


def _outdir(args) -> Path:
    """The output directory, made if missing.  Every command has read its
    inputs when it gets here, so main reports a later OSError as an output
    error."""
    args.writing = True
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- validate ---------------------------------------------------------------


def cmd_validate(args) -> int:
    net = load_network(args.net)

    failures = []
    for block in net.blocks:
        dev = unitarity_deviation(np.asarray(block.matrix, dtype=complex))
        print(f"block {block.element_id}: unitarity deviation {dev:.3e}")
        if dev > TOL_UNITARY:
            failures.append(f"NonUnitaryBlock:{block.element_id}")

    w = assemble_W(net)
    i_i, _, i_o, _ = internal_projectors(w)
    w_dev = max(
        float(np.abs(w.conj().T @ w - i_o).max()),
        float(np.abs(w @ w.conj().T - i_i).max()),
        float(np.abs(w - i_i @ w @ i_o).max()),
    )
    print(f"connection matrix: partial-isometry deviation {w_dev:.3e}")
    if w_dev > TOL_UNITARY:
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

    top = sorted(report.records, key=lambda r: -abs(r.weight))[:10]
    print("heaviest paths with |w| >= weight_threshold "
          "(port sequence, traversals, |w|, tau):")
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
    out.write_text(_json_text(payload, sort_keys=True) + "\n", newline="\n")
    write_manifest(
        outdir,
        "contract",
        {"net": str(args.net)},
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
    names = [str(p) for p in range(net.n_ports)]
    write_csv(
        out,
        ["path", "n", "re_w", "im_w", "abs_w", "tau"],
        [
            [">".join([names[p] for p in r.port_sequence]) for r in records],
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
    n_viol = sum(violates(r, tau_min, args.weight_threshold) for r in records)
    print(
        f"wrote {out} ({len(records)} paths, {n_viol} with delay >= "
        f"{tau_min:.6g} and |w| >= {args.weight_threshold:.6g})"
    )
    return EXIT_OK


# -- simulate -----------------------------------------------------------------


def _basis_index(text: str, d: int, what: str) -> int:
    if text.isdecimal() and int(text) < d:
        return int(text)
    raise SchemaError(f"{what} {text!r} is not an index in 0..{d - 1}")


def _initial_state(net: Network, spec: str) -> np.ndarray:
    d = net.joint_dimension()
    named = {"ground": d - 1, "excited": 0}
    if d == 4:
        named.update({"up-up": 0, "up-down": 1, "down-up": 2, "down-down": 3})
    if spec in named:
        return basis_state(d, named[spec])
    if spec.startswith("basis:"):
        return basis_state(d, _basis_index(spec[6:], d, "basis state"))
    path = Path(spec)
    if path.exists():
        return _pairs_to_matrix(read_json(path), "initial state")
    raise SchemaError(f"unknown initial state {spec!r}")


def _observable(net: Network, token: str) -> np.ndarray:
    d = net.joint_dimension()
    if token.startswith("P") and token[1:].isdecimal():
        return basis_state(d, _basis_index(token[1:], d, "projector"))
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
    repeated = sorted({t for t in names if names.count(t) > 1})
    if repeated:
        # one CSV column pair per name: a repeated header loses data
        raise SchemaError(f"observable given more than once: {repeated}")
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
        f"generator herm residue {traj.max_herm_drift:.3e})"
    )
    return EXIT_OK


# -- transfer -----------------------------------------------------------------


def _transfer_parameters(args) -> dict:
    """The manifest parameters that transfer and its sweep share."""
    return {
        "random": bool(args.random),
        "eps": args.eps,
        "phase": args.phase,
        "kappa0": args.kappa0,
        "ratio_db": args.ratio_db,
        "T": args.T,
        "dt": args.dt,
    }


def _run_transfer(net: Network, args):
    """(coeffs, protocol, result, swapped) for one network."""
    measured = transfer_coefficients(net)
    coeffs = oriented(measured)
    swapped = coeffs is not measured
    if swapped and not args.swap_roles:
        raise WrongDirectionality(
            "channel favours b -> a transfer; rerun with --swap-roles"
        )
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

    if args.net is not None:
        net = load_network(args.net)
    else:
        net = random_imperfect_network(args.eps, args.phase, args.seed)
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
            **_transfer_parameters(args),
            "net": str(args.net) if args.net else None,
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
        try:
            net = random_imperfect_network(args.eps, args.phase, seed)
            coeffs, _, result, swapped = _run_transfer(net, args)
            return (
                float(seed),
                result.success,
                dark_state_residual(coeffs),
                float(np.cos(coeffs.delta_plus - coeffs.delta_minus)),
                float(swapped),
                "",
            )
        except (SchemaError, InvalidParameter):
            raise  # an input error fails every seed alike: exit 1
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
        {**_transfer_parameters(args), "sweep": args.sweep,
         "swap_roles": bool(args.swap_roles), "threads": args.threads},
        [out.name],
        seed=args.seed,
    )
    ok = [r for r in rows if not r[5]]
    print(f"wrote {out} ({len(ok)}/{len(rows)} seeds succeeded)")
    # a failed seed's row holds NaN and names its error: not a clean exit
    return EXIT_OK if len(ok) == len(rows) else EXIT_PHYSICS


# -- parser -------------------------------------------------------------------


def _number(convert, ok, expected: str):
    """argparse type: text parsed by convert and accepted if ok(value)."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    parse.__name__ = convert.__name__
    return parse


_finite = _number(float, math.isfinite, "a finite number")
_positive = _number(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_non_negative = _number(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_count = _number(int, lambda v: v >= 0, "an integer >= 0")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.  It holds no handlers:
    main looks up cmd_<command> when it runs, so a rebound name counts."""
    parser = argparse.ArgumentParser(
        prog="loopnet",
        description="Contract, validate and simulate weakly looped "
        "quantum input-output networks.",
    )
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--output-dir", default=".")
    # the weak-loop test that validate applies and paths reports
    weak_loop = argparse.ArgumentParser(add_help=False)
    weak_loop.add_argument("--weight-threshold", type=_positive,
                           default=DEFAULT_WEIGHT_THRESHOLD)
    weak_loop.add_argument("--tau-min", type=_non_negative, default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common, weak_loop],
                       help="check a network file and its weak-loop validity")
    p.add_argument("net")

    p = sub.add_parser("contract", parents=[common],
                       help="emit the contracted effective model")
    p.add_argument("net")

    p = sub.add_parser("paths", parents=[common, weak_loop],
                       help="enumerate weighted scattering paths")
    p.add_argument("net")
    p.add_argument("--max-order", type=_count, default=6)
    p.add_argument("--min-weight", type=_non_negative, default=1e-3)

    p = sub.add_parser("simulate", parents=[common],
                       help="integrate the effective master equation")
    p.add_argument("net")
    p.add_argument("--t-final", type=_positive, required=True)
    p.add_argument("--dt", type=_positive, default=1e-3)
    p.add_argument("--observables", default="")
    p.add_argument("--initial", default="ground")

    p = sub.add_parser("transfer", parents=[common],
                       help="synthesize and simulate a dark-state transfer")
    p.add_argument("--net", default=None)
    p.add_argument("--random", action="store_true")
    p.add_argument("--eps", type=_finite, default=0.1)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--phase", type=_finite, default=0.0)
    p.add_argument("--kappa0", type=_positive, default=1.0)
    p.add_argument("--ratio-db", type=_finite, default=25.0)
    p.add_argument("--T", type=_positive, default=20.0)
    p.add_argument("--dt", type=_positive, default=1e-3)
    p.add_argument("--swap-roles", action="store_true")
    p.add_argument("--sweep", type=_count, default=0,
                   help="run this many consecutive seeds, one after another")
    p.add_argument("--threads", default=4,
                   type=_number(int, lambda v: v > 0, "an integer > 0"),
                   help="no effect; kept for compatibility and the manifest")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return EXIT_SCHEMA if exc.code else EXIT_OK
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (SchemaError, InvalidParameter) as exc:
        print(f"schema error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        where = "output" if getattr(args, "writing", False) else "schema"
        print(f"{where} error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except LoopnetError as exc:
        print(f"physics error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
