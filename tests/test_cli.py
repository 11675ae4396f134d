"""Command-line interface: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import loopnet
from loopnet import (
    Geometry,
    datasheet_circulator,
    ideal_circulator,
    network_from_dict,
    network_to_dict,
    oriented,
    random_imperfect_network,
    save_network,
    transfer_coefficients,
    transfer_sweep,
    two_qubit_network,
)
from loopnet import cli
from loopnet.cli import EXIT_SCHEMA, build_parser, main, write_csv
from loopnet.paths import enumerate_paths

from conftest import fabry_perot, single_qubit_network


@pytest.fixture
def fast_net_file(tmp_path):
    """Two-circulator network with realistic line speed: weak-loop valid."""
    net = two_qubit_network(
        datasheet_circulator(), datasheet_circulator(),
        kappa_a=1e6, kappa_b=1e6,
        geometry=Geometry(k0=0.0, v_p=3e8, kappa0=1e6),
    )
    path = tmp_path / "fast.json"
    save_network(net, path)
    return path


@pytest.fixture
def ideal_net_file(tmp_path):
    net = two_qubit_network(ideal_circulator(), ideal_circulator())
    path = tmp_path / "ideal.json"
    save_network(net, path)
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# -- validate -----------------------------------------------------------------


def test_validate_pass(fast_net_file, tmp_path, capsys):
    code = main(["validate", str(fast_net_file), "-o", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "spectral_radius_SW" in out


def test_validate_slow_geometry_fails_physics(ideal_net_file, capsys):
    # kappa = 1 with unit-length lines: the direct path is heavy and slow
    net = two_qubit_network(datasheet_circulator(), datasheet_circulator())
    path = ideal_net_file.parent / "slow.json"
    save_network(net, path)
    code = main(["validate", str(path)])
    assert code == 2
    assert "WeakLoopViolation" in capsys.readouterr().out


def test_validate_non_unitary_block(ideal_net_file, tmp_path, capsys):
    data = json.loads(ideal_net_file.read_text())
    block = data["blocks"][0]["matrix"]
    block[0][0] = [0.5, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = main(["validate", str(bad)])
    assert code == 2
    assert "NonUnitaryBlock" in capsys.readouterr().out


def test_validate_duplicate_connection_is_schema_error(
    ideal_net_file, tmp_path, capsys
):
    data = json.loads(ideal_net_file.read_text())
    data["connections"].append(dict(data["connections"][0]))
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps(data))
    code = main(["validate", str(bad)])
    assert code == 1
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate", "{net}"], ["contract", "{net}"], ["paths", "{net}"],
    ["transfer", "--net", "{net}"],
], ids=["validate", "contract", "paths", "transfer"])
def test_empty_network_is_schema_error(argv, tmp_path, capsys):
    """A network without ports exits 1 with a one-line schema error, not a
    traceback from a reduction over its 0 x 0 S."""
    net = tmp_path / "empty.json"
    net.write_text(json.dumps({"ports": [], "blocks": []}))
    out = tmp_path / "out"
    assert main([a.format(net=net) for a in argv] + ["-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        "schema error [SchemaError]: a network needs at least one port\n")
    assert not out.exists()


def test_missing_file_is_schema_error(capsys):
    assert main(["validate", "/nonexistent/net.json"]) == 1


def test_non_finite_coupling_is_schema_error(ideal_net_file, tmp_path, capsys):
    data = json.loads(ideal_net_file.read_text())
    data["systems"][0]["couplings"][0]["kappa"] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "out"
    for command in ("validate", "contract"):
        assert main([command, str(bad), "-o", str(out)]) == 1
        assert "schema error" in capsys.readouterr().err
    assert not out.exists()


def _edited_net_file(tmp_path, net, edit):
    """net saved as JSON after edit(data) changed its dict in place."""
    data = network_to_dict(net)
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return path


def _set(*keys_and_value, self_loops=False):
    """An edit that sets data[k0][k1]... to the last argument, and
    allow_self_loops if self_loops."""
    *keys, value = keys_and_value

    def edit(data):
        target = data
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        data["allow_self_loops"] |= self_loops
    return edit


def _cavity():
    return fabry_perot(0.5, 0.7)


@pytest.mark.parametrize("command", ["validate", "contract"])
@pytest.mark.parametrize("net, edit", [
    (_cavity, _set("connections", 0, "to", -1, self_loops=True)),
    (_cavity, _set("connections", 0, "to", 99)),
    (_cavity, _set("connections", 0, "to", 99, self_loops=True)),
    (_cavity, _set("connections", 0, "from", 1.0)),
    (_cavity, _set("connections", 0, "to", True)),
    (_cavity, _set("ports", 1, "id", 1.0)),
    (single_qubit_network, _set("systems", 0, "couplings", 0, "port", 0.0)),
], ids=["to=-1,self-loops", "to=99", "to=99,self-loops", "from=1.0",
        "to=true", "id=1.0", "coupling-port=0.0"])
def test_bad_port_id_is_schema_error(command, net, edit, tmp_path, capsys):
    """Every port id in a network file is an int naming one of its N ports,
    whatever allow_self_loops says: -1 once wrapped to port 3 and exited 0
    with another network's model, 99 and 1.0 ended in an IndexError or
    TypeError traceback, and true was read as port 1."""
    path = _edited_net_file(tmp_path, net(), edit)
    out = tmp_path / "out"
    assert main([command, str(path), "-o", str(out)]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.err.startswith("schema error [InvalidPortId]: ")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


@pytest.mark.parametrize("content", [b"\xff\xfe", b'{"ports": "\xe9"}', b"[["],
                         ids=["utf-16-bom", "latin-1", "truncated"])
@pytest.mark.parametrize("argv", [
    ["validate", "{file}"],
    ["contract", "{file}"],
    ["paths", "{file}"],
    ["transfer", "--net", "{file}"],
    ["simulate", "{net}", "--t-final", "0.1", "--initial", "{file}"],
], ids=["validate", "contract", "paths", "transfer", "simulate-initial"])
def test_unreadable_json_is_schema_error(argv, content, ideal_net_file,
                                         tmp_path, capsys):
    """A network or --initial file that is not UTF-8 JSON is one tagged
    schema error line: it once ended in a UnicodeDecodeError traceback, or
    for --initial in an untagged line."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out = tmp_path / "out"
    argv = [a.format(file=bad, net=ideal_net_file) for a in argv]
    assert main(argv + ["-o", str(out)]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("schema error [SchemaError]: invalid JSON: ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def _ideal_network():
    return two_qubit_network(ideal_circulator(), ideal_circulator())


def _qutrit_network():
    """single_qubit_network with a three-level system in place of the
    qubit."""
    lowering = np.diag([1.0, 1.0], k=-1).astype(complex)
    data = network_to_dict(single_qubit_network())
    data["systems"][0].update(
        dim=3, hamiltonian=_state_rows(np.zeros((3, 3))),
        couplings=[{"port": 0, "op": _state_rows(lowering), "kappa": 1.0}],
    )
    return network_from_dict(data)


@pytest.mark.parametrize("net, edit, argv, code, message", [
    (lambda: fabry_perot(1.0, 0.3), None, ["validate", "{net}"], 2,
     "FAIL NonConvergentLoop"),
    (_ideal_network, None, ["transfer", "--sweep", "2", "--net", "{net}"], 1,
     "schema error [SchemaError]: --sweep requires --random"),
    (_ideal_network, None, ["simulate", "{net}", "--t-final", "0.1",
                            "--initial", "nosuch"], 1,
     "schema error [SchemaError]: unknown initial state 'nosuch'"),
    (_qutrit_network, None, ["simulate", "{net}", "--t-final", "0.1",
                             "--observables", "X"], 1,
     "schema error [SchemaError]: Pauli 'X' on non-qubit system 'qubit'"),
    (_cavity, None, ["simulate", "{net}", "--t-final", "0.1"], 1,
     "schema error [SchemaError]: network has no local systems"),
    (_ideal_network, _set("blocks", 0, "element", "nosuch"),
     ["validate", "{net}"], 1, "schema error [PortCoverageGap]: block for unknown"),
    (_ideal_network, _set("systems", 0, "hamiltonian", [[[0, 0]]]),
     ["validate", "{net}"], 1, "schema error [DimensionMismatch]: hamiltonian of"),
    (_ideal_network,
     _set("systems", 0, "couplings", 0, "op", [[[0, 0]]]),
     ["validate", "{net}"], 1, "schema error [DimensionMismatch]: coupling operator"),
    (_ideal_network, _set("ports", 0, "z", "far"), ["validate", "{net}"], 1,
     "schema error [SchemaError]: z of port 0 is not finite"),
    (_ideal_network, _set("blocks", 0, "matrix", [[1]]),
     ["validate", "{net}"], 1, "schema error [SchemaError]: malformed complex matrix"),
    (_ideal_network,
     _set("systems", 0, "couplings", 0, "op", "sigma_w"), ["validate", "{net}"], 1,
     "schema error [SchemaError]: unknown operator name 'sigma_w'"),
], ids=["non-convergent-loop", "sweep-with-net", "unknown-initial",
        "pauli-on-qutrit", "simulate-without-systems", "unknown-element",
        "hamiltonian-shape", "coupling-shape", "z-not-a-number",
        "malformed-matrix", "unknown-operator"])
def test_input_faults_are_one_line(net, edit, argv, code, message, tmp_path,
                                   capsys):
    """Input faults and a non-convergent loop end in their exit code and
    one line that names them, never in a traceback: stderr for an error,
    validate's last stdout line for its FAIL verdict."""
    path = _edited_net_file(tmp_path, net(), edit or (lambda data: None))
    out = tmp_path / "out"
    assert main([a.format(net=path) for a in argv] + ["-o", str(out)]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    if code == EXIT_SCHEMA:
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(message)
    else:
        assert captured.err == ""
        assert captured.out.splitlines()[-1] == message
    assert not out.exists()


@pytest.mark.parametrize("edit, field, value", [
    (_set("ports", 0, "z", True), "z of port 0", True),
    (_set("connections", 0, "phase", False), "phase of connection 0->1", False),
    (lambda data: data["connections"][0].update(phase=None, distance=True),
     "distance of connection 0->1", True),
    (_set("systems", 0, "couplings", 0, "kappa", True),
     "kappa of the coupling on port 0", True),
    (_set("systems", 0, "couplings", 0, "phi", False),
     "phi of the coupling on port 0", False),
    (_set("systems", 0, "dim", True), "dim of 'qubit_a'", True),
    (_set("geometry", "k0", False), "geometry k0", False),
    (_set("geometry", "v_p", True), "geometry v_p", True),
    (_set("geometry", "kappa0", True), "geometry kappa0", True),
    (_set("blocks", 1, "matrix", 0, 2, [True, 0.0]), "block 'circ_a'", True),
    (_set("systems", 0, "hamiltonian", 1, 1, [0.0, False]),
     "hamiltonian of 'qubit_a'", False),
    (_set("systems", 0, "couplings", 0, "op", 1, 0, [True, 0.0]),
     "operator of the coupling on port 0", True),
], ids=["z", "phase", "distance", "kappa", "phi", "dim", "k0", "v_p", "kappa0",
        "block", "hamiltonian", "operator"])
def test_boolean_number_is_schema_error(edit, field, value, tmp_path, capsys):
    """A JSON true or false where the schema reads a number is one tagged
    schema error naming the field: each of these once read as 1 or 0, so
    contract exited 0 (dim true made a one-level system and a
    DimensionMismatch about its operators)."""
    path = _edited_net_file(tmp_path, _ideal_network(), edit)
    out = tmp_path / "out"
    assert main(["contract", str(path), "-o", str(out)]) == EXIT_SCHEMA
    assert capsys.readouterr().err == (
        f"schema error [SchemaError]: {field}: expected a number, "
        f"got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("value", ["false", "no", 2, 0, None])
def test_non_boolean_self_loop_flag_is_schema_error(value, tmp_path, capsys):
    """allow_self_loops is a JSON true or false (or absent): bool() once
    read "false", "no" and 2 as true and let a self loop through."""
    path = _edited_net_file(tmp_path, _ideal_network(),
                            lambda data: data.update(allow_self_loops=value))
    out = tmp_path / "out"
    assert main(["contract", str(path), "-o", str(out)]) == EXIT_SCHEMA
    assert capsys.readouterr().err == (
        "schema error [SchemaError]: allow_self_loops: expected true or "
        f"false, got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("value", [2.5, 1.999, "2", float("inf")])
def test_fractional_dim_is_schema_error(value, tmp_path, capsys):
    """A system's dimension is a whole number: int() once read "dim": 2.5
    as a qubit, and contract exited 0."""
    path = _edited_net_file(tmp_path, _ideal_network(),
                            _set("systems", 0, "dim", value))
    out = tmp_path / "out"
    assert main(["contract", str(path), "-o", str(out)]) == EXIT_SCHEMA
    assert capsys.readouterr().err == (
        "schema error [SchemaError]: dim of 'qubit_a': expected an integer, "
        f"got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("edit, field", [
    (_set("geometry", 1), "geometry"),
    (_set("systems", 0, 1), "systems[0]"),
    (_set("systems", 0, "couplings", 0, [0, 1]), "systems[0].couplings[0]"),
    (_set("ports", 3, "p3"), "ports[3]"),
    (_set("connections", 1, None), "connections[1]"),
    (_set("blocks", 0, 2.0), "blocks[0]"),
], ids=["geometry", "system", "coupling", "port", "connection", "block"])
def test_non_object_entry_is_schema_error(edit, field, tmp_path, capsys):
    """An entry the schema reads as a JSON object but that is not one is a
    tagged schema error naming it: "geometry": 1 and a number in systems
    once ended in an AttributeError traceback."""
    path = _edited_net_file(tmp_path, _ideal_network(), edit)
    out = tmp_path / "out"
    assert main(["contract", str(path), "-o", str(out)]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err.startswith(
        f"schema error [SchemaError]: {field}: expected an object, got ")
    assert not out.exists()


@pytest.mark.parametrize("net, edit, cond_max, message", [
    (_ideal_network, _set("blocks", 1, "matrix", 0, 0, [0.5, 0.0]),
     None, "[NonUnitaryBlock]: scattering block 'circ_a' is not unitary "
     "(max deviation 5.000e-01)"),
    (lambda: fabry_perot(1.0, 0.3), None, None,
     "[NonConvergentLoop]: loop is not weak: spectral radius of S@W is "
     "1.000000; the zero-delay contraction is physically invalid"),
    # a unitary network's 1 - SW is never near singular: COND_MAX = 1
    # rejects every loop
    (_ideal_network, None, 1.0,
     "[SingularMatrix]: 1 - S@W is numerically singular (cond ~ 8.055e+00)"),
], ids=["non-unitary-block", "lossless-cavity", "singular"])
def test_contract_physics_error_messages(net, edit, cond_max, message,
                                         tmp_path, capsys, monkeypatch):
    """contract's physics errors print these bytes, the raise sites
    formatting the numbers."""
    if cond_max is not None:
        monkeypatch.setattr(loopnet.contraction, "COND_MAX", cond_max)
    path = _edited_net_file(tmp_path, net(), edit or (lambda data: None))
    out = tmp_path / "out"
    assert main(["contract", str(path), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"physics error {message}\n"
    assert not out.exists()


def test_validate_prints_the_paths_it_checked(fast_net_file, monkeypatch,
                                              capsys):
    """One path walk per validate, and the printout lists its heaviest
    paths, all at or above the weight threshold."""
    import loopnet.cli
    import loopnet.paths

    walks = []

    def counting(*args, **kwargs):
        walks.append(kwargs.get("min_weight"))
        return enumerate_paths(*args, **kwargs)

    monkeypatch.setattr(loopnet.paths, "enumerate_paths", counting)
    monkeypatch.setattr(loopnet.cli, "enumerate_paths", counting)
    code = main(["validate", str(fast_net_file), "--weight-threshold",
                 "0.01"])
    out = capsys.readouterr().out
    assert code == 0
    assert walks == [0.01]
    weights = [float(line.split("|w|=")[1].split()[0])
               for line in out.splitlines() if "|w|=" in line]
    assert len(weights) == 10
    assert min(weights) >= 0.01
    assert weights == sorted(weights, reverse=True)


# -- contract -----------------------------------------------------------------


def test_contract_bare_network(tmp_path, capsys):
    net = single_qubit_network(kappa=2.0)
    path = tmp_path / "single.json"
    save_network(net, path)
    code = main(["contract", str(path), "-o", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "effective_model.json").read_text())
    # no connections: s_eff is the bare 1x1 block
    assert payload["s_eff"] == [[[1.0, 0.0]]]
    assert payload["l_eff_coeffs"] == [[[1.0, 0.0]]]
    assert payload["diagnostics"]["spectral_radius_SW"] == 0.0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "contract"
    assert manifest["outputs"] == ["effective_model.json"]
    assert "input_sha256" in manifest


# -- paths --------------------------------------------------------------------


def test_paths_contains_named_routes(fast_net_file, tmp_path):
    code = main([
        "paths", str(fast_net_file), "--max-order", "5",
        "--min-weight", "1e-3", "-o", str(tmp_path),
    ])
    assert code == 0
    header, rows = read_csv(tmp_path / "paths.csv")
    assert header == ["path", "n", "re_w", "im_w", "abs_w", "tau"]
    by_path = {r[0]: r for r in rows}
    # direct transmission and the two dominant loop corrections
    for route in ("0>2>5>7", "0>2>4>1>0", "0>2>4>2>5>7"):
        assert route in by_path
    w_direct = float(by_path["0>2>5>7"][4])
    assert w_direct == pytest.approx(0.9604, abs=1e-3)
    # sorted by descending weight
    weights = [float(r[4]) for r in rows]
    assert weights == sorted(weights, reverse=True)


def test_paths_beyond_max_order_is_schema_error(tmp_path, capsys):
    """A walk deeper than paths.MAX_ORDER traversals is refused with one
    line, where an unpruned cavity path once recursed into a traceback."""
    net = tmp_path / "fp.json"
    save_network(fabry_perot(0.9, 0.3), net)
    out = tmp_path / "out"
    assert main(["paths", str(net), "--max-order", "1500", "--min-weight",
                 "0", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("schema error [InvalidParameter]: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


# -- simulate -----------------------------------------------------------------


def test_simulate_trajectory(ideal_net_file, tmp_path):
    code = main([
        "simulate", str(ideal_net_file), "--t-final", "2.0",
        "--observables", "P1,ZI", "--initial", "up-down",
        "-o", str(tmp_path),
    ])
    assert code == 0
    header, rows = read_csv(tmp_path / "trajectory.csv")
    assert header == ["t", "re_P1", "im_P1", "re_ZI", "im_ZI"]
    t_last = float(rows[-1][0])
    p1_last = float(rows[-1][1])
    assert t_last == pytest.approx(2.0)
    # cascaded channel: the sender decays autonomously at rate kappa_a
    assert p1_last == pytest.approx(np.exp(-2.0), abs=1e-8)


def test_simulate_bad_observable(ideal_net_file, capsys):
    assert main([
        "simulate", str(ideal_net_file), "--t-final", "1.0",
        "--observables", "Q9",
    ]) == 1


@pytest.mark.parametrize("option", [
    ["--initial", "basis:4"],
    ["--initial", "basis:-1"],
    ["--observables", "P4"],
])
def test_simulate_index_out_of_range_is_schema_error(ideal_net_file, option,
                                                     tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", str(ideal_net_file), "--t-final", "0.1",
                 *option, "-o", str(out)]) == 1
    assert "schema error" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_repeated_observable_is_schema_error(ideal_net_file,
                                                      tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", str(ideal_net_file), "--t-final", "0.1",
                 "--observables", "P0,ZZ,P0", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "schema error [SchemaError]" in err and "'P0'" in err
    assert not out.exists()


def _state_rows(rho):
    return [[[z.real, z.imag] for z in row] for row in rho]


@pytest.mark.parametrize("entry, value, message", [
    ((0, 1), 1e-3, "not Hermitian"),
    ((2, 2), float("nan"), "non-finite"),
    ((1, 1), 2.0, "trace 3,"),
])
def test_simulate_bad_initial_state_is_schema_error(ideal_net_file, tmp_path,
                                                    capsys, entry, value,
                                                    message):
    """An --initial state that is not a density matrix is a schema error
    that names the defect, not a physics error."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    rho[entry] = value
    state = tmp_path / "state.json"
    state.write_text(json.dumps(_state_rows(rho)))
    out = tmp_path / "out"
    assert main(["simulate", str(ideal_net_file), "--t-final", "0.1",
                 "--initial", str(state), "-o", str(out)]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "schema error [InvalidParameter]" in err and message in err
    assert not out.exists()


def test_simulate_wrong_shape_initial_state_is_schema_error(ideal_net_file,
                                                           tmp_path, capsys):
    """integrate rejects an --initial matrix of the wrong shape, naming
    both shapes, before any output is written."""
    state = tmp_path / "state.json"
    state.write_text(json.dumps(_state_rows(np.eye(3) / 3)))
    out = tmp_path / "out"
    assert main(["simulate", str(ideal_net_file), "--t-final", "0.1",
                 "--initial", str(state), "-o", str(out)]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "schema error [InvalidParameter]" in err
    assert "(3, 3)" in err and "(4, 4)" in err
    assert not out.exists()


def test_simulate_past_the_stability_edge_is_physics_error(tmp_path, capsys):
    """A dt whose RK4 step leaves the physical range exits 2 and names the
    step, instead of writing an unphysical trajectory and exiting 0."""
    net = tmp_path / "net.json"
    save_network(random_imperfect_network(0.1, 2.0, 7), net)
    out = tmp_path / "out"
    assert main(["simulate", str(net), "--t-final", "13.79", "--dt", "1.379",
                 "--initial", "excited", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "physics error [StepUnstable]: drift at step 0:" in err
    assert "Traceback" not in err
    assert not out.exists()


# -- output paths ---------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["paths", "{net}"],
    ["contract", "{net}"],
    ["simulate", "{net}", "--t-final", "0.1"],
    ["transfer", "--random", "--swap-roles", "--T", "1", "--dt", "5e-3"],
    ["transfer", "--random", "--swap-roles", "--sweep", "2", "--T", "1",
     "--dt", "5e-3"],
], ids=["paths", "contract", "simulate", "transfer", "sweep"])
@pytest.mark.parametrize("outdir", ["{file}", "{file}/sub"])
@pytest.mark.filterwarnings("ignore:kappa_b.*incomplete:UserWarning")
def test_unusable_output_dir_is_exit_1(argv, outdir, ideal_net_file, tmp_path,
                                       capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    argv = [a.format(net=ideal_net_file) for a in argv]
    assert main(argv + ["-o", outdir.format(file=taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error [")
    assert taken.read_text() == "not a directory\n"


# -- transfer -----------------------------------------------------------------


def test_cached_parser_matches_a_fresh_one(fast_net_file, tmp_path, capsys):
    out = tmp_path / "out"
    runs = [
        ["validate"],  # no network file: argparse's usage error
        ["--help"],
        ["validate", str(fast_net_file), "-o", str(out)],
        ["transfer", "--random", "--seed", "3", "--T", "4", "--dt", "1e-2",
         "-o", str(out)],
    ]

    def run(argv):
        out.mkdir(exist_ok=True)
        code = main(argv)
        captured = capsys.readouterr()
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        for f in out.iterdir():
            f.unlink()
        return code, captured.out, captured.err, files

    fresh = []
    for argv in runs:
        build_parser.cache_clear()
        fresh.append(run(argv))
    build_parser.cache_clear()
    cached = [run(argv) for argv in runs]
    assert build_parser.cache_info().misses == 1
    assert [r[0] for r in cached] == [EXIT_SCHEMA, 0, 0, 0]
    assert cached == fresh
    assert "usage: loopnet" in cached[0][2] and "usage: loopnet" in cached[1][1]
    assert "PASS" in cached[2][1] and "manifest.json" in cached[3][3]


def test_cached_parser_calls_the_current_handler(fast_net_file, monkeypatch):
    # the handler is looked up per call, so rebinding cmd_validate after
    # the parser is built (as a tracer does) still takes effect
    build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: seen.append(args.net) or 0)
    assert main(["validate", str(fast_net_file)]) == 0
    assert seen == [str(fast_net_file)]


def test_transfer_requires_exactly_one_source(capsys):
    assert main(["transfer"]) == 1
    assert main(["transfer", "--net", "x.json", "--random"]) == 1


def test_transfer_random_deterministic(tmp_path, capsys):
    args = ["transfer", "--random", "--seed", "7", "--eps", "0.1",
            "--phase", "1.0", "--T", "10.0", "--dt", "2e-3"]
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    d1.mkdir()
    d2.mkdir()
    assert main(args + ["-o", str(d1)]) == 0
    out1 = capsys.readouterr().out
    assert main(args + ["-o", str(d2)]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert out1.startswith("success=")
    names = sorted(p.name for p in d1.iterdir())
    assert names == ["controls.csv", "manifest.json", "network.json",
                     "trajectory.csv"]
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    manifest = json.loads((d1 / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert not any("time" in k or "date" in k for k in manifest)


def test_transfer_from_file(ideal_net_file, tmp_path, capsys):
    code = main([
        "transfer", "--net", str(ideal_net_file), "--T", "10.0",
        "--dt", "2e-3", "-o", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    success = float(out.split("success=")[1].split()[0])
    assert success > 0.99
    header, _ = read_csv(tmp_path / "controls.csv")
    assert header == ["t", "kappa_b", "h_bz"]


def test_transfer_wrong_direction_suggests_swap(tmp_path, capsys):
    # reversing the circulator sense makes a -> b the isolated direction
    net = two_qubit_network(ideal_circulator().T, ideal_circulator().T)
    path = tmp_path / "reversed.json"
    save_network(net, path)
    code = main(["transfer", "--net", str(path), "-o", str(tmp_path)])
    assert code == 2
    assert "--swap-roles" in capsys.readouterr().err
    code = main(["transfer", "--net", str(path), "--swap-roles",
                 "--T", "10.0", "--dt", "2e-3", "-o", str(tmp_path)])
    assert code == 0


def test_transfer_one_qubit_network_is_physics_error(tmp_path, capsys):
    net = tmp_path / "single.json"
    save_network(single_qubit_network(), net)
    out = tmp_path / "out"
    assert main(["transfer", "--net", str(net), "-o", str(out)]) == 2
    assert "physics error [NotTwoQubitNetwork]" in capsys.readouterr().err
    assert not any(out.glob("*"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_transfer_divergent_integration_is_physics_error(tmp_path, capsys):
    # kappa_b(0) = 1e8 kappa0 at dt = 1e-3: the first Bloch RK4 steps
    # amplify, so the Bloch state leaves |y| <= 1 and the block check
    # raises; reported without a stray numpy warning on the way.  T = 2 is
    # short: the pulse is incomplete
    with pytest.warns(UserWarning, match="kappa_b.*incomplete"):
        code = main(["transfer", "--random", "--swap-roles", "--ratio-db",
                     "80", "--T", "2", "-o", str(tmp_path)])
    assert code == 2
    assert "StepUnstable" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("ignore:kappa_b.*incomplete:UserWarning")
@pytest.mark.parametrize("eps", ["1e15", "1e20", "1e300",
                                 "1.7976931348623157e+308"])
def test_transfer_huge_eps_builds_unitary_circulators(eps, tmp_path, capsys):
    # exp(i eps H) is unitary for every finite eps: no overflow warning and
    # no block of the library's own making rejected as non-unitary or
    # non-finite.  At the largest float, seed 0 draws an H whose eigh gives
    # |lambda| a ulp above 1, so eps * lambda overflows
    for seed in ("0", "3"):
        code = main(["transfer", "--random", "--swap-roles", "--seed", seed,
                     "--T", "12", "--dt", "2e-3", "--eps", eps,
                     "-o", str(tmp_path / seed)])
        err = capsys.readouterr().err
        assert code in (0, 2)
        assert "Traceback" not in err and "NonUnitaryBlock" not in err


def test_transfer_runs_without_scipy(tmp_path):
    # scipy is a test dependency only
    src = str(Path(loopnet.__file__).parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = ("import sys; sys.modules['scipy'] = None; "
            "from loopnet.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "transfer", "--random", "--swap-roles",
         "--T", "5", "--dt", "5e-3", "-o", str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_transfer_overflowing_ratio_db_is_physics_error(tmp_path, capsys):
    # kappa0 * 10^(dB/10) overflows a float: no flow can start there
    code = main(["transfer", "--random", "--ratio-db", "1e300", "--T", "1",
                 "-o", str(tmp_path)])
    assert code == 2
    assert "StepUnstable" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, name", [
    # kappa_b(0) = 1e50 kappa0: R0 + Rz = 2 kappa0 eta_a is below roundoff
    (["--ratio-db", "500", "--T", "20"], "ratio_db"),
    # kappa0 kappa_b overflows
    (["--kappa0", "1e200", "--T", "2e-199", "--dt", "1e-201"], "kappa0"),
])
def test_transfer_receiver_start_beyond_double_precision(argv, name, tmp_path,
                                                          capsys):
    code = main(["transfer", "--random", "--swap-roles", *argv,
                 "-o", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("physics error [StepUnstable]")
    assert len(err.splitlines()) == 1 and name in err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.filterwarnings("error")
def test_transfer_underflowing_ratio_db_is_physics_error(tmp_path, capsys):
    # kappa0 * 10^(dB/10) underflows to 0: no divide warning, no all-zero
    # schedule written with exit 0
    code = main(["transfer", "--random", "--ratio-db=-4000", "--T", "1",
                 "-o", str(tmp_path)])
    assert code == 2
    assert "StepUnstable" in capsys.readouterr().err
    assert not (tmp_path / "controls.csv").exists()


@pytest.mark.parametrize("argv", [
    ["transfer", "--random", "--T", "1e300", "--dt", "1e-300"],
    ["transfer", "--random", "--T", "1e10", "--dt", "1e-10"],
    ["transfer", "--random", "--sweep", "2", "--T", "1e10", "--dt", "1e-10"],
    ["simulate", "NET", "--t-final", "1e10", "--dt", "1e-10"],
])
def test_unbounded_step_count_is_input_error(argv, tmp_path, capsys):
    # the step count is bounded before anything is allocated
    net = tmp_path / "net.json"
    save_network(two_qubit_network(ideal_circulator(), ideal_circulator()), net)
    argv = [str(net) if a == "NET" else a for a in argv]
    start = time.perf_counter()
    code = main(argv + ["-o", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["transfer", "--random", "--dt", "0"],
    ["transfer", "--random", "--T", "nan"],
    ["transfer", "--random", "--kappa0", "-1"],
    ["transfer", "--random", "--sweep", "2", "--threads", "0"],
    ["simulate", "net.json", "--t-final", "1", "--dt", "0"],
    ["simulate", "net.json", "--t-final", "inf"],
    ["transfer", "--random", "--dt", "fast"],
    ["transfer", "--random", "--eps", "nan"],
    ["transfer", "--random", "--eps", "inf"],
    ["transfer", "--random", "--phase", "nan"],
    ["transfer", "--random", "--ratio-db", "nan"],
    ["transfer", "--random", "--seed", "-1"],
    ["transfer", "--random", "--sweep", "-2"],
    ["validate", "net.json", "--weight-threshold", "0"],
    ["validate", "net.json", "--weight-threshold", "nan"],
    ["validate", "net.json", "--tau-min", "nan"],
    ["paths", "net.json", "--min-weight", "nan"],
    ["paths", "net.json", "--tau-min", "-1"],
    ["paths", "net.json", "--max-order", "-1"],
])
def test_bad_numeric_argument_is_usage_error(argv, tmp_path, capsys):
    assert main(argv + ["-o", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error: argument" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


_WITHOUT_WEAK_LOOP_FLAGS = [
    ["contract", "net.json"],
    ["simulate", "net.json", "--t-final", "1"],
    ["transfer", "--random"],
]


@pytest.mark.parametrize("argv, flag", [
    *(pytest.param(argv, flag, id=f"argv{i}-{flag}")
      for flag in ("--tol-unitary", "--weight-threshold", "--tau-min")
      for i, argv in enumerate(_WITHOUT_WEAK_LOOP_FLAGS)),
    # assembly rejects a block at network.TOL_UNITARY, the one tolerance
    pytest.param(["validate", "net.json"], "--tol-unitary",
                 id="validate---tol-unitary"),
])
def test_flags_without_effect_are_rejected(argv, flag, tmp_path, capsys):
    assert main(argv + [flag, "0.1", "-o", str(tmp_path)]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_write_csv_matches_per_value_format(tmp_path):
    """Row-format streaming writes the bytes of a per-value "%.17g" join."""
    header = ["path", "x", "y", "error"]
    columns = [
        ["0>1", "2>3>4", "", "5"],
        [0.1, np.nan, -1e-300, 2.0 / 3.0],
        np.array([1.0, np.inf, 0.0, -0.0]),
        ["", "StepUnstable", "", ""],
    ]
    lines = [",".join(header)] + [
        ",".join(v if isinstance(v, str) else "%.17g" % v for v in row)
        for row in zip(*columns)
    ]
    write_csv(tmp_path / "mixed.csv", header, columns)
    assert (tmp_path / "mixed.csv").read_bytes() == (
        "\n".join(lines) + "\n"
    ).encode()
    write_csv(tmp_path / "empty.csv", header, [[], [], np.array([]), []])
    assert (tmp_path / "empty.csv").read_bytes() == b"path,x,y,error\n"


def test_transfer_sweep(tmp_path, capsys):
    code = main([
        "transfer", "--random", "--sweep", "3", "--threads", "2",
        "--seed", "5", "--eps", "0.1", "--phase", "1.0",
        "--T", "10.0", "--dt", "2e-3", "-o", str(tmp_path),
    ])
    assert code == 0
    header, rows = read_csv(tmp_path / "sweep.csv")
    assert header == ["seed", "success", "dark_residual", "cos_delta",
                      "swapped", "error"]
    assert [float(r[0]) for r in rows] == [5.0, 6.0, 7.0]
    for r in rows:
        if not r[5]:  # no error recorded
            assert 0.0 <= float(r[1]) <= 1.0


@pytest.mark.filterwarnings("ignore:kappa_b.*incomplete:UserWarning")
def test_transfer_sweep_records_failed_seeds(tmp_path, capsys):
    # at eps = 2.5 seeds 1 and 2 favour b -> a; without --swap-roles their
    # rows carry the error and NaN values, and the sweep exits 2
    code = main(["transfer", "--random", "--sweep", "3", "--seed", "0",
                 "--eps", "2.5", "--phase", "1.0", "--T", "2", "--dt", "5e-3",
                 "-o", str(tmp_path)])
    assert code == 2
    _, rows = read_csv(tmp_path / "sweep.csv")
    assert [r[0] for r in rows] == ["0", "1", "2"]
    for r in rows[1:]:
        assert r[1:] == ["nan"] * 4 + ["WrongDirectionality"]
    assert "(1/3 seeds succeeded)" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:kappa_b.*incomplete:UserWarning")
def test_sweep_manifest_records_swap_roles(tmp_path, capsys):
    # the same seeds give other rows and exits with --swap-roles, so the
    # manifest must tell the two runs apart
    argv = ["transfer", "--random", "--sweep", "3", "--seed", "0",
            "--eps", "2.5", "--phase", "1.0", "--T", "2", "--dt", "5e-3"]
    parameters = {}
    for swap, code in ((False, 2), (True, 0)):
        out = tmp_path / f"swap{swap:d}"
        assert main(argv + ["--swap-roles"] * swap + ["-o", str(out)]) == code
        manifest = json.loads((out / "manifest.json").read_text())
        parameters[swap] = manifest["parameters"]
        assert parameters[swap].pop("swap_roles") is swap
    assert parameters[False] == parameters[True]


@pytest.mark.filterwarnings("ignore:kappa_b.*incomplete:UserWarning")
def test_cli_sweep_matches_library_sweep(tmp_path, capsys):
    """The success column of `transfer --random --swap-roles --sweep` equals
    transfer_sweep on the same seeds' oriented coefficients, exactly; at
    eps = 2.5 seeds 1 and 2 are swapped and seeds 0 and 3 are not."""
    code = main(["transfer", "--random", "--swap-roles", "--sweep", "4",
                 "--seed", "0", "--eps", "2.5", "--phase", "1.0",
                 "--T", "10.0", "--dt", "2e-3", "-o", str(tmp_path)])
    assert code == 0
    _, rows = read_csv(tmp_path / "sweep.csv")
    assert [r[4] for r in rows] == ["0", "1", "1", "0"]
    coeffs = [oriented(transfer_coefficients(
        random_imperfect_network(2.5, 1.0, seed))) for seed in range(4)]
    summaries = transfer_sweep(coeffs, 1.0, ratio_db=25.0, T=10.0, dt=2e-3)
    assert [float(r[1]) for r in rows] == [s.success for s in summaries]


def test_network_round_trips_through_cli_output(tmp_path, capsys):
    main(["transfer", "--random", "--seed", "3", "--T", "10.0",
          "--dt", "2e-3", "-o", str(tmp_path)])
    capsys.readouterr()
    from loopnet import load_network

    net = load_network(tmp_path / "network.json")
    assert network_to_dict(net) == json.loads(
        (tmp_path / "network.json").read_text()
    )


@pytest.mark.parametrize("argv", [
    ["contract", "{net}"],
    ["paths", "{net}"],
    ["simulate", "{net}", "--t-final", "0.5", "--dt", "1e-2",
     "--observables", "P0,ZI"],
    ["transfer", "--random", "--seed", "3", "--T", "2", "--dt", "5e-3"],
    ["transfer", "--net", "{net}", "--T", "2", "--dt", "5e-3"],
    ["transfer", "--random", "--sweep", "2", "--T", "2", "--dt", "5e-3"],
], ids=["contract", "paths", "simulate", "transfer-random", "transfer-net",
        "transfer-sweep"])
@pytest.mark.filterwarnings("ignore:kappa_b.*incomplete:UserWarning")
def test_json_outputs_keep_the_json_dumps_layout(argv, ideal_net_file,
                                                 tmp_path, capsys):
    """Every JSON file a command writes is the bytes json.dumps(indent=2)
    gives for its own content, keys sorted except in network.json."""
    out = tmp_path / "out"
    argv = [a.format(net=ideal_net_file) for a in argv] + ["-o", str(out)]
    assert main(argv) == 0
    written = sorted(out.glob("*.json"))
    assert "manifest.json" in [p.name for p in written]
    for path in written:
        text = path.read_text()
        layout = json.dumps(json.loads(text), indent=2,
                            sort_keys=path.name != "network.json")
        assert text == layout + "\n", path.name
