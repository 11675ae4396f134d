"""Command-line interface: exit codes, artifacts, determinism."""

import json

import numpy as np
import pytest

from loopnet import (
    Geometry,
    datasheet_circulator,
    ideal_circulator,
    network_to_dict,
    save_network,
    two_qubit_network,
)
from loopnet.cli import main

from conftest import single_qubit_network


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


def test_missing_file_is_schema_error(capsys):
    assert main(["validate", "/nonexistent/net.json"]) == 1


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


# -- transfer -----------------------------------------------------------------


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


def test_transfer_divergent_integration_is_physics_error(tmp_path, capsys):
    # kappa_b(0) = 1e8 kappa0 at dt = 1e-3: the RK4 control flow diverges
    code = main(["transfer", "--random", "--swap-roles", "--ratio-db", "80",
                 "--T", "2", "-o", str(tmp_path)])
    assert code == 2
    assert "StepUnstable" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("argv", [
    ["transfer", "--random", "--dt", "0"],
    ["transfer", "--random", "--T", "nan"],
    ["transfer", "--random", "--kappa0", "-1"],
    ["transfer", "--random", "--sweep", "2", "--threads", "0"],
    ["simulate", "net.json", "--t-final", "1", "--dt", "0"],
    ["simulate", "net.json", "--t-final", "inf"],
    ["transfer", "--random", "--dt", "fast"],
])
def test_bad_numeric_argument_is_usage_error(argv, tmp_path, capsys):
    assert main(argv + ["-o", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error: argument" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


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


def test_network_round_trips_through_cli_output(tmp_path, capsys):
    main(["transfer", "--random", "--seed", "3", "--T", "10.0",
          "--dt", "2e-3", "-o", str(tmp_path)])
    capsys.readouterr()
    from loopnet import load_network

    net = load_network(tmp_path / "network.json")
    assert network_to_dict(net) == json.loads(
        (tmp_path / "network.json").read_text()
    )
