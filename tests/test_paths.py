"""Path enumeration, series convergence and the weak-loop validity check."""

import gc

import numpy as np
import pytest

from loopnet import (
    Geometry,
    contract_network,
    datasheet_circulator,
    enumerate_paths,
    ideal_circulator,
    two_qubit_network,
    validity_check,
)
from loopnet import paths
from loopnet.errors import InvalidParameter, MissingGeometry, PathExplosion
from loopnet.network import (
    Connection,
    Network,
    assemble_S,
    assemble_W,
    external_ports,
)
from loopnet.paths import MAX_ORDER

from conftest import fabry_perot


def test_weights_recompute_from_sw_entries():
    net = two_qubit_network(datasheet_circulator(), datasheet_circulator())
    sw = assemble_S(net) @ assemble_W(net)
    records = enumerate_paths(net, max_order=5, min_weight=1e-4)
    assert records
    for r in records:
        seq = r.port_sequence
        if r.from_source:
            w = 1.0 + 0.0j
            hops = zip(seq[:-1], seq[1:])
        else:
            w = assemble_S(net)[seq[1], seq[0]]
            hops = zip(seq[1:-1], seq[2:])
        for k, j in hops:
            w = w * sw[j, k]
        assert abs(w - r.weight) < 1e-14


def test_delay_additivity_and_prefix_weights():
    net = two_qubit_network(ideal_circulator(), ideal_circulator())
    z = [p.position_z for p in net.ports]
    records = enumerate_paths(net, max_order=6, min_weight=1e-6)
    by_seq = {r.port_sequence: r for r in records}
    for r in records:
        # delays add hop by hop
        expect = 0.0 if r.from_source else abs(z[r.port_sequence[1]]
                                               - z[r.port_sequence[0]])
        start = 1 if r.from_source else 2
        for k, j in zip(r.port_sequence[start - 1:-1],
                        r.port_sequence[start:]):
            expect += abs(z[j] - z[k])
        assert np.isclose(r.delay, expect)
        # every prefix is itself recorded, and weights multiply
        if len(r.port_sequence) > start + 1:
            prefix = by_seq.get(r.port_sequence[:-1])
            if prefix is not None:
                sw = assemble_S(net) @ assemble_W(net)
                hop = sw[r.port_sequence[-1], r.port_sequence[-2]]
                assert abs(prefix.weight * hop - r.weight) < 1e-14


def test_path_sum_converges_to_s_eff():
    net = fabry_perot(0.5, 0.7)
    model = contract_network(net)
    records = enumerate_paths(net, max_order=80, min_weight=1e-12)
    sw = assemble_S(net) @ assemble_W(net)
    rho = np.abs(np.linalg.eigvals(sw)).max()
    # transmission 0 -> 3 and reflection 0 -> 0
    for (src, dst), s_eff_entry in (((0, 3), model.s_eff[1, 0]),
                                    ((0, 0), model.s_eff[0, 0])):
        total = sum(
            r.weight
            for r in records
            if not r.from_source
            and r.port_sequence[0] == src
            and r.port_sequence[-1] == dst
        )
        bound = 2.0 * rho**41 / (1.0 - rho) + 1e-9
        assert abs(total - s_eff_entry) < bound


def test_source_paths_start_with_unit_weight():
    net = two_qubit_network(ideal_circulator(), ideal_circulator())
    sw = assemble_S(net) @ assemble_W(net)
    records = [r for r in enumerate_paths(net, 3, 1e-6) if r.from_source]
    one_hop = [r for r in records if len(r.port_sequence) == 2]
    assert one_hop
    for r in one_hop:
        k, j = r.port_sequence
        assert abs(r.weight - sw[j, k]) < 1e-15


def test_record_cap_raises(monkeypatch):
    net = two_qubit_network(datasheet_circulator(), datasheet_circulator())
    monkeypatch.setattr(paths, "RECORD_CAP", 50)
    with pytest.raises(PathExplosion):
        enumerate_paths(net, max_order=40, min_weight=1e-12)


@pytest.mark.parametrize("net", [
    two_qubit_network(datasheet_circulator(), datasheet_circulator()),
    fabry_perot(0.5, 0.7),
], ids=["datasheet", "fabry_perot"])
def test_path_sums_are_the_series_terms(net):
    """Without pruning, the records summed by (traversals n, first port,
    last port) are the terms of the multi-traversal series: (SW)^n for
    source ports (n >= 1) and (SW)^n S for external inputs.  A dropped or a
    doubled path shows as a wrong sum."""
    s, w = assemble_S(net), assemble_W(net)
    sums = {}
    for r in enumerate_paths(net, max_order=4, min_weight=0.0):
        key = (r.from_source, r.n_traversals, r.port_sequence[0],
               r.port_sequence[-1])
        sums[key] = sums.get(key, 0.0) + r.weight
    sources = sorted({p for sys in net.systems for p in sys.couplings})
    families = [(True, sources, np.eye(net.n_ports)),
                (False, external_ports(w)[0], s)]
    for from_source, starts, entry in families:
        for n in range(from_source, 5):
            term = np.linalg.matrix_power(s @ w, n) @ entry
            got = [[sums.pop((from_source, n, k, j), 0.0) for k in starts]
                   for j in range(net.n_ports)]
            np.testing.assert_allclose(got, term[:, starts], rtol=0,
                                       atol=1e-14)
    assert not sums  # no record outside the two families


def test_walk_leaves_no_reference_cycle():
    # the recursive walk refers to itself; left as a cycle, it would keep
    # every record alive after the caller drops them, until a full collection
    net = two_qubit_network(datasheet_circulator(), datasheet_circulator())
    gc.collect()
    gc.disable()
    try:
        enumerate_paths(net, max_order=6, min_weight=1e-4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_paths_refuses_walks_deeper_than_max_order(monkeypatch):
    net = fabry_perot(0.9, 0.3)
    assert len(enumerate_paths(net, MAX_ORDER, 0.0)) == 804

    def no_walk(network):
        raise AssertionError("assembled S for a refused walk")

    monkeypatch.setattr(paths, "assemble_S", no_walk)
    with pytest.raises(InvalidParameter, match="max_order <= 200"):
        enumerate_paths(net, MAX_ORDER + 1, 0.0)


def test_validity_check_flags_slow_heavy_paths():
    # kappa = 1 and unit line length: the direct path has delay > 1/kappa
    # with weight ~0.96, so the zero-delay contraction is not trustworthy
    net = two_qubit_network(datasheet_circulator(), datasheet_circulator())
    report = validity_check(net)
    assert not report.valid
    assert report.max_violating_weight > 0.9
    assert report.tau_min == 1.0
    assert report.spectral_radius_SW < 1.0

    # fast line (realistic phase velocity): all delays are negligible
    fast = two_qubit_network(
        datasheet_circulator(), datasheet_circulator(),
        kappa_a=1e6, kappa_b=1e6,
        geometry=Geometry(k0=0.0, v_p=3e8, kappa0=1e6),
    )
    fast_report = validity_check(fast)
    assert fast_report.valid
    assert fast_report.tau_min == 1e-6
    assert fast_report.n_cut > 1


def test_validity_check_requires_geometry():
    net = fabry_perot(0.5, 0.3)
    stripped = Network(
        [type(p)(p.id, p.element_id, None) for p in net.ports],
        net.blocks,
        connections=[Connection(1, 2, phase=0.3),
                     Connection(2, 1, phase=0.3)],
    )
    with pytest.raises(MissingGeometry):
        validity_check(stripped)


def test_weight_threshold_controls_violations():
    net = two_qubit_network(datasheet_circulator(), datasheet_circulator())
    strict = validity_check(net, weight_threshold=1e-4)
    loose = validity_check(net, weight_threshold=0.999)
    assert len(strict.violating_paths) > len(loose.violating_paths)
    assert loose.valid


@pytest.mark.parametrize("kwargs", [
    {"weight_threshold": 0.0},
    {"weight_threshold": float("nan")},
    {"weight_threshold": float("inf")},
    {"tau_min": float("nan")},
    {"tau_min": -1.0},
])
def test_validity_check_rejects_bad_thresholds(kwargs):
    with pytest.raises(InvalidParameter):
        validity_check(fabry_perot(0.5, 0.3), **kwargs)


@pytest.mark.parametrize("max_order, min_weight", [
    (-1, 1e-3), (4, float("nan")), (4, float("inf")), (4, -1.0),
])
def test_enumerate_paths_rejects_bad_arguments(max_order, min_weight):
    with pytest.raises(InvalidParameter):
        enumerate_paths(fabry_perot(0.5, 0.3), max_order, min_weight)
