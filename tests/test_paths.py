"""Path enumeration, series convergence and the weak-loop validity check."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopnet import (
    Coupling,
    Geometry,
    LocalSystem,
    Port,
    ScatteringBlock,
    contract_network,
    datasheet_circulator,
    enumerate_paths,
    ideal_circulator,
    save_network,
    two_qubit_network,
    validity_check,
)
from loopnet import paths
from loopnet.cli import main
from loopnet.errors import InvalidParameter, MissingGeometry, PathExplosion
from loopnet.network import (
    SIGMA_MINUS,
    Connection,
    Network,
    assemble_S,
    assemble_W,
    external_ports,
)
from loopnet.paths import MAX_ORDER, PathRecord, violates

from conftest import circulator_chain, fabry_perot, mirror_block, random_unitary


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


@pytest.mark.parametrize("with_z", [False, True])
def test_delays_are_connection_lengths(with_z):
    """A traversal takes Network.connection_distance / v_p of the
    connection it crosses, the explicit distance before port positions.
    With distance 5 and no port z this cavity once had every delay 0 and
    passed validity_check; with z = 0 and 1 as well, its delays were 1, 2,
    3, ... instead of 5, 10, 15, ..."""
    cavity = fabry_perot(0.9, 0.0)
    net = Network(
        [type(p)(p.id, p.element_id, p.position_z if with_z else None)
         for p in cavity.ports],
        cavity.blocks,
        connections=[Connection(1, 2, distance=5.0),
                     Connection(2, 1, distance=5.0)],
    )
    records = enumerate_paths(net, max_order=6, min_weight=1e-3)
    assert {r.n_traversals for r in records} == set(range(7))
    for r in records:
        assert r.delay == 5.0 * r.n_traversals
    report = validity_check(net, tau_min=0.5)
    assert not report.valid
    assert report.n_violating == validity_check(
        cavity, tau_min=0.5).n_violating == 66


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
                (False, external_ports(w), s)]
    for from_source, starts, entry in families:
        for n in range(from_source, 5):
            term = np.linalg.matrix_power(s @ w, n) @ entry
            got = [[sums.pop((from_source, n, k, j), 0.0) for k in starts]
                   for j in range(net.n_ports)]
            np.testing.assert_allclose(got, term[:, starts], rtol=0,
                                       atol=1e-14)
    assert not sums  # no record outside the two families


def test_walk_leaves_no_reference_cycle():
    # the walk runs on an explicit stack; a walk that left a reference
    # cycle, as a recursive closure that refers to itself does, would keep
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
    assert fast_report.n_depth_cut == 0


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
    assert strict.n_violating > loose.n_violating
    assert loose.valid


@pytest.mark.parametrize("circulator", [ideal_circulator,
                                        datasheet_circulator])
def test_report_summarizes_the_walk(circulator, monkeypatch):
    """The report's counts and ten heaviest paths are those of the full
    record list of the same walk, heaviest first.  The ideal pair's 13
    paths all have |w| = 1, so its ten are decided by walk order alone."""
    net = two_qubit_network(circulator(), circulator())
    walks = []
    walk = paths._walk

    def recording(network, s, w, sw, max_order, min_weight):
        walks.append((max_order, min_weight))
        return walk(network, s, w, sw, max_order, min_weight)

    monkeypatch.setattr(paths, "_walk", recording)
    report = validity_check(net, weight_threshold=1e-4)
    records = enumerate_paths(net, *walks[0])
    assert report.n_paths == len(records)
    assert report.n_violating == sum(
        violates(r, report.tau_min, report.weight_threshold) for r in records)
    assert report.heaviest == sorted(records, key=lambda r: -abs(r.weight))[:10]


def test_validity_check_memory_does_not_grow_with_paths():
    """At threshold 1e-7 the datasheet pair has 33,775 paths, which took a
    12 MB peak when the report kept every one; the walk holds only its
    stack."""
    net = two_qubit_network(datasheet_circulator(), datasheet_circulator())
    tracemalloc.start()
    try:
        report = validity_check(net, weight_threshold=1e-7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_paths == 33_775
    assert peak <= 1_000_000


def test_validity_check_walks_long_cascades(tmp_path, capsys):
    """rho(SW) = 0.418 on this chain of 16 circulators, and a walk stopped
    at a depth from rho, ceil(log(0.05) / log rho) = 4 traversals, sees 188
    paths, none of them slow.  The cascade from one qubit to the other
    crosses the chain, and 68 heavy paths take at least tau_min = 10 to do
    so."""
    net = circulator_chain(0, 16, kappa=0.1, v_p=1.0)
    report = validity_check(net)
    assert report.spectral_radius_SW < 0.42
    assert (report.n_paths, report.n_violating, report.n_depth_cut) == (
        345, 68, 0)
    assert not report.valid
    assert report.max_violating_weight > 0.9
    assert report.n_paths == len(enumerate_paths(net, MAX_ORDER, 0.05))

    path = tmp_path / "chain.json"
    save_network(net, path)
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert "n_paths            = 345\n" in out
    assert out.splitlines()[-1].startswith("FAIL WeakLoopViolation: 68 paths")


def test_validity_check_reports_a_walk_cut_by_depth(tmp_path, capsys):
    """A qubit 1 in front of an r = 0.999 mirror: each round trip keeps
    0.999 of the weight and takes 2e-3, so the walk's weight cut ends it
    only past 5,000 traversals.  Past 1,000 traversals a path is slower
    than tau_min = 1 and still weighs about 0.999**500 = 0.61.  The walk is
    cut at MAX_ORDER with one path still heavy, and that is not a pass."""
    ports = [Port(0, "mirror", 1.0), Port(1, "mirror", 1.0),
             Port(2, "qubit", 0.0)]
    blocks = [ScatteringBlock("mirror", mirror_block(0.999)),
              ScatteringBlock("qubit", np.array([[1.0 + 0.0j]]))]
    systems = [LocalSystem("qubit", 2, np.zeros((2, 2), dtype=complex),
                           {2: Coupling(SIGMA_MINUS, 1.0)})]
    net = Network(ports, blocks, systems, [Connection(2, 0), Connection(0, 2)],
                  Geometry(v_p=1000.0, kappa0=1.0))
    report = validity_check(net)
    assert report.spectral_radius_SW == pytest.approx(0.9995, abs=1e-4)
    assert (report.n_paths, report.n_violating, report.n_depth_cut) == (
        201, 0, 1)
    assert not report.valid

    path = tmp_path / "mirror.json"
    save_network(net, path)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().out.splitlines()[-1] == (
        "FAIL WeakLoopUnresolved: 1 paths still carry weight >= threshold "
        f"at {MAX_ORDER} traversals")


def test_validity_check_requires_a_convergent_loop():
    """A qubit linked to port 1 of a 3-port DFT block whose ports 2 and 3
    close on a 50/50 beam splitter: no port is left open, so SW is unitary
    and rho(SW) = 1 to roundoff.  Every path is fast at v_p = 1e9, and none
    violates, but the contraction's loop does not converge, so the report
    is not valid."""
    dft = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
    ports = ([Port(0, "qubit", 0.0)] + [Port(p, "dft", 1.0) for p in (1, 2, 3)]
             + [Port(p, "bs", 2.0) for p in (4, 5)])
    blocks = [ScatteringBlock("qubit", np.array([[1.0 + 0.0j]])),
              ScatteringBlock("dft", dft),
              ScatteringBlock("bs", np.array([[1, 1j], [1j, 1]]) / np.sqrt(2))]
    systems = [LocalSystem("qubit", 2, np.zeros((2, 2), dtype=complex),
                           {0: Coupling(SIGMA_MINUS, 1.0)})]
    connections = [Connection(a, b) for x, y in ((0, 1), (2, 4), (3, 5))
                   for a, b in ((x, y), (y, x))]
    net = Network(ports, blocks, systems, connections, Geometry(v_p=1e9))
    report = validity_check(net)
    assert report.spectral_radius_SW == pytest.approx(1.0, abs=1e-12)
    assert not report.converged
    assert (report.n_paths, report.n_violating, report.n_depth_cut) == (
        548, 0, 0)
    assert not report.valid


def _max_times(a, b):
    """The max-times product: (a b)[j, k] = max_m a[j, m] b[m, k]."""
    return (a[:, :, None] * b[None, :, :]).max(axis=1)


@pytest.mark.parametrize("net", [
    two_qubit_network(datasheet_circulator(), datasheet_circulator()),
    fabry_perot(0.5, 0.7),
    circulator_chain(0, 8, kappa=0.1, v_p=1.0),
], ids=["datasheet", "fabry_perot", "circulator_chain"])
def test_heaviest_paths_are_max_times_powers(net):
    """The heaviest |w| of the walk's n-traversal paths from k to j is entry
    (j, k) of the n-th max-times power of |SW| (times |S| for a path from
    an external input), found with no enumeration.  Every |S| and |SW|
    entry is at most 1, so each prefix of a path is at least as heavy as
    the path, and the pruned walk records the heaviest path exactly when it
    reaches min_weight; below that, it records no path at all."""
    min_weight = 1e-6
    s, w = assemble_S(net), assemble_W(net)
    heaviest = {}
    for r in enumerate_paths(net, MAX_ORDER, min_weight):
        key = (r.from_source, r.n_traversals, r.port_sequence[0],
               r.port_sequence[-1])
        heaviest[key] = max(heaviest.get(key, 0.0), abs(r.weight))
    sources = sorted({p for sys in net.systems for p in sys.couplings})
    power = np.eye(net.n_ports)  # the max-times identity
    for n in range(MAX_ORDER + 1):
        families = [(False, external_ports(w), _max_times(power, abs(s)))]
        if n > 0:
            families.append((True, sources, power))
        for from_source, starts, bound in families:
            for k in starts:
                for j in range(net.n_ports):
                    got = heaviest.pop((from_source, n, k, j), None)
                    if bound[j, k] >= min_weight:
                        assert got == pytest.approx(bound[j, k], rel=1e-12)
                    else:
                        assert got is None
        power = _max_times(abs(s @ w), power)
    assert not heaviest  # no record outside the two families


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
    (6.5, 1e-3), (True, 1e-3),
])
def test_enumerate_paths_rejects_bad_arguments(max_order, min_weight):
    """max_order is an int and not a bool: 6.5 would walk to 7 traversals
    and True to 1."""
    with pytest.raises(InvalidParameter):
        enumerate_paths(fabry_perot(0.5, 0.3), max_order, min_weight)


def _column_scan_walk(network, max_order, min_weight):
    """The walk with its hop lists built one column at a time, from one
    flatnonzero per column and numpy complex amplitudes: the reference
    for the hop tables that _walk builds from one nonzero per matrix.  It
    pushes each path's family with it and checks that the record derives
    the same family from its length."""
    if not (0 <= max_order <= MAX_ORDER and 0 <= min_weight < float("inf")):
        raise InvalidParameter("bad walk arguments")
    s, w = assemble_S(network), assemble_W(network)
    s_hops, sw_hops = (
        [[(j, m[j, k]) for j in np.flatnonzero(m[:, k]).tolist()[::-1]]
         for k in range(network.n_ports)]
        for m in (s, s @ w)
    )
    sw_delays = [0.0] * network.n_ports
    for c in network.connections:
        length = network.connection_distance(c)
        if length is not None:
            sw_delays[c.from_port] = length / network.geometry.v_p
    sources = sorted({port for sys in network.systems for port in sys.couplings})
    stack = [((k, j), amp, 0.0, 0, False)
             for k in external_ports(w)[::-1] for j, amp in s_hops[k]]
    if max_order >= 1:
        stack += [((k, j), (1.0 + 0.0j) * amp, 0.0 + sw_delays[k], 1, True)
                  for k in sources[::-1] for j, amp in sw_hops[k]]
    while stack:
        path, weight, tau, n, from_source = stack.pop()
        if abs(weight) < min_weight:
            continue
        record = PathRecord(path, n, weight, tau)
        assert record.from_source == from_source
        yield record
        if n < max_order:
            k = path[-1]
            tau += sw_delays[k]
            n += 1
            for j, amp in sw_hops[k]:
                stack.append((path + (j,), weight * amp, tau, n, from_source))


def _bits(records):
    """Each record's port sequence, order and family, with the float.hex
    of its weight's parts and of its delay."""
    return [(r.port_sequence, r.n_traversals, r.from_source,
             complex(r.weight).real.hex(), complex(r.weight).imag.hex(),
             float(r.delay).hex()) for r in records]


def _assert_reports_agree(net, threshold):
    """validity_check reports the same numbers and the same ten heaviest
    paths with the column-scan walk underneath."""
    report = validity_check(net, weight_threshold=threshold)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(paths, "_walk", lambda network, s, w, sw, max_order, min_weight:
                  _column_scan_walk(network, max_order, min_weight))
        expected = validity_check(net, weight_threshold=threshold)
    assert (report.n_paths, report.n_violating) == (
        expected.n_paths, expected.n_violating)
    assert report.max_violating_weight.hex() == \
        float(expected.max_violating_weight).hex()
    assert _bits(report.heaviest) == _bits(expected.heaviest)


def _assert_walks_agree(net, walks):
    """enumerate_paths equals the column-scan walk, record for record and
    bit for bit, at each (max_order, min_weight) of walks, and so do
    validity_check's reports at thresholds 0.05 and 1e-3."""
    for max_order, min_weight in walks:
        got = enumerate_paths(net, max_order, min_weight)
        assert _bits(got) == _bits(_column_scan_walk(net, max_order, min_weight))
    for threshold in (0.05, 1e-3):
        _assert_reports_agree(net, threshold)


@pytest.mark.parametrize("n_circ", [2, 3, 5, 9, 16])
def test_walk_matches_the_column_scan_on_chains(n_circ):
    net = circulator_chain(n_circ, n_circ)
    _assert_walks_agree(net, [(6, 1e-3), (8, 1e-6), (2, 0.0)])


def test_walk_matches_the_column_scan_on_the_datasheet_pair():
    net = two_qubit_network(datasheet_circulator(), datasheet_circulator())
    _assert_walks_agree(net, [(16, 1e-6), (5, 1e-4), (4, 0.0), (1, 0.0),
                              (0, 0.0)])


@st.composite
def sparse_networks(draw):
    """Elements of 1 to 3 ports, each block a dense random unitary or a
    phased permutation, a random partial matching of outputs to inputs
    with lengths, and qubits coupled to up to two ports."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ports, blocks, owner = [], [], []
    for e, size in enumerate(sizes):
        ports += [Port(len(ports) + i, f"e{e}") for i in range(size)]
        owner += [f"e{e}"] * size
        if draw(st.booleans()):
            block = random_unitary(rng, size)
        else:
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size))
            block = np.eye(size)[rng.permutation(size)] * phases
        blocks.append(ScatteringBlock(f"e{e}", block))
    n = len(ports)
    outs = draw(st.permutations(range(n)))
    ins = draw(st.permutations(range(n)))
    connections = [Connection(a, b, distance=draw(st.floats(0.0, 3.0)))
                   for a, b in zip(outs, ins[:draw(st.integers(0, n))])]
    coupled = draw(st.sets(st.integers(0, n - 1), max_size=2))
    systems = [
        LocalSystem(e, 2, np.zeros((2, 2), dtype=complex),
                    {p: Coupling(SIGMA_MINUS, 1.0)
                     for p in sorted(coupled) if owner[p] == e})
        for e in sorted({owner[p] for p in coupled})
    ]
    return Network(ports, blocks, systems, connections, allow_self_loops=True)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(net=sparse_networks(), max_order=st.integers(0, 5),
       min_weight=st.sampled_from([0.0, 1e-6, 1e-3, 0.3]))
def test_walk_matches_the_column_scan_on_sparse_networks(net, max_order,
                                                          min_weight):
    """Sparse S and SW (phased permutations, unconnected ports, zero-length
    connections), where many columns hold one entry or none.
    validity_check is compared where rho(|SW|) < 0.9, which bounds the
    number of paths above its thresholds."""
    got = enumerate_paths(net, max_order, min_weight)
    assert _bits(got) == _bits(_column_scan_walk(net, max_order, min_weight))
    abs_sw = np.abs(assemble_S(net) @ assemble_W(net))
    if np.abs(np.linalg.eigvals(abs_sw)).max() < 0.9:
        _assert_reports_agree(net, 0.05)
