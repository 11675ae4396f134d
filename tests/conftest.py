"""Shared fixtures and small network factories for the test suite."""

import numpy as np
import pytest

from loopnet import (
    Connection,
    Coupling,
    Geometry,
    LocalSystem,
    Network,
    Port,
    ScatteringBlock,
    perturbed_circulator,
)
from loopnet.network import SIGMA_MINUS, SIGMA_Z


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_sw_pair(rng: np.random.Generator, n: int, rho_max: float = 0.999):
    """Seeded random (unitary S, partial-permutation W) with rho(SW) < rho_max."""
    while True:
        s = random_unitary(rng, n)
        k = int(rng.integers(1, n))
        outs = rng.permutation(n)[:k]
        ins = rng.permutation(n)[:k]
        w = np.zeros((n, n), dtype=complex)
        w[ins, outs] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, k))
        if np.abs(np.linalg.eigvals(s @ w)).max() < rho_max:
            return s, w


def mirror_block(r: float) -> np.ndarray:
    t = np.sqrt(1.0 - r * r)
    return np.array([[r, t], [t, -r]], dtype=complex)


def fabry_perot(r: float, phase: float) -> Network:
    """Two partially reflecting mirrors facing each other.

    Ports 0/3 are external; 1 and 2 face each other across the cavity.
    """
    ports = [
        Port(0, "mirror_a", 0.0),
        Port(1, "mirror_a", 0.0),
        Port(2, "mirror_b", 1.0),
        Port(3, "mirror_b", 1.0),
    ]
    blocks = [
        ScatteringBlock("mirror_a", mirror_block(r)),
        ScatteringBlock("mirror_b", mirror_block(r)),
    ]
    connections = [
        Connection(1, 2, phase=phase),
        Connection(2, 1, phase=phase),
    ]
    return Network(ports, blocks, connections=connections,
                   geometry=Geometry(v_p=1.0))


def fabry_perot_transmission_oracle(r: float, phase: float,
                                    n_terms: int = 400) -> complex:
    """Brute-force geometric series for the cavity transmission."""
    t = np.sqrt(1.0 - r * r)
    round_trip = -(r * r) * np.exp(2j * phase)
    total = sum(round_trip**n for n in range(n_terms))
    return t * t * np.exp(1j * phase) * total


def single_qubit_network(kappa: float = 1.0) -> Network:
    """One qubit radiating into a single unconnected port (W = 0)."""
    ports = [Port(0, "qubit", 0.0)]
    blocks = [ScatteringBlock("qubit", np.array([[1.0 + 0.0j]]))]
    systems = [
        LocalSystem("qubit", 2, np.zeros((2, 2), dtype=complex),
                    {0: Coupling(SIGMA_MINUS, kappa)})
    ]
    return Network(ports, blocks, systems=systems)


def three_qubit_chain() -> Network:
    """Three imperfect circulators in a line, one qubit on each (D = 8).

    Circulator k owns ports 3k..3k+2; its port 3k+1 is linked both ways to
    port 3k+3 of the next one and its port 3k+2 to qubit k (port 9 + k).
    Ports 0 and 7 are external.
    """
    herm = np.array([[0.3, 0.2 - 0.1j, 0.1], [0.2 + 0.1j, -0.4, 0.3j],
                     [0.1, -0.3j, 0.2]])
    ports, blocks, systems, connections = [], [], [], []
    for k in range(3):
        circ, qubit = f"circ{k}", f"qubit{k}"
        ports += [Port(3 * k + j, circ, float(k)) for j in range(3)]
        ports.append(Port(9 + k, qubit, float(k)))
        blocks += [
            ScatteringBlock(circ, perturbed_circulator(0.1 * (k + 1), herm)),
            ScatteringBlock(qubit, np.array([[1.0 + 0.0j]])),
        ]
        connections += [Connection(3 * k + 2, 9 + k),
                        Connection(9 + k, 3 * k + 2)]
        if k < 2:
            connections += [Connection(3 * k + 1, 3 * k + 3),
                            Connection(3 * k + 3, 3 * k + 1)]
        systems.append(LocalSystem(
            qubit, 2, 0.3 * (k - 1) * SIGMA_Z.astype(complex),
            {9 + k: Coupling(SIGMA_MINUS, 1.0 + 0.25 * k)},
        ))
    return Network(ports, blocks, systems, connections)


def scaled_circulator(rng: np.random.Generator) -> np.ndarray:
    """A perturbed (eps 0.1) circulator whose Hermitian perturbation, drawn
    from rng, is scaled to spectral radius 1, as perfbench draws them."""
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = 0.5 * (a + a.conj().T)
    return perturbed_circulator(0.1, h / np.abs(np.linalg.eigvalsh(h)).max())


def circulator_chain(seed, n_circ: int, kappa: float = 1e6,
                     v_p: float = 3e8, qubit_at=None,
                     scaled: bool = False) -> Network:
    """Seeded perturbed (eps 0.1) 3-port circulators in a line, with a qubit
    on each circulator of qubit_at (the first and the last by default),
    laid out as perfbench's network-design chains: circulator k owns ports
    3k..3k+2 at z = k, its port 3k+1 is linked both ways to port 3k+3, and
    qubit i (port 3 n_circ + i) both ways to port 3k+2 of its circulator k.
    seed is an int or a Generator to draw from; scaled draws the
    circulators as scaled_circulator does."""
    rng = np.random.default_rng(seed)
    ports, blocks, systems, connections = [], [], [], []
    for k in range(n_circ):
        if scaled:
            circ = scaled_circulator(rng)
        else:
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            circ = perturbed_circulator(0.1, 0.5 * (a + a.conj().T))
        ports += [Port(3 * k + j, f"circ{k}", float(k)) for j in range(3)]
        blocks.append(ScatteringBlock(f"circ{k}", circ))
        if k < n_circ - 1:
            connections += [Connection(3 * k + 1, 3 * k + 3),
                            Connection(3 * k + 3, 3 * k + 1)]
    for i, k in enumerate(qubit_at or (0, n_circ - 1)):
        port, name = 3 * n_circ + i, f"qubit{i}"
        ports.append(Port(port, name, float(k)))
        blocks.append(ScatteringBlock(name, np.array([[1.0 + 0.0j]])))
        connections += [Connection(port, 3 * k + 2), Connection(3 * k + 2, port)]
        systems.append(LocalSystem(name, 2, np.zeros((2, 2), dtype=complex),
                                   {port: Coupling(SIGMA_MINUS, kappa)}))
    return Network(ports, blocks, systems, connections,
                   Geometry(k0=0.0, v_p=v_p, kappa0=kappa))


def permute_network(net: Network, perm: list) -> Network:
    """Relabel port ids by perm (new_id = perm[old_id]), permuting blocks
    so that the physical network is unchanged."""
    new_ports = [
        Port(perm[p.id], p.element_id, p.position_z) for p in net.ports
    ]
    blocks = []
    for block in net.blocks:
        old_ids = sorted(p.id for p in net.ports if p.element_id == block.element_id)
        new_ids = [perm[i] for i in old_ids]
        order = np.argsort(new_ids)  # local positions sorted by new id
        m = np.asarray(block.matrix, dtype=complex)
        blocks.append(ScatteringBlock(block.element_id, m[np.ix_(order, order)]))
    systems = [
        LocalSystem(
            s.element_id, s.hilbert_dim, s.hamiltonian,
            {perm[p]: c for p, c in s.couplings.items()},
        )
        for s in net.systems
    ]
    connections = [
        Connection(perm[c.from_port], perm[c.to_port],
                   phase=c.phase, distance=c.distance)
        for c in net.connections
    ]
    return Network(new_ports, blocks, systems, connections, net.geometry,
                   allow_self_loops=net.allow_self_loops)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
