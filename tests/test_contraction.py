"""Closed-form contraction vs oracles, identities and invariances."""

import dataclasses

import numpy as np
import pytest

from loopnet import (
    Geometry,
    contract,
    contract_network,
    contraction,
    datasheet_circulator,
    effective_operators_at,
    ideal_circulator,
    random_imperfect_network,
    routing_matrices,
    truncated_series_oracle,
    two_qubit_network,
    verify_inversion_identities,
)
from loopnet.contraction import DELTA_CONV, _certified_convergent
from loopnet.errors import NonConvergentLoop, SingularMatrix
from loopnet.lindblad import Controls
from loopnet.network import (
    Connection,
    Network,
    Port,
    ScatteringBlock,
    assemble_H_sys,
    assemble_L,
    assemble_S,
    assemble_W,
    dag,
)

from conftest import (
    circulator_chain,
    fabry_perot,
    fabry_perot_transmission_oracle,
    permute_network,
    random_sw_pair,
    random_unitary,
    scaled_circulator,
)


def random_L(rng, n, d):
    return [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for _ in range(n)
    ]


def test_inversion_identities_random(rng):
    for _ in range(40):
        n = int(rng.integers(2, 9))
        s, w = random_sw_pair(rng, n)
        res = verify_inversion_identities(s, w)
        assert res["projector_identity"] < 1e-10
        assert res["half_sum_identity"] < 1e-10


def test_series_matches_inverse(rng):
    for _ in range(20):
        n = int(rng.integers(3, 8))
        s, w = random_sw_pair(rng, n, rho_max=0.9)
        rho = np.abs(np.linalg.eigvals(s @ w)).max()
        ell = random_L(rng, n, 2)
        model = contract(s, w, ell, np.zeros((2, 2)))
        n_terms = 100
        s_approx, coeffs = truncated_series_oracle(s, w, None, n_terms)
        # theoretical truncation bound with a machine-precision floor
        bound = max(2.0 * rho ** (n_terms + 1) / (1.0 - rho), 1e-13)
        sub = s_approx[np.ix_(model.external_outputs, model.external_inputs)]
        assert np.abs(sub - model.s_eff).max() <= bound
        assert np.abs(
            coeffs[model.external_outputs, :] - model.l_eff_coeffs
        ).max() <= bound


def feedback_reduction_oracle(s, w, order):
    """Independent oracle: the Gough-James contraction by the feedback
    reduction rule, one internal connection at a time; no (1 - SW)^-1 is
    formed.

    The open network is a_out = S a_in + C lambda, with C = 1 (one base
    coupling per port).  W is a partial permutation with phases: each
    connection feeds output k into input l, a_in[l] = W[l, k] a_out[k].
    Closing it solves for a_out[k] and removes output k and input l:
    with g = W[l, k] / (1 - W[l, k] S[k, l]),
        S'[i, j] = S[i, j] + S[i, l] g S[k, j],
        C'[i] = C[i] + S[i, l] g C[k]    (i != k, j != l).
    `order` permutes the connections.  Returns (s_eff, l_eff_coeffs) with
    rows at the external outputs and columns at the external inputs, both
    in port order."""
    s = np.array(s, dtype=complex)
    c = np.eye(len(s), dtype=complex)
    outs, ins = list(range(len(s))), list(range(len(s)))
    links = list(zip(*np.nonzero(w)))  # (input l, output k)
    for l, k in (links[i] for i in order):
        r, q = outs.index(k), ins.index(l)
        g = w[l, k] / (1.0 - w[l, k] * s[r, q])
        rows = [i for i in range(len(outs)) if i != r]
        cols = [j for j in range(len(ins)) if j != q]
        feed = s[rows, q][:, None] * g
        s = s[np.ix_(rows, cols)] + feed * s[r, cols]
        c = c[rows] + feed * c[r]
        del outs[r], ins[q]
    return s, c


def test_feedback_reduction_oracle_matches_contract(rng):
    """contract's s_eff and l_eff_coeffs against the connection-by-
    connection feedback reduction, to 1e-12, on 200 random (S, W) pairs
    with rho(SW) up to 0.99 (the series oracle of criterion 02 stops at
    0.9), each connection order drawn at random."""
    rhos = []
    for _ in range(200):
        n = int(rng.integers(2, 9))
        s, w = random_sw_pair(rng, n, rho_max=0.99)
        rhos.append(np.abs(np.linalg.eigvals(s @ w)).max())
        model = contract(s, w, [np.zeros((1, 1))] * n, np.zeros((1, 1)))
        s_eff, coeffs = feedback_reduction_oracle(
            s, w, rng.permutation(np.count_nonzero(w)))
        assert np.abs(s_eff - model.s_eff).max() <= 1e-12
        assert np.abs(coeffs - model.l_eff_coeffs).max() <= 1e-12
    assert max(rhos) > 0.98  # the range near the convergence edge is drawn


def test_fabry_perot_against_geometric_series():
    for r in (0.1, 0.5, 0.9):
        for phase in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
            model = contract_network(fabry_perot(r, phase))
            # external ports are 0 and 3; transmission is 0 -> 3
            trans = model.s_eff[1, 0]
            oracle = fabry_perot_transmission_oracle(r, phase)
            assert abs(trans - oracle) < 1e-12


def test_zero_W_returns_bare_network(rng):
    n, d = 4, 2
    s = random_unitary(rng, n)
    w = np.zeros((n, n), dtype=complex)
    ell = random_L(rng, n, d)
    h = rng.standard_normal((d, d))
    h = h + h.T
    model = contract(s, w, ell, h)
    assert np.abs(model.s_eff - s).max() < 1e-14
    assert np.abs(model.l_eff_coeffs - np.eye(n)).max() < 1e-14
    assert np.abs(model.h_eff - h).max() < 1e-14


def test_h_eff_is_hermitian(rng):
    for seed in range(10):
        n = int(rng.integers(3, 8))
        s, w = random_sw_pair(rng, n)
        model = contract(s, w, random_L(rng, n, 3), np.zeros((3, 3)))
        assert np.abs(model.h_eff - dag(model.h_eff)).max() < 1e-10


def _einsum_h_eff(model):
    """(H_sys + sum_jk K_jk L_j^dag L_k / 2i, K = G - G^dag, as the one
    three-operand einsum over j and k that contract once used; and the
    largest entry of the same sum over |K_jk| |L_j^dag| |L_k| / 2, the
    scale of its rounding)."""
    l_arr = np.array(model.base_L)
    g = model.routing.G
    l_dag = l_arr.conj().transpose(0, 2, 1)
    k_mat = g - dag(g)
    h_eff = model.h_sys + np.einsum("jk,jab,kbc->ac", k_mat, l_dag, l_arr) / 2j
    terms = np.einsum("jk,jab,kbc->ac", abs(k_mat), abs(l_dag), abs(l_arr)) / 2
    return h_eff, terms.max()


def test_h_net_matches_the_einsum_form(rng):
    """contract sums L_j^dag (sum_k K_jk L_k) with two matrix products,
    which rounds in another order than the einsum.  The two stay within
    4 ulp of the largest sum of |terms|; on random networks h_eff can
    cancel to about 1/170 of that sum, so 4 ulp of max |h_eff| would test the
    einsum's rounding too.  On a 16-circulator chain (N = 50, |h_eff| ~
    1e5, no such cancellation) they stay within 4 ulp of max |h_eff|."""
    for _ in range(20):
        n, d = int(rng.integers(2, 10)), int(rng.integers(1, 5))
        s, w = random_sw_pair(rng, n)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        model = contract(s, w, random_L(rng, n, d), a + dag(a))
        want, terms = _einsum_h_eff(model)
        assert np.abs(model.h_eff - want).max() <= 4 * np.spacing(terms)
    model = contract_network(circulator_chain(16, 16))
    want, _ = _einsum_h_eff(model)
    ulp = np.spacing(np.abs(want).max())
    assert np.abs(model.h_eff - want).max() <= 4 * ulp


def h_eff_networks() -> list:
    """37 networks.  From default_rng(0): four kappa = 1e6 pairs of scaled
    circulators and chains of 2, 4, ..., 16 with a qubit on each end
    (perfbench's network-design shapes); from a new default_rng(0): chains
    of 1, 2 and 3 with a qubit on each circulator (its master-equation
    shapes).  Then random_imperfect_network(0.2, 1 + s, s) for s < 20, and
    the datasheet pair in unit and in fast (kappa = 1e6) geometry."""
    rng = np.random.default_rng(0)
    fast = Geometry(k0=0.0, v_p=3e8, kappa0=1e6)
    nets = [two_qubit_network(scaled_circulator(rng), scaled_circulator(rng),
                              kappa_a=1e6, kappa_b=1e6, geometry=fast)
            for _ in range(4)]
    nets += [circulator_chain(rng, n, scaled=True) for n in range(2, 17, 2)]
    rng = np.random.default_rng(0)
    nets += [circulator_chain(rng, n, 1.0, 1.0, list(range(n)), scaled=True)
             for n in (1, 2, 3)]
    nets += [random_imperfect_network(0.2, 1.0 + s, s) for s in range(20)]
    c = datasheet_circulator()
    return nets + [two_qubit_network(c, c),
                   two_qubit_network(c, c, kappa_a=1e6, kappa_b=1e6,
                                     geometry=fast)]


def test_generator_h_eff_is_contracts_bit_for_bit():
    """H_net has one formula: without controls, the H_eff of
    effective_operators_at (and so of build_generator and of every
    integrate run) is contract's h_eff bit for bit.  A three-operand
    einsum there once differed on 5 of these 37 networks, by up to 3.6e-12
    at kappa = 1e6."""
    nets = h_eff_networks()
    assert len(nets) == 37
    for net in nets:
        model = contract_network(net)
        h_eff = effective_operators_at(model, Controls(), 0.0)[0]
        assert np.array_equal(h_eff.view(np.uint64),
                              model.h_eff.view(np.uint64))


def test_s_eff_isometry(rng):
    for _ in range(10):
        n = int(rng.integers(3, 8))
        s, w = random_sw_pair(rng, n)
        model = contract(s, w, random_L(rng, n, 2), np.zeros((2, 2)))
        prod = dag(model.s_eff) @ model.s_eff
        assert np.abs(prod - np.eye(prod.shape[0])).max() < 1e-10


def test_relabel_invariance(rng):
    net = two_qubit_network(ideal_circulator(), ideal_circulator(),
                            kappa_a=1.3, kappa_b=0.8, phi_a=0.5,
                            interconnect_phase=0.9, h_az=0.2, h_bz=-0.7)
    model = contract_network(net)
    perm = list(rng.permutation(net.n_ports))
    permuted = permute_network(net, perm)
    model_p = contract_network(permuted)

    # effective Hamiltonian is label independent
    assert np.abs(model.h_eff - model_p.h_eff).max() < 1e-10

    # S_eff agrees up to the induced permutation of external ports
    ext_in_order = np.argsort([perm[p] for p in model.external_inputs])
    ext_out_order = np.argsort([perm[p] for p in model.external_outputs])
    assert np.abs(
        model.s_eff[np.ix_(ext_out_order, ext_in_order)] - model_p.s_eff
    ).max() < 1e-10

    # each materialized effective Lindblad operator is unchanged
    ops = effective_operators_at(model, Controls(), 0.0)[1]
    ops_p = effective_operators_at(model_p, Controls(), 0.0)[1]
    for j, op in enumerate(ops):
        assert np.abs(op - ops_p[ext_out_order[j]]).max() < 1e-10


def closed_swap_loop() -> Network:
    """Two swap blocks in a closed unitary loop: rho(SW) = 1."""
    ports = [Port(0, "a"), Port(1, "a"), Port(2, "b"), Port(3, "b")]
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    blocks = [ScatteringBlock("a", swap), ScatteringBlock("b", swap)]
    conns = [Connection(1, 2, phase=0.0), Connection(3, 0, phase=0.0)]
    return Network(ports, blocks, connections=conns)


def test_non_convergent_loop_raises():
    with pytest.raises(NonConvergentLoop):
        contract_network(closed_swap_loop())


def test_routing_batch_masks_rejected_entries(rng):
    s, w = random_sw_pair(rng, 4)
    loop = closed_swap_loop()
    batch = routing_matrices(
        np.stack([s, assemble_S(loop)]), np.stack([w, assemble_W(loop)])
    )
    assert batch.accepted.tolist() == [True, False]
    assert batch.converged.tolist() == [True, False]
    single = routing_matrices(s, w)
    for name in ("G", "T"):
        assert np.array_equal(getattr(batch, name)[0], getattr(single, name))
        assert np.isnan(getattr(batch, name)[1]).all()
    assert batch.spectral_radius_SW[0] == single.spectral_radius_SW
    assert batch.sigma_max_SW[0] == single.sigma_max_SW


def scaled_to_radius(rng, n, rho, normal):
    """An (n, n) matrix with spectral radius rho: U diag U^dag, or a
    non-normal X diag X^-1."""
    lam = rng.uniform(0.0, 1.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    lam[0] = np.exp(1j * rng.uniform(0, 2 * np.pi))
    x = random_unitary(rng, n) if normal else (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = x @ np.diag(lam) @ np.linalg.inv(x)
    return rho * a / np.abs(np.linalg.eigvals(a)).max()


def test_convergence_certificate_matches_eigvals(rng):
    limit = 1.0 - DELTA_CONV
    radii = np.concatenate([
        np.linspace(0.1, 1.2, 23),
        limit + np.array([-1e-9, -5e-10, -1e-10, -1e-12, 0.0, 1e-12, 1e-10,
                          5e-10, 1e-9]),
    ])
    for n in (2, 5, 8):
        sw = np.stack([scaled_to_radius(rng, n, rho, normal)
                       for normal in (True, False) for rho in radii])
        routing = routing_matrices(sw, np.broadcast_to(np.eye(n), sw.shape))
        rho = np.abs(np.linalg.eigvals(routing.SW)).max(-1)
        assert np.array_equal(routing.converged, rho < limit)
        # both sides of the threshold are present, within 1e-9 of it
        near = np.abs(rho - limit) <= 1e-9
        assert routing.converged[near].any() and not routing.converged[near].all()
        # the certificate decides the clear cases and never a divergent one
        certified = _certified_convergent(routing.SW)
        assert certified[rho < 0.5].all()
        assert not (certified & (rho >= limit)).any()
        # the lazy radius is the eager one, bit for bit, stacked or not
        assert np.array_equal(
            routing.spectral_radius_SW,
            np.abs(np.linalg.eigvals(routing.SW)).max(-1, initial=0.0),
        )
        for k in (0, len(radii) - 1, len(sw) - 1):
            single = routing_matrices(sw[k], np.eye(n))
            assert single.converged == routing.converged[k]
            assert single.spectral_radius_SW == routing.spectral_radius_SW[k]


def test_singular_rejection(rng, monkeypatch):
    s, w = random_sw_pair(rng, 4)
    monkeypatch.setattr(contraction, "COND_MAX", 1.0)
    with pytest.raises(SingularMatrix):
        contract(s, w, random_L(rng, 4, 2), np.zeros((2, 2)))


def test_routing_diagnostics(rng):
    s, w = random_sw_pair(rng, 5)
    routing = routing_matrices(s, w)
    sw = s @ w
    assert np.isclose(routing.spectral_radius_SW,
                      np.abs(np.linalg.eigvals(sw)).max())
    assert np.isclose(routing.sigma_max_SW,
                      np.linalg.svd(sw, compute_uv=False).max())
    assert np.isclose(routing.cond, np.linalg.cond(np.eye(5) - sw))
    assert routing.converged and routing.accepted
    assert np.abs(routing.T - (routing.G - np.eye(5))).max() < 1e-12


def dissipative_hamiltonian(model) -> np.ndarray:
    """Non-Hermitian generator H_sys - (i/2) L^dag L - i L^dag T L of the
    connected network, from T and the bare L: the oracle of contract's
    h_eff, which equals it + (i/2) L_eff^dag L_eff."""
    l_arr = np.array(model.base_L)
    l_dag = l_arr.conj().transpose(0, 2, 1)
    direct = np.einsum("jab,jbc->ac", l_dag, l_arr)
    network_term = np.einsum("jk,jab,kbc->ac", model.routing.T, l_dag, l_arr)
    return model.h_sys - 0.5j * direct - 1j * network_term


def h_eff_from_generator(model) -> np.ndarray:
    """h_eff as the dissipative_hamiltonian oracle gives it."""
    l_eff = np.einsum("jk,kab->jab", model.l_eff_coeffs, np.array(model.base_L))
    damping = np.einsum("jab,jbc->ac", l_eff.conj().transpose(0, 2, 1), l_eff)
    return dissipative_hamiltonian(model) + 0.5j * damping


def test_dissipative_hamiltonian_identity(rng):
    net = two_qubit_network(ideal_circulator(), ideal_circulator(),
                            kappa_a=1.2, kappa_b=0.6)
    model = contract_network(net)
    h = dissipative_hamiltonian(model)
    h_eff, l_eff = effective_operators_at(model, Controls(), 0.0)
    h_loss = h_eff - 0.5j * sum(dag(op) @ op for op in l_eff)
    assert np.abs(h - h_loss).max() < 1e-12
    for _ in range(20):
        n, d = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        s, w = random_sw_pair(rng, n, rho_max=0.9)
        h_sys = rng.standard_normal((d, d))
        model = contract(s, w, random_L(rng, n, d), h_sys + h_sys.T)
        h_eff = h_eff_from_generator(model)
        scale = max(1.0, float(np.abs(h_eff).max()))
        assert np.abs(model.h_eff - h_eff).max() <= 1e-10 * scale


def test_dissipative_hamiltonian_sees_a_shifted_h_sys():
    # H_sys shifted after contraction: the direct form of the generator
    # moves by 1e-3, the contracted H_eff does not
    model = contract_network(two_qubit_network(ideal_circulator(),
                                               ideal_circulator()))
    shifted = dataclasses.replace(model, h_sys=model.h_sys + 1e-3 * np.eye(4))
    residual = np.abs(h_eff_from_generator(shifted) - model.h_eff).max()
    assert residual == pytest.approx(1e-3, rel=1e-9)


def test_contract_network_matches_manual_assembly():
    net = fabry_perot(0.4, 0.8)
    model = contract_network(net)
    manual = contract(assemble_S(net), assemble_W(net), assemble_L(net),
                      np.zeros((1, 1)))
    assert np.abs(model.s_eff - manual.s_eff).max() == 0.0
    assert assemble_H_sys(net).shape == (1, 1)
