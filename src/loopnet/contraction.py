"""Closed-form elimination of internal feedback connections.

Contracting a network replaces (S, L, H_sys, W) by an effective loop-free
input-output model.  Everything is driven by the single inversion
G = (1 - S W)^{-1}: the routing of system emissions to external outputs is
X_o G, the pure network contribution is T = S W G, and the coherent
network-induced Hamiltonian comes from the anti-Hermitian part of G.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonConvergentLoop, SingularMatrix
from .network import (
    Network,
    assemble_H_sys,
    assemble_L,
    assemble_S,
    assemble_W,
    dag,
    internal_projectors,
)

DELTA_CONV = 1e-6
COND_MAX = 1e12
# squarings k of the certificate rho(A) <= ||A^(2^k)||_F^(2^-k)
CERT_SQUARINGS = 5
# entries whose certified bound lies within this of 1 - DELTA_CONV are
# left to eigvals, whose own rounding decides them as before
CERT_MARGIN = 1e-9


@dataclass(frozen=True)
class RoutingMatrices:
    """Matrices derived from the loop inversion, in global port order.

    For a stack of (S, W) pairs every field and property is an array with
    the leading batch axis: SW, G and T of shape (B, N, N), converged,
    accepted and the lazy values of shape (B,); G and T are NaN where
    `accepted` is False.  spectral_radius_SW (one eigvals per entry),
    sigma_max_SW and cond (one SVD per entry each) are computed on first
    use.
    """

    SW: np.ndarray
    G: np.ndarray  # (1 - SW)^{-1}
    T: np.ndarray  # SW G = G - 1, pure network contribution
    converged: bool  # spectral_radius_SW < 1 - DELTA_CONV
    accepted: bool  # converged and cond <= COND_MAX

    @cached_property
    def spectral_radius_SW(self) -> float:
        return _spectral_radius(self.SW)

    @cached_property
    def sigma_max_SW(self) -> float:
        return np.linalg.svd(self.SW, compute_uv=False).max(-1, initial=0.0)

    @cached_property
    def cond(self) -> float:  # of 1 - SW
        return np.linalg.cond(np.eye(self.SW.shape[-1]) - self.SW)


@dataclass(frozen=True)
class EffectiveModel:
    """Contracted input-output model restricted to the external ports."""

    s_eff: np.ndarray  # (n_ext_out, n_ext_in)
    l_eff_coeffs: np.ndarray  # (n_ext_out, N); L_eff_j = sum_k (X_o G)_jk L_k
    h_eff: np.ndarray  # (D, D), Hermitian
    h_sys: np.ndarray
    base_L: list
    routing: RoutingMatrices
    external_inputs: list
    external_outputs: list


def _spectral_radius(sw: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.eigvals(sw)).max(axis=-1, initial=0.0)


def _certified_convergent(sw: np.ndarray) -> np.ndarray:
    """Entries of a stack (..., N, N) with rho(SW) < 1 - DELTA_CONV proven
    without eigenvalues: rho(A) <= ||A^(2^k)||_F^(2^-k) for k = 0, 1, ...,
    CERT_SQUARINGS, stopping once every entry is certified.

    err bounds the rounding of the squarings (|fl(BB) - BB| <= gamma |B||B|
    entrywise, carried through the later products), so a certified entry
    is convergent in exact arithmetic.  False means undecided, never
    divergent; overflow and NaN leave an entry undecided.
    """
    gamma = 4 * sw.shape[-1] * np.finfo(float).eps
    limit = 1.0 - DELTA_CONV - CERT_MARGIN
    p, err, certified = sw, 0.0, False
    with np.errstate(all="ignore"):
        for k in range(CERT_SQUARINGS + 1):
            norm = np.linalg.norm(p, axis=(-2, -1))
            certified = certified | (norm + err < limit ** (2**k))
            if k == CERT_SQUARINGS or np.all(certified):
                return np.asarray(certified)
            err = err * (2.0 * norm + err) + gamma * norm * norm
            p = p @ p


def routing_matrices(S: np.ndarray, W: np.ndarray) -> RoutingMatrices:
    """Invert 1 - SW and judge the loop; the only place either is done.

    S and W are (N, N) or stacks (B, N, N).  An entry is accepted when
    rho(SW) < 1 - DELTA_CONV and cond(1 - SW) <= COND_MAX; only entries
    that pass the rho test are solved.  The rho test is the certificate of
    _certified_convergent; eigvals runs only on the entries it leaves
    undecided.  Rejection does not raise here: the verdict is returned in
    `converged` and `accepted`.
    """
    sw = S @ W
    one = np.eye(sw.shape[-1], dtype=complex)
    a = one - sw
    converged = _certified_convergent(sw)
    if not converged.all():
        undecided = ~converged
        converged[undecided] = _spectral_radius(sw[undecided]) < 1.0 - DELTA_CONV
    g = np.full_like(a, np.nan)
    g[converged] = np.linalg.solve(a[converged], one)
    # ||1 - SW||_F ||G||_F >= cond(1 - SW): the SVD only where that fails
    bound = np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(g, axis=(-2, -1))
    cond_ok = bound <= COND_MAX
    if np.any(converged & ~cond_ok):
        cond_ok = np.linalg.cond(a) <= COND_MAX
    accepted = converged & cond_ok
    g[~accepted] = np.nan
    return RoutingMatrices(
        SW=sw,
        G=g,
        T=sw @ g,
        converged=converged[()],  # np.bool_ for a single (S, W) pair
        accepted=accepted,
    )


def accepted_routing(S: np.ndarray, W: np.ndarray) -> RoutingMatrices:
    """routing_matrices of one (S, W) pair; raises NonConvergentLoop or
    SingularMatrix where it rejects the loop."""
    routing = routing_matrices(S, W)
    if not routing.converged:
        raise NonConvergentLoop(
            "loop is not weak: spectral radius of S@W is "
            f"{routing.spectral_radius_SW:.6f}; the zero-delay contraction "
            "is physically invalid"
        )
    if not routing.accepted:
        raise SingularMatrix(
            f"1 - S@W is numerically singular (cond ~ {routing.cond:.3e})"
        )
    return routing


def _h_net(g: np.ndarray, l_arr: np.ndarray) -> np.ndarray:
    """The network Hamiltonian (1/2i) sum_jk K_jk L_j^dag L_k, K = G - G^dag,
    of the operators l_arr (N, D, D): the one formula of H_net."""
    n, d = l_arr.shape[:2]
    # sum_jk K_jk L_j^dag L_k = sum_j L_j^dag (sum_k K_jk L_k): two products
    k_l = ((g - dag(g)) @ l_arr.reshape(n, d * d)).reshape(n * d, d)
    return l_arr.reshape(n * d, d).conj().T @ k_l / 2j


def contract(
    S: np.ndarray,
    W: np.ndarray,
    L: list,
    H_sys: np.ndarray,
) -> EffectiveModel:
    """Effective (S_eff, L_eff, H_eff) for the connected network."""
    routing = accepted_routing(S, W)
    _, x_i, _, x_o = internal_projectors(W)
    ext_in, ext_out = (np.flatnonzero(x.diagonal()).tolist() for x in (x_i, x_o))
    # the projector product, not G[ext_out]: it turns G's -0.0 into +0.0
    l_eff_coeffs = x_o[ext_out] @ routing.G
    s_eff = l_eff_coeffs @ S @ x_i[:, ext_in]

    h_eff = np.asarray(H_sys, dtype=complex) + _h_net(routing.G, np.array(L))

    return EffectiveModel(
        s_eff=s_eff,
        l_eff_coeffs=l_eff_coeffs,
        h_eff=h_eff,
        h_sys=np.asarray(H_sys, dtype=complex),
        base_L=[np.asarray(op, dtype=complex) for op in L],
        routing=routing,
        external_inputs=ext_in,
        external_outputs=ext_out,
    )


def contract_network(network: Network) -> EffectiveModel:
    """Assemble a Network's global matrices and contract them."""
    s = assemble_S(network)
    w = assemble_W(network)
    ell = assemble_L(network)
    h_sys = assemble_H_sys(network) if network.systems else np.zeros((1, 1), complex)
    return contract(s, w, ell, h_sys)


def verify_inversion_identities(S: np.ndarray, W: np.ndarray) -> dict:
    """Max-abs residuals of the two inversion identities used in derivations.

    Both reduce to rearrangements of X_o = 1 - W^dag W under unitarity of S;
    they hold whenever 1 - SW is invertible.  NaN for a rejected loop.
    """
    routing = routing_matrices(S, W)
    sw, g, g_dag = routing.SW, routing.G, dag(routing.G)
    _, _, _, x_o = internal_projectors(W)

    lhs1 = g_dag @ x_o @ g
    rhs1 = g + dag(sw) @ g_dag
    res1 = float(np.abs(lhs1 - rhs1).max())

    lhs2 = 0.5 * np.eye(len(sw)) + sw @ g
    rhs2 = 0.5 * (g_dag @ x_o @ g + g - g_dag)
    res2 = float(np.abs(lhs2 - rhs2).max())

    return {"projector_identity": res1, "half_sum_identity": res2}

