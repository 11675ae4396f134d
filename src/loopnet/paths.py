"""Scattering-path enumeration, the truncated-series oracle and the
weak-loop validity criterion.

Every multi-traversal path through the network is an alternating product of
W hops (propagation, with delay) and S hops (instantaneous scattering).  A
path is recorded by the sequence of output ports it visits; its weight is
the product of the corresponding S W matrix elements and its delay the sum
of inter-port distances divided by the phase velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contraction import routing_matrices
from .errors import InvalidParameter, MissingGeometry, PathExplosion
from .network import (
    Network,
    assemble_S,
    assemble_W,
    external_ports,
    internal_projectors,
)

RECORD_CAP = 1_000_000  # enumerate_paths raises PathExplosion past this
DEFAULT_WEIGHT_THRESHOLD = 0.05
MAX_ORDER = 200  # the deepest walk: enumerate_paths refuses a larger max_order


@dataclass(frozen=True)
class PathRecord:
    port_sequence: tuple
    n_traversals: int
    weight: complex
    delay: float
    from_source: bool = False


@dataclass
class ValidityReport:
    tau_min: float
    weight_threshold: float
    violating_paths: list = field(default_factory=list)
    max_violating_weight: float = 0.0
    sigma_max_SW: float = 0.0
    spectral_radius_SW: float = 0.0
    converged: bool = True  # the loop passes the contraction's rho test
    n_cut: int = 0
    records: list = field(default_factory=list)  # every path walked

    @property
    def valid(self) -> bool:
        return not self.violating_paths


def violates(record: PathRecord, tau_min: float, weight_threshold: float) -> bool:
    """The weak-loop test of one path: slow (delay >= tau_min) and heavy
    (|w| >= weight_threshold)."""
    return record.delay >= tau_min and abs(record.weight) >= weight_threshold


def enumerate_paths(network: Network, max_order: int, min_weight: float) -> list:
    """All weighted paths up to max_order <= MAX_ORDER traversals.

    Two families share one walk.  A path entering at an external input
    takes its first hop through S (an S matrix element, zero traversals);
    a path emitted by a coupled source port starts with weight 1 and takes
    its first hop through SW.  Every later hop is an S W matrix element and
    one traversal.  Every prefix of a longer path is itself recorded, just
    before its extensions, so consumers filter on the terminal port.
    Depth-first with weight pruning; deterministic.
    """
    if not (0 <= max_order <= MAX_ORDER and 0 <= min_weight < math.inf):
        raise InvalidParameter(
            f"need 0 <= max_order <= {MAX_ORDER} and a finite min_weight "
            f">= 0, got {max_order!r} and {min_weight!r}"
        )
    s = assemble_S(network)
    w = assemble_W(network)
    # the nonzero entries (j, m[j, k]) of each column k of S and of SW
    s_hops, sw_hops = (
        [[(j, m[j, k]) for j in np.flatnonzero(m[:, k]).tolist()]
         for k in range(network.n_ports)]
        for m in (s, s @ w)
    )
    # Missing coordinates count as z = 0 for delay arithmetic; validity_check
    # insists on explicit geometry before trusting the numbers.
    z = [p.position_z if p.position_z is not None else 0.0 for p in network.ports]
    v_p = network.geometry.v_p
    records: list = []

    def walk(seq, weight, delay, n, hops, from_source):
        # each hop out of seq[-1] makes a path of n traversals, recorded
        # just before its extensions through SW.  weight None: the path
        # leaves an external input, and its first S element is its whole
        # weight ((1 + 0j) * amp can flip the sign of a zero part)
        if n > max_order:
            return
        k = seq[-1]
        for j, amp in hops[k]:
            w_j = amp if weight is None else weight * amp
            if abs(w_j) < min_weight:
                continue
            tau = delay + abs(z[j] - z[k]) / v_p
            path = seq + (j,)
            records.append(PathRecord(path, n, w_j, tau, from_source))
            if len(records) > RECORD_CAP:
                raise PathExplosion(f"more than {RECORD_CAP} path records")
            walk(path, w_j, tau, n + 1, sw_hops, from_source)

    try:
        for p in sorted({port for sys in network.systems for port in sys.couplings}):
            walk((p,), 1.0 + 0.0j, 0.0, 1, sw_hops, True)
        for k in external_ports(w)[0]:
            walk((k,), None, 0.0, 0, s_hops, False)
    finally:
        # walk refers to itself: break the cycle, or it keeps the records
        # alive after the caller drops them, until a full gc collection
        del walk
    return records


def truncated_series_oracle(S: np.ndarray, W: np.ndarray, L, n_terms: int):
    """Brute-force partial sums of the multi-traversal scattering series.

    Returns (X_o [sum_n (SW)^n] S X_i, X_o [sum_n (SW)^n] L).  If L is None
    the second element is the bare coefficient matrix X_o sum_n (SW)^n,
    whose rows give each effective source as a combination of the raw ones.
    Independent of the closed-form inversion by construction.
    """
    n = S.shape[0]
    sw = S @ W
    partial = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for _ in range(n_terms):
        term = sw @ term
        partial = partial + term
    _, x_i, _, x_o = internal_projectors(W)
    s_approx = x_o @ partial @ S @ x_i
    coeffs = x_o @ partial
    if L is None:
        return s_approx, coeffs
    l_arr = np.array(L)
    return s_approx, list(np.einsum("jk,kab->jab", coeffs, l_arr))


def _kappa_ref(network: Network) -> float:
    couplings = (c for sys in network.systems for c in sys.couplings.values())
    return max((c.kappa for c in couplings), default=network.geometry.kappa0)


def default_tau_min(network: Network) -> float:
    """1 / max coupling kappa (geometry.kappa0 without couplings)."""
    kappa_ref = _kappa_ref(network)
    return 1.0 / kappa_ref if kappa_ref > 0 else math.inf


def validity_check(
    network: Network,
    tau_min: float | None = None,
    weight_threshold: float = DEFAULT_WEIGHT_THRESHOLD,
) -> ValidityReport:
    """Flag every path whose delay is significant but whose weight is not.

    The zero-delay contraction is trustworthy only if each path with delay
    of order the system timescale carries negligible weight.  Thresholds
    are configuration; the report carries the raw numbers and every path
    walked (weight >= weight_threshold, order from rho(SW)).
    """
    if not (0 < weight_threshold < math.inf
            and (tau_min is None or 0 <= tau_min < math.inf)):
        raise InvalidParameter(
            f"need a finite weight_threshold > 0 and a finite tau_min >= 0, "
            f"got {weight_threshold!r} and {tau_min!r}"
        )
    for conn in network.connections:
        if network.connection_distance(conn) is None:
            raise MissingGeometry(
                f"connection {conn.from_port}->{conn.to_port} has no "
                "distance and its ports lack z coordinates"
            )

    routing = routing_matrices(assemble_S(network), assemble_W(network))
    rho = routing.spectral_radius_SW
    kappa_ref = _kappa_ref(network)
    if tau_min is None:
        tau_min = default_tau_min(network)

    if rho < 1.0 and rho > 0.0:
        order = math.ceil(math.log(weight_threshold) / math.log(rho))
        max_order = int(min(max(order, 1), MAX_ORDER))
    else:
        max_order = MAX_ORDER

    records = enumerate_paths(
        network, max_order=max_order, min_weight=weight_threshold
    )
    violating = [r for r in records if violates(r, tau_min, weight_threshold)]

    # traversal count at which the accumulated path length reaches the
    # coherence length v_p / kappa_ref
    distances = [
        d
        for d in (network.connection_distance(c) for c in network.connections)
        if d is not None and d > 0.0
    ]
    if distances and kappa_ref > 0:
        ell0 = network.geometry.v_p / kappa_ref
        n_cut = int(math.ceil(ell0 / max(distances)))
    else:
        n_cut = 0

    return ValidityReport(
        tau_min=tau_min,
        weight_threshold=weight_threshold,
        violating_paths=violating,
        max_violating_weight=max(
            (abs(r.weight) for r in violating), default=0.0
        ),
        sigma_max_SW=routing.sigma_max_SW,
        spectral_radius_SW=rho,
        converged=routing.converged,
        n_cut=n_cut,
        records=records,
    )
