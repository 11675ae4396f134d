"""Scattering-path enumeration, the truncated-series oracle and the
weak-loop validity criterion.

Every multi-traversal path through the network is an alternating product of
W hops (propagation, with delay) and S hops (instantaneous scattering).  A
path is recorded by the sequence of output ports it visits; its weight is
the product of the corresponding S W matrix elements and its delay the sum
of the lengths of the connections it crosses divided by the phase velocity.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

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
    """One walked path.  Its family follows from its length: a path from
    an external input spends its first hop on S, so it visits one port
    more than it makes traversals; a path from a source port does not."""
    port_sequence: tuple
    n_traversals: int
    weight: complex
    delay: float

    @property
    def from_source(self) -> bool:
        return self.n_traversals == len(self.port_sequence) - 1


@dataclass
class ValidityReport:
    tau_min: float
    weight_threshold: float
    n_paths: int  # paths walked
    n_violating: int  # of them, those that violate
    n_depth_cut: int  # of them, those at MAX_ORDER: still heavy at the cut
    max_violating_weight: float
    heaviest: list  # the ten heaviest paths walked, heaviest first
    sigma_max_SW: float
    spectral_radius_SW: float
    converged: bool  # the loop passes the contraction's rho test

    @property
    def valid(self) -> bool:
        """The loop converges, and no walked path violates or is cut."""
        return bool(self.converged) and self.n_violating == 0 and self.n_depth_cut == 0


def violates(record: PathRecord, tau_min: float, weight_threshold: float) -> bool:
    """The weak-loop test of one path: slow (delay >= tau_min) and heavy
    (|w| >= weight_threshold)."""
    return record.delay >= tau_min and abs(record.weight) >= weight_threshold


def enumerate_paths(network: Network, max_order: int, min_weight: float) -> list:
    """All weighted paths up to max_order <= MAX_ORDER traversals, an int.

    Two families share one walk.  A path entering at an external input
    takes its first hop through S (an S matrix element, zero traversals);
    a path emitted by a coupled source port starts with weight 1 and takes
    its first hop through SW.  Every later hop is an S W matrix element and
    one traversal.  Every prefix of a longer path is itself recorded, just
    before its extensions, so consumers filter on the terminal port.
    Depth-first with weight pruning; deterministic.  A traversal adds the
    delay connection_distance / v_p of the connection it crosses (0 where
    that is None, which validity_check refuses), an S hop none.  The
    arguments are checked before S and W are assembled, once each.
    """
    if not (isinstance(max_order, (int, np.integer))
            and not isinstance(max_order, bool)
            and 0 <= max_order <= MAX_ORDER and 0 <= min_weight < math.inf):
        raise InvalidParameter(
            f"need 0 <= max_order <= {MAX_ORDER} and a finite min_weight "
            f">= 0, got {max_order!r} and {min_weight!r}"
        )
    s, w = assemble_S(network), assemble_W(network)
    return list(_walk(network, s, w, s @ w, max_order, min_weight))


def _walk(network: Network, s: np.ndarray, w: np.ndarray, sw: np.ndarray,
          max_order: int, min_weight: float):
    """enumerate_paths' records, yielded one at a time from a stack, on the
    network's S, W and sw = S @ W; the caller checks the arguments."""
    s_hops, sw_hops = _column_hops(s), _column_hops(sw)
    # sw_delays[k]: the delay of the connection that leaves output port k
    sw_delays = [0.0] * network.n_ports
    for c in network.connections:
        length = network.connection_distance(c)
        if length is not None:
            sw_delays[c.from_port] = length / network.geometry.v_p
    sources = sorted({port for sys in network.systems for port in sys.couplings})
    # the first hops, last popped first: an external input's S element is
    # its path's whole weight ((1 + 0j) * amp can flip the sign of a zero
    # part), and a source port's paths start from weight 1 and delay 0
    stack = [((k, j), amp, 0.0, 0)
             for k in external_ports(w)[::-1] for j, amp in s_hops[k]]
    if max_order >= 1:
        stack += [((k, j), (1.0 + 0.0j) * amp, 0.0 + sw_delays[k], 1)
                  for k in sources[::-1] for j, amp in sw_hops[k]]
    n_records = 0
    while stack:
        path, weight, tau, n = stack.pop()
        if abs(weight) < min_weight:
            continue
        n_records += 1
        if n_records > RECORD_CAP:
            raise PathExplosion(f"more than {RECORD_CAP} path records")
        yield PathRecord(path, n, weight, tau)
        if n < max_order:
            k = path[-1]
            tau += sw_delays[k]
            n += 1
            for j, amp in sw_hops[k]:
                stack.append((path + (j,), weight * amp, tau, n))


def _column_hops(m: np.ndarray) -> list:
    """The nonzero entries (j, m[j, k]) of each column k of m, amplitudes
    as Python complex, reversed so that the stack pops each path's
    extensions in order."""
    cols, rows = np.nonzero(m.T)  # by column, then by row
    amps = m[rows, cols].tolist()
    rows = rows.tolist()
    ends = np.searchsorted(cols, np.arange(m.shape[1] + 1)).tolist()
    return [list(zip(rows[a:b], amps[a:b]))[::-1]
            for a, b in zip(ends, ends[1:])]


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


def default_tau_min(network: Network) -> float:
    """1 / max coupling kappa (geometry.kappa0 without couplings)."""
    couplings = (c for sys in network.systems for c in sys.couplings.values())
    kappa_ref = max((c.kappa for c in couplings),
                    default=network.geometry.kappa0)
    return 1.0 / kappa_ref if kappa_ref > 0 else math.inf


def validity_check(
    network: Network,
    tau_min: float | None = None,
    weight_threshold: float = DEFAULT_WEIGHT_THRESHOLD,
) -> ValidityReport:
    """Flag every path whose delay is significant but whose weight is not.

    The zero-delay contraction is trustworthy only if its loop converges
    and each path with delay of order the system timescale carries
    negligible weight.  Thresholds are configuration; the report carries
    the raw numbers, path counts and the ten heaviest paths (|w| >=
    weight_threshold).  S and W are assembled once: routing_matrices
    inverts 1 - SW, and the walk runs on the same S, W and SW.

    The weight cut alone ends the walk; no depth is derived from rho(SW).
    Every |SW| entry is at most 1, so with lam the max-times spectral
    radius of |SW| an n-traversal path has |w| <= lam**(n - N + 1), and
    the walk stops by order N - 1 + log(weight_threshold) / log(lam).  Past
    MAX_ORDER it is cut: the paths recorded there are n_depth_cut.  The
    report is valid only when it is converged and both counts are 0.
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

    s, w = assemble_S(network), assemble_W(network)
    routing = routing_matrices(s, w)
    if tau_min is None:
        tau_min = default_tau_min(network)

    n_paths = n_violating = n_depth_cut = 0
    max_violating_weight = 0.0

    def tally(records):
        nonlocal n_paths, n_violating, n_depth_cut, max_violating_weight
        for r in records:
            n_paths += 1
            if violates(r, tau_min, weight_threshold):
                n_violating += 1
                max_violating_weight = max(max_violating_weight, abs(r.weight))
            if r.n_traversals == MAX_ORDER:
                n_depth_cut += 1
            yield r

    # equal to the stable sorted(..., key=-|w|)[:10], ties in walk order
    heaviest = heapq.nlargest(
        10, tally(_walk(network, s, w, routing.SW, MAX_ORDER, weight_threshold)),
        key=lambda r: abs(r.weight),
    )

    return ValidityReport(
        tau_min=tau_min,
        weight_threshold=weight_threshold,
        n_paths=n_paths,
        n_violating=n_violating,
        n_depth_cut=n_depth_cut,
        max_violating_weight=max_violating_weight,
        heaviest=heaviest,
        sigma_max_SW=routing.sigma_max_SW,
        spectral_radius_SW=routing.spectral_radius_SW,
        converged=routing.converged,
    )
