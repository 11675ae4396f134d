"""Network elements, connection topology and global matrix assembly.

A network is a set of scattering elements (unitary blocks over their own
ports), optional local quantum systems coupled to specific ports, and a list
of directed connections that feed a subset of output ports back into input
ports with a unit-modulus propagation phase.

Conventions fixed here and relied on everywhere else:

* global port ids are 0..N-1 and index all assembled N x N matrices;
* an element's block acts on its ports in increasing port-id order;
* the joint Hilbert space is the tensor product of the local systems in
  declaration order, with operators embedded by identity padding;
* hbar = 1, rates in rad/s, positions in meters.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateConnection,
    InvalidPortId,
    NonUnitaryBlock,
    PhaseAndDistanceBothGiven,
    PortCoverageGap,
    SchemaError,
    SelfLoopConnection,
)

TOL_UNITARY = 1e-10
TOL_HERM = 1e-10

# Qubit basis ordering: index 0 = excited |up>, index 1 = ground |down>.
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

NAMED_OPERATORS = {
    "sigma_minus": SIGMA_MINUS,
    "sigma_plus": SIGMA_PLUS,
    "sigma_x": SIGMA_X,
    "sigma_y": SIGMA_Y,
    "sigma_z": SIGMA_Z,
}


def dag(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def unitarity_deviation(matrix: np.ndarray) -> float:
    n = matrix.shape[0]
    return float(np.abs(dag(matrix) @ matrix - np.eye(n)).max())


def hermiticity_deviation(matrix: np.ndarray) -> float:
    return float(np.abs(matrix - dag(matrix)).max())


def nearest_unitary(matrix: np.ndarray) -> np.ndarray:
    """Closest unitary in Frobenius norm (the polar factor U Vh of the SVD);
    broadcasts over a leading stack axis."""
    u, _, vh = np.linalg.svd(np.asarray(matrix, dtype=complex))
    return u @ vh


SVD_SWEEPS = 10  # 2 sufficed on the 30 circulators; 10 cost 3% of 500


def unitary_with_magnitudes(
    magnitudes: np.ndarray,
    seed: int = 0,
    n_restarts: int = 20,
    n_sweeps: int = 500,
) -> np.ndarray:
    """Search for a unitary whose entry magnitudes approximate a target.

    Alternating projections between the unitary group and the set of
    matrices with the prescribed entry magnitudes, restarted from several
    random phase patterns (all restarts run as one stack).  A sweep's polar
    factor is one inverse-Newton step X + X^-H (Higham 1986; its scale
    moves no phase), but exact (SVD) at a singular iterate and in the first
    SVD_SWEEPS sweeps: from a random start, Newton left one of 30 perturbed
    circulators 6x the SVD error.  Only magnitude patterns with unit row
    and column norms can be matched closely; other patterns return the
    best unitary found.

    The result is one representative of D1 U D2 (diagonal phases) and
    complex conjugation: walking the entries with a nonzero target in
    row-major order, each one that first connects its row and column is
    real and >= 0 (row 0 and column 0 if no target is 0), and the first
    other one has imaginary part >= 0.
    """
    target = np.asarray(magnitudes, dtype=float)
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, (n_restarts,) + target.shape)
    u = target * np.exp(1j * phases)
    for sweep in range(n_sweeps):
        if sweep < SVD_SWEEPS:
            u = nearest_unitary(u)
        else:
            try:
                u = u + np.linalg.inv(u).conj().swapaxes(-1, -2)
            except np.linalg.LinAlgError:  # a singular iterate: no Newton step
                u = nearest_unitary(u)
        u = target * np.exp(1j * np.angle(u))
    u = nearest_unitary(u)
    err = np.abs(np.abs(u) - target).max(axis=(-2, -1))
    u, n = u[np.argmin(err)], len(target)
    link, tree = target > 0, np.zeros(target.shape, dtype=bool)
    joined, gauge, sign = np.arange(2 * n), np.zeros(2 * n), np.repeat([1, -1], n)
    for i, j in np.argwhere(link):  # rows are nodes 0..n-1, columns n..2n-1
        moved = joined == joined[n + j]
        if not moved[i]:  # turn what column j joins so that u_ij is real
            gauge[moved] += sign[moved] * (gauge[i] + gauge[n + j] - np.angle(u[i, j]))
            joined[moved], tree[i, j] = joined[i], True
    u = np.exp(-1j * gauge[:n, None]) * u * np.exp(-1j * gauge[n:])
    u[tree] = np.abs(u[tree])
    rest = np.flatnonzero(link & ~tree)
    return u.conj() if rest.size and u.flat[rest[0]].imag < 0 else u


@dataclass(frozen=True)
class Port:
    id: int
    element_id: str
    position_z: float | None = None


@dataclass(frozen=True)
class Coupling:
    operator: np.ndarray
    kappa: float
    phi: float = 0.0


@dataclass(frozen=True)
class ScatteringBlock:
    element_id: str
    matrix: np.ndarray


@dataclass(frozen=True)
class LocalSystem:
    element_id: str
    hilbert_dim: int
    hamiltonian: np.ndarray
    couplings: dict[int, Coupling] = field(default_factory=dict)


@dataclass(frozen=True)
class Connection:
    from_port: int
    to_port: int
    phase: float | None = None
    distance: float | None = None


@dataclass(frozen=True)
class Geometry:
    k0: float = 0.0
    v_p: float = 1.0
    kappa0: float = 1.0


@dataclass
class Network:
    ports: list[Port]
    blocks: list[ScatteringBlock]
    systems: list[LocalSystem] = field(default_factory=list)
    connections: list[Connection] = field(default_factory=list)
    geometry: Geometry = field(default_factory=Geometry)
    allow_self_loops: bool = False

    def __post_init__(self):
        if not self.ports:
            raise SchemaError("a network needs at least one port")
        self._validate_port_ids()
        self._validate_numbers()
        self._validate_blocks()
        self._validate_connections()
        self._validate_systems()

    # -- validation ------------------------------------------------------

    def _validate_port_ids(self):
        """Port ids are unique, and they, both ends of every connection and
        every coupling's port are integers (not bools) in 0..N-1: a float
        or a bool indexes the assembled matrices as another port or not at
        all, and a negative id wraps around."""
        n = self.n_ports
        ids = [("port id", p.id) for p in self.ports]
        ids += [(f"connection {c.from_port}->{c.to_port}: port", i)
                for c in self.connections for i in (c.from_port, c.to_port)]
        ids += [(f"coupling of {s.element_id!r}: port", i)
                for s in self.systems for i in s.couplings]
        for what, i in ids:
            if (isinstance(i, bool) or not isinstance(i, numbers.Integral)
                    or not 0 <= i < n):
                raise InvalidPortId(f"{what} {i!r} is not an integer in 0..{n - 1}")
        if len({p.id for p in self.ports}) != n:
            raise InvalidPortId("port ids must be 0..N-1, contiguous and unique")

    def _validate_blocks(self):
        covered: list[int] = []
        by_element = {}
        for p in self.ports:
            by_element.setdefault(p.element_id, []).append(p.id)
        seen = set()
        for block in self.blocks:
            if block.element_id in seen:
                raise PortCoverageGap(
                    f"element {block.element_id!r} has more than one block"
                )
            seen.add(block.element_id)
            port_ids = sorted(by_element.get(block.element_id, []))
            if not port_ids:
                raise PortCoverageGap(
                    f"block for unknown element {block.element_id!r}"
                )
            m = np.asarray(block.matrix, dtype=complex)
            if m.shape != (len(port_ids), len(port_ids)):
                raise PortCoverageGap(
                    f"block for element {block.element_id!r} has shape "
                    f"{m.shape}, expected {(len(port_ids), len(port_ids))}"
                )
            covered.extend(port_ids)
        if sorted(covered) != list(range(self.n_ports)):
            raise PortCoverageGap("scattering blocks do not cover every port")

    def _validate_connections(self):
        seen_from, seen_to = set(), set()
        for c in self.connections:
            if c.phase is not None and c.distance is not None:
                raise PhaseAndDistanceBothGiven(
                    f"connection {c.from_port}->{c.to_port} gives both "
                    "phase and distance"
                )
            if c.from_port in seen_from or c.to_port in seen_to:
                raise DuplicateConnection(
                    f"port reused in connection {c.from_port}->{c.to_port}"
                )
            seen_from.add(c.from_port)
            seen_to.add(c.to_port)
            if not self.allow_self_loops:
                ea = self.port(c.from_port).element_id
                eb = self.port(c.to_port).element_id
                if ea == eb:
                    raise SelfLoopConnection(
                        f"connection {c.from_port}->{c.to_port} loops "
                        f"element {ea!r} back to itself; set "
                        "allow_self_loops=True if intended"
                    )

    def _validate_systems(self):
        port_owner = {p.id: p.element_id for p in self.ports}
        for sys in self.systems:
            h = np.asarray(sys.hamiltonian, dtype=complex)
            if h.shape != (sys.hilbert_dim, sys.hilbert_dim):
                raise DimensionMismatch(
                    f"hamiltonian of {sys.element_id!r} has shape {h.shape}"
                )
            if hermiticity_deviation(h) > TOL_HERM:
                raise DimensionMismatch(
                    f"hamiltonian of {sys.element_id!r} is not Hermitian"
                )
            for port_id, coupling in sys.couplings.items():
                if port_owner.get(port_id) != sys.element_id:
                    raise DimensionMismatch(
                        f"coupling of {sys.element_id!r} references port "
                        f"{port_id} which it does not own"
                    )
                op = np.asarray(coupling.operator, dtype=complex)
                if op.shape != (sys.hilbert_dim, sys.hilbert_dim):
                    raise DimensionMismatch(
                        f"coupling operator on port {port_id} has shape "
                        f"{op.shape}, expected square dim {sys.hilbert_dim}"
                    )
                if not coupling.kappa >= 0:
                    raise DimensionMismatch(
                        f"negative decay rate on port {port_id}"
                    )

    def _validate_numbers(self):
        """Every number is finite; the SchemaError names the first entry, in
        the order below, that is not.  One isfinite runs over all of them,
        and the labels are made only when it fails (or meets a value that
        is not a number)."""
        g = self.geometry
        if not (0 < g.v_p < np.inf and 0 < g.kappa0 < np.inf):
            raise SchemaError("geometry v_p and kappa0 must be finite and > 0")
        # (label, what it formats, value); a value is a number or an array
        checked = [("z of port {0.id}", p, p.position_z or 0.0) for p in self.ports]
        checked += [("block {0.element_id!r}", b, b.matrix) for b in self.blocks]
        checked += [("connection {0.from_port}->{0.to_port}", c, x)
                    for c in self.connections
                    for x in (self.connection_phase(c), c.distance or 0.0)]
        for sys in self.systems:
            checked.append(("hamiltonian of {0.element_id!r}", sys, sys.hamiltonian))
            checked += [("coupling on port {0}", port, x)
                        for port, c in sys.couplings.items()
                        for x in (c.kappa, c.phi, c.operator)]
        scalars, arrays = [], []
        for _, _, value in checked:
            (arrays if type(value) is np.ndarray else scalars).append(value)
        try:
            values = [np.array(scalars)] + [a.ravel() for a in arrays]
            if np.isfinite(np.concatenate(values)).all():
                return
        except (TypeError, ValueError, OverflowError):
            pass  # not all numbers: the loop below finds the first that is not
        for label, of, value in checked:
            try:
                finite = np.isfinite(value).all()
            except TypeError:  # not a number at all
                finite = False
            if not finite:
                raise SchemaError(f"{label.format(of)} is not finite")

    # -- bookkeeping -----------------------------------------------------

    @property
    def n_ports(self) -> int:
        return len(self.ports)

    def port(self, port_id: int) -> Port:
        for p in self.ports:
            if p.id == port_id:
                return p
        raise SchemaError(f"unknown port id {port_id}")

    def element_ports(self, element_id: str) -> list[int]:
        return sorted(p.id for p in self.ports if p.element_id == element_id)

    def joint_dimension(self) -> int:
        d = 1
        for sys in self.systems:
            d *= sys.hilbert_dim
        return d

    def connection_phase(self, conn: Connection) -> float:
        if conn.phase is not None:
            return conn.phase
        if conn.distance is not None:
            return self.geometry.k0 * conn.distance
        return 0.0

    def connection_distance(self, conn: Connection) -> float | None:
        """Propagation distance for delays: explicit, or from port positions."""
        if conn.distance is not None:
            return conn.distance
        za = self.port(conn.from_port).position_z
        zb = self.port(conn.to_port).position_z
        if za is None or zb is None:
            return None
        return abs(zb - za)


# -- assembly ------------------------------------------------------------


def assemble_S(network: Network) -> np.ndarray:
    """Block-diagonal unitary scattering matrix in global port order.  S is
    checked whole, and block by block only to name a failing block."""
    n = network.n_ports
    s = np.zeros((n, n), dtype=complex)
    for block in network.blocks:
        idx = np.array(network.element_ports(block.element_id))
        s[idx[:, None], idx] = block.matrix
    if unitarity_deviation(s) > TOL_UNITARY:
        for block in network.blocks:
            deviation = unitarity_deviation(np.asarray(block.matrix, complex))
            if deviation > TOL_UNITARY:
                raise NonUnitaryBlock(
                    f"scattering block {block.element_id!r} is not unitary "
                    f"(max deviation {deviation:.3e})"
                )
    return s


def assemble_W(network: Network) -> np.ndarray:
    """Connection matrix: rows index inputs, columns index outputs."""
    n = network.n_ports
    w = np.zeros((n, n), dtype=complex)
    for conn in network.connections:
        w[conn.to_port, conn.from_port] = np.exp(1j * network.connection_phase(conn))
    return w


def internal_projectors(w: np.ndarray):
    """(I_i, X_i, I_o, X_o) as exact 0/1 diagonal matrices (w may be a stack)."""
    eye = np.eye(w.shape[-1], dtype=complex)
    mag = np.abs(w)
    i_i = np.where((mag.sum(axis=-1) > 0.5)[..., :, None], eye, 0.0)
    i_o = np.where((mag.sum(axis=-2) > 0.5)[..., None, :], eye, 0.0)
    return i_i, eye - i_i, i_o, eye - i_o


def external_ports(w: np.ndarray):
    """(external inputs, external outputs): ports W leaves unconnected."""
    _, x_i, _, x_o = internal_projectors(w)
    return [np.flatnonzero(x.diagonal().real > 0.5).tolist() for x in (x_i, x_o)]


def embed_operator(network: Network, element_id: str, op: np.ndarray) -> np.ndarray:
    """Embed a local operator into the joint space by identity padding."""
    result = np.array([[1.0 + 0.0j]])
    found = False
    for sys in network.systems:
        if sys.element_id == element_id:
            result = np.kron(result, np.asarray(op, dtype=complex))
            found = True
        else:
            result = np.kron(result, np.eye(sys.hilbert_dim, dtype=complex))
    if not found:
        raise DimensionMismatch(f"no local system for element {element_id!r}")
    return result


def assemble_L(network: Network) -> list[np.ndarray]:
    """Joint-space emission operators, indexed by output port.

    Entry i is sqrt(kappa) e^{i phi} times the coupling operator of the
    system owning port i, identity-padded to the joint space; ports without
    a coupling get the zero operator.
    """
    d = network.joint_dimension()
    ops = [np.zeros((d, d), dtype=complex) for _ in range(network.n_ports)]
    for sys in network.systems:
        for port_id, coupling in sys.couplings.items():
            scale = np.sqrt(coupling.kappa) * np.exp(1j * coupling.phi)
            ops[port_id] = scale * embed_operator(
                network, sys.element_id, coupling.operator
            )
    return ops


def assemble_H_sys(network: Network) -> np.ndarray:
    """Sum of local Hamiltonians embedded into the joint space."""
    d = network.joint_dimension()
    h = np.zeros((d, d), dtype=complex)
    for sys in network.systems:
        h += embed_operator(network, sys.element_id, sys.hamiltonian)
    return h


# -- JSON file format ----------------------------------------------------


def _matrix_to_pairs(m: np.ndarray):
    a = np.asarray(m, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _not_bool(value, what: str):
    """value, unless JSON gave a boolean where a number belongs: float(true)
    and complex(true, 0) would read it as 1."""
    if isinstance(value, bool):
        raise SchemaError(f"{what}: expected a number, got {value!r}")
    return value


def _whole(value, what: str) -> int:
    """value, unless it is not a whole number: int(2.5) reads 2."""
    if not isinstance(_not_bool(value, what), numbers.Real) or value % 1:
        raise SchemaError(f"{what}: expected an integer, got {value!r}")
    return int(value)


def _object(value, what: str) -> dict:
    """value, unless it is not a JSON object: .get() would fail."""
    if not isinstance(value, dict):
        raise SchemaError(f"{what}: expected an object, got {value!r}")
    return value


def _objects(items, what: str) -> list[dict]:
    return [_object(item, f"{what}[{i}]") for i, item in enumerate(items)]


def _pairs_to_matrix(rows, what: str) -> np.ndarray:
    try:
        return np.array(
            [[complex(_not_bool(re, what), _not_bool(im, what)) for re, im in row]
             for row in rows],
            dtype=complex,
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed complex matrix: {exc}") from exc


def _operator_from_spec(spec, what: str) -> np.ndarray:
    if isinstance(spec, str):
        if spec not in NAMED_OPERATORS:
            raise SchemaError(f"unknown operator name {spec!r}")
        return NAMED_OPERATORS[spec]
    return _pairs_to_matrix(spec, what)


def network_to_dict(network: Network) -> dict:
    return {
        "ports": [
            {"id": p.id, "element": p.element_id, "z": p.position_z}
            for p in network.ports
        ],
        "blocks": [
            {"element": b.element_id, "matrix": _matrix_to_pairs(b.matrix)}
            for b in network.blocks
        ],
        "systems": [
            {
                "element": s.element_id,
                "dim": s.hilbert_dim,
                "hamiltonian": _matrix_to_pairs(s.hamiltonian),
                "couplings": [
                    {
                        "port": port_id,
                        "op": _matrix_to_pairs(c.operator),
                        "kappa": c.kappa,
                        "phi": c.phi,
                    }
                    for port_id, c in sorted(s.couplings.items())
                ],
            }
            for s in network.systems
        ],
        "connections": [
            {
                "from": c.from_port,
                "to": c.to_port,
                **({"phase": c.phase} if c.phase is not None else {}),
                **({"distance": c.distance} if c.distance is not None else {}),
            }
            for c in network.connections
        ],
        "geometry": {
            "k0": network.geometry.k0,
            "v_p": network.geometry.v_p,
            "kappa0": network.geometry.kappa0,
        },
        "allow_self_loops": network.allow_self_loops,
    }


def network_from_dict(data: dict) -> Network:
    """The Network a JSON dict describes; SchemaError names a missing or
    malformed field, an entry that is not an object, a boolean where a
    number belongs, a dimension that is not a whole number and a
    non-boolean allow_self_loops (bool("false") would read True)."""
    try:
        ports = [
            Port(id=p["id"], element_id=p["element"],
                 position_z=_not_bool(p.get("z"), f"z of port {p['id']}"))
            for p in _objects(data["ports"], "ports")
        ]
        blocks = [
            ScatteringBlock(b["element"], _pairs_to_matrix(
                b["matrix"], f"block {b['element']!r}"))
            for b in _objects(data["blocks"], "blocks")
        ]
        systems = []
        for i, s in enumerate(_objects(data.get("systems", []), "systems")):
            couplings = {}
            for c in _objects(s.get("couplings", []), f"systems[{i}].couplings"):
                on = f"of the coupling on port {c['port']}"
                couplings[c["port"]] = Coupling(
                    operator=_operator_from_spec(c["op"], f"operator {on}"),
                    kappa=float(_not_bool(c["kappa"], f"kappa {on}")),
                    phi=float(_not_bool(c.get("phi", 0.0), f"phi {on}")),
                )
            of = f"of {s['element']!r}"
            systems.append(
                LocalSystem(
                    element_id=s["element"],
                    hilbert_dim=_whole(s["dim"], f"dim {of}"),
                    hamiltonian=_pairs_to_matrix(s["hamiltonian"],
                                                 f"hamiltonian {of}"),
                    couplings=couplings,
                )
            )
        connections = []
        for c in _objects(data.get("connections", []), "connections"):
            of = f"of connection {c['from']}->{c['to']}"
            connections.append(Connection(
                from_port=c["from"],
                to_port=c["to"],
                phase=_not_bool(c.get("phase"), f"phase {of}"),
                distance=_not_bool(c.get("distance"), f"distance {of}"),
            ))
        geo = _object(data.get("geometry", {}), "geometry")
        geometry = Geometry(**{
            f.name: float(_not_bool(geo.get(f.name, f.default), f"geometry {f.name}"))
            for f in fields(Geometry)
        })
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"missing or malformed field: {exc}") from exc
    self_loops = data.get("allow_self_loops", False)
    if not isinstance(self_loops, bool):
        raise SchemaError(
            f"allow_self_loops: expected true or false, got {self_loops!r}")
    return Network(
        ports=ports,
        blocks=blocks,
        systems=systems,
        connections=connections,
        geometry=geometry,
        allow_self_loops=self_loops,
    )


_JSON_WORDS = {None: "null", True: "true", False: "false"}
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_json_quote = json.encoder.encode_basestring_ascii  # json.dumps' ensure_ascii


def _pairs_text(rows: list, nl: str) -> str | None:
    """rows, a list of lists of [re, im] Python floats, as json.dumps(indent=2)
    lays it out after the newline-and-indent nl, from one template per pair;
    None if rows is anything else (a row or pair that is not a list, an
    empty row, or a number float.__repr__ writes unlike JSON: an int, a
    bool, NaN or an infinity)."""
    n1, n2, n3, r = nl + "  ", nl + "    ", nl + "      ", float.__repr__
    try:
        if not all(rows):
            return None
        text = f",{n1}".join([
            f"[{n2}" + f",{n2}".join([f"[{n3}{r(a)},{n3}{r(b)}{n2}]"
                                      for a, b in map(list.copy, row)])
            + f"{n1}]" for row in map(list.copy, rows)])
    except (TypeError, ValueError):
        return None
    return None if "n" in text else f"[{n1}{text}{nl}]"  # 'nan', 'inf'


def _emit(o, nl: str, out: list, sort_keys: bool) -> None:
    """Append the text of o, which follows the newline-and-indent nl, to out."""
    if isinstance(o, str):
        out.append(_json_quote(o))
    elif o is None or o is True or o is False:
        out.append(_JSON_WORDS[o])
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        text = float.__repr__(o)
        out.append(_JSON_FLOATS.get(text, text))
    elif isinstance(o, dict):
        inner, sep = nl + "  ", "{"
        for key, value in sorted(o.items()) if sort_keys else o.items():
            out.append(f"{sep}{inner}{_json_quote(key)}: ")
            _emit(value, inner, out, sort_keys)
            sep = ","
        out.append(nl + "}" if o else "{}")
    elif isinstance(o, (list, tuple)):
        text = _pairs_text(o, nl) if o and isinstance(o[0], list) else None
        if text is not None:
            out.append(text)
            return
        inner, sep = nl + "  ", "["
        for value in o:
            out.append(sep + inner)
            _emit(value, inner, out, sort_keys)
            sep = ","
        out.append(nl + "]" if o else "[]")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _json_text(obj, sort_keys: bool = False) -> str:
    """json.dumps(obj, indent=2, sort_keys=sort_keys), byte for byte, for
    dicts with str keys, lists, tuples, str, bool, None, int and float
    (numpy float64 included); any other value raises TypeError.  The
    stdlib writes an indented document in pure Python, one value at a
    time; here a complex-pair matrix (_matrix_to_pairs) is written whole."""
    out = []
    _emit(obj, "\n", out, sort_keys)
    return "".join(out)


def read_json(path):
    """The JSON value in a file, read as bytes (UTF-8, -16 or -32);
    SchemaError if it does not decode or parse."""
    try:
        return json.loads(Path(path).read_bytes())
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise SchemaError(f"invalid JSON: {exc}") from exc


def load_network(path) -> Network:
    return network_from_dict(read_json(path))


def save_network(network: Network, path) -> None:
    Path(path).write_text(_json_text(network_to_dict(network)) + "\n", newline="\n")
