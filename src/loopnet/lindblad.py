"""Vacuum-input Lindblad dynamics generated by a contracted model.

The master equation uses the effective Lindblad operators and effective
Hamiltonian; time dependence enters only through scalar prefactors
sqrt(kappa(t)) e^{i phi(t)} on the per-port coupling operators and through
scheduled Hermitian control terms added to the system Hamiltonian.  The
network routing (G, the l_eff coefficient rows) is time independent.

Superoperators use the column-major vectorization convention:
vec(A rho B) = (B.T kron A) vec(rho).  integrate propagates the real
coordinates of rho (rho_ii, Re rho_ij and Im rho_ij for i < j) under the
real form T G T^-1 of each generator, so its states are Hermitian by
construction.  It steps only the coordinates reachable from rho0 through
the generators' nonzero entries; every other one stays exactly 0.  With
vacuum inputs, lowering-operator couplings and excitation-conserving
Hamiltonians that is the block of rho0's excitation numbers, a few of the
D^2 coordinates from a basis state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .contraction import EffectiveModel, _h_net
from .errors import InvalidParameter, ScheduleMissing, StepUnstable
from .network import Network, dag, embed_operator

TOL_TRACE = 1e-8
TOL_HERM_STEP = 1e-10
# The most RK4 steps one integration may take.  Checked before anything is
# allocated, so an absurd t_final/dt fails at once instead of running for
# hours or exhausting memory; the largest run in the tests takes 10^5.
MAX_STEPS = 10**7


def step_count(t_final: float, dt: float) -> int:
    """RK4 steps over [0, t_final] at about dt: max(1, round(t_final/dt)).

    Raises InvalidParameter unless dt > 0 and t_final >= 0 are finite, or
    when t_final/dt exceeds MAX_STEPS.
    """
    if not (0 < dt < np.inf and 0 <= t_final < np.inf):
        raise InvalidParameter(
            f"dt must be positive and t_final non-negative, both finite "
            f"(dt={dt}, t_final={t_final})"
        )
    ratio = t_final / dt
    if not ratio <= MAX_STEPS:
        raise InvalidParameter(
            f"t_final/dt = {ratio:.3g} exceeds the {MAX_STEPS:.0e} RK4 steps "
            "one integration may take; raise dt or shorten the run"
        )
    return max(1, int(round(ratio)))


class Schedule:
    """Deterministic time function on [0, T]: constant, sampled or callable.

    on(times) evaluates a 1d array of times at once: one fill for a
    constant, one np.interp for samples, one call per element otherwise.
    """

    def __init__(self, fn, on=None):
        self._fn = fn
        self._on = on

    def __call__(self, t: float) -> float:
        return float(self._fn(t))

    def on(self, times: np.ndarray) -> np.ndarray:
        if self._on is not None:
            return self._on(times)
        return np.fromiter(map(self, times), dtype=float, count=len(times))

    @classmethod
    def constant(cls, value: float) -> "Schedule":
        return cls(lambda t: value, lambda ts: np.full(len(ts), float(value)))

    @classmethod
    def sampled(cls, times: np.ndarray, values: np.ndarray) -> "Schedule":
        """Linear interpolation of values at times, held constant outside.

        times must be a non-empty, finite, strictly increasing 1d array
        (np.interp gives meaningless values otherwise) and values a 1d
        array of the same length; otherwise InvalidParameter.
        """
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise InvalidParameter(
                "times and values must be equal-length 1d arrays"
            )
        if not times.size:
            raise InvalidParameter("a sampled schedule needs at least one sample")
        if not np.isfinite(times).all():
            raise InvalidParameter("sample times must be finite")
        if not (np.diff(times) > 0).all():
            raise InvalidParameter("sample times must be strictly increasing")
        return cls(lambda t: np.interp(t, times, values),
                   lambda ts: np.interp(ts, times, values))


@dataclass
class PortControl:
    """Time-dependent coupling on one output port.

    bare_op is the joint-space coupling operator without any rate or phase
    prefactor; the full operator at time t is sqrt(kappa(t)) e^{i phi(t)}
    bare_op.
    """

    bare_op: np.ndarray
    kappa: Schedule
    phi: Schedule


@dataclass
class Controls:
    ports: dict = field(default_factory=dict)  # port id -> PortControl
    hamiltonian: list = field(default_factory=list)  # (Hermitian op, Schedule)


def controls_from_network(
    network: Network,
    kappa_schedules: dict | None = None,
    phi_schedules: dict | None = None,
    hamiltonian_terms: list | None = None,
) -> Controls:
    """Build Controls for a network's coupled ports.

    kappa_schedules / phi_schedules map port ids to Schedules; ports not
    mentioned keep their static values.  Each port appearing in either map
    must carry a coupling in the network.
    """
    kappa_schedules = kappa_schedules or {}
    phi_schedules = phi_schedules or {}
    coupled = {
        port: (sys.element_id, c)
        for sys in network.systems
        for port, c in sys.couplings.items()
    }
    ports = {}
    for port in set(kappa_schedules) | set(phi_schedules):
        if port not in coupled:
            raise ScheduleMissing(f"port {port} has no coupling to control")
        element_id, coupling = coupled[port]
        bare = embed_operator(network, element_id, coupling.operator)
        ports[port] = PortControl(
            bare_op=bare,
            kappa=kappa_schedules.get(port, Schedule.constant(coupling.kappa)),
            phi=phi_schedules.get(port, Schedule.constant(coupling.phi)),
        )
    return Controls(ports=ports, hamiltonian=list(hamiltonian_terms or []))


def _control_values(controls: Controls, times: np.ndarray):
    """({port: c_k}, [the weight of each Hamiltonian term]), arrays over
    times, c_k = sqrt(kappa_k) e^{i phi_k}: every schedule of controls,
    evaluated and checked in one place.  StepUnstable names the earliest
    time where a kappa is negative or not finite, or a phi or a weight is
    not finite, and its port or term."""
    kappa = {k: ctl.kappa.on(times) for k, ctl in controls.ports.items()}
    phi = {k: ctl.phi.on(times) for k, ctl in controls.ports.items()}
    h_weights = [schedule.on(times) for _, schedule in controls.hamiltonian]
    checks = [(f"kappa schedule on port {k}", v, (v >= 0) & (v < np.inf))
              for k, v in kappa.items()]
    checks += [(f"phi schedule on port {k}", v, np.isfinite(v))
               for k, v in phi.items()]
    checks += [(f"schedule of Hamiltonian term {i}", v, np.isfinite(v))
               for i, v in enumerate(h_weights)]
    bad = [(int(np.argmin(ok)), order, label, v)
           for order, (label, v, ok) in enumerate(checks) if not ok.all()]
    if bad:  # the earliest time, then the first schedule
        i, _, label, v = min(bad)
        kind = "negative" if -np.inf < v[i] < 0 else "non-finite"
        raise StepUnstable(f"{kind} {label} at t={times[i]}")
    c = {k: np.sqrt(kappa[k]) * np.exp(1j * phi[k]) for k in kappa}
    return c, h_weights


def _check_operators(model: EffectiveModel, controls: Controls) -> None:
    """InvalidParameter unless every controlled port is one of the model's
    and every bare operator and Hamiltonian term is a finite D x D matrix."""
    d, n = model.h_sys.shape[0], len(model.base_L)
    for port in controls.ports:
        if port not in range(n):
            raise InvalidParameter(f"controlled port {port} is not in 0..{n - 1}")
    named = [(f"the operator of port {k}", c.bare_op)
             for k, c in controls.ports.items()]
    named += [(f"Hamiltonian term {i}", op)
              for i, (op, _) in enumerate(controls.hamiltonian)]
    for name, op in named:
        if np.shape(op) != (d, d):
            raise InvalidParameter(
                f"{name} has shape {np.shape(op)}, expected ({d}, {d})")
        if not np.isfinite(op).all():
            raise InvalidParameter(f"{name} has a non-finite entry")


def effective_operators_at(model: EffectiveModel, controls: Controls, t: float):
    """(H_eff(t), list of effective Lindblad operators at time t): a
    controlled port's L is c_k(t) = sqrt(kappa(t)) e^{i phi(t)} times its
    bare operator, and H_sys gains schedule(t) times each control term, all
    from _control_values (StepUnstable for a bad schedule value);
    InvalidParameter from _check_operators for a malformed operator."""
    _check_operators(model, controls)
    c, h_weights = _control_values(controls, np.array([float(t)]))
    ops = list(model.base_L)
    for port, ctl in controls.ports.items():
        ops[port] = c[port][0] * ctl.bare_op
    h_sys = model.h_sys
    for (op, _), w in zip(controls.hamiltonian, h_weights):
        h_sys = h_sys + w[0] * op
    l_arr = np.array(ops)
    h_eff = h_sys + _h_net(model.routing.G, l_arr)
    l_eff = np.einsum("jk,kab->jab", model.l_eff_coeffs, l_arr)
    return h_eff, list(l_eff)


def liouvillian(h_eff: np.ndarray, l_eff_ops) -> np.ndarray:
    """Vectorized Lindblad generator (column-major convention); a zero
    operator adds no dissipator."""
    d = h_eff.shape[0]
    eye = np.eye(d, dtype=complex)
    gen = -1j * (np.kron(eye, h_eff) - np.kron(h_eff.T, eye))
    for op in filter(np.any, l_eff_ops):
        op_dag_op = dag(op) @ op
        gen += np.kron(op.conj(), op)
        gen -= 0.5 * np.kron(eye, op_dag_op)
        gen -= 0.5 * np.kron(op_dag_op.T, eye)
    return gen


def build_generator(
    model: EffectiveModel, controls: Controls, t: float
) -> np.ndarray:
    """The D^2 x D^2 master-equation generator at time t; StepUnstable if
    it overflows (finite schedule values beyond double precision)."""
    with np.errstate(over="ignore", invalid="ignore"):
        gen = liouvillian(*effective_operators_at(model, controls, t))
    if not np.isfinite(gen).all():
        raise StepUnstable(f"the generator at t={t} overflows double precision")
    return gen


class _GeneratorAssembler:
    """Fast exact generator assembly at many times at once.

    The generator is bilinear in the per-port scalars
    c_k(t) = sqrt(kappa_k(t)) e^{i phi_k(t)}: writing L_k = c_k Ltilde_k,
    both the network Hamiltonian (1/2i) sum K_jk L_j^dag L_k and the
    dissipator sum [M^dag M]_jk (L_k rho L_j^dag - ...) decompose into
    fixed superoperators T_jk weighted by w_jk = c_j^* c_k.  As w_kj is
    w_jk^*, a pair j < k contributes Re w_jk (T_jk + T_kj) + Im w_jk
    i (T_jk - T_kj), so every term has a real weight.  The terms are
    `terms` (terms, D^2, D^2): first, of weight 1, build_generator of the
    model with the scheduled ports' operators zeroed (the whole generator
    without controls), then the scheduled Hamiltonian terms, then the pairs
    with a scheduled port.  Their sum with the weights equals
    build_generator up to roundoff; integrate takes each term to real
    coordinates once, so its generators at n times are one real
    (n, terms) @ (terms, D^4) product.
    """

    def __init__(self, model: EffectiveModel, controls: Controls):
        self.controls = controls
        d = model.h_sys.shape[0]
        _check_operators(model, controls)
        eye = np.eye(d, dtype=complex)

        # coupled ports: bare operator without the rate or phase prefactor
        ports = [k for k, op in enumerate(model.base_L) if np.any(op != 0)]
        ports += [k for k in controls.ports if k not in ports]
        bare = {k: model.base_L[k] for k in ports}
        bare.update((k, ctl.bare_op) for k, ctl in controls.ports.items())
        unscheduled = [np.zeros_like(op) if k in controls.ports else op
                       for k, op in enumerate(model.base_L)]

        g = model.routing.G
        k_mat = g - dag(g)
        mdm = dag(model.l_eff_coeffs) @ model.l_eff_coeffs

        def h_super(h):
            return -1j * (np.kron(eye, h) - np.kron(h.T, eye))

        def pair_term(j, k):
            lj, lk = bare[j], bare[k]
            anti = dag(lj) @ lk
            term = h_super(anti / 2j * k_mat[j, k]) if k_mat[j, k] else 0
            return term + mdm[j, k] * (
                np.kron(lj.conj(), lk)
                - 0.5 * np.kron(eye, anti)
                - 0.5 * np.kron(anti.T, eye)
            )

        rows = [h_super(op) for op, _ in controls.hamiltonian]
        self.pairs = []  # (j, k), j <= k in port order, with a scheduled port
        for a, j in enumerate(ports):
            for k in ports[a:]:
                if j not in controls.ports and k not in controls.ports:
                    continue
                t_jk = pair_term(j, k)
                t_kj = pair_term(k, j) if k != j else 0
                if np.any(t_jk != 0) or np.any(t_kj != 0):
                    self.pairs.append((j, k))
                    rows += [t_jk] if k == j else [t_jk + t_kj, 1j * (t_jk - t_kj)]
        static = build_generator(replace(model, base_L=unscheduled),
                                 Controls(), 0.0)
        self.terms = np.array([static, *rows])

    def weights(self, times: np.ndarray) -> np.ndarray:
        """Real weights (len(times), terms) of the rows of `terms` at each
        time, written column by column into one array, from
        _control_values (StepUnstable for a bad schedule value)."""
        c, h_weights = _control_values(self.controls, times)
        out = np.empty((len(times), len(self.terms)))
        out[:, 0] = 1.0
        for col, w in enumerate(h_weights, 1):
            out[:, col] = w
        col = 1 + len(h_weights)
        for j, k in self.pairs:
            w = np.conj(c.get(j, 1.0)) * c.get(k, 1.0)
            for part in [w.real] if k == j else [w.real, w.imag]:
                out[:, col] = part
                col += 1
        return out


def rk4_step_matrix(a_start, a_mid, a_end, h: float, out=None):
    """One classical RK4 step of y' = A(t) y as a matrix, over leading axes.

    a_start, a_mid, a_end: A at t, t + h/2 and t + h.  Returns the step
    matrix P = I + h/6 (K1 + 2K2 + 2K3 + K4), K1 = A(t), K2 = A(t + h/2) S1,
    K3 = A(t + h/2) S2, K4 = A(t + h) S3, and the stage maps (S1, S2, S3),
    S1 = I + h/2 K1, S2 = I + h/2 K2, S3 = I + h K3, which take y_n to the
    RK4 stage states.  For a constant A, P = sum_{k<=4} (hA)^k / k!.  out
    holds five arrays shaped like a_start that receive P, S1, S2, S3 and a
    scratch K3 (five new arrays when None).

    Each sum is accumulated in place, in the order of the formulas, so the
    result is bit-identical to evaluating them term by term.  The identity
    is added on the diagonal only: adding its off-diagonal zeros would
    change an entry only where it is -0.0, into +0.0.  P's off-diagonal
    entries come out of the sums of matmul outputs, where a zero is +0.0,
    so P keeps its bits; S1 may keep a -0.0 (h/2 of a -0.0 in a_start),
    which leaves every product formed from it unchanged.
    """
    if out is None:
        out = [np.empty(a_start.shape) for _ in range(5)]
    p, s1, s2, s3, k3 = out
    np.multiply(0.5 * h, a_start, out=s1)
    _diagonal(s1)[...] += 1.0
    np.matmul(a_mid, s1, out=p)  # K2
    np.multiply(0.5 * h, p, out=s2)
    _diagonal(s2)[...] += 1.0
    np.matmul(a_mid, s2, out=k3)
    np.multiply(h, k3, out=s3)
    _diagonal(s3)[...] += 1.0
    p *= 2.0  # K1 + 2 K2 + 2 K3 + K4, then I + h/6 (...)
    p += a_start
    k3 *= 2.0
    p += k3
    p += np.matmul(a_end, s3, out=k3)
    p *= h / 6.0
    _diagonal(p)[...] += 1.0
    return p, (s1, s2, s3)


def _diagonal(x: np.ndarray) -> np.ndarray:
    """The writable view of the diagonals of a stack of square matrices."""
    return np.einsum("...ii->...i", x)


def _rk4_block(gens, y, h: float, out=None):
    """RK4 over a block of m steps of y' = A(t) y: gens holds A at the half
    steps t_0, t_0 + h/2, ..., t_m, and y (m + 1, n) receives y_1..y_m from
    y[0].  The step matrices P_n (rk4_step_matrix, into out) become their
    prefix products Q_i = P_i ... P_0 in place by the Brent-Kung scan (at
    most 2 log2(m) levels of batched products, fewer than 2m in all), and
    y_i+1 = Q_i y_0 is one batched product.  Returns the stage maps; an
    unstable step overflows quietly, for _check_block to find."""
    with np.errstate(over="ignore", invalid="ignore"):
        q, stage_maps = rk4_step_matrix(gens[:-1:2], gens[1::2], gens[2::2], h,
                                        out=out)
        m = len(q)
        s = 1  # up-sweep: q[i] = P_i ... P_i-2s+1 where i = -1 mod 2s
        while 2 * s <= m:
            t = q[2 * s - 1::2 * s]
            t[...] = t @ q[s - 1:m - s:2 * s]
            s *= 2
        while s > 1:  # down-sweep: q[i] = P_i ... P_0 where i = -1 mod s
            s //= 2
            t = q[3 * s - 1::2 * s]
            t[...] = t @ q[2 * s - 1:m - s:2 * s]
        np.matmul(q, y[0], out=y[1:])
    return stage_maps


def _reachable(pattern: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Sorted indices of the coordinates reachable from the True entries of
    start along the nonzero pattern of a generator, pattern[i, j] = A_ij
    != 0 (coordinate j feeds i): the smallest set that holds start and that
    y' = A y maps into itself, so every other coordinate stays exactly 0."""
    reach, new = start.copy(), start
    while new.any():
        new = pattern[:, new].any(axis=1) & ~reach
        reach |= new
    return np.flatnonzero(reach)


def _check_block(y, start: int, trace=None) -> float:
    """Raise StepUnstable at the first bad step of a block of states y[1:]
    after steps start, start + 1, ...: a coordinate not finite or above
    1 + 100x TOL_TRACE in modulus (no density matrix entry or Bloch
    component exceeds 1), or, where given, a per-step trace drift above
    100x TOL_TRACE.  Two whole-block reductions, searched step by step
    only on failure.  Returns the block's largest trace drift."""
    entry = np.abs(y[1:]).max()
    drift = 0.0 if trace is None else trace.max(initial=0.0)
    if entry <= 1.0 + 100 * TOL_TRACE and drift <= 100 * TOL_TRACE:
        return float(drift)
    entry = np.abs(y[1:]).max(axis=1)
    ok = entry <= 1.0 + 100 * TOL_TRACE
    if trace is not None:
        ok &= trace <= 100 * TOL_TRACE
    i = int((~ok).argmax())
    detail = f"largest |y| {entry[i]:.9g}" if trace is None else (
        f"largest |Re, Im rho_ij| {entry[i]:.9g}, trace {trace[i]:.3e}")
    raise StepUnstable(f"drift at step {start + i}: {detail}; reduce dt")


class _Coordinates:
    """Real coordinates c of a Hermitian D x D matrix rho: the D entries
    rho_ii, then Re rho_ij and then Im rho_ij for the pairs i < j.

    c = T vec(rho) (column-major vec).  T and T^-1 have at most two entries
    per row, so T A and A T^-1 are combinations of rows and of columns.  A
    generator G that preserves Hermiticity becomes the real matrix T G T^-1.
    """

    def __init__(self, d: int):
        i, j = np.triu_indices(d, 1)
        n, dd = len(i), d * d
        # vec positions of rho_ii, rho_ij and rho_ji
        self._at = (np.arange(d) * (d + 1), i + d * j, j + d * i)
        # Trajectory.rhos scatters the integrated coordinates of c into
        # the first D^2 of `width` zero-filled columns, followed by
        # -Im rho_ij and a 0, so that one gather (`take`) gives the
        # interleaved real and imaginary parts of the row-major rho.
        self.width = dd + n + 1
        pair = np.zeros((d, d), dtype=np.intp)
        pair[i, j] = pair[j, i] = d + np.arange(n)
        upper = np.triu(np.ones((d, d), dtype=bool), 1)
        diag = np.eye(d, dtype=bool)
        re = np.where(diag, np.arange(d)[:, None], pair)
        im = np.where(diag, self.width - 1,
                      np.where(upper, pair + n, pair + dd - d))
        self.take = np.stack([re, im], axis=-1).reshape(-1)
        self.im_upper, self.im_lower = slice(d + n, dd), slice(dd, dd + n)

    def rows(self, a: np.ndarray) -> np.ndarray:
        """T a along the second-last axis."""
        diag, up, lo = self._at
        s, t = a[..., up, :], a[..., lo, :]
        return np.concatenate(
            [a[..., diag, :], 0.5 * (s + t), -0.5j * (s - t)], axis=-2)

    def columns(self, a: np.ndarray) -> np.ndarray:
        """a T^-1 along the last axis."""
        diag, up, lo = self._at
        s, t = a[..., up], a[..., lo]
        return np.concatenate([a[..., diag], s + t, 1j * (s - t)], axis=-1)

    def real_form(self, gens: np.ndarray):
        """(Re T G T^-1, the largest |Im T G T^-1| relative to the largest
        |Re T G T^-1| over generators (..., D^2, D^2))."""
        g = self.rows(self.columns(gens))
        re, im = (np.abs(x).max(axis=(-2, -1)) for x in (g.real, g.imag))
        with np.errstate(divide="ignore", invalid="ignore"):
            residue = np.where(im > 0, im / re, 0.0)
        return np.ascontiguousarray(g.real), float(np.max(residue))

    def observable_weights(self, ops) -> np.ndarray:
        """(D^2, 2 n) real W: c @ W holds Re and Im of Tr(rho O) for each
        of the n operators O, interleaved (a complex view)."""
        # Tr(rho O) = vec(O^T) . vec(rho), and vec(O^T) is O read row-major
        o = np.array([np.asarray(op, dtype=complex).reshape(-1) for op in ops])
        return np.ascontiguousarray(self.columns(o).T).view(float)


@dataclass
class Trajectory:
    times: np.ndarray  # every step: n_steps + 1 times from 0 to t_final
    observables: dict
    max_trace_drift: float
    # the generator's discarded imaginary residue in real coordinates
    max_herm_drift: float
    # sorted indices of the real coordinates integrated; the rest stay 0
    reachable: np.ndarray
    _rho0: np.ndarray
    # (n_steps + 1, len(reachable)): the integrated real coordinates
    _coords: np.ndarray | None

    @functools.cached_property
    def rhos(self) -> np.ndarray:
        """(n_steps + 1, D, D): rho0 as given, then the states gathered
        from the coordinates a block at a time on the first read, which
        releases them; the entries outside the reachable ones are 0."""
        n, d = len(self._coords), len(self._rho0)
        dd = d * d
        co, chunk = _Coordinates(d), max(1, _BLOCK // dd)
        rhos = np.empty((n, d, d), dtype=complex)
        rhos[0] = self._rho0
        new = np.zeros((min(chunk, n - 1), co.width))
        for s in range(1, n, chunk):
            b = new[:min(chunk, n - s)]
            b[:, self.reachable] = self._coords[s:s + len(b)]
            np.negative(b[:, co.im_upper], out=b[:, co.im_lower])
            np.take(b, co.take, axis=1, mode="clip",
                    out=rhos[s:s + len(b)].reshape(-1, dd).view(float))
        self._coords = None
        return rhos


# float64 numbers in a block's states, or with controls in its generators:
# bounds the generators and, without controls, the depth of the squaring
# ladder P, P^2, P^4, ... that a run builds once and every block reuses;
# the block boundaries fix the association of every product
_BLOCK = 2**16

# With controls, a block forms its m RK4 step matrices at once (three
# batched r x r products a step) and their prefix products by a scan
# (fewer than two products a step), when the number r of integrated
# coordinates (D^2 from a full-rank rho0) is at most this; above it,
# forming P (r^3 work a step) costs more than the four stages per step it
# saves.  Measured in real coordinates on a 2-core x86-64 host, one BLAS
# thread, a truncated oscillator with sampled kappa and Hamiltonian
# schedules from a full-rank state, 1,000 steps, medians of 15 alternating
# pairs, us per step, stages -> matrices: r = D^2 = 4: 15.6 -> 1.7; 9:
# 17.2 -> 4.9; 16: 18.7 -> 9.7 (faster in 15/15); 25: 29.8 -> 25.7
# (11/15); 36: 41.4 -> 58.8; 64: 59.2 -> 140.5 (slower in 15/15).  The
# three-qubit chain from every qubit up (r = 20 of 64, sampled kappa and
# sigma_z term, 4,000 steps, best of 15, 10 alternating pairs): 14.1 ->
# 11.1 (faster in 9/10).
_STEP_MATRIX_MAX_DD = 25


def _check_inputs(rho: np.ndarray, observables: dict, d: int) -> None:
    """Raise InvalidParameter unless rho is a finite D x D matrix that is
    Hermitian, of unit trace and with entries of modulus at most 1 within
    the bounds every step is held to, and every observable is a finite
    D x D matrix."""
    if rho.shape != (d, d):
        raise InvalidParameter(
            f"rho0 has shape {rho.shape}, expected ({d}, {d}) for this model"
        )
    if not np.isfinite(rho).all():
        raise InvalidParameter("rho0 has a non-finite entry")
    herm = np.abs(rho - dag(rho)).max()
    if not herm <= 100 * TOL_HERM_STEP:
        raise InvalidParameter(
            f"rho0 is not Hermitian: max |rho0 - rho0^dag| = {herm:.3e} "
            f"exceeds {100 * TOL_HERM_STEP:.0e}"
        )
    trace = np.trace(rho).real
    if not abs(trace - 1.0) <= 100 * TOL_TRACE:
        raise InvalidParameter(
            f"rho0 has trace {trace:.17g}, not 1 within {100 * TOL_TRACE:.0e}"
        )
    entry = np.abs(rho).max()
    if not entry <= 1.0 + 100 * TOL_TRACE:
        raise InvalidParameter(
            f"rho0 has an entry of modulus {entry:.17g}, above 1 by more "
            f"than {100 * TOL_TRACE:.0e}"
        )
    for name, op in observables.items():
        if np.shape(op) != (d, d):
            raise InvalidParameter(
                f"observable {name!r} has shape {np.shape(op)}, "
                f"expected ({d}, {d})"
            )
        if not np.isfinite(op).all():
            raise InvalidParameter(f"observable {name!r} has a non-finite entry")


def integrate(
    model: EffectiveModel,
    controls: Controls,
    rho0: np.ndarray,
    t_final: float,
    dt: float,
    observables: dict | None = None,
) -> Trajectory:
    """Fixed-step RK4 propagation of the master equation.

    rho0 must be a finite D x D matrix, Hermitian, of unit trace and with
    entries of modulus at most 1 within the bounds each step is held to,
    and every observable, bare operator and Hamiltonian term a finite
    D x D matrix, on a port of the model; otherwise InvalidParameter names
    the defect before any step runs.

    The state is propagated in real coordinates c (_Coordinates: rho_ii,
    Re rho_ij and Im rho_ij for i < j), from the Hermitian part of rho0,
    under the real generator T G T^-1.  The imaginary part of T G T^-1 is
    roundoff for a generator that preserves Hermiticity; its largest
    modulus relative to the largest real entry is max_herm_drift, and one
    above 100x TOL_HERM_STEP (a non-Hermitian Hamiltonian term) raises
    InvalidParameter before any step runs.  Every stored state is
    therefore Hermitian bit for bit.

    Only the r coordinates reachable from rho0 are stepped: the closure of
    the nonzero coordinates of rho0 under the nonzero pattern of T G T^-1,
    the union over the terms of _GeneratorAssembler (one term without
    controls), which gives every run its generator terms.  No
    other coordinate has a nonzero entry of the generator from one inside
    the set, so it stays exactly 0 and is not stored;
    Trajectory.reachable lists the set, all D^2 for a full-rank rho0.  The
    generators, the observable weights and the trace (the populations in
    the set) are restricted to it once per run.

    The steps run in blocks of about _BLOCK numbers.  Without controls the
    generator G is constant and a step applies one step matrix,
    P = I + hG + (hG)^2/2 + (hG)^3/6 + (hG)^4/24; a block of m steps takes
    ceil(log2(m + 1)) levels: the states known so far, y_0..y_n-1, give
    y_n..y_2n-1 as one product with P^n.  The ladder P, P^2, P^4, ... is
    squared once per run, as deep as the longest block needs, and every
    block reuses it.  With controls the schedules are evaluated once per
    run, on the whole half-step grid t_0, t_0 + h/2, ..., t_N, into one
    array of (2N + 1) x terms real weights by _control_values, which
    raises StepUnstable (the port or term and the earliest half-step) for
    a bad schedule value before any step runs.  A block's generators are
    one real matrix product of its rows of the weights and the transformed
    terms; the weights are elementwise in time, so they are the bits a
    block would get from its own grid.  When r <= _STEP_MATRIX_MAX_DD the
    block runs through _rk4_block; for a larger generator each step
    applies the four RK4 stages.  The block lengths follow D^2, whatever r
    is.

    Every block, in each of the three branches, passes _check_block with
    its trace drift, or the run raises StepUnstable at its first bad step.
    The step count is rounded so the grid lands exactly on t_final;
    trajectories are bit-for-bit reproducible.  Every step is written
    straight into one (n_steps + 1, r) array of coordinates; the complex
    rhos are gathered from it only when Trajectory.rhos is first read.
    Observables are Tr(rho O), one real product with the coordinates per
    block.
    """
    n_steps = step_count(t_final, dt)
    d = model.h_sys.shape[0]
    dd = d * d
    rho = np.array(rho0, dtype=complex)
    observables = observables or {}
    _check_inputs(rho, observables, d)
    h = t_final / n_steps
    co = _Coordinates(d)
    c0 = co.rows(rho.reshape(dd, 1, order="F"))[:, 0].real

    assembler = _GeneratorAssembler(model, controls)
    terms, herm = co.real_form(assembler.terms)  # one term without controls
    scheduled = bool(controls.ports or controls.hamiltonian)
    block = max(1, _BLOCK // (2 * dd * dd if scheduled else dd))
    if not herm <= 100 * TOL_HERM_STEP:
        raise InvalidParameter(
            "the generator does not preserve Hermiticity: its imaginary "
            f"residue in real coordinates is {herm:.3e} of its largest entry, "
            f"above {100 * TOL_HERM_STEP:.0e}; is every Hamiltonian term "
            "Hermitian?"
        )
    keep = _reachable((terms != 0).any(axis=0), c0 != 0)
    r = len(keep)
    flat = (keep[:, None] * dd + keep).ravel()  # the r x r block, row-major
    terms = terms.reshape(len(terms), dd * dd).take(flat, axis=1)
    n_pop = int(np.searchsorted(keep, d))  # the populations come first

    times = np.arange(n_steps + 1) * h
    if scheduled:
        # schedule weights at the half steps t_0, t_0 + h/2, ..., t_N
        grid = np.empty(2 * n_steps + 1)
        grid[::2] = times
        grid[1::2] = grid[:-1:2] + 0.5 * h
        weights = assembler.weights(grid)
    else:
        gen = terms[0].reshape(r, r)
        ladder = [rk4_step_matrix(gen, gen, gen, h)[0]]  # ladder[j] = P^(2^j)
    coords = np.empty((n_steps + 1, r))
    coords[0] = c0[keep]
    obs = np.empty((n_steps + 1, len(observables)), dtype=complex)
    obs_f = obs.view(float)
    if observables:
        weights_o = co.observable_weights(observables.values())[keep]
        obs_f[0] = coords[0] @ weights_o
    max_trace_drift = abs(np.trace(rho).real - 1.0)

    start = 0
    # a generator or a step past the float range overflows quietly and
    # _check_block names the step
    with np.errstate(over="ignore", invalid="ignore"):
        while start < n_steps:
            m = min(block, n_steps - start)
            y = coords[start:start + m + 1]
            if scheduled:
                gens = weights[2 * start:2 * (start + m) + 1] @ terms
                gens = gens.reshape(-1, r, r)
                if r <= _STEP_MATRIX_MAX_DD:
                    _rk4_block(gens, y, h)
                else:
                    for i in range(m):
                        v = y[i]
                        g_mid = gens[2 * i + 1]
                        k1 = gens[2 * i] @ v
                        k2 = g_mid @ (v + 0.5 * h * k1)
                        k3 = g_mid @ (v + 0.5 * h * k2)
                        k4 = gens[2 * i + 2] @ (v + h * k3)
                        y[i + 1] = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            else:
                n, j = 1, 0  # y[:n] are known and n = 2^j
                while n <= m:
                    if j == len(ladder):
                        ladder.append(ladder[-1] @ ladder[-1])
                    k = min(n, m + 1 - n)
                    np.matmul(y[:k], ladder[j].T, out=y[n:n + k])
                    n, j = n + k, j + 1

            trace = np.abs(y[1:, :n_pop] @ np.ones(n_pop) - 1.0)
            max_trace_drift = max(max_trace_drift, _check_block(y, start, trace))

            if observables:
                np.matmul(y[1:], weights_o, out=obs_f[start + 1:start + m + 1])
            start += m

    return Trajectory(
        times=times,
        observables={name: obs[:, k] for k, name in enumerate(observables)},
        max_trace_drift=max_trace_drift,
        max_herm_drift=herm,
        reachable=keep,
        _rho0=rho,
        _coords=coords,
    )


def basis_state(d: int, index: int) -> np.ndarray:
    rho = np.zeros((d, d), dtype=complex)
    rho[index, index] = 1.0
    return rho
