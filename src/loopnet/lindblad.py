"""Vacuum-input Lindblad dynamics generated by a contracted model.

The master equation uses the effective Lindblad operators and effective
Hamiltonian; time dependence enters only through scalar prefactors
sqrt(kappa(t)) e^{i phi(t)} on the per-port coupling operators and through
scheduled Hermitian control terms added to the system Hamiltonian.  The
network routing (G, the l_eff coefficient rows) is time independent.

Superoperators use the column-major vectorization convention:
vec(A rho B) = (B.T kron A) vec(rho).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contraction import EffectiveModel
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

    Raises InvalidParameter when t_final/dt exceeds MAX_STEPS or is NaN.
    """
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
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise InvalidParameter(
                "times and values must be equal-length 1d arrays"
            )
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
            raise ScheduleMissing(f"port {port} (no coupling to control)")
        element_id, coupling = coupled[port]
        bare = embed_operator(network, element_id, coupling.operator)
        ports[port] = PortControl(
            bare_op=bare,
            kappa=kappa_schedules.get(port, Schedule.constant(coupling.kappa)),
            phi=phi_schedules.get(port, Schedule.constant(coupling.phi)),
        )
    return Controls(ports=ports, hamiltonian=list(hamiltonian_terms or []))


def _negative_kappa(port, t) -> StepUnstable:
    return StepUnstable(f"negative kappa schedule on port {port} at t={t}")


def _coupling_ops_at(model: EffectiveModel, controls: Controls, t: float):
    ops = list(model.base_L)
    for port, ctl in controls.ports.items():
        kappa = ctl.kappa(t)
        if not kappa >= 0:
            raise _negative_kappa(port, t)
        ops[port] = np.sqrt(kappa) * np.exp(1j * ctl.phi(t)) * ctl.bare_op
    return np.array(ops)


def _h_sys_at(model: EffectiveModel, controls: Controls, t: float) -> np.ndarray:
    h = model.h_sys.copy()
    for op, schedule in controls.hamiltonian:
        h = h + schedule(t) * op
    return h


def effective_operators_at(model: EffectiveModel, controls: Controls, t: float):
    """(H_eff(t), list of effective Lindblad operators at time t)."""
    l_arr = _coupling_ops_at(model, controls, t)
    l_dag = l_arr.conj().transpose(0, 2, 1)
    g = model.routing.G
    k_mat = g - dag(g)
    h_eff = _h_sys_at(model, controls, t) + np.einsum(
        "jk,jab,kbc->ac", k_mat, l_dag, l_arr
    ) / 2j
    l_eff = np.einsum("jk,kab->jab", model.l_eff_coeffs, l_arr)
    return h_eff, list(l_eff)


def liouvillian(h_eff: np.ndarray, l_eff_ops) -> np.ndarray:
    """Vectorized Lindblad generator (column-major convention)."""
    d = h_eff.shape[0]
    eye = np.eye(d, dtype=complex)
    gen = -1j * (np.kron(eye, h_eff) - np.kron(h_eff.T, eye))
    for op in l_eff_ops:
        op_dag_op = dag(op) @ op
        gen += np.kron(op.conj(), op)
        gen -= 0.5 * np.kron(eye, op_dag_op)
        gen -= 0.5 * np.kron(op_dag_op.T, eye)
    return gen


def build_generator(
    model: EffectiveModel, controls: Controls, t: float
) -> np.ndarray:
    """The D^2 x D^2 master-equation generator at time t."""
    h_eff, l_eff = effective_operators_at(model, controls, t)
    return liouvillian(h_eff, l_eff)


class _GeneratorAssembler:
    """Fast exact generator assembly, at one time or at many at once.

    The generator is bilinear in the per-port scalars
    c_k(t) = sqrt(kappa_k(t)) e^{i phi_k(t)}: writing L_k = c_k Ltilde_k,
    both the network Hamiltonian (1/2i) sum K_jk L_j^dag L_k and the
    dissipator sum [M^dag M]_jk (L_k rho L_j^dag - ...) decompose into
    fixed superoperators T_jk weighted by w_jk = c_j^* c_k.  As w_kj is
    w_jk^*, a pair j < k contributes Re w_jk (T_jk + T_kj) + Im w_jk
    i (T_jk - T_kj), so every term has a real weight.  The terms are the
    rows of `terms` (terms, D^4), stored as real numbers; the row of weight
    1 holds every term without a scheduled factor, the scheduled Hamiltonian
    terms follow.  The generators at n times are then one real
    (n, terms) @ (terms, 2 D^4) product, equal to build_generator up to
    roundoff.
    """

    def __init__(self, model: EffectiveModel, controls: Controls):
        self.controls = controls
        d = model.h_sys.shape[0]
        eye = np.eye(d, dtype=complex)
        self._dd = d * d

        # coupled ports: bare operator without the rate or phase prefactor
        ports = [k for k, op in enumerate(model.base_L) if np.any(op != 0)]
        ports += [k for k in controls.ports if k not in ports]
        bare = {
            k: controls.ports[k].bare_op if k in controls.ports
            else model.base_L[k]
            for k in ports
        }
        self.scheduled = [k for k in ports if k in controls.ports]

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

        static = h_super(model.h_sys)
        rows = [h_super(op) for op, _ in controls.hamiltonian]
        self.pairs = []  # (j, k), j <= k in port order, with a scheduled port
        for a, j in enumerate(ports):
            for k in ports[a:]:
                t_jk = pair_term(j, k)
                t_kj = pair_term(k, j) if k != j else 0
                if not (np.any(t_jk != 0) or np.any(t_kj != 0)):
                    continue
                if j not in controls.ports and k not in controls.ports:
                    static = static + t_jk + t_kj
                    continue
                self.pairs.append((j, k))
                rows += [t_jk] if k == j else [t_jk + t_kj, 1j * (t_jk - t_kj)]
        self.terms = np.array([static, *rows]).reshape(1 + len(rows), -1)
        self.terms = self.terms.view(float)

    def weights(self, times: np.ndarray):
        """Real weights (len(times), terms) of the rows of `terms` at each
        time, and (index, port) of the first time whose kappa is negative or
        NaN (None if there is none; weights from that time on are invalid)."""
        c, first_bad = {}, None
        for k in self.scheduled:
            ctl = self.controls.ports[k]
            kappa = ctl.kappa.on(times)
            bad = np.flatnonzero(~(kappa >= 0))
            if bad.size and (first_bad is None or bad[0] < first_bad[0]):
                first_bad = (int(bad[0]), k)
            with np.errstate(invalid="ignore"):
                c[k] = np.sqrt(kappa) * np.exp(1j * ctl.phi.on(times))
        columns = [np.ones(len(times))]
        columns += [s.on(times) for _, s in self.controls.hamiltonian]
        for j, k in self.pairs:
            w = np.conj(c.get(j, 1.0)) * c.get(k, 1.0)
            columns += [w.real] if k == j else [w.real, w.imag]
        return np.stack(columns, axis=1), first_bad

    def generators(self, weights: np.ndarray) -> np.ndarray:
        """(n, D^2, D^2) generators for n rows of weights."""
        gens = (weights @ self.terms).view(complex)
        return gens.reshape(len(weights), self._dd, self._dd)

    def __call__(self, t: float) -> np.ndarray:
        """The (D^2, D^2) generator at time t."""
        weights, bad = self.weights(np.array([t], dtype=float))
        if bad is not None:
            raise _negative_kappa(bad[1], t)
        return self.generators(weights)[0]


def rk4_step_matrix(a_start, a_mid, a_end, h: float):
    """One classical RK4 step of y' = A(t) y as a matrix, over leading axes.

    a_start, a_mid, a_end: A at t, t + h/2 and t + h.  Returns the step
    matrix P = I + h/6 (K1 + 2K2 + 2K3 + K4), K1 = A(t), K2 = A(t + h/2) S1,
    K3 = A(t + h/2) S2, K4 = A(t + h) S3, and the stage maps (S1, S2, S3),
    S1 = I + h/2 K1, S2 = I + h/2 K2, S3 = I + h K3, which take y_n to the
    RK4 stage states.  For a constant A, P = sum_{k<=4} (hA)^k / k!.
    """
    eye = np.eye(a_start.shape[-1])
    k1 = a_start
    s1 = eye + (0.5 * h) * k1
    k2 = a_mid @ s1
    s2 = eye + (0.5 * h) * k2
    k3 = a_mid @ s2
    s3 = eye + h * k3
    p = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + a_end @ s3)
    return p, (s1, s2, s3)


@dataclass
class Trajectory:
    times: np.ndarray
    rhos: np.ndarray  # (n_samples, D, D)
    observables: dict
    max_trace_drift: float
    max_herm_drift: float


_BLOCK = 2**16  # complex elements of a block's states or generators


def integrate(
    model: EffectiveModel,
    controls: Controls,
    rho0: np.ndarray,
    t_final: float,
    dt: float,
    observables: dict | None = None,
    sample_stride: int = 1,
) -> Trajectory:
    """Fixed-step RK4 propagation of the vectorized master equation.

    The steps run in blocks of about _BLOCK complex elements.  Without
    controls the generator G is constant and every step applies one step
    matrix, P = I + hG + (hG)^2/2 + (hG)^3/6 + (hG)^4/24.  With controls
    the schedules are evaluated on the half-step grid of a whole block at
    once, the generators there are one matrix product, and each step
    applies the four RK4 stages.

    Symmetrization happens once per block.  After a block, the trace and
    Hermiticity drift of every step in it are checked: the run raises
    StepUnstable at the first step whose drift exceeds 100x tolerance or is
    not finite.  Then the stored states are re-Hermitized, and the next
    block starts from the re-Hermitized last state.  The first block is one
    step, so rho0 is checked and re-Hermitized after one step.  Within a
    block the states are not re-Hermitized, so a step's Hermiticity drift
    includes that of the earlier steps in its block.  The stored states
    agree with RK4 re-Hermitized after every step to 1e-12.  The step count
    is rounded so the grid lands exactly on t_final; trajectories are
    bit-for-bit reproducible.
    """
    if not (0 < dt < np.inf and 0 <= t_final < np.inf):
        raise InvalidParameter(
            f"dt must be positive and t_final non-negative, both finite "
            f"(dt={dt}, t_final={t_final})"
        )
    if not sample_stride >= 1:
        raise InvalidParameter("sample_stride must be a positive integer")
    rho = np.array(rho0, dtype=complex)
    d = rho.shape[0]
    dd = d * d
    n_steps = step_count(t_final, dt)
    h = t_final / n_steps

    n_samples = 1 + n_steps // sample_stride + (n_steps % sample_stride != 0)
    times = np.empty(n_samples)
    rhos = np.empty((n_samples, d, d), dtype=complex)
    times[0], rhos[0] = 0.0, rho
    n_kept = 1
    max_trace_drift = abs(np.trace(rho).real - 1.0)
    max_herm_drift = 0.0

    if controls.ports or controls.hamiltonian:
        assembler = _GeneratorAssembler(model, controls)
        step_matrix = None
        block = max(1, _BLOCK // (2 * dd * dd))
    else:
        gen = build_generator(model, controls, 0.0)
        step_matrix = rk4_step_matrix(gen, gen, gen, h)[0]
        block = max(1, _BLOCK // dd)

    v = rho.reshape(-1, order="F")
    start = 0
    while start < n_steps:
        m = min(block if start else 1, n_steps - start)
        states = np.empty((m + 1, dd), dtype=complex)
        states[0] = v
        kappa_error = None
        if step_matrix is None:
            # generators at the half steps t_n, t_n + h/2, ..., t_n+m
            grid = np.empty(2 * m + 1)
            grid[::2] = np.arange(start, start + m + 1) * h
            grid[1::2] = grid[:-1:2] + 0.5 * h
            weights, bad = assembler.weights(grid)
            if bad is not None:  # run the steps before it, then raise
                m = max(0, (bad[0] - 1) // 2)
                kappa_error = _negative_kappa(bad[1], grid[bad[0]])
            gens = assembler.generators(weights[:2 * m + 1])
            for i in range(m):
                y = states[i]
                g_mid = gens[2 * i + 1]
                k1 = gens[2 * i] @ y
                k2 = g_mid @ (y + 0.5 * h * k1)
                k3 = g_mid @ (y + 0.5 * h * k2)
                k4 = gens[2 * i + 2] @ (y + h * k3)
                states[i + 1] = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            for i in range(m):
                np.matmul(step_matrix, states[i], out=states[i + 1])

        # rho of each step: the column-major vec read row-major, transposed
        rho_n = states[1:m + 1].reshape(m, d, d).transpose(0, 2, 1)
        adj = rho_n.conj().transpose(0, 2, 1)
        herm = np.abs(rho_n - adj).max(axis=(1, 2))
        trace = np.abs(np.trace(rho_n, axis1=1, axis2=2).real - 1.0)
        bad = ~((herm <= 100 * TOL_HERM_STEP) & (trace <= 100 * TOL_TRACE))
        if bad.any():
            i = int(bad.argmax())
            raise StepUnstable(
                f"drift at step {start + i}: herm {herm[i]:.3e}, "
                f"trace {trace[i]:.3e}; reduce dt"
            )
        if kappa_error is not None:
            raise kappa_error
        max_herm_drift = max(max_herm_drift, float(herm.max()))
        max_trace_drift = max(max_trace_drift, float(trace.max()))

        adj += rho_n  # re-Hermitized in place: 0.5 (rho + rho^dag)
        adj *= 0.5
        rho_n = adj
        v = rho_n[-1].reshape(-1, order="F")
        steps = np.arange(start + 1, start + m + 1)
        keep = (steps % sample_stride == 0) | (steps == n_steps)
        n_new = int(keep.sum())
        times[n_kept:n_kept + n_new] = steps[keep] * h
        np.compress(keep, rho_n, axis=0, out=rhos[n_kept:n_kept + n_new])
        n_kept += n_new
        start += m

    obs = {
        name: np.einsum("tij,ji->t", rhos, np.asarray(op, dtype=complex))
        for name, op in (observables or {}).items()
    }
    return Trajectory(
        times=times,
        rhos=rhos,
        observables=obs,
        max_trace_drift=max_trace_drift,
        max_herm_drift=max_herm_drift,
    )


def basis_state(d: int, index: int) -> np.ndarray:
    rho = np.zeros((d, d), dtype=complex)
    rho[index, index] = 1.0
    return rho
