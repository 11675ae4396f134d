"""Two-qubit excitation transfer through an imperfect network.

Covers the full pipeline: building the circulator-linked two-qubit network,
reading the cross-coupling coefficients off the contracted routing matrix,
the collective (bright/dark) decay analysis, the single-excitation
Bloch-vector equations, synthesis of the receiver control schedule that
tracks the subradiant state, and randomized-imperfection experiments.

Basis conventions: qubit index 0 = excited (up), 1 = ground (down); the
joint two-qubit space orders |uu>, |ud>, |du>, |dd>.  The single-excitation
Bloch sphere uses |0> = |ud> and |1> = |du>.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .contraction import (
    accepted_routing,
    contract_network,
    routing_matrices,
)
from .errors import (
    BoundViolated,
    DegenerateBeta,
    InitialConditionMismatch,
    InvalidParameter,
    MismatchWithGenericGenerator,
    NetworkNotFound,
    NotTwoQubitNetwork,
    StepUnstable,
    WrongDirectionality,
)
from .lindblad import (
    Controls,
    _check_block,
    _rk4_block,
    build_generator,
    step_count,
)
from .network import (
    SIGMA_MINUS,
    Connection,
    Coupling,
    Geometry,
    LocalSystem,
    Network,
    Port,
    ScatteringBlock,
    assemble_S,
    assemble_W,
    unitary_with_magnitudes,
)

# joint two-qubit basis indices
UP_UP, UP_DOWN, DOWN_UP, DOWN_DOWN = 0, 1, 2, 3


def ideal_circulator() -> np.ndarray:
    """Lossless 3-port circulator routing 1->2->3->1 with no reflections."""
    return np.array(
        [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex
    )


_IDEAL_CIRCULATOR = ideal_circulator()
_FLOAT_MAX = np.finfo(float).max


def perturbed_circulator(eps, hermitian: np.ndarray) -> np.ndarray:
    """exp(i eps H) times the ideal circulator, as 1 + V diag(expm1(i eps
    lam)) V^dagger from one eigh of H: exactly ideal at eps = 0, unitary for
    every finite eps; eps broadcasts against the stack shape of H."""
    lam, v = np.linalg.eigh(np.asarray(hermitian, dtype=complex))
    # eps * lam overflows only for eps near the float maximum, where eigh
    # rounds |lam| a ulp above 1; that phase saturates at the largest float
    # (exp(i x) is as unitary there), and every finite phase keeps its bits
    with np.errstate(over="ignore"):
        x = np.asarray(eps)[..., None] * lam
    x = np.minimum(np.maximum(x, -_FLOAT_MAX), _FLOAT_MAX)
    phases = np.expm1(1j * x)[..., None, :]
    rotation = v * phases @ v.conj().swapaxes(-1, -2)
    return (np.eye(lam.shape[-1]) + rotation) @ _IDEAL_CIRCULATOR


# Datasheet-style circulator magnitudes are not unitarity-consistent (no
# unitary has |t| = 0.98 on the circulating entries and 0.08 everywhere
# else), so this is the nearest magnitude pattern with unit row and column
# norms that keeps the main transmission at 0.98 and every weak-loop path
# weight (retro-reflection and cross-talk products) in the few-1e-3 range.
DATASHEET_MAGNITUDES = np.array(
    [
        [0.04, 0.15, 0.98788],
        [0.98, 0.19, 0.05916],
        [0.19494, 0.97026, 0.14353],
    ]
)


def datasheet_circulator() -> np.ndarray:
    """Exactly unitary circulator with datasheet-like entry magnitudes.

    Main transmission 0.98, weak residual entries; deterministic.  The
    direct qubit-to-qubit path through two of these carries weight 0.9604
    and the leading multi-traversal loop paths carry weights ~6e-3.
    """
    return unitary_with_magnitudes(DATASHEET_MAGNITUDES, seed=0)


def _hermitian_draw(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def _unit_spectral_norm(h: np.ndarray) -> np.ndarray:
    """A stack of Hermitian (..., n, n), each over its spectral norm."""
    return h / np.abs(np.linalg.eigvalsh(h)).max(axis=-1)[..., None, None]


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random Hermitian matrix normalized to unit spectral norm."""
    return _unit_spectral_norm(_hermitian_draw(rng, n))


# the transmission line between the circulators, as (from_port, to_port):
# the two connections whose phase interconnect_phase sets
_LINE = ((2, 4), (4, 2))


def two_qubit_network(
    circulator_a: np.ndarray,
    circulator_b: np.ndarray,
    kappa_a: float = 1.0,
    kappa_b: float = 1.0,
    phi_a: float = 0.0,
    phi_b: float = 0.0,
    interconnect_phase: float | None = None,
    geometry: Geometry | None = None,
    h_az: float = 0.0,
    h_bz: float = 0.0,
) -> Network:
    """Two qubits linked by a transmission line through two circulators.

    Ports: 0 = qubit a, 1..3 = circulator a, 4..6 = circulator b,
    7 = qubit b.  The qubits sit on circulator ports 1 and 5; ports 3 and 6
    are the external ins/outs.  The layout is fixed: each qubit (a mirror,
    reflection 1) sits 0.05 from its circulator, and the line between the
    circulators has length 1; geometry sets the delay scales.  If
    interconnect_phase is given it overrides the line's propagation phase
    k0 * 1.
    """
    geometry = geometry or Geometry(k0=0.0, v_p=1.0, kappa0=max(kappa_a, kappa_b))
    za, zb = 0.05, 1.05
    ports = [
        Port(0, "qubit_a", 0.0),
        Port(1, "circ_a", za),
        Port(2, "circ_a", za),
        Port(3, "circ_a", za),
        Port(4, "circ_b", zb),
        Port(5, "circ_b", zb),
        Port(6, "circ_b", zb),
        Port(7, "qubit_b", zb + 0.05),
    ]
    blocks = [
        ScatteringBlock("qubit_a", np.ones((1, 1), dtype=complex)),
        ScatteringBlock("circ_a", np.asarray(circulator_a, dtype=complex)),
        ScatteringBlock("circ_b", np.asarray(circulator_b, dtype=complex)),
        ScatteringBlock("qubit_b", np.ones((1, 1), dtype=complex)),
    ]
    line_phase = geometry.k0 if interconnect_phase is None else interconnect_phase
    stub_phase = geometry.k0 * 0.05
    connections = [
        Connection(0, 1, phase=stub_phase),
        Connection(1, 0, phase=stub_phase),
        *(Connection(a, b, phase=line_phase) for a, b in _LINE),
        Connection(5, 7, phase=stub_phase),
        Connection(7, 5, phase=stub_phase),
    ]
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    systems = [
        LocalSystem(
            "qubit_a", 2, 0.5 * h_az * sz,
            {0: Coupling(SIGMA_MINUS, kappa_a, phi_a)},
        ),
        LocalSystem(
            "qubit_b", 2, 0.5 * h_bz * sz,
            {7: Coupling(SIGMA_MINUS, kappa_b, phi_b)},
        ),
    ]
    return Network(ports, blocks, systems, connections, geometry)


def random_imperfect_network(
    eps: float,
    interconnect_phase: float,
    seed: int,
    **kwargs,
) -> Network:
    """Two-qubit network with seeded random circulator imperfections."""
    rng = np.random.default_rng(seed)
    circ_a = perturbed_circulator(eps, random_hermitian(rng, 3))
    circ_b = perturbed_circulator(eps, random_hermitian(rng, 3))
    return two_qubit_network(
        circ_a, circ_b, interconnect_phase=interconnect_phase, **kwargs
    )


def _sampler_rng(seed, r2_min, r2_max, resid_max=1.0) -> np.random.Generator:
    """default_rng(seed) if 0 <= r2_min <= r2_max <= 1, seed >= 0 and
    resid_max is finite and > 0; else InvalidParameter."""
    if not (0 <= r2_min <= r2_max <= 1 and seed >= 0 and 0 < resid_max < math.inf):
        raise InvalidParameter(f"sampler input out of range: {locals()}")
    return np.random.default_rng(seed)


def _draw_eps(rng: np.random.Generator, r2_min: float, r2_max: float) -> float:
    # |r_ii| grows roughly linearly with eps; bracket generously
    return rng.uniform(0.5 * math.sqrt(r2_min), 3.0 * math.sqrt(r2_max))


def _in_class(circulators, r2_min: float, r2_max: float) -> np.ndarray:
    """Per circulator of a stack: every |r_ii|^2 in [r2_min, r2_max]."""
    r2 = np.abs(np.diagonal(circulators, axis1=-2, axis2=-1)) ** 2
    return ((r2 >= r2_min) & (r2 <= r2_max)).all(axis=-1)


_DRAW_CHUNK = 64  # sampler tries drawn and tested at once
CLASS_TRIES = 2000  # find_network_in_class raises NetworkNotFound past this


def find_network_in_class(r2_min: float, r2_max: float, seed: int) -> Network:
    """Rejection-sample an imperfect network whose retro-reflections all fall
    inside [r2_min, r2_max], with a random interconnect phase, in at most
    CLASS_TRIES tries; deterministic for a fixed seed."""
    rng = _sampler_rng(seed, r2_min, r2_max)
    for start in range(0, CLASS_TRIES, _DRAW_CHUNK):
        # each try draws eps, its phase and the seed of its own stream from
        # the main stream, in this order; circulator a of a chunk's tries is
        # one stacked eigvalsh and eigh
        tries = [(_draw_eps(rng, r2_min, r2_max), rng.uniform(0.0, 2.0 * np.pi),
                  np.random.default_rng(int(rng.integers(0, 2**63 - 1))))
                 for _ in range(min(_DRAW_CHUNK, CLASS_TRIES - start))]
        eps, phases, subs = zip(*tries)
        h_a = _unit_spectral_norm(np.array([_hermitian_draw(s, 3) for s in subs]))
        circ_a = perturbed_circulator(np.array(eps), h_a)
        # circulator b is drawn only once a passes; it comes from the try's
        # own stream alone, so skipping it leaves the main stream unchanged
        for i in np.flatnonzero(_in_class(circ_a, r2_min, r2_max)):
            circ_b = perturbed_circulator(eps[i], random_hermitian(subs[i], 3))
            if _in_class(circ_b, r2_min, r2_max):
                return two_qubit_network(circ_a[i], circ_b,
                                         interconnect_phase=phases[i])
    raise NetworkNotFound(
        f"no network with reflectances in [{r2_min}, {r2_max}] "
        f"after {CLASS_TRIES} tries"
    )


# -- coefficients and collective rates -------------------------------------


@dataclass(frozen=True)
class TransferCoefficients:
    t_aa: complex
    t_ab: complex
    t_ba: complex
    t_bb: complex
    eta_a: float
    eta_b: float
    beta_plus: float
    beta_minus: float
    delta_plus: float
    delta_minus: float

    @classmethod
    def from_t(cls, t_aa, t_ab, t_ba, t_bb) -> TransferCoefficients:
        """Purcell factors, cross couplings and phases from the T entries.

        Broadcasts: arrays of T entries give array fields, Python complex
        entries give Python floats.  np.hypot of the parts is abs() of a
        Python complex bit for bit (np.abs of a complex array is not).
        """
        pm = np.array([t_ab.conjugate() + t_ba, t_ab.conjugate() - t_ba])
        beta = np.hypot(pm.real, pm.imag)
        delta = np.arctan2(pm.imag, pm.real)
        if pm.ndim == 1:
            beta, delta = beta.tolist(), delta.tolist()
        return cls(t_aa, t_ab, t_ba, t_bb,
                   1.0 + 2.0 * t_aa.real, 1.0 + 2.0 * t_bb.real, *beta, *delta)

    def unstack(self) -> list:
        """The entries of an array-field instance, each with Python scalars."""
        columns = (getattr(self, f.name).tolist() for f in fields(self))
        return [TransferCoefficients(*row) for row in zip(*columns)]

    def take(self, index) -> TransferCoefficients:
        """The entries of an array-field instance at an index or mask."""
        columns = (getattr(self, f.name)[index] for f in fields(self))
        return TransferCoefficients(*columns)


def _coefficients_from_T(t, qubit_ports):
    """Coefficients of T (N, N), or with array fields of a stack (B, N, N),
    at the two ports of coupled_qubit_ports."""
    pa, pb = qubit_ports

    def entry(j, k):
        return complex(t[j, k]) if t.ndim == 2 else t[:, j, k]

    return TransferCoefficients.from_t(
        entry(pa, pa), entry(pa, pb), entry(pb, pa), entry(pb, pb)
    )


def coupled_qubit_ports(network: Network) -> tuple:
    ports = sorted(
        port for sys in network.systems for port in sys.couplings
    )
    if len(ports) != 2:
        raise NotTwoQubitNetwork(
            f"expected exactly 2 coupled ports, found {ports}"
        )
    return tuple(ports)


def transfer_coefficients(network: Network) -> TransferCoefficients:
    """A two-qubit network's coefficients, read off T of its loop
    inversion without building the effective model."""
    routing = accepted_routing(assemble_S(network), assemble_W(network))
    return _coefficients_from_T(routing.T, coupled_qubit_ports(network))


def swap_roles(coeffs: TransferCoefficients) -> TransferCoefficients:
    """Exchange sender and receiver.

    Flips the sign of cos(delta_+ - delta_-), so a network with the wrong
    directionality for a -> b transfer works in the other direction.
    """
    return TransferCoefficients.from_t(
        coeffs.t_bb, coeffs.t_ba, coeffs.t_ab, coeffs.t_aa
    )


def oriented(coeffs: TransferCoefficients) -> TransferCoefficients:
    """The coefficients for a -> b transfer: swap_roles(coeffs) when
    cos(delta_+ - delta_-) >= 0 (the channel favours b -> a), else coeffs;
    per entry for array fields."""
    flip = np.cos(coeffs.delta_plus - coeffs.delta_minus) >= 0
    if np.ndim(flip):  # the t entries of swap_roles where flip
        t = (coeffs.t_aa, coeffs.t_ab, coeffs.t_ba, coeffs.t_bb)
        return TransferCoefficients.from_t(*np.where(flip, t[::-1], t))
    return swap_roles(coeffs) if flip else coeffs


def dark_state_residual(coeffs: TransferCoefficients) -> float:
    """eta_a eta_b - beta_+^2; zero iff a perfectly dark state exists."""
    return coeffs.eta_a * coeffs.eta_b - coeffs.beta_plus**2


def collective_rates(
    coeffs: TransferCoefficients,
    kappa_a: float,
    kappa_b: float,
):
    """(Gamma_bright, Gamma_dark, mixing angle)."""
    r0 = kappa_a * coeffs.eta_a + kappa_b * coeffs.eta_b
    rz = kappa_a * coeffs.eta_a - kappa_b * coeffs.eta_b
    rxy = 2.0 * np.sqrt(kappa_a * kappa_b) * coeffs.beta_plus
    disc = np.sqrt(rxy**2 + rz**2)
    gamma_bright = 0.5 * (r0 + disc)
    gamma_dark = 0.5 * (r0 - disc)
    theta = float(np.arctan2(rxy, rz))
    return gamma_bright, gamma_dark, theta


def _rj_arrays(coeffs, kappa0, phase_diff, h_az, kb, hbz):
    """R and J components along a schedule (general phi_a - phi_b)."""
    chi_p = phase_diff + coeffs.delta_plus
    chi_m = phase_diff + coeffs.delta_minus
    root = np.sqrt(kappa0 * kb)
    r0 = kappa0 * coeffs.eta_a + kb * coeffs.eta_b
    rx = 2.0 * root * coeffs.beta_plus * np.cos(chi_p)
    ry = 2.0 * root * coeffs.beta_plus * np.sin(chi_p)
    rz = kappa0 * coeffs.eta_a - kb * coeffs.eta_b
    jx = -root * coeffs.beta_minus * np.sin(chi_m)
    jy = root * coeffs.beta_minus * np.cos(chi_m)
    jz = kappa0 * coeffs.t_aa.imag - kb * coeffs.t_bb.imag + h_az - hbz
    return r0, rx, ry, rz, jx, jy, jz


def b0_closed_form(
    times: np.ndarray,
    bvec_traj: np.ndarray,
    r0_traj: np.ndarray,
    rvec_traj: np.ndarray,
    b0_initial: float,
) -> np.ndarray:
    """Quadrature solution b0(t) = b0(0) exp[-1/2 int (R0 + R.e_b)].

    Valid only on pure-state trajectories where ||b(0)|| = b0(0) (to
    1e-12); uses trapezoidal quadrature on the sampled trajectory.
    """
    norms = np.linalg.norm(bvec_traj, axis=1)
    if abs(norms[0] - b0_initial) > 1e-12:
        raise InitialConditionMismatch(
            f"||b(0)|| = {norms[0]!r} but b0(0) = {b0_initial!r}"
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        e_b = np.where(norms[:, None] > 0, bvec_traj / norms[:, None], 0.0)
    integrand = r0_traj + np.einsum("ti,ti->t", rvec_traj, e_b)
    dt = np.diff(times)
    cumulative = np.concatenate(
        [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * dt)]
    )
    return b0_initial * np.exp(-0.5 * cumulative)


# -- control synthesis ------------------------------------------------------


@dataclass
class ControlProtocol:
    times: np.ndarray
    kappa_b: np.ndarray
    h_bz: np.ndarray
    kappa_a: float
    phase_diff: float  # phi_a - phi_b, fixed to -delta_plus
    h_az: float


def _protocol_constants(coeffs: TransferCoefficients):
    """(cos(delta_+ - delta_-), beta_-/beta_+, J/R slope), per network."""
    if np.any(coeffs.beta_plus <= 1e-15):
        raise DegenerateBeta("beta_+ = 0: the qubits are not cross-coupled")
    ddelta = coeffs.delta_plus - coeffs.delta_minus
    cos_d = np.cos(ddelta)
    if np.any(cos_d >= 0.0):
        raise WrongDirectionality(
            f"cos(delta_+ - delta_-) = {np.max(cos_d):.4f} >= 0; "
            "swap sender and receiver"
        )
    ratio = coeffs.beta_minus / coeffs.beta_plus
    slope = 0.5 * ratio * np.sin(ddelta)  # J/R constraint constant
    return cos_d, ratio, slope


# ln(kappa_b/kappa0) window of the closed form, about 1e-100 to 1e100.  Below
# it the flow is exponential to double precision, and beyond it Q(x) and
# P(w) could overflow.
_LN_X_LOW, _LN_X_HIGH = -230.0, 230.0
_BRACKET_NODES = 33  # coarse ln x nodes that bracket ln kappa_b at the horizon
_TABLE_STEP = 0.25  # largest ln x step of the table that seeds Newton
_NEWTON_STEPS = 3  # 2 miss the roundoff floor from this table
_AT_SLICE = 8192  # samples per Newton pass of at: its temporaries stay in cache


class _ReceiverFlow:
    """The receiver schedule kappa_b(t) of synthesize_controls in closed form.

    With x = kappa_b/kappa0 and time in units of 1/kappa0 the flow is
    autonomous and rational in x:

        dx/dt = c x Q(x) / (a + e x),   Q(x) = e^2 x^2 + q x + a^2,

    with c = cos(delta_+ - delta_-) beta_-/beta_+ < 0 (``rate``),
    a = eta_a, e = eta_b and q = 2 (2 beta_+^2 - eta_a eta_b).  Partial
    fractions give the time at which it reaches x:

        t(x) = (1/c) [k G(u, u0) - ln(P(w)/P(w0)) / (2a)],

    where w = 1/x, P(w) = Q(x)/x^2, u = 2 e^2 x + q,
    k = e - q/(2a) = 2 (eta_a eta_b - beta_+^2)/eta_a and
    G(u, u0) = (2/s) atan2(s (u - u0), s^2 + u u0), with
    s^2 = 4 a^2 e^2 - q^2 = 16 beta_+^2 (eta_a eta_b - beta_+^2) >= 0 (unitary
    blocks make the dissipator positive).  As s -> 0, the perfectly dark
    channel, G tends to 2 (u - u0)/(u u0) and k G to 0.  ln(P/P0) is taken
    as log1p of (w - w0)(a^2 (w + w0) + q)/P0, which stays exact where
    kappa_b is large.

    The coefficient fields are scalars (one network) or arrays (networks on
    the last axis, as the phase scans build them); rate is c per network.
    time and dark_decay broadcast over the networks; at takes one network.
    Raises StepUnstable unless kappa_b(0) = kappa0 10^(dB/10) is finite,
    > 0 and at most 1e100 kappa0.
    """

    def __init__(self, coeffs, rate, kappa0: float, ratio_db: float):
        try:
            x0 = kappa0 * 10.0 ** (ratio_db / 10.0)
        except OverflowError:
            x0 = math.inf
        y0 = ratio_db * math.log(10.0) / 10.0  # ln(kappa_b(0)/kappa0)
        if not (0.0 < x0 < math.inf and y0 <= _LN_X_HIGH):
            raise StepUnstable(
                f"kappa_b(0) = kappa0 * 10^({ratio_db:g}/10) = {x0:.3g} must "
                "be finite, > 0 and at most 1e100 kappa0"
            )
        self.kappa0, self.kb0, self.y0 = kappa0, x0, y0
        c, a, e, beta = np.atleast_1d(
            rate, coeffs.eta_a, coeffs.eta_b, coeffs.beta_plus
        )
        beta2 = beta * beta
        q = 2.0 * (2.0 * beta2 - a * e)
        k = e - q / (2.0 * a)
        # A floor of 1e-200 on s^2 evaluates the s -> 0 limit of G to double
        # precision (they differ by O(s^2)) and absorbs roundoff below zero.
        s2 = np.maximum(16.0 * beta2 * (a * e - beta2), 1e-200)
        s = np.sqrt(s2)
        # t is measured from x_start; below _LN_X_LOW it grows linearly in
        # ln x with slope 1/(c a), and so does the part of it before x_start
        x_start = math.exp(max(y0, _LN_X_LOW))
        w0 = 1.0 / x_start
        p0 = (a * a * w0 + q) * w0 + e * e
        u0 = 2.0 * e * e * x_start + q
        self.x_start, self.w0, self.ca = x_start, w0, c * a
        # t = A atan2(S (x - x_start), C0 + C1 x)
        #     + L log1p((w - w0)(alpha w + beta)) + (y - y_in)/(c a) + t_low,
        # with y_in = max(y, _LN_X_LOW) and x, w = e^y_in, e^-y_in
        self.A, self.S = 2.0 * k / (s * c), 2.0 * e * e * s
        self.C0, self.C1 = s2 + q * u0, 2.0 * e * e * u0
        self.L = -1.0 / (2.0 * a * c)
        self.alpha, self.beta = a * a / p0, (a * a * w0 + q) / p0
        self.t_low = -(y0 - max(y0, _LN_X_LOW)) / (c * a)
        # dy/dt = c Q(x)/(a + e x) = ((e^2 x + q) x + a^2)/(a/c + (e/c) x)
        self.e2, self.q, self.a2 = e * e, q, a * a
        self.a_c, self.e_c = a / c, e / c
        self.a, self.e, self.s2 = a, e, s2
        self.log_r0 = self._log_ratio(x_start)  # F's logarithms at x(0)

    def time(self, y):
        """(t, dy/dt) at y = ln(kappa_b/kappa0), in units of 1/kappa0."""
        y_in = np.maximum(y, _LN_X_LOW)
        x = np.exp(y_in)
        w = 1.0 / x
        g = np.arctan2(self.S * (x - self.x_start), self.C0 + self.C1 * x)
        log_p = np.log1p((w - self.w0) * (self.alpha * w + self.beta))
        t = self.A * g + self.L * log_p + ((y - y_in) / self.ca + self.t_low)
        rate = ((self.e2 * x + self.q) * x + self.a2) / (self.a_c + self.e_c * x)
        return t, rate

    def _log_ratio(self, x):
        """ln(2a^2 + q x + 2a sqrt Q) - ln(2e sqrt Q + u); a sum that cancels
        (beta_+^2 << eta_a eta_b) is s^2 x^2 or s^2 over the conjugate sum:
        (2a sqrt Q)^2 - (2a^2 + q x)^2 = s^2 x^2 and 4e^2 Q - u^2 = s^2."""
        root = np.sqrt((self.e2 * x + self.q) * x + self.a2)
        v, u = 2.0 * self.a2 + self.q * x, 2.0 * self.e2 * x + self.q
        d1, d2 = 2.0 * self.a * root + abs(v), 2.0 * self.e * root + abs(u)
        return np.log(np.where(v >= 0.0, d1, self.s2 * x * x / d1)
                      / np.where(u >= 0.0, d2, self.s2 / d2))

    def dark_decay(self, x):
        """int Gamma_d dt from kappa_b(0) = kappa0 x0 down to kappa0 x >= 0,
        broadcasting like time: with Gamma_d/kappa0 = (a + e x - sqrt Q)/2,
        [F(x0) - F(x)]/(2|c|) for F = (s/(2 beta_+^2)) atan(u/s) + _log_ratio,
        whose atan term is a times the one of t."""
        g = np.arctan2(self.S * (x - self.x_start), self.C0 + self.C1 * x)
        log_r = self.log_r0 - self._log_ratio(x)
        return self.a * (self.A * g + self.L * log_r)

    def table(self, t_end):
        """(t, ln x) on uniform steps of at most _TABLE_STEP in ln x, from
        ln x(0) down to the first of _BRACKET_NODES coarse nodes (ln x(0)
        to below _LN_X_LOW) that t reaches no earlier than t_end, in units
        of 1/kappa0: the range a grid up to t_end reaches."""
        coarse = np.linspace(self.y0, min(self.y0, _LN_X_LOW) - 1.0, _BRACKET_NODES)
        end = np.searchsorted(self.time(coarse)[0], t_end)
        y_end = coarse[min(max(end, 1), _BRACKET_NODES - 1)]
        ys = np.linspace(self.y0, y_end, math.ceil((self.y0 - y_end) / _TABLE_STEP) + 1)
        return self.time(ys)[0], ys

    def at(self, times) -> np.ndarray:
        """kappa_b of one network at a 1-d array of times.

        ln x is interpolated from the table of the latest time, then refined
        by _NEWTON_STEPS Newton steps on t(ln x) = t, a slice of _AT_SLICE
        samples at a time (each sample alone: slicing changes no bit).
        Past the coarse grid's end t is linear in ln x, so the first step
        lands there exactly.  kappa_b(0) is kappa0 10^(dB/10) exactly.
        """
        tau = self.kappa0 * np.asarray(times, dtype=float)
        y = np.interp(tau, *self.table(tau.max()))
        for lo in range(0, len(tau), _AT_SLICE):
            ys, part = y[lo:lo + _AT_SLICE], tau[lo:lo + _AT_SLICE]  # views
            for _ in range(_NEWTON_STEPS):
                t, rate = self.time(ys)
                ys -= (t - part) * rate
        kb = self.kappa0 * np.exp(y)
        kb[tau == 0.0] = self.kb0
        return kb


def _receiver_schedule(coeffs, kappa0, ratio_db, T, dt):
    """synthesize_controls' protocol without the incomplete-pulse warning."""
    cos_d, ratio, slope = _protocol_constants(coeffs)
    times = np.linspace(0.0, T, 2 * step_count(T, dt) + 1)
    kb = _ReceiverFlow(coeffs, cos_d * ratio, kappa0, ratio_db).at(times)
    # the terminal dB needs a finite kappa_b(T) > 0
    if not 0.0 < kb[-1] < np.inf:
        raise StepUnstable(
            f"kappa_b(T) = {kb[-1]:.3g} is not a finite number > 0; shorten T"
        )
    h_bz = (kb * (coeffs.eta_b * slope - coeffs.t_bb.imag)
            - kappa0 * (coeffs.eta_a * slope - coeffs.t_aa.imag))
    return ControlProtocol(times, kb, h_bz, kappa_a=kappa0,
                           phase_diff=-coeffs.delta_plus, h_az=0.0)


def synthesize_controls(
    coeffs: TransferCoefficients,
    kappa0: float,
    ratio_db: float = 25.0,
    T: float = 20.0,
    dt: float = 1e-3,
) -> ControlProtocol:
    """Receiver schedule (kappa_b(t), h_bz(t)) tracking the subradiant state.

    Fixes the phase reference phi_a - phi_b = -delta_+ and takes kappa_b(t)
    from the exact solution of the decoupled kappa_b flow (_ReceiverFlow),
    starting at kappa_b(0) = kappa0 * 10^(dB/10).  The schedule is sampled
    at half the requested step so that downstream RK4 integration of the
    Bloch equations finds exact midpoint values.  T >= 0 and dt > 0 are
    finite, and T/dt is at most lindblad.MAX_STEPS (InvalidParameter).
    """
    protocol = _receiver_schedule(coeffs, kappa0, ratio_db, T, dt)
    terminal_db = 10.0 * np.log10(protocol.kappa_b[-1] / kappa0)
    if terminal_db > -15.0:
        warnings.warn(
            f"kappa_b(T)/kappa0 = {terminal_db:.1f} dB > -15 dB: "
            "the transfer pulse is incomplete; increase T",
            stacklevel=2,
        )
    return protocol


# -- transfer simulation ----------------------------------------------------


@dataclass
class TransferResult:
    """simulate_transfer's Bloch trajectory at the protocol's step times
    (its even samples).  The drive components R0 and R are not kept:
    _rj_arrays gives them from the protocol's kappa_b[::2] and h_bz[::2]."""

    times: np.ndarray
    b0: np.ndarray
    bvec: np.ndarray  # (n, 3)
    success_traj: np.ndarray  # population of |du> over time
    dark_bound: np.ndarray  # exp(-int Gamma_d) of _bloch_blocks
    success: float


def _bloch_generator(r0, rx, ry, rz, jx, jy, jz, out=None):
    """A of the Bloch equations b0' = -(R0 b0 + R.b)/2 and b' = J x b -
    (R0 b + b0 R)/2, d/dt (b0, b) = A (b0, b), over the components' shape,
    written into out (allocated when None)."""
    out = np.empty(np.shape(r0) + (4, 4)) if out is None else out
    d, x, y, z = (-0.5 * c for c in (r0, rx, ry, rz))
    np.stack([d, x, y, z, x, d, -jz, jy, y, jz, d, -jx, z, -jy, jx, d],
             axis=-1, out=out.reshape(np.shape(r0) + (16,)))
    return out


# step propagators formed at once: bounds memory, and a block's prefix
# products take at most 2 log2(_BLOCK) = 20 levels
_BLOCK = 1024


def _bloch_workspace(n_steps: int) -> tuple:
    """The arrays _bloch_blocks writes the blocks of an n_steps run into:
    the generators, rk4_step_matrix's five outputs and the states."""
    m = min(_BLOCK, n_steps)
    a = np.empty((2 * m + 1, 4, 4))
    return a, [np.empty((m, 4, 4)) for _ in range(5)], np.empty((m + 1, 4))


def _bloch_blocks(coeffs: TransferCoefficients, protocol: ControlProtocol,
                  workspace=None):
    """RK4 for the linear Bloch equations y' = A(t) y of one network under
    protocol, from |ud>, in blocks of m <= _BLOCK steps of lindblad's
    _rk4_block, each checked by _check_block and the subradiant bound.

    A step spans two protocol samples (the midpoint is an exact protocol
    value).  A block computes the R/J components (_rj_arrays) at its 2m + 1
    samples from its own protocol slices, then int Gamma_d = int (R0 - |R|)/2
    by Simpson's rule per step (dark_decay to roundoff on a synthesized
    protocol); b0 above exp(-int Gamma_d) + 1e-6 raises BoundViolated.
    Yields per block the components, y_n..y_n+m (m + 1, 4) and the stage
    maps (S1, S2, S3), each (m, 4, 4), in the arrays of workspace (new when
    None), which the next block overwrites, then the bound after each of
    the m steps and the run's largest b0 - bound so far.

    Before any step, raises InvalidParameter unless times, kappa_b and h_bz
    are 1-d of one odd length >= 3, and StepUnstable when a kappa is
    negative or NaN, when kappa0 kappa_b overflows, or when kappa_b eta_b
    so exceeds kappa0 eta_a that R0 + Rz = 2 kappa0 eta_a cancels."""
    n = np.size(protocol.times)
    shapes = [np.shape(v) for v in (protocol.times, protocol.kappa_b, protocol.h_bz)]
    if shapes != [(n,)] * 3 or n < 3 or n % 2 == 0:
        raise InvalidParameter(f"protocol arrays of shapes {shapes} must be 1-d "
                               "of one odd length >= 3: an even number of intervals")
    h = protocol.times[2] - protocol.times[0]
    n_steps = (n - 1) // 2
    kappa0, kb_max = protocol.kappa_a, float(protocol.kappa_b.max())
    for name, kappa in (("kappa_a", kappa0), ("kappa_b", protocol.kappa_b.min())):
        if not kappa >= 0.0:
            raise StepUnstable(f"{name} = {kappa:.3g} is negative or NaN")
    if not math.isfinite(kappa0 * kb_max):
        raise StepUnstable(f"kappa0 * kappa_b = {kappa0:.3g} * {kb_max:.3g} "
                           "is not finite; lower kappa0")
    if kb_max * coeffs.eta_b * np.finfo(float).eps >= kappa0 * coeffs.eta_a:
        raise StepUnstable(
            f"kappa_b = {kb_max:.3g} is beyond double precision at kappa0 = "
            f"{kappa0:.3g}: R0 + Rz = 2 kappa0 eta_a cancels to roundoff; "
            "lower ratio_db")
    a, work, states = workspace or _bloch_workspace(n_steps)
    states[0] = (1.0, 0.0, 0.0, 1.0)  # (b0, bx, by, bz) for |ud>
    decay, excess = 0.0, -math.inf  # int Gamma_d dt and b0 - bound so far
    for start in range(0, n_steps, _BLOCK):
        m = min(_BLOCK, n_steps - start)
        part = np.s_[2 * start:2 * (start + m) + 1]
        block = _rj_arrays(coeffs, kappa0, protocol.phase_diff, protocol.h_az,
                           protocol.kappa_b[part], protocol.h_bz[part])
        g = _bloch_generator(*block, out=a[:2 * m + 1])
        y = states[:m + 1]
        stage_maps = _rk4_block(g, y, h, out=[w[:m] for w in work])
        _check_block(y, start)
        r0, rx, ry, rz = block[:4]
        gamma = 0.5 * (r0 - np.sqrt(rx * rx + ry * ry + rz * rz))
        decays = decay + np.cumsum(
            (h / 6.0) * (gamma[:-1:2] + 4.0 * gamma[1::2] + gamma[2::2]))
        bound = np.exp(-decays)
        excess = max(float((y[1:, 0] - bound).max()), excess)  # NaN stays
        if not excess <= 1e-6:
            raise BoundViolated(
                f"b0 exceeds the subradiant bound by {excess:.3e}")
        yield block, y, stage_maps, bound, excess
        states[0] = states[m]
        decay = decays[-1]


def simulate_transfer(
    coeffs: TransferCoefficients,
    protocol: ControlProtocol,
) -> TransferResult:
    """Integrate the Bloch equations from |ud> under a protocol.

    RK4 steps over pairs of protocol samples (midpoints are exact protocol
    values, no interpolation), run and checked by _bloch_blocks, whose
    subradiant bound b0(t) <= exp(-int Gamma_d) + 1e-6 it keeps.
    """
    traj = np.empty((np.size(protocol.times) // 2 + 1, 4))
    dark_bound = np.ones(len(traj))  # exp(-0) at t = 0
    start = 0
    for _, y, _, bound, _ in _bloch_blocks(coeffs, protocol):
        traj[start:start + len(y)] = y
        dark_bound[start + 1:start + len(y)] = bound
        start += len(y) - 1
    b0_traj, bvec_traj = traj[:, 0], traj[:, 1:]
    success_traj = 0.5 * (b0_traj - bvec_traj[:, 2])
    return TransferResult(
        times=protocol.times[::2],
        b0=b0_traj,
        bvec=bvec_traj,
        success_traj=success_traj,
        dark_bound=dark_bound,
        success=float(success_traj[-1]),
    )


# -- ensemble experiments ---------------------------------------------------


@dataclass
class SweepSummary:
    success: float
    max_bound_excess: float
    max_closed_form_mismatch: float
    kappa_b_final_db: float
    b0_final: float


def _closed_form_integrand(r0, rx, ry, rz, state):
    """R0 + R.e_b at Bloch states shaped (..., 4); e_b = 0 where b = 0."""
    b = state[..., 1:]
    bn = np.sqrt(np.sum(b * b, axis=-1))
    safe = np.where(bn > 0, bn, 1.0)
    return r0 + (rx * b[..., 0] + ry * b[..., 1] + rz * b[..., 2]) / safe


def transfer_sweep(
    coeffs_list,
    kappa0: float,
    ratio_db: float = 25.0,
    T: float = 20.0,
    dt: float = 2e-4,
) -> list:
    """Synthesize-and-simulate each network of a list, one at a time.

    Each network runs the scalar pipeline, the schedule of
    synthesize_controls (reporting the terminal dB instead of warning)
    through the checked blocks of simulate_transfer (_bloch_blocks), so
    success, b0, the subradiant bound and any StepUnstable or BoundViolated
    equal theirs exactly; max_bound_excess is the largest excess the blocks
    report, and each block is reduced to its closed-form mismatch.  The
    closed form's int (R0 + R.e_b) (over the RK4 stage states) is what RK4
    gives for it as an extra ODE state.

    A start at or below -40 dB, which predict_transfer refuses, runs as any
    other: the flow lowers kappa_b further, and the result is the physical
    one for a receiver that barely couples, a success of the order of
    kappa_b(0)/kappa0.
    """
    # T and dt are checked for an empty list too; one workspace serves all
    workspace = _bloch_workspace(step_count(T, dt))
    summaries = []
    for coeffs in coeffs_list:
        protocol = _receiver_schedule(coeffs, kappa0, ratio_db, T, dt)
        h = protocol.times[2] - protocol.times[0]
        q_f = 0.0  # quadrature int (R0 + R.e_b) dt up to the block start
        mismatch = []  # per block
        for comps, y, stage_maps, _, excess in _bloch_blocks(coeffs, protocol,
                                                             workspace):
            r0, rx, ry, rz = comps[:4]
            stages = (y[:-1], *(np.einsum("...ij,...j->...i", s, y[:-1])
                                for s in stage_maps))
            f1, f2, f3, f4 = (
                _closed_form_integrand(r0[k], rx[k], ry[k], rz[k], state)
                for k, state in zip(np.s_[:-1:2, 1::2, 1::2, 2::2], stages)
            )
            q_f = q_f + np.cumsum((h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4))
            mismatch.append(np.abs(y[1:, 0] - np.exp(-0.5 * q_f)).max())
            q_f = q_f[-1]

        summaries.append(SweepSummary(
            0.5 * float(y[-1, 0] - y[-1, 3]), excess, float(np.max(mismatch)),
            float(10.0 * np.log10(protocol.kappa_b[-1] / kappa0)),
            float(y[-1, 0]),
        ))
    return summaries


def predict_transfer(
    coeffs: TransferCoefficients,
    kappa0: float,
    ratio_db: float = 25.0,
):
    """Closed-form (success upper bound, pulse duration) of the protocol.

    The bound is exp(-int Gamma_d dt) over the whole synthesized kappa_b
    flow, from kappa_b(0) down to 0 (_ReceiverFlow.dark_decay); the duration
    is the exact time of the flow to reach kappa0 at -40 dB, so a start at
    or below -40 dB, which never reaches it, raises InvalidParameter.
    Floats for one network; arrays over the networks for array-field
    coefficients.
    """
    if ratio_db <= -40.0:
        raise InvalidParameter(
            f"ratio_db = {ratio_db:g} starts at or below the -40 dB that ends "
            "the pulse: the flow never reaches it, so it has no duration")
    cos_d, ratio, _ = _protocol_constants(coeffs)
    flow = _ReceiverFlow(coeffs, cos_d * ratio, kappa0, ratio_db)
    bound = np.exp(-flow.dark_decay(0.0))
    t_total = flow.time(math.log(1e-4))[0] / kappa0
    if np.ndim(coeffs.beta_plus):
        return bound, t_total
    return float(bound[0]), float(t_total[0])


def _phase_scan(circulator_a, circulator_b, phases):
    """(accepted, array-field coefficients of the accepted phases)."""
    base = two_qubit_network(circulator_a, circulator_b, interconnect_phase=0.0)
    phases = np.asarray(phases, float)
    w = np.repeat(assemble_W(base)[None], len(phases), axis=0)
    frm, to = np.transpose(_LINE)
    w[:, to, frm] = np.exp(1j * phases)[:, None]
    routing = routing_matrices(assemble_S(base), w)
    qubits = coupled_qubit_ports(base)
    accepted = routing.accepted
    return accepted, _coefficients_from_T(routing.T[accepted], qubits)


def phase_scan_coefficients(circulator_a, circulator_b, phases) -> list:
    """TransferCoefficients of the two-circulator network for a grid of
    interconnect phases (_phase_scan), None where the loop is rejected.
    Matches transfer_coefficients(two_qubit_network(...)) exactly."""
    accepted, coeffs = _phase_scan(circulator_a, circulator_b, phases)
    scan = iter(coeffs.unstack())
    return [next(scan) if ok else None for ok in accepted]


# half a period: paths between the qubits cross the line an odd number of
# times, so phi -> phi + pi negates t_ab and t_ba and leaves eta, beta_+-,
# cos(delta_+ - delta_-) and every score unchanged
TUNING_PHASES = np.linspace(0.0, np.pi, 128, endpoint=False)


def _tune_phase(circ_a, circ_b, score):
    """(lowest score, (coefficients, network, phase)) over TUNING_PHASES,
    the first phase on ties, or None if none is admissible.  score maps the
    oriented array-field coefficients of the accepted phases to an array,
    inf for an inadmissible phase."""
    accepted, coeffs = _phase_scan(circ_a, circ_b, TUNING_PHASES)
    coeffs = oriented(coeffs)
    values = score(coeffs)
    if not np.any(values < np.inf):
        return None
    best = int(np.argmin(values))
    phase = float(TUNING_PHASES[accepted][best])
    net = two_qubit_network(circ_a, circ_b, interconnect_phase=phase)
    return values[best], (coeffs.take([best]).unstack()[0], net, phase)


def phase_tuned_network(seed: int, r2_min: float, r2_max: float, resid_max: float):
    """Imperfect network whose interconnect phase minimizes the dark residual.

    Draws seeded random circulators with all retro-reflectances inside
    [r2_min, r2_max], then scans the interconnect phase for the smallest
    |eta_a eta_b - beta_+^2| (sender/receiver swapped when the
    directionality is wrong).  Accepts when that minimum is below resid_max.
    Returns (coefficients, network, phase in [0, pi)) or None after 200
    draws; deterministic.  Bad inputs raise InvalidParameter.
    """
    rng = _sampler_rng(seed, r2_min, r2_max, resid_max)
    for start in range(0, 200, _DRAW_CHUNK):
        # each try draws eps, H_a and H_b from the main stream, in this
        # order; a chunk's circulators are one stacked eigvalsh and eigh
        tries = [(_draw_eps(rng, r2_min, r2_max), _hermitian_draw(rng, 3),
                  _hermitian_draw(rng, 3))
                 for _ in range(min(_DRAW_CHUNK, 200 - start))]
        eps, h_a, h_b = zip(*tries)
        circs = perturbed_circulator(
            np.array(eps)[:, None], _unit_spectral_norm(np.stack([h_a, h_b], axis=1))
        )
        for i in np.flatnonzero(_in_class(circs, r2_min, r2_max).all(axis=-1)):
            tuned = _tune_phase(*circs[i], lambda c: abs(dark_state_residual(c)))
            if tuned is not None and tuned[0] < resid_max:
                return tuned[1]
    return None


ADVERSE_R2 = (0.42, 0.84)  # retro-reflectance class of the adverse networks
ADVERSE_TRIES = 40  # circulator pairs phase_tuned_adverse_network tunes


def phase_tuned_adverse_network(seed: int):
    """Strongly reflective network tuned to a mid-range predicted success.

    Circulators with every retro-reflectance in ADVERSE_R2, interconnect
    phase chosen so that cos(delta_+ - delta_-) falls inside [-0.20, -0.10],
    both Purcell factors lie in [0.05, 5] and the predicted success
    (predict_transfer at kappa0 = 1 and 25 dB) is closest to 0.55 while
    staying inside [0.45, 0.65], with the pulse completing within 18.
    Returns (coefficients, network, phase), or None when none of
    ADVERSE_TRIES circulator pairs is admissible.
    """
    rng = _sampler_rng(seed, *ADVERSE_R2)
    eps_grid = np.linspace(0.8, 3.0, 23)

    def reflective_circulator():
        # strong reflections are rare for a random (eps, H) pair, so scan
        # eps per draw and keep the first admissible value
        for _ in range(200):
            circs = perturbed_circulator(eps_grid, random_hermitian(rng, 3))
            ok = _in_class(circs, *ADVERSE_R2)
            if ok.any():
                return circs[ok.argmax()]
        return None

    def score(c):
        cos_d = np.cos(c.delta_plus - c.delta_minus)
        ok = ((-0.20 <= cos_d) & (cos_d <= -0.10) & (c.beta_plus >= 1e-6)
              & (0.05 <= c.eta_a) & (c.eta_a <= 5.0)
              & (0.05 <= c.eta_b) & (c.eta_b <= 5.0))
        est, t_total = predict_transfer(c.take(ok), 1.0, 25.0)
        fit = (t_total <= 18.0) & (0.45 <= est) & (est <= 0.65)
        values = np.full(len(ok), np.inf)
        values[ok] = np.where(fit, np.abs(est - 0.55), np.inf)
        return values

    for _ in range(ADVERSE_TRIES):
        circ_a = reflective_circulator()
        circ_b = reflective_circulator()
        if circ_a is None or circ_b is None:
            return None
        tuned = _tune_phase(circ_a, circ_b, score)
        if tuned is not None:
            return tuned[1]
    return None


# -- specialized two-qubit master equation ----------------------------------


def specialized_master_equation(
    coeffs: TransferCoefficients,
    kappa_a: float,
    kappa_b: float,
    phi_a: float = 0.0,
    phi_b: float = 0.0,
    h_az: float = 0.0,
    h_bz: float = 0.0,
) -> np.ndarray:
    """16x16 generator built directly from the t-coefficients.

    Builds, in place, the explicit excitation-conserving H_eff and the
    collective dissipator sum_{ik} B_ik (sigma_k rho sigma_i^dag
    - 1/2 {sigma_i^dag sigma_k, rho}); the single-excitation restriction of
    sum B_ik sigma_i^dag sigma_k is the feeding operator R.  Independent of
    the generic contracted-Lindblad construction; the two must agree, which
    is this module's central cross-validation.  Note: the compact
    "Tr(rho P_uu) R + Tr(R rho) P_dd" form of the feeding terms holds only
    on states block-diagonal in total excitation number; the full dissipator
    here also carries the inter-sector coherence terms.
    """
    # the excitation-number-conserving effective Hamiltonian, explicit form
    im_a = kappa_a * coeffs.t_aa.imag
    im_b = kappa_b * coeffs.t_bb.imag
    h = np.zeros((4, 4), dtype=complex)
    h[UP_UP, UP_UP] = im_a + im_b + 0.5 * h_az + 0.5 * h_bz
    h[DOWN_DOWN, DOWN_DOWN] = -(0.5 * h_az + 0.5 * h_bz)
    h[UP_DOWN, UP_DOWN] = im_a + 0.5 * h_az - 0.5 * h_bz
    h[DOWN_UP, DOWN_UP] = im_b - 0.5 * h_az + 0.5 * h_bz
    root = np.sqrt(kappa_a * kappa_b)
    chi_m = phi_a - phi_b + coeffs.delta_minus
    cross = root * coeffs.beta_minus * np.exp(-1j * chi_m) / 2j
    h[UP_DOWN, DOWN_UP] = cross
    h[DOWN_UP, UP_DOWN] = np.conj(cross)
    # B: the Hermitian 2x2 coefficient matrix of the collective dissipator
    # sum_{ik} B_ik sigma_k rho sigma_i^dag (indices a=0, b=1)
    b_ab = (root * (coeffs.t_ab + np.conj(coeffs.t_ba))
            * np.exp(-1j * (phi_a - phi_b)))
    b_mat = np.array([[kappa_a * coeffs.eta_a, b_ab],
                      [np.conj(b_ab), kappa_b * coeffs.eta_b]])
    eye2 = np.eye(2, dtype=complex)
    sig = [np.kron(SIGMA_MINUS, eye2), np.kron(eye2, SIGMA_MINUS)]  # a, b
    eye = np.eye(4, dtype=complex)

    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for i in range(2):
        for k in range(2):
            jump = np.kron(sig[i].conj(), sig[k])
            anti = sig[i].conj().T @ sig[k]
            gen += b_mat[i, k] * (
                jump
                - 0.5 * np.kron(eye, anti)
                - 0.5 * np.kron(anti.T, eye)
            )
    return gen


def verify_specialized_generator(network: Network) -> float:
    """Compare the specialized generator against the generic Lindblad one.

    The network's local Hamiltonians must be the sigma_z detunings
    h_z sigma_z / 2 that two_qubit_network builds; each qubit's h_z is read
    as 2 Re H[0, 0] of the system owning its coupled port.  Returns the
    max-abs residual; raises if it exceeds 1e-12 relative to the generator
    scale.
    """
    model = contract_network(network)
    generic = build_generator(model, Controls(), 0.0)

    pa, pb = coupled_qubit_ports(network)
    coeffs = _coefficients_from_T(model.routing.T, (pa, pb))
    owner = {port: sys for sys in network.systems for port in sys.couplings}
    a, b = owner[pa], owner[pb]
    special = specialized_master_equation(
        coeffs,
        kappa_a=a.couplings[pa].kappa,
        kappa_b=b.couplings[pb].kappa,
        phi_a=a.couplings[pa].phi,
        phi_b=b.couplings[pb].phi,
        h_az=2.0 * a.hamiltonian[0, 0].real,
        h_bz=2.0 * b.hamiltonian[0, 0].real,
    )
    residual = float(np.abs(generic - special).max())
    scale = max(1.0, float(np.abs(generic).max()))
    if residual > 1e-12 * scale:
        raise MismatchWithGenericGenerator(
            "specialized two-qubit generator disagrees with the generic "
            f"Lindblad generator (max residual {residual:.3e})"
        )
    return residual
