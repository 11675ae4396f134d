"""Master-equation generator construction and RK4 propagation."""

import functools
import tracemalloc
import warnings

import numpy as np
import pytest

from loopnet import (
    Connection,
    Controls,
    Coupling,
    LocalSystem,
    Network,
    Port,
    ScatteringBlock,
    Schedule,
    basis_state,
    build_generator,
    contract_network,
    controls_from_network,
    effective_operators_at,
    ideal_circulator,
    integrate,
    liouvillian,
    perturbed_circulator,
    random_imperfect_network,
    synthesize_controls,
    transfer_coefficients,
    two_qubit_network,
)
from loopnet import lindblad
from loopnet.errors import (
    InvalidParameter,
    LoopnetError,
    ScheduleMissing,
    StepUnstable,
)
from loopnet.lindblad import _GeneratorAssembler
from loopnet.network import SIGMA_MINUS, SIGMA_Z, dag, embed_operator

from conftest import single_qubit_network


def test_single_qubit_decay():
    model = contract_network(single_qubit_network(kappa=1.0))
    traj = integrate(model, Controls(), basis_state(2, 0),
                     t_final=5.0, dt=1e-3,
                     observables={"p_up": basis_state(2, 0)})
    expected = np.exp(-traj.times)
    assert np.abs(traj.observables["p_up"].real - expected).max() < 1e-8


def test_trace_hermiticity_positivity():
    net = two_qubit_network(ideal_circulator(), ideal_circulator(),
                            kappa_a=1.0, kappa_b=0.5, h_az=0.4)
    model = contract_network(net)
    rho0 = np.full((4, 4), 0.25, dtype=complex)  # pure superposition state
    traj = integrate(model, Controls(), rho0, t_final=10.0, dt=1e-3)
    assert traj.max_trace_drift < 1e-8
    assert traj.max_herm_drift < 1e-10
    assert np.linalg.eigvalsh(traj.rhos).min() > -1e-8


def test_generator_linearity(rng):
    net = two_qubit_network(ideal_circulator(), ideal_circulator(),
                            kappa_a=1.2, kappa_b=0.7, h_az=0.3, h_bz=-0.2)
    model = contract_network(net)
    gen = build_generator(model, Controls(), 0.0)
    h_eff, l_eff = effective_operators_at(model, Controls(), 0.0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ dag(a)
    rho /= np.trace(rho)
    direct = -1j * (h_eff @ rho - rho @ h_eff)
    for op in l_eff:
        direct += op @ rho @ dag(op) - 0.5 * (
            dag(op) @ op @ rho + rho @ dag(op) @ op
        )
    via_super = (gen @ rho.reshape(-1, order="F")).reshape(4, 4, order="F")
    assert np.abs(via_super - direct).max() < 1e-13


def test_assembler_matches_build_generator():
    net = two_qubit_network(ideal_circulator(), ideal_circulator())
    model = contract_network(net)
    controls = controls_from_network(
        net,
        kappa_schedules={7: Schedule(lambda t: 2.0 + np.sin(t))},
        phi_schedules={0: Schedule(lambda t: 0.3 * t)},
        hamiltonian_terms=[
            (0.5 * embed_operator(net, "qubit_b", SIGMA_Z),
             Schedule(lambda t: np.cos(t))),
        ],
    )
    assembler = _GeneratorAssembler(model, controls)
    for t in (0.0, 0.37, 1.9, 12.3):
        weights = assembler.weights(np.array([t]))[0]
        assert np.abs(np.tensordot(weights, assembler.terms, 1)
                      - build_generator(model, controls, t)).max() < 1e-13


def test_liouvillian_of_zero_ops_is_commutator():
    h = np.diag([1.0, -1.0]).astype(complex)
    gen = liouvillian(h, [])
    rho = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
    out = (gen @ rho.reshape(-1, order="F")).reshape(2, 2, order="F")
    assert np.abs(out - (-1j) * (h @ rho - rho @ h)).max() < 1e-14


def test_scheduled_control_requires_coupled_port():
    net = two_qubit_network(ideal_circulator(), ideal_circulator())
    with pytest.raises(ScheduleMissing) as info:
        controls_from_network(net, kappa_schedules={3: Schedule.constant(1.0)})
    assert str(info.value) == "port 3 has no coupling to control"


def test_negative_kappa_schedule_aborts():
    """A negative kappa raises StepUnstable naming the port and the first
    half-step time where it is negative, at D = 2 (step matrices) and
    D = 8 (RK4 stages per step): negative from t = 0, where the first block
    stops before its only step, and from inside a block."""
    cases = [
        (Schedule.constant(-0.5), "0.0"),
        (Schedule(lambda t: 1.0 if t < 0.52 else -1.0), "0.52"),
        (Schedule(lambda t: 1.0 - t), "1.005"),
    ]
    for net, port, rho0 in [(single_qubit_network(), 0, basis_state(2, 0)),
                            (three_qubit_chain(), 10, random_state(8, 9))]:
        model = contract_network(net)
        for kappa, t_bad in cases:
            controls = controls_from_network(net, kappa_schedules={port: kappa})
            message = f"negative kappa schedule on port {port} at t={t_bad}$"
            with pytest.raises(StepUnstable, match=message):
                integrate(model, Controls(ports=controls.ports), rho0,
                          t_final=3.0, dt=1e-2)


def test_step_halving_convergence():
    """Fixed-step RK4: halving dt shrinks the error by ~2^4."""
    net = two_qubit_network(ideal_circulator(), ideal_circulator(),
                            h_az=1.0, h_bz=-0.5)
    model = contract_network(net)
    rho0 = np.full((4, 4), 0.25, dtype=complex)

    def final_rho(dt):
        return integrate(model, Controls(), rho0, t_final=2.0, dt=dt).rhos[-1]

    ref = final_rho(1e-3)
    err_coarse = np.abs(final_rho(0.2) - ref).max()
    err_fine = np.abs(final_rho(0.1) - ref).max()
    assert err_fine < err_coarse / 10.0


def test_time_dependent_rabi_oscillation():
    """sigma_x control on an uncoupled qubit gives exact Rabi flopping."""
    net = single_qubit_network(kappa=1.0)
    model = contract_network(net)
    omega = 2.0
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    controls = controls_from_network(
        net,
        kappa_schedules={0: Schedule.constant(0.0)},
        hamiltonian_terms=[(0.5 * omega * sx, Schedule.constant(1.0))],
    )
    traj = integrate(model, controls, basis_state(2, 1), t_final=3.0,
                     dt=1e-3, observables={"p_up": basis_state(2, 0)})
    expected = np.sin(0.5 * omega * traj.times) ** 2
    assert np.abs(traj.observables["p_up"].real - expected).max() < 1e-8


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


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


def _step_within_bounds(rho):
    """The per-step bounds of integrate on a Hermitian rho: trace drift
    within 100x TOL_TRACE, and every real and imaginary part of an entry
    (a density matrix has |rho_ij| <= 1) at most 1 + 100x TOL_TRACE."""
    trace = abs(np.trace(rho).real - 1.0)
    entry = max(np.abs(rho.real).max(), np.abs(rho.imag).max())
    return (trace <= 100 * lindblad.TOL_TRACE
            and entry <= 1.0 + 100 * lindblad.TOL_TRACE)


def stepwise_rk4(model, controls, rho0, t_final, dt):
    """Independent oracle: RK4 over build_generator, one step at a time,
    re-Hermitized after every step.  Returns (times, rhos) of every step,
    or the index of the first step whose re-Hermitized state is outside
    the integrate bounds.  Without controls the generator does not depend
    on t and is built once."""
    n_steps = max(1, int(round(t_final / dt)))
    h = t_final / n_steps
    d = rho0.shape[0]
    v = rho0.reshape(-1, order="F")
    times, rhos = [0.0], [rho0]
    if controls.ports or controls.hamiltonian:
        generator = functools.partial(build_generator, model, controls)
    else:
        static = build_generator(model, controls, 0.0)
        generator = lambda t: static
    for step in range(n_steps):
        t = step * h
        g1, g2, g4 = (generator(s) for s in (t, t + 0.5 * h, t + h))
        k1 = g1 @ v
        k2 = g2 @ (v + 0.5 * h * k1)
        k3 = g2 @ (v + 0.5 * h * k2)
        k4 = g4 @ (v + h * k3)
        rho = (v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)).reshape(
            d, d, order="F")
        rho = 0.5 * (rho + dag(rho))
        if not _step_within_bounds(rho):
            return step
        v = rho.reshape(-1, order="F")
        times.append((step + 1) * h)
        rhos.append(rho)
    return np.array(times), np.array(rhos)


def random_state(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ dag(a)
    return rho / np.trace(rho)


def _static_case(net, t_final=2.0, dt=1e-2):
    def case():
        model = contract_network(net())
        d = model.h_sys.shape[0]
        return model, Controls(), random_state(d, d), t_final, dt
    return case


def _criterion_08_case():
    net = two_qubit_network(ideal_circulator(), ideal_circulator())
    with warnings.catch_warnings():  # T = 2 cuts the transfer pulse short
        warnings.simplefilter("ignore", UserWarning)
        protocol = synthesize_controls(transfer_coefficients(net), 1.0,
                                       ratio_db=25.0, T=2.0, dt=5e-3)
    controls = controls_from_network(
        net,
        kappa_schedules={
            0: Schedule.constant(1.0),
            7: Schedule.sampled(protocol.times, protocol.kappa_b),
        },
        phi_schedules={
            0: Schedule.constant(protocol.phase_diff),
            7: Schedule.constant(0.0),
        },
        hamiltonian_terms=[
            (0.5 * embed_operator(net, "qubit_b", SIGMA_Z),
             Schedule.sampled(protocol.times, protocol.h_bz)),
        ],
    )
    return contract_network(net), controls, basis_state(4, 1), 2.0, 5e-3


def _step_schedule_case():
    net = random_imperfect_network(0.1, 1.0, 3)
    controls = controls_from_network(
        net,
        kappa_schedules={7: Schedule(lambda t: 1.0 if t < 1 else 0.5)},
        hamiltonian_terms=[(0.4 * embed_operator(net, "qubit_a", SIGMA_X),
                            Schedule(lambda t: np.cos(3.0 * t)))],
    )
    return contract_network(net), controls, random_state(4, 5), 2.0, 1e-2


def _scheduled_d8_case():
    """D^2 = 64, above _STEP_MATRIX_MAX_DD: the per-step RK4 stages."""
    net = three_qubit_chain()
    grid = np.linspace(0.0, 1.0, 41)
    controls = controls_from_network(
        net,
        kappa_schedules={10: Schedule.sampled(grid, 1.0 + 0.5 * np.sin(3 * grid))},
        hamiltonian_terms=[(0.4 * embed_operator(net, "qubit0", SIGMA_X),
                            Schedule.sampled(grid, np.cos(2.0 * grid)))],
    )
    return contract_network(net), controls, random_state(8, 9), 1.0, 1e-2


ORACLE_CASES = {
    "static-d2": _static_case(lambda: single_qubit_network(kappa=1.3)),
    "static-d4": _static_case(lambda: random_imperfect_network(0.1, 2.0, 7)),
    "static-d8": _static_case(three_qubit_chain),
    # longer than one default block (16,384 steps at D = 2, 4,096 at D = 4),
    # so the static doubling runs to its deepest level
    "static-d2-long": _static_case(lambda: single_qubit_network(kappa=1.3),
                                   16.5, 1e-3),
    "static-d4-long": _static_case(
        lambda: random_imperfect_network(0.1, 2.0, 7), 4.5, 1e-3),
    # two full 1,024-step blocks and a short one at D = 8: later blocks
    # reuse the squarings of P that the first one built
    "static-d8-long": _static_case(three_qubit_chain, 21.0, 1e-2),
    "criterion-08": _criterion_08_case,
    "step-schedule": _step_schedule_case,
    "scheduled-d8": _scheduled_d8_case,
}


@functools.cache
def oracle_run(case):
    model, controls, rho0, t_final, dt = ORACLE_CASES[case]()
    return (model, controls, rho0, t_final, dt,
            stepwise_rk4(model, controls, rho0, t_final, dt))


@pytest.mark.parametrize("block_steps", [None, 5])
@pytest.mark.parametrize("stride", [1, 7, 10**9])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_integrate_matches_stepwise_rk4(case, stride, block_steps,
                                        monkeypatch):
    """Block-wise integrate against the step-by-step RK4 oracle: <= 1e-12
    on every stored rho and identical sample times, with the default
    blocks and with 5-step blocks (restarts from re-Hermitized states).
    integrate stores every step; stride thins both trajectories to steps
    0, stride, 2 stride, ... and the last, as a caller keeps fewer states
    (stride 1 compares them all, 10**9 the first and the last)."""
    model, controls, rho0, t_final, dt, (times, rhos) = oracle_run(case)
    if block_steps is not None:
        dd = rho0.size
        per_step = 2 * dd * dd if controls.ports else dd
        monkeypatch.setattr(lindblad, "_BLOCK", block_steps * per_step)
    traj = integrate(model, controls, rho0, t_final, dt)
    assert np.array_equal(traj.times, times)
    assert traj.rhos.shape == rhos.shape
    n_steps = len(times) - 1
    kept = [0] + [k for k in range(1, n_steps + 1)
                  if k % stride == 0 or k == n_steps]
    assert np.abs(traj.rhos[kept] - rhos[kept]).max() <= 1e-12


@pytest.mark.parametrize("max_dd", [0, 64])
@pytest.mark.parametrize("case", ["criterion-08", "scheduled-d8"])
def test_scheduled_branches_match_stepwise_rk4(case, max_dd, monkeypatch):
    """Both scheduled branches on a D = 4 and a D = 8 case, whatever the
    measured threshold picks for them: the RK4 stages per step
    (_STEP_MATRIX_MAX_DD = 0) and the step matrices (64), <= 1e-12 from
    the oracle on every step."""
    model, controls, rho0, t_final, dt, (times, rhos) = oracle_run(case)
    monkeypatch.setattr(lindblad, "_STEP_MATRIX_MAX_DD", max_dd)
    traj = integrate(model, controls, rho0, t_final, dt)
    assert np.array_equal(traj.times, times)
    assert np.abs(traj.rhos - rhos).max() <= 1e-12


# the long cases share their models with static-d2 and static-d4
@pytest.mark.parametrize(
    "case", [c for c in sorted(ORACLE_CASES) if not c.endswith("-long")])
def test_integrate_unstable_step_matches_stepwise_rk4(case):
    """A strongly unstable dt raises StepUnstable at the step where the
    oracle's drift first exceeds its bounds.  That drift is roundoff grown
    by the instability, so the two step orders cross the bound at the same
    step only where the growth per step dwarfs their roundoff difference;
    at dt near the stability edge they may differ by a few steps."""
    model, controls, rho0, _, _ = ORACLE_CASES[case]()
    step = stepwise_rk4(model, controls, rho0, 120.0, 12.0)
    assert isinstance(step, int)
    with pytest.raises(StepUnstable, match=f"drift at step {step}:"):
        integrate(model, controls, rho0, 120.0, 12.0)


@pytest.mark.parametrize("schedules", [
    {"kappa_schedules": {0: Schedule(lambda t: np.nan if t > .5 else 1.)}},
    {"kappa_schedules": {0: Schedule(lambda t: np.inf if t > .5 else 1.)}},
    {"phi_schedules": {0: Schedule(lambda t: np.nan if t > .5 else 0.)}},
    {"hamiltonian_terms": [(SIGMA_X, Schedule(
        lambda t: np.nan if t > .5 else 1.))]},
])
def test_non_finite_schedule_raises(schedules):
    """A NaN or infinite schedule value raises instead of returning a NaN
    trajectory with small reported drift."""
    net = single_qubit_network()
    model = contract_network(net)
    controls = controls_from_network(net, **schedules)
    with pytest.raises(StepUnstable):
        integrate(model, controls, basis_state(2, 0), t_final=1.0, dt=1e-2)


def test_invalid_parameters_raise_typed_error():
    model = contract_network(single_qubit_network())
    for bad in ({"dt": 0.0}, {"dt": -1e-3}, {"dt": np.nan},
                {"t_final": np.inf}, {"t_final": -1.0},
                {"t_final": 1e300, "dt": 1e-300},
                {"t_final": 1e10, "dt": 1e-2}):
        kwargs = {"t_final": 1.0, "dt": 1e-2, **bad}
        with pytest.raises(InvalidParameter) as info:
            integrate(model, Controls(), basis_state(2, 0), **kwargs)
        assert isinstance(info.value, LoopnetError)
        assert isinstance(info.value, ValueError)
    with pytest.raises(InvalidParameter):
        Schedule.sampled(np.linspace(0.0, 1.0, 5), np.zeros(4))
    # np.interp needs increasing sample points: a grid it mishandles is
    # rejected, not left to a bare numpy error or meaningless values
    for times, message in [([], "at least one sample"),
                           ([0.0, np.nan, 1.0], "finite"),
                           ([0.0, 0.5, np.inf], "finite"),
                           ([0.0, 1.0, 0.5], "strictly increasing"),
                           ([0.0, 0.5, 0.5, 1.0], "strictly increasing")]:
        with pytest.raises(InvalidParameter, match=message):
            Schedule.sampled(times, np.zeros(len(times)))


def test_schedule_on_matches_pointwise_calls():
    times = np.linspace(-0.5, 3.0, 37)
    for schedule in (Schedule.constant(0.7),
                     Schedule.sampled([0.0, 1.0, 2.5], [1.0, -2.0, 0.5]),
                     Schedule(lambda t: 1.0 if t < 1 else 0.5)):
        assert np.array_equal(schedule.on(times),
                              [schedule(t) for t in times])


def test_drift_deep_in_a_block_names_the_first_bad_step():
    """A dt just past the stability edge crosses the step bounds thousands
    of steps into a block.  The start is the steady state that a stable run
    relaxes to, so the unstable mode (the decay of rho_00) starts at about
    1e-18 and grows by 1.3% a step.  The error names the step and the
    values that a per-step check of the same states finds: the states come
    from the coordinates of rho0 by the same doubling,
    states[n:2n] = states[:n] P^n."""
    model = contract_network(random_imperfect_network(0.1, 2.0, 7))
    rho0 = integrate(model, Controls(), random_state(4, 4), 20.0, 5e-2).rhos[-1]
    n_steps, dt = 4000, 1.382
    t_final = n_steps * dt
    h = t_final / n_steps  # the step integrate takes
    co = lindblad._Coordinates(4)
    gen = co.real_form(build_generator(model, Controls(), 0.0))[0]
    power = lindblad.rk4_step_matrix(gen, gen, gen, h)[0]
    m = min(n_steps, lindblad._BLOCK // 16)
    states = np.empty((m + 1, 16))
    states[0] = co.rows(rho0.reshape(16, 1, order="F"))[:, 0].real
    n = 1
    while n <= m:
        k = min(n, m + 1 - n)
        np.matmul(states[:k], power.T, out=states[n:n + k])
        n, power = n + k, power @ power
    traces = np.abs(states[1:, :4] @ np.ones(4) - 1.0)
    for i in range(m):
        entry, trace = np.abs(states[i + 1]).max(), traces[i]
        if not (entry <= 1.0 + 100 * lindblad.TOL_TRACE
                and trace <= 100 * lindblad.TOL_TRACE):
            break
    assert 1000 < i < m - 100
    with pytest.raises(StepUnstable) as info:
        integrate(model, Controls(), rho0, t_final, dt)
    assert str(info.value) == (f"drift at step {i}: largest |Re, Im rho_ij| "
                               f"{entry:.9g}, trace {trace:.3e}; reduce dt")


@pytest.mark.parametrize("n_steps", [10, 3000])
def test_unphysical_states_past_the_stability_edge_raise(n_steps):
    """At dt = 1.379 the RK4 step leaves the physical range at once: the
    states once returned silently had max |rho_ij| = 2.33 and a smallest
    eigenvalue of -1.54 after 10 steps (1.8e5 and -2.1e5 after 3,000),
    while their trace and Hermiticity drift stayed below 1e-6 and 1e-8.
    The bound on the coordinates catches them."""
    model = contract_network(random_imperfect_network(0.1, 2.0, 7))
    with pytest.raises(StepUnstable, match="^drift at step 0: "):
        integrate(model, Controls(), random_state(4, 4), n_steps * 1.379,
                  1.379)


def test_non_hermitian_hamiltonian_term_is_invalid_parameter():
    """A scheduled sigma_+ Hamiltonian term makes a generator that does
    not preserve Hermiticity: its imaginary residue in real coordinates
    names it before any step runs, instead of a drift at step 0."""
    net = single_qubit_network()
    controls = controls_from_network(
        net, hamiltonian_terms=[(SIGMA_MINUS.T.astype(complex),
                                 Schedule.constant(0.3))])
    with pytest.raises(InvalidParameter, match="does not preserve Herm"):
        integrate(contract_network(net), controls, basis_state(2, 0),
                  t_final=1.0, dt=1e-2)


@pytest.mark.parametrize("max_dd", [0, 64])
@pytest.mark.parametrize("case", ["static-d4", "criterion-08", "scheduled-d8",
                                  "step-schedule"])
def test_stored_states_are_hermitian_bit_for_bit(case, max_dd, monkeypatch):
    """rhos[0] is rho0 as given; every later state equals its conjugate
    transpose exactly, on every branch; the generator's residue is
    roundoff."""
    model, controls, rho0, t_final, dt = ORACLE_CASES[case]()
    monkeypatch.setattr(lindblad, "_STEP_MATRIX_MAX_DD", max_dd)
    traj = integrate(model, controls, rho0, t_final, dt)
    assert np.array_equal(traj.rhos[0], rho0)
    assert np.array_equal(traj.rhos[1:], traj.rhos[1:].conj().transpose(0, 2, 1))
    assert traj.max_herm_drift < 1e-15


@pytest.mark.parametrize("case", ["static-d8", "step-schedule"])
def test_observables_match_einsum(case):
    model, controls, rho0, t_final, dt = ORACLE_CASES[case]()
    d = rho0.shape[0]
    rng = np.random.default_rng(3)
    ops = {f"op{k}": rng.standard_normal((d, d))
           + 1j * rng.standard_normal((d, d)) for k in range(3)}
    ops["P0"] = basis_state(d, 0)
    traj = integrate(model, controls, rho0, t_final, dt, observables=ops)
    for name, op in ops.items():
        expected = np.einsum("tij,ji->t", traj.rhos, op)
        assert np.abs(traj.observables[name] - expected).max() <= 1e-15


def test_rhos_are_gathered_on_first_read():
    """A run that never reads rhos holds one real coordinate array, not
    the complex states (which once took 2.45x the coordinates' bytes at
    peak); the first read gathers them once, keeps rho0 as given and
    releases the coordinates."""
    model = contract_network(three_qubit_chain())
    rho0 = random_state(8, 9)
    rho0[0, 1] += 1e-9  # within the input bounds, so not its own Hermitian part
    ops = {"P0": basis_state(8, 0), "Z": np.diag(np.arange(8.0))}
    tracemalloc.start()
    try:
        traj = integrate(model, Controls(), rho0, 9.25, 1e-3, observables=ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_states = len(traj.times)
    assert n_states == 9_251
    assert peak <= 1.5 * n_states * 8**2 * 8
    rhos = traj.rhos
    assert traj.rhos is rhos
    assert np.array_equal(rhos[0], rho0)
    assert traj._coords is None


def _bad_inputs():
    rho = basis_state(2, 0)
    skew = rho.copy()
    skew[0, 1] = 1e-6
    return [
        ({"rho0": basis_state(4, 0)}, r"rho0 has shape \(4, 4\), expected \(2, 2\)"),
        ({"rho0": np.ones(2)}, r"rho0 has shape \(2,\)"),
        ({"rho0": np.full((2, 2), np.nan)}, "non-finite"),
        ({"rho0": np.diag([1.0, np.inf])}, "non-finite"),
        ({"rho0": skew}, "not Hermitian"),
        ({"rho0": 2 * rho}, "trace 2,"),
        ({"rho0": 0 * rho}, "trace 0,"),
        ({"observables": {"big": np.eye(4)}},
         r"observable 'big' has shape \(4, 4\), expected \(2, 2\)"),
        ({"observables": {"P0": rho, "vec": np.ones(2)}}, "'vec'"),
        ({"rho0": np.diag([2.0, -1.0])}, "entry of modulus 2,"),
    ]


@pytest.mark.parametrize("bad, message", _bad_inputs())
def test_bad_rho0_or_observable_is_invalid_parameter(bad, message):
    """A wrong-shape, non-finite, non-Hermitian or unnormalized rho0, one
    with an entry of modulus above 1, and a wrong-shape observable raise
    InvalidParameter naming the defect before any step runs."""
    model = contract_network(single_qubit_network())
    kwargs = {"rho0": basis_state(2, 0), "t_final": 1.0, "dt": 1e-2, **bad}
    with pytest.raises(InvalidParameter, match=message):
        integrate(model, Controls(), **kwargs)


def test_rho0_within_the_step_bounds_is_accepted():
    """rho0 is held to the bounds every step is: drift just inside them
    passes."""
    model = contract_network(single_qubit_network())
    rho = basis_state(2, 0)
    rho[0, 1] = 0.5 * 100 * lindblad.TOL_HERM_STEP
    rho[0, 0] += 0.5 * 100 * lindblad.TOL_TRACE
    traj = integrate(model, Controls(), rho, 1.0, 1e-2)
    assert np.isfinite(traj.rhos).all()
