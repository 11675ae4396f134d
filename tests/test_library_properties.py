"""Property tests of the generator layer: static and scheduled `integrate`
and `build_generator`, over drawn networks, control values and steps.

Whatever is drawn, a run either returns states with every |rho_ij| <= 1 +
1e-6 (integrate's own step bound, 1 + 100x TOL_TRACE) and finite
observables, or raises a typed LoopnetError; it never warns (RuntimeWarning
is an error here).  Without controls, the H_eff that build_generator uses is
contract's h_eff bit for bit.  Derandomized, with no example database.

The bounds of the draws:
- networks are random_imperfect_network(eps, phase, seed) with eps in
  [0, 0.3] (rho(SW) stays below 0.65 there over 600 seeds and phases, so
  contraction never fails), any phase and seed, and both couplings
  kappa = 10^[-3, 3];
- kappa, phi and Hamiltonian weights are 0, the smallest subnormal, the
  smallest normal, 1e300, the largest float, +-inf, NaN, -1 or a value in
  [-10, 10] (kappa in [0, 10]), constant or switching once inside the run;
- dt is 10^[-6, 1], so kappa dt runs from 1e-9, far inside RK4's stability
  region, to 1e4, far past its edge at about 2.8; runs take 1 to 256
  steps, enough for an unstable run to grow past the float range (at 16
  steps none did, and the overflow warning of the scheduled generator
  product went unseen);
- rho0 is a basis state, the maximally mixed state or the pure uniform
  superposition (5 to 16 of the 16 real coordinates).
Every run is a D = 4 network, so the four tests take about 0.8 s on a
2-core x86-64 host with one BLAS thread, within the 1.5 s budget.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopnet import (
    Controls,
    Schedule,
    basis_state,
    build_generator,
    contract_network,
    controls_from_network,
    effective_operators_at,
    integrate,
    random_imperfect_network,
)
from loopnet.errors import LoopnetError
from loopnet.network import SIGMA_Z, embed_operator

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None,
                    database=None)
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SPECIAL = st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e300,
                           1.7976931348623157e308, np.inf, -np.inf, np.nan,
                           -1.0])
KAPPA = st.one_of(SPECIAL, st.floats(0.0, 10.0))
VALUE = st.one_of(SPECIAL, st.floats(-10.0, 10.0))
STATES = [basis_state(4, k) for k in range(4)] + [
    np.eye(4, dtype=complex) / 4, np.full((4, 4), 0.25, dtype=complex)]


@st.composite
def networks(draw):
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    return random_imperfect_network(
        draw(st.floats(0.0, 0.3)), draw(st.floats(0.0, 2 * np.pi)),
        draw(st.integers(0, 2**32 - 1)), kappa_a=scale, kappa_b=scale)


@st.composite
def runs(draw):
    """(t_final, dt, rho0) of 1 to 256 steps."""
    dt = 10.0 ** draw(st.floats(-6.0, 1.0))
    return draw(st.integers(1, 256)) * dt, dt, draw(st.sampled_from(STATES))


@st.composite
def schedules(draw, values, t_final):
    """A constant, or a value that switches to another inside the run."""
    a = draw(values)
    if draw(st.booleans()):
        return Schedule.constant(a)
    b, switch = draw(values), draw(st.floats(0.0, 1.0)) * t_final
    return Schedule(lambda t: a if t < switch else b)


@st.composite
def controls(draw, net, t_final):
    """Scheduled kappa and phi on a drawn subset of the qubit ports 0 and 7,
    and at most one sigma_z term on qubit b."""
    ports = draw(st.sets(st.sampled_from([0, 7])))
    terms = [(0.5 * embed_operator(net, "qubit_b", SIGMA_Z),
              draw(schedules(VALUE, t_final)))
             for _ in range(draw(st.integers(0, 1)))]
    return controls_from_network(
        net,
        kappa_schedules={p: draw(schedules(KAPPA, t_final)) for p in ports},
        phi_schedules={p: draw(schedules(VALUE, t_final)) for p in ports},
        hamiltonian_terms=terms,
    )


def check_run(model, ctl, t_final, dt, rho0):
    """The range property of one integrate run."""
    observables = {"P0": basis_state(4, 0), "Z": np.diag([1.0, -1, -1, 1])}
    try:
        traj = integrate(model, ctl, rho0, t_final, dt, observables)
    except LoopnetError:
        return
    assert np.abs(traj.rhos).max() <= 1.0 + 1e-6
    for values in traj.observables.values():
        assert np.isfinite(values).all()


@PROPERTY
@given(networks(), runs())
def test_static_integrate_is_in_range_or_typed_error(net, run):
    check_run(contract_network(net), Controls(), *run)


@PROPERTY
@given(st.data(), networks(), runs())
def test_scheduled_integrate_is_in_range_or_typed_error(data, net, run):
    ctl = data.draw(controls(net, run[0]))
    check_run(contract_network(net), ctl, *run)


@PROPERTY
@given(st.data(), networks(), st.floats(0.0, 10.0))
def test_build_generator_is_finite_or_typed_error(data, net, t):
    ctl = data.draw(controls(net, 10.0))
    model = contract_network(net)
    try:
        gen = build_generator(model, ctl, t)
    except LoopnetError:
        return
    assert np.isfinite(gen).all()


@PROPERTY
@given(networks())
def test_generator_h_eff_is_contracts(net):
    model = contract_network(net)
    h_eff = effective_operators_at(model, Controls(), 0.0)[0]
    assert np.array_equal(h_eff.view(np.uint64), model.h_eff.view(np.uint64))
