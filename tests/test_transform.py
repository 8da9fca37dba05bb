"""Setpoint construction, the shifted availability storage function, and the
transformed port quantities built around it."""

import numpy as np
import pytest

from conftest import equilibrium_composition, random_states
from phreactor import kernel
from phreactor.control import control_law
from phreactor.equilibrium import ConvergenceError
from phreactor.structure import (
    damping_matrix,
    ito_generator,
    mixing_noise_scale,
    sde_fields,
    structure_matrices,
)
from phreactor.thermo import (
    ThermoDomainError,
    ThermoState,
    internal_energy,
    neg_entropy_hessian,
)
from phreactor.transform import (
    AvailabilityHamiltonian,
    availability,
    availability_gradient,
    availability_hessian,
    equivalence_residual,
    make_setpoint,
    setpoint_from_state,
    transformed_output,
)


# ---------------------------------------------------------------- setpoints


def test_tabulated_setpoint_fields(net, sp):
    assert sp.T_star == 331.9
    assert sp.q_star == 9.15e-6
    np.testing.assert_array_equal(sp.N_star, [1.3, 0.7])
    assert sp.U_star == pytest.approx(
        internal_energy(net, np.array([1.3, 0.7]), 331.9), rel=1e-15)
    # pi* is the entropy gradient (1/T*, -mu*/T*) at the setpoint state
    st = ThermoState.from_temperature(net, sp.N_star, sp.T_star)
    np.testing.assert_allclose(
        sp.pi_star, np.concatenate([[1.0 / st.T], -st.mu_over_T]), rtol=1e-14)
    np.testing.assert_array_equal(sp.x_star, [sp.U_star, *sp.N_star])
    np.testing.assert_array_equal(sp.u_star, [sp.q_star, sp.Qdot_star])


def test_tabulated_setpoint_is_only_approximately_stationary(sp):
    # the rounded composition leaves a small residual in the mole balance
    assert 1e-5 < sp.drift_residual < 1e-3
    assert sp.drift_residual == pytest.approx(1.910313055059461e-4, rel=1e-9)


def test_exact_setpoint_is_stationary(net, sp_exact):
    assert sp_exact.drift_residual < 1e-12
    d = sde_fields(net, ThermoState.from_vector(net, sp_exact.x_star),
                   sp_exact.u_star)
    assert np.abs(d.drift).max() < 1e-10


def test_exact_setpoint_solves_near_tabulated(sp_exact):
    np.testing.assert_allclose(sp_exact.N_star, [1.3082170071820614,
                                                 0.6917829928180222],
                               rtol=1e-12)
    assert sp_exact.U_star == pytest.approx(1199.090355201307, rel=1e-12)


def test_heat_duty_balances_energy_inflow(net, sp, sp_exact):
    # at stationarity the jacket duty cancels the net flow enthalpy term
    for s in (sp, sp_exact):
        mats = structure_matrices(
            net, ThermoState.from_vector(net, s.x_star))
        assert s.Qdot_star == pytest.approx(-s.q_star * mats.g[0, 0], rel=1e-12)
    assert sp.Qdot_star == pytest.approx(-2.2627693800000275, rel=1e-12)
    assert sp_exact.Qdot_star == pytest.approx(-1.8822432499080413, rel=1e-12)


def test_setpoint_from_state_matches_make_setpoint_composition(net, sp_exact):
    again = setpoint_from_state(net, sp_exact.N_star, sp_exact.T_star,
                                sp_exact.q_star)
    np.testing.assert_allclose(again.x_star, sp_exact.x_star, rtol=1e-14)
    np.testing.assert_allclose(again.u_star, sp_exact.u_star, rtol=1e-12)


def test_setpoint_rejects_bad_inputs(net):
    with pytest.raises(ConvergenceError):
        make_setpoint(net, -300.0, 9.15e-6)
    with pytest.raises(ThermoDomainError):
        setpoint_from_state(net, np.array([1.3]), 331.9, 9.15e-6)
    with pytest.raises(ThermoDomainError):
        setpoint_from_state(net, np.array([-1.3, 0.7]), 331.9, 9.15e-6)


# ------------------------------------------------------------- availability


def test_availability_zero_at_setpoint_positive_elsewhere(net, sp):
    assert availability(net, sp, sp.x_star) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(11)
    Ts, Ns = random_states(net, 60, rng)
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(net, N, T)
        off = float(np.abs(st.x - sp.x_star).max())
        val = availability(net, sp, st.x)
        assert val >= -1e-12
        if off > 1e-2:
            assert val > 0.0


def test_availability_at_benchmark_start(net, sp, x0):
    assert availability(net, sp, x0) == pytest.approx(0.84547554388462487,
                                                      rel=1e-12)


def test_availability_gradient_vanishes_at_setpoint(net, sp_exact):
    g = availability_gradient(net, sp_exact, sp_exact.x_star)
    assert np.abs(g).max() < 1e-13


def test_availability_gradient_matches_finite_differences(net, sp, x0):
    g = availability_gradient(net, sp, x0)
    for i in range(x0.size):
        h = 3e-6 * max(abs(x0[i]), 1.0)
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        fd = (availability(net, sp, xp) - availability(net, sp, xm)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=2e-6, abs=1e-12)


def test_availability_hessian_is_entropy_hessian(net, sp, x0):
    # the affine shift leaves the curvature untouched
    np.testing.assert_array_equal(availability_hessian(net, sp, x0),
                                  neg_entropy_hessian(net, x0))


def test_availability_hamiltonian_field(net, sp, x0):
    field = AvailabilityHamiltonian(net, sp)
    assert field.value(x0) == availability(net, sp, x0)
    np.testing.assert_array_equal(field.gradient(x0),
                                  availability_gradient(net, sp, x0))
    np.testing.assert_array_equal(field.hessian(x0),
                                  availability_hessian(net, sp, x0))


# -------------------------------------------------- transformed output port


def test_transformed_output_composition(net, sp, x0):
    u = np.array([4e-4, -1.5])
    mats = structure_matrices(net, x0)
    want = mats.g.T @ availability_gradient(net, sp, x0) + mats.delta @ u
    np.testing.assert_allclose(transformed_output(net, sp, x0, u), want,
                               rtol=1e-14)


def test_transformed_output_zero_at_setpoint_with_zero_input(net, sp_exact):
    y = transformed_output(net, sp_exact, sp_exact.x_star, np.zeros(2))
    assert np.abs(y).max() < 1e-12


def _supply_gap_terms(net, sp, st, u):
    """(L0[A], y^T u, grad A^T R pi*, -grad A^T R grad A, -u^T delta u)
    with L0 the noise-free generator and R the strict damping matrix."""
    rate = ito_generator(net, AvailabilityHamiltonian(net, sp), st, u,
                         include_noise=False)
    grad = availability_gradient(net, sp, st.x)
    R = damping_matrix(net, st, mode="strict")
    delta = np.array(kernel.feedthrough(net, mixing_noise_scale(net, st),
                                        st.theta))
    return (rate, float(transformed_output(net, sp, st.x, u) @ u),
            grad @ R @ sp.pi_star, -(grad @ R @ grad), -(u @ (delta * u)))


def test_supply_gap_is_the_setpoint_shift_coupling(net, sp, gains, x0):
    # grad A = grad(-S) + pi* and the reaction drift is -R grad(-S), so the
    # noise-free availability rate minus the supply y^T u is the coupling
    # grad A^T R pi* of the setpoint shift, less the dissipation and the
    # feedthrough power: criterion 11's gap is this coupling
    rng = np.random.default_rng(1111)
    cases = [(ThermoState.from_vector(net, x0),
              control_law(net, sp, gains, x0).u)]
    cases += [(ThermoState.from_temperature(net, N, T),
               np.array([10.0 ** rng.uniform(-7, -3), rng.uniform(-50, 50)]))
              for T, N in zip(*random_states(net, 40, rng))]
    worst = 0.0
    for st, u in cases:
        rate, supply, *terms = _supply_gap_terms(net, sp, st, u)
        scale = max(abs(rate), abs(supply), *map(abs, terms))
        worst = max(worst, abs(rate - supply - sum(terms)) / scale)
    assert worst <= 1e-12
    # the start of criterion 11's deterministic path, where its gap peaks
    rate, supply, coupling, dissipation, feedthrough = _supply_gap_terms(
        net, sp, *cases[0])
    assert rate - supply == pytest.approx(0.05745, rel=1e-3)
    assert coupling == pytest.approx(0.05971, rel=1e-3)
    assert dissipation == pytest.approx(-0.00225, rel=1e-2)
    assert feedthrough == pytest.approx(-4.7e-10, rel=1e-2)


# ---------------------------------------------- damping-equivalence residual


def test_equivalence_residual_positive_for_benchmark(net, sp, x0):
    # flow-sustained setpoint: the damping matrix does not annihilate pi*
    r = equivalence_residual(net, sp, x0)
    assert r == pytest.approx(0.08414477214381652, rel=1e-12)
    assert r > 1e-3


def test_equivalence_residual_zero_at_reaction_equilibrium(cnet):
    # a setpoint with zero affinity is annihilated by the damping matrix
    # at every evaluation state, so both damping modes agree there
    T_star = 330.0
    N_star = equilibrium_composition(cnet, T_star)
    s = setpoint_from_state(cnet, N_star, T_star, 0.0)
    assert s.drift_residual < 1e-12
    rng = np.random.default_rng(5)
    Ts, Ns = random_states(cnet, 20, rng)
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(cnet, N, T)
        scale = max(np.abs(st.mu_over_T).max(), 1.0)
        assert equivalence_residual(cnet, s, st.x) < 1e-10 * scale
