"""Setpoint construction, the shifted availability storage function, and the
transformed port quantities built around it."""

import numpy as np
import pytest

from conftest import equilibrium_composition, random_states
from phreactor import kernel
from phreactor.control import control_law
from phreactor.equilibrium import ConvergenceError, drift_residual
from phreactor.structure import (
    NegEntropy,
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
    neg_entropy_gradient,
    neg_entropy_hessian,
)
from phreactor.transform import (
    AvailabilityHamiltonian,
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


def test_tabulated_setpoint_is_only_approximately_stationary(net, sp):
    # the rounded composition leaves a small residual in the mole balance
    residual = drift_residual(net, sp.x_star, sp.u_star)
    assert 1e-5 < residual < 1e-3
    assert residual == pytest.approx(1.910313055059461e-4, rel=1e-9)


def test_exact_setpoint_is_stationary(net, sp_exact):
    assert drift_residual(net, sp_exact.x_star, sp_exact.u_star) < 1e-12
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
    field = AvailabilityHamiltonian(net, sp)
    assert field.value(sp.x_star) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(11)
    Ts, Ns = random_states(net, 60, rng)
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(net, N, T)
        off = float(np.abs(st.x - sp.x_star).max())
        val = field.value(st.x)
        assert val >= -1e-12
        if off > 1e-2:
            assert val > 0.0


def test_availability_at_benchmark_start(net, sp, x0):
    assert AvailabilityHamiltonian(net, sp).value(x0) == pytest.approx(
        0.84547554388462487, rel=1e-12)


def test_availability_gradient_vanishes_at_setpoint(net, sp_exact):
    g = AvailabilityHamiltonian(net, sp_exact).gradient(sp_exact.x_star)
    assert np.abs(g).max() < 1e-13


def test_availability_gradient_matches_finite_differences(net, sp, x0):
    field = AvailabilityHamiltonian(net, sp)
    g = field.gradient(x0)
    for i in range(x0.size):
        h = 3e-6 * max(abs(x0[i]), 1.0)
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        fd = (field.value(xp) - field.value(xm)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=2e-6, abs=1e-12)


def test_availability_hessian_is_entropy_hessian(net, sp, x0):
    # the affine shift leaves the curvature untouched
    np.testing.assert_array_equal(AvailabilityHamiltonian(net, sp).hessian(x0),
                                  neg_entropy_hessian(net, x0))


@pytest.mark.parametrize("storage", ["availability", "neg-entropy"])
def test_storage_field_methods(net, sp, x0, storage):
    """Each storage field's value and gradient are its definition, and its
    Hessian is Hess(-S)."""
    st = ThermoState.from_vector(net, x0)
    if storage == "availability":
        field = AvailabilityHamiltonian(net, sp)
        value = sp.S_star - st.S + sp.pi_star @ (st.x - sp.x_star)
        grad = np.concatenate(([1.0 / sp.T_star - 1.0 / st.T],
                               st.mu_over_T - sp.mu_star_over_T))
    else:
        field, value = NegEntropy(net), -st.S
        grad = neg_entropy_gradient(net, st)
    assert field.value(x0) == pytest.approx(value, rel=1e-12)
    np.testing.assert_array_equal(field.gradient(x0), grad)
    np.testing.assert_array_equal(field.hessian(x0),
                                  neg_entropy_hessian(net, x0))


# -------------------------------------------------- transformed output port


def test_transformed_output_composition(net, sp, x0):
    u = np.array([4e-4, -1.5])
    mats = structure_matrices(net, x0)
    want = (mats.g.T @ AvailabilityHamiltonian(net, sp).gradient(x0)
            + mats.delta @ u)
    np.testing.assert_allclose(transformed_output(net, sp, x0, u), want,
                               rtol=1e-14)


def test_transformed_output_zero_at_setpoint_with_zero_input(net, sp_exact):
    y = transformed_output(net, sp_exact, sp_exact.x_star, np.zeros(2))
    assert np.abs(y).max() < 1e-12


def _supply_gap_terms(net, sp, st, u):
    """(L0[A], y^T u, grad A^T R pi*, -grad A^T R grad A, -u^T delta u)
    with L0 the noise-free generator and R the strict damping matrix."""
    grad = AvailabilityHamiltonian(net, sp).gradient(st.x)
    rate = float(grad @ sde_fields(net, st, u).drift)
    R = damping_matrix(net, st, mode="strict")
    delta = np.array(kernel.feedthrough(net, mixing_noise_scale(net, st),
                                        st.theta))
    return (rate, float(transformed_output(net, sp, st.x, u) @ u),
            grad @ R @ sp.pi_star, -(grad @ R @ grad), -(u @ (delta * u)))


def _noisy_supply_gap(net, sp, st):
    """(1/2) rho1^2 M_flux / theta + (mu/T - mu*/T*)^T flux: the reaction
    noise's Ito trace plus the reaction flux against grad_N A, with M_flux
    the storage curvature along the flux; kernel.margins's trace lhs and
    grad_N^T flux."""
    m = kernel.margins(net, st.N, st.T, st.h, st.mu_over_T, st.theta,
                       st.mu_over_T - sp.mu_star_over_T, sp.V_star)
    return m.trace_lhs + m.grad_flux


def test_supply_gap_is_the_setpoint_shift_coupling(net, sp, gains, x0):
    # grad A = grad(-S) + pi* and the reaction drift is -R grad(-S), so the
    # noise-free availability rate minus the supply y^T u is the coupling
    # grad A^T R pi* of the setpoint shift, less the dissipation and the
    # feedthrough power: criterion 11's gap is this coupling.  With noise,
    # delta u cancels the input channels' Ito trace exactly, so L[A] - y^T u
    # is the u-free gap of _noisy_supply_gap
    rng = np.random.default_rng(1111)
    cases = [(ThermoState.from_vector(net, x0),
              control_law(net, sp, gains, x0).u)]
    cases += [(ThermoState.from_temperature(net, N, T),
               np.array([10.0 ** rng.uniform(-7, -3), rng.uniform(-50, 50)]))
              for T, N in zip(*random_states(net, 40, rng))]
    field = AvailabilityHamiltonian(net, sp)
    worst = noisy_worst = 0.0
    for st, u in cases:
        rate, supply, *terms = _supply_gap_terms(net, sp, st, u)
        scale = max(abs(rate), abs(supply), *map(abs, terms))
        worst = max(worst, abs(rate - supply - sum(terms)) / scale)
        gap = _noisy_supply_gap(net, sp, st)
        for v in (u, np.zeros(2), u * [10.0, -3.0]):
            rate = ito_generator(net, field, st, v)
            supply = float(transformed_output(net, sp, st.x, v) @ v)
            scale = max(abs(rate), abs(supply), abs(gap))
            noisy_worst = max(noisy_worst, abs(rate - supply - gap) / scale)
    assert worst <= 1e-12
    assert noisy_worst <= 1e-12
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
    assert drift_residual(cnet, s.x_star, s.u_star) < 1e-12
    rng = np.random.default_rng(5)
    Ts, Ns = random_states(cnet, 20, rng)
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(cnet, N, T)
        scale = max(np.abs(st.mu_over_T).max(), 1.0)
        assert equivalence_residual(cnet, s, st.x) < 1e-10 * scale
