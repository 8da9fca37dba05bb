"""Dissipative structure: rates, damping, noise channels, generator, and
the passivity / noise-bound checks.

Two networks are used.  The session benchmark has kinetics that are *not*
thermodynamically consistent (its forward/backward Arrhenius pairs do not
satisfy ln(rf/rb) = affinity/RT), so its strict and log-mean damping
weights differ; the shared ``cnet`` fixture is built so that identity holds
(equal heat capacities, Eb - Ef = h_ref difference, ln(k0f/k0b) = s_ref
difference over R), which pins the strict weight to the log-mean one.
"""

import math

import numpy as np
import pytest

from conftest import random_states
from phreactor.structure import (
    AFFINITY_GUARD,
    NegEntropy,
    PortSystem,
    check_input_noise_bound,
    check_passivity,
    check_reaction_noise_bound,
    damping_coefficients,
    damping_matrix,
    feedback_interconnect,
    input_matrix,
    ito_generator,
    log_mean,
    mass_action_rates,
    mixing_noise_scale,
    reaction_noise_column,
    reaction_rates,
    sde_fields,
    structure_matrices,
)
from phreactor.thermo import ThermoState, neg_entropy_gradient, neg_entropy_hessian


# ---------------------------------------------------------------------------
# rates


def test_mass_action_rates_hand_formula(net):
    """Independent Arrhenius evaluation at the benchmark composition."""
    T, N = 331.9, np.array([1.3, 0.7])
    c = N / net.reactor.V
    kf = 1.2e9 * math.exp(-72331.8 / (8.314 * T))
    kb = 1.33e8 * math.exp(-74826.0 / (8.314 * T))
    rates = mass_action_rates(net, c, T)
    assert rates.forward[0] == pytest.approx(kf * c[0], rel=1e-13)
    assert rates.backward[0] == pytest.approx(kb * c[1], rel=1e-13)
    assert rates.net[0] == pytest.approx(kf * c[0] - kb * c[1], rel=1e-12)


def test_rates_accept_zero_concentration(net):
    rates = mass_action_rates(net, np.array([0.0, 1000.0]), 331.9)
    assert rates.forward[0] == 0.0
    assert np.isfinite(rates.backward[0]) and rates.backward[0] > 0


def test_reaction_rates_uses_state_composition(net):
    st = ThermoState.from_temperature(net, np.array([1.3, 0.7]), 331.9)
    r1 = reaction_rates(net, st)
    r2 = mass_action_rates(net, st.N / net.reactor.V, st.T)
    np.testing.assert_array_equal(r1.forward, r2.forward)
    np.testing.assert_array_equal(r1.backward, r2.backward)


def test_log_mean_properties():
    assert log_mean(3.0, 3.0) == 3.0
    assert log_mean(5.0, 0.0) == 0.0
    assert log_mean(0.0, 5.0) == 0.0
    assert log_mean(-1.0, 5.0) == 0.0
    rng = np.random.default_rng(21)
    for _ in range(100):
        a, b = 10.0 ** rng.uniform(-6, 6, size=2)
        lm = log_mean(a, b)
        assert min(a, b) <= lm <= max(a, b)
        assert lm == pytest.approx(log_mean(b, a), rel=1e-12)
    # near-equal arguments take the midpoint branch
    assert log_mean(1.0, 1.0 + 1e-10) == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# damping


def test_damping_matrix_shape_and_psd(net):
    rng = np.random.default_rng(22)
    Ts, Ns = random_states(net, 20, rng)
    for T, N in zip(Ts, Ns):
        R = damping_matrix(net, ThermoState.from_temperature(net, N, T))
        assert R.shape == (3, 3)
        np.testing.assert_array_equal(R, R.T)
        np.testing.assert_array_equal(R[0, :], 0.0)
        assert np.linalg.eigvalsh(R)[0] >= -1e-15 * max(1.0, R.max())


def test_strict_equals_logmean_for_consistent_kinetics(cnet):
    rng = np.random.default_rng(23)
    Ts, Ns = random_states(cnet, 25, rng, T_range=(290.0, 400.0))
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(cnet, N, T)
        c_lm = damping_coefficients(cnet, st, mode="logmean")
        c_st = damping_coefficients(cnet, st, mode="strict")
        np.testing.assert_allclose(c_st, c_lm, rtol=1e-9)


def test_strict_differs_for_benchmark_kinetics(net):
    st = ThermoState.from_temperature(net, np.array([1.3, 0.7]), 331.9)
    c_lm = damping_coefficients(net, st, mode="logmean")
    c_st = damping_coefficients(net, st, mode="strict")
    assert abs(c_st[0] - c_lm[0]) > 1e-3 * abs(c_lm[0])


def test_strict_guard_falls_back_at_equilibrium_composition(cnet):
    # composition with rf = rb, hence zero affinity for consistent kinetics
    T = 330.0
    RT = 8.314 * T
    kf = cnet.k0f[0] * math.exp(-cnet.Ef[0] / RT)
    kb = cnet.k0b[0] * math.exp(-cnet.Eb[0] / RT)
    N_B = 1.0
    N_A = (kb / kf) * N_B
    st = ThermoState.from_temperature(cnet, np.array([N_A, N_B]), T)
    affinity = -(cnet.stoich_net.T @ (st.mu_over_T * st.T))
    assert abs(affinity[0]) < AFFINITY_GUARD
    c_lm = damping_coefficients(cnet, st, mode="logmean")
    c_st = damping_coefficients(cnet, st, mode="strict")
    np.testing.assert_array_equal(c_st, c_lm)


def test_unknown_damping_mode_rejected(net, x0):
    with pytest.raises(ValueError):
        damping_coefficients(net, x0, mode="exotic")


# ---------------------------------------------------------------------------
# drift/diffusion assembly


def test_gradient_form_reproduces_balance_drift(net, sp):
    """(J - R_strict) grad(-S) + g u equals the raw balances."""
    rng = np.random.default_rng(24)
    Ts, Ns = random_states(net, 25, rng)
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(net, N, T)
        u = np.array([rng.uniform(0.0, 1e-3), rng.uniform(-5.0, 5.0)])
        S = structure_matrices(net, st, mode="strict")
        lhs = (S.J - S.R) @ neg_entropy_gradient(net, st) + S.g @ u
        rhs = sde_fields(net, st, u, include_noise=False).drift
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-22)


def test_diffusion_columns_are_the_noise_channels(net):
    st = ThermoState.from_temperature(net, np.array([1.0, 1.0]), 342.0)
    u = np.array([4e-4, -1.5])
    S = structure_matrices(net, st)
    D = sde_fields(net, st, u).diffusion
    np.testing.assert_array_equal(D[:, 0], reaction_noise_column(net, st))
    rho = net.noise
    np.testing.assert_allclose(D[:, 1], rho.rho2 * u[0] * S.gamma[:, 0],
                               rtol=1e-14)
    np.testing.assert_allclose(D[:, 2], rho.rho3 * u[1] * S.gamma[:, 1],
                               rtol=1e-14)
    # no-noise evaluation zeroes the diffusion but not the drift
    quiet = sde_fields(net, st, u, include_noise=False)
    np.testing.assert_array_equal(quiet.diffusion, 0.0)
    np.testing.assert_array_equal(quiet.drift,
                                  sde_fields(net, st, u).drift)


def test_reaction_noise_column_vanishes_at_equilibrium(cnet):
    T = 330.0
    RT = 8.314 * T
    kf = cnet.k0f[0] * math.exp(-cnet.Ef[0] / RT)
    kb = cnet.k0b[0] * math.exp(-cnet.Eb[0] / RT)
    st = ThermoState.from_temperature(cnet, np.array([kb / kf, 1.0]), T)
    a = reaction_noise_column(cnet, st)
    rates = reaction_rates(cnet, st)
    assert np.abs(a).max() < 1e-12 * rates.forward[0] * cnet.reactor.V


def test_input_matrix_flow_column(net):
    st = ThermoState.from_temperature(net, np.array([1.0, 1.0]), 342.0)
    g = input_matrix(net, st)
    h_in = net.cp * (310.0 - 300.0) + net.h_ref
    g00 = float(net.c_in @ h_in) - float(st.N @ st.h) / net.reactor.V
    assert g[0, 0] == pytest.approx(g00, rel=1e-13)
    np.testing.assert_allclose(g[1:, 0], net.c_in - st.N / net.reactor.V,
                               rtol=1e-14)
    np.testing.assert_array_equal(g[:, 1], [1.0, 0.0, 0.0])
    assert net.inlet_enthalpy_density == pytest.approx(float(net.c_in @ h_in),
                                                       rel=1e-14)


def test_mixing_noise_scale_identity(net):
    """M = theta * g_flow^T Hess(-S) g_flow, and M >= 0."""
    rng = np.random.default_rng(25)
    Ts, Ns = random_states(net, 25, rng)
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(net, N, T)
        M = mixing_noise_scale(net, st)
        g_flow = input_matrix(net, st)[:, 0]
        H = neg_entropy_hessian(net, st)
        ref = st.theta * float(g_flow @ H @ g_flow)
        assert M == pytest.approx(ref, rel=1e-10)
        assert M >= 0.0


def test_structure_matrices_wiring(net, x0):
    S = structure_matrices(net, x0)
    np.testing.assert_array_equal(S.J, 0.0)
    np.testing.assert_array_equal(S.gamma, S.g)
    rho = net.noise
    np.testing.assert_array_equal(S.sigma, np.diag([rho.rho2, rho.rho3]))
    np.testing.assert_allclose(
        S.delta,
        np.diag([0.5 * rho.rho2 ** 2 * S.M / S.theta,
                 0.5 * rho.rho3 ** 2 / S.theta]), rtol=1e-14)


# ---------------------------------------------------------------------------
# generator


class _Linear:
    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)

    def value(self, x):
        return float(self.c @ x)

    def gradient(self, x):
        return self.c

    def hessian(self, x):
        return np.zeros((self.c.size, self.c.size))


class _Quadratic:
    def __init__(self, Q):
        self.Q = np.asarray(Q, dtype=float)

    def value(self, x):
        return 0.5 * float(x @ self.Q @ x)

    def gradient(self, x):
        return self.Q @ x

    def hessian(self, x):
        return self.Q


def test_generator_on_linear_field(net, x0):
    u = np.array([5e-4, -1.0])
    c = np.array([2.0, -1.0, 0.5])
    drift = sde_fields(net, x0, u).drift
    assert ito_generator(net, _Linear(c), x0, u) == pytest.approx(
        float(c @ drift), rel=1e-12)
    assert ito_generator(net, _Linear(np.zeros(3)), x0, u) == 0.0


def test_generator_on_quadratic_field(net, x0):
    u = np.array([5e-4, -1.0])
    rng = np.random.default_rng(26)
    A = rng.normal(size=(3, 3))
    Q = A + A.T
    fields = sde_fields(net, x0, u)
    expect = (float((Q @ np.asarray(x0)) @ fields.drift)
              + 0.5 * np.trace(Q @ fields.diffusion @ fields.diffusion.T))
    assert ito_generator(net, _Quadratic(Q), x0, u) == pytest.approx(
        expect, rel=1e-12)
    # noise off drops the trace term
    expect_det = float((Q @ np.asarray(x0)) @ fields.drift)
    assert ito_generator(net, _Quadratic(Q), x0, u,
                         include_noise=False) == pytest.approx(expect_det,
                                                               rel=1e-12)


def test_second_law_through_generator(cnet):
    """Deterministic, isolated, consistent kinetics: L[-S] <= 0 everywhere."""
    rng = np.random.default_rng(27)
    Ts, Ns = random_states(cnet, 25, rng)
    field = NegEntropy(cnet)
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(cnet, N, T)
        val = ito_generator(cnet, field, st, np.zeros(2), include_noise=False)
        assert val <= 1e-12


def test_quadratic_entropy_production_nonnegative(net):
    """grad(S)^T R grad(S) >= 0 for the log-mean damping at any state,
    including states where the benchmark's inconsistent kinetics make the
    literal rate/affinity pairing negative."""
    rng = np.random.default_rng(27)
    Ts, Ns = random_states(net, 25, rng)
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(net, N, T)
        grad = neg_entropy_gradient(net, st)
        R = damping_matrix(net, st)
        assert float(grad @ R @ grad) >= 0.0


# ---------------------------------------------------------------------------
# condition checks


def test_input_noise_bound_benchmark(net, x0):
    report = check_input_noise_bound(net, x0)
    assert report.holds
    assert report.lhs == pytest.approx(5119.8643870745909, rel=1e-10)
    assert report.delta_frobenius < 1e-5
    S = structure_matrices(net, x0)
    assert report.delta_frobenius == pytest.approx(
        float(np.linalg.norm(S.delta)), rel=1e-12)


def test_input_noise_bound_fails_when_scaled(net, x0):
    noisy = net.with_noise(net.noise.scaled(f2=1e6))
    assert not check_input_noise_bound(noisy, x0).holds


def test_reaction_noise_bound_benchmark(net, x0):
    report = check_reaction_noise_bound(net, x0)
    assert report.holds
    assert report.lhs == pytest.approx(0.0096433180564641768, rel=1e-10)
    assert report.rhs == pytest.approx(1464.628841168503, rel=1e-10)
    noisy = net.with_noise(net.noise.scaled(f1=1e4))
    assert not check_reaction_noise_bound(noisy, x0).holds


def test_reaction_noise_bound_sides_are_trace_and_dissipation(net):
    """lhs*V = (1/2) a^T Hess(-S) a and rhs*V = grad^T R_strict grad."""
    rng = np.random.default_rng(28)
    Ts, Ns = random_states(net, 15, rng)
    V = net.reactor.V
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(net, N, T)
        report = check_reaction_noise_bound(net, st)
        a = reaction_noise_column(net, st)
        H = neg_entropy_hessian(net, st)
        assert report.lhs * V == pytest.approx(0.5 * float(a @ H @ a),
                                               rel=1e-9)
        grad = neg_entropy_gradient(net, st)
        R = damping_matrix(net, st, mode="strict")
        assert report.rhs * V == pytest.approx(float(grad @ R @ grad),
                                               rel=1e-9)


def test_passivity_report_at_initial_state(net, sp, x0):
    from phreactor.transform import AvailabilityHamiltonian

    report = check_passivity(net, x0, AvailabilityHamiltonian(net, sp))
    assert report.holds
    assert report.trace_lhs == pytest.approx(9.6433180564641757e-06, rel=1e-9)
    assert report.trace_rhs == pytest.approx(0.012585829189033237, rel=1e-9)
    # the feedthrough exactly cancels the Hadamard correction here
    assert abs(report.feedthrough_min_eig) < 1e-15


def test_feedthrough_min_eig_is_eigvalsh_of_assembled_F(net, sp):
    """The closed-form diagonal F keeps the bits of the eigensolve of
    F = delta - (1/2) sigma sigma^T o (gamma^T Hess gamma), assembled here
    from the structure matrices, for fields with and without cancellation."""
    from phreactor.transform import AvailabilityHamiltonian

    rng = np.random.default_rng(32)
    B = rng.normal(size=(3, 3))
    fields = [NegEntropy(net), AvailabilityHamiltonian(net, sp),
              _Quadratic(1e-8 * (B + B.T)), _Quadratic(-1e-8 * B @ B.T)]
    signs = set()
    for T, N in zip(*random_states(net, 30, rng)):
        st = ThermoState.from_temperature(net, N, T)
        S = structure_matrices(net, st)
        for field in fields:
            H = field.hessian(st.x)
            F = (S.delta - 0.5 * (S.sigma @ S.sigma.T)
                 * (S.gamma.T @ H @ S.gamma))
            want = np.linalg.eigvalsh(0.5 * (F + F.T))[0]
            report = check_passivity(net, st, field)
            assert report.feedthrough_min_eig == want
            assert report.feedthrough_holds == (
                want >= -1e-12 * max(1.0, float(np.linalg.norm(S.delta))))
            signs.add(report.feedthrough_holds)
    assert signs == {True, False}


def test_passivity_fails_under_huge_reaction_noise(net, sp, x0):
    from phreactor.transform import AvailabilityHamiltonian

    noisy = net.with_noise(net.noise.scaled(f1=1e4))
    report = check_passivity(noisy, x0, AvailabilityHamiltonian(noisy, sp))
    assert not report.trace_holds


# ---------------------------------------------------------------------------
# interconnection


def _random_port_system(rng, n, m, frob):
    A = rng.normal(size=(n, n))
    J = A - A.T
    B = rng.normal(size=(n, n))
    R = B @ B.T
    g = rng.normal(size=(n, m))
    C = rng.normal(size=(m, m))
    delta = C @ C.T
    delta *= frob / np.linalg.norm(delta)
    return PortSystem(J=J, R=R, g=g, delta=delta)


def test_interconnect_random_pairs():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n1, n2, m = rng.integers(2, 5), rng.integers(2, 5), rng.integers(1, 4)
        sys1 = _random_port_system(rng, int(n1), int(m),
                                   float(rng.uniform(0.05, 0.95)))
        sys2 = _random_port_system(rng, int(n2), int(m),
                                   float(rng.uniform(0.05, 0.95)))
        inter = feedback_interconnect(sys1, sys2)
        scale = max(1.0, float(np.abs(inter.J).max()),
                    float(np.abs(inter.R).max()))
        assert np.abs(inter.J + inter.J.T).max() <= 1e-12 * scale
        np.testing.assert_allclose(inter.R, inter.R.T, atol=1e-12 * scale)
        assert np.linalg.eigvalsh(inter.R)[0] >= -1e-12 * scale


def test_interconnect_cstr_with_itself(net, sp, x0):
    S1 = structure_matrices(net, x0)
    S2 = structure_matrices(net, ThermoState.from_temperature(
        net, sp.N_star, sp.T_star))
    inter = feedback_interconnect(PortSystem.from_structure(S1),
                                  PortSystem.from_structure(S2))
    n = S1.J.shape[0]
    assert inter.J.shape == (2 * n, 2 * n)
    scale = max(1.0, float(np.abs(inter.J).max()))
    assert np.abs(inter.J + inter.J.T).max() <= 1e-12 * scale
    assert np.linalg.eigvalsh(inter.R)[0] >= -1e-12 * max(
        1.0, float(np.abs(inter.R).max()))


def test_interconnect_rejects_port_mismatch():
    rng = np.random.default_rng(30)
    sys1 = _random_port_system(rng, 3, 2, 0.5)
    sys2 = _random_port_system(rng, 3, 1, 0.5)
    with pytest.raises(ValueError):
        feedback_interconnect(sys1, sys2)
