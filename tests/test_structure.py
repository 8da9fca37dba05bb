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
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CONSISTENT, THREE_REACTIONS, networks, random_states
from phreactor import kernel, presets
from phreactor.kernel import AFFINITY_GUARD, log_mean
from phreactor.structure import (
    NegEntropy,
    PortSystem,
    check_conditions,
    check_input_noise_bound,
    check_passivity,
    check_reaction_noise_bound,
    damping_matrix,
    feedback_interconnect,
    ito_generator,
    mixing_noise_scale,
    sde_fields,
    structure_matrices,
)
from phreactor.network import NoiseSpec, parse_network
from phreactor.thermo import ThermoState, neg_entropy_gradient, neg_entropy_hessian
from phreactor.transform import AvailabilityHamiltonian, setpoint_from_state


# ---------------------------------------------------------------------------
# rates


def test_mass_action_rates_hand_formula(net):
    """Independent Arrhenius evaluation at the benchmark composition."""
    T, N = 331.9, np.array([1.3, 0.7])
    c = N / net.reactor.V
    kf = 1.2e9 * math.exp(-72331.8 / (8.314 * T))
    kb = 1.33e8 * math.exp(-74826.0 / (8.314 * T))
    forward, backward = kernel.mass_action(net, c,
                                           kernel.rate_constants(net, T))
    assert forward[0] == pytest.approx(kf * c[0], rel=1e-13)
    assert backward[0] == pytest.approx(kb * c[1], rel=1e-13)
    assert forward[0] - backward[0] == pytest.approx(kf * c[0] - kb * c[1],
                                                     rel=1e-12)


def test_rates_accept_zero_concentration(net):
    forward, backward = kernel.mass_action(net, np.array([0.0, 1000.0]),
                                           kernel.rate_constants(net, 331.9))
    assert forward[0] == 0.0
    assert np.isfinite(backward[0]) and backward[0] > 0


def test_log_mean_properties(net):
    k = net.step_constants  # numpy's where and log
    assert log_mean(k, 3.0, 3.0) == 3.0
    assert log_mean(k, 5.0, 0.0) == 0.0
    assert log_mean(k, 0.0, 5.0) == 0.0
    assert log_mean(k, -1.0, 5.0) == 0.0
    rng = np.random.default_rng(21)
    for _ in range(100):
        a, b = 10.0 ** rng.uniform(-6, 6, size=2)
        lm = log_mean(k, a, b)
        assert min(a, b) <= lm <= max(a, b)
        assert lm == pytest.approx(log_mean(k, b, a), rel=1e-12)
    # near-equal arguments take the midpoint branch
    assert log_mean(k, 1.0, 1.0 + 1e-10) == 0.5 * (1.0 + (1.0 + 1e-10))


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


def _dense_damping(net, st, mode):
    """R_NN = V T sum_i c_i dz_i dz_i^T as one dense product, and the same
    sum over the terms' magnitudes."""
    rates = kernel.mass_action(net, st.N / net.reactor.V,
                               kernel.rate_constants(net, st.T))
    weights = kernel.damping_weights(
        net, *rates, st.T,
        kernel.affinity(net, st.mu_over_T, st.T) if mode == "strict" else None)
    dz, weights = -net.stoich_net, np.array(weights)
    outer = dz[:, None] * dz
    VT = net.reactor.V * st.T
    return outer @ (VT * weights), np.abs(outer) @ (VT * np.abs(weights))


@pytest.mark.parametrize("mode", ("logmean", "strict"))
def test_damping_matrix_is_damping_apply_on_the_identity(mode):
    """damping_matrix's R_NN, damping_apply on the identity, has the bits
    of the dense product over 2 000 seeded states on the one-reaction
    networks.  On three reactions it is exactly symmetric and within 1e-15
    of the terms' magnitudes; strict weights of mixed sign cancel, so on
    these states that is up to 2.1e-14 of the largest entry."""
    for text in (presets.CONFIG_TEXT, CONSISTENT, THREE_REACTIONS):
        net = parse_network(text)
        Ts, Ns = random_states(net, 2000, np.random.default_rng(2000))
        for T, N in zip(Ts, Ns):
            st = ThermoState.from_temperature(net, N, T)
            R = damping_matrix(net, st, mode)
            dense, magnitude = _dense_damping(net, st, mode)
            if text is THREE_REACTIONS:
                np.testing.assert_array_equal(R, R.T)
                assert (np.abs(R[1:, 1:] - dense) <= 1e-15 * magnitude).all()
            else:
                np.testing.assert_array_equal(R[1:, 1:], dense)


def test_strict_equals_logmean_for_consistent_kinetics(cnet):
    rng = np.random.default_rng(23)
    Ts, Ns = random_states(cnet, 25, rng, T_range=(290.0, 400.0))
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(cnet, N, T)
        R_lm = damping_matrix(cnet, st, mode="logmean")
        R_st = damping_matrix(cnet, st, mode="strict")
        np.testing.assert_allclose(R_st, R_lm, rtol=1e-9)


def test_strict_differs_for_benchmark_kinetics(net):
    st = ThermoState.from_temperature(net, np.array([1.3, 0.7]), 331.9)
    R_lm = damping_matrix(net, st, mode="logmean")
    R_st = damping_matrix(net, st, mode="strict")
    assert abs(R_st[1, 1] - R_lm[1, 1]) > 1e-3 * abs(R_lm[1, 1])


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
    np.testing.assert_array_equal(damping_matrix(cnet, st, mode="strict"),
                                  damping_matrix(cnet, st, mode="logmean"))


def test_unknown_damping_mode_rejected(net, x0):
    with pytest.raises(ValueError):
        damping_matrix(net, x0, mode="exotic")


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
        rhs = sde_fields(net, st, u).drift
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-22)


def test_diffusion_columns_are_the_noise_channels(net):
    st = ThermoState.from_temperature(net, np.array([1.0, 1.0]), 342.0)
    u = np.array([4e-4, -1.5])
    S = structure_matrices(net, st)
    D = sde_fields(net, st, u).diffusion
    np.testing.assert_array_equal(D[:, 0], S.a)
    rho = net.noise
    np.testing.assert_allclose(D[:, 1], rho.rho2 * u[0] * S.gamma[:, 0],
                               rtol=1e-14)
    np.testing.assert_allclose(D[:, 2], rho.rho3 * u[1] * S.gamma[:, 1],
                               rtol=1e-14)


def test_reaction_noise_column_vanishes_at_equilibrium(cnet):
    T = 330.0
    RT = 8.314 * T
    kf = cnet.k0f[0] * math.exp(-cnet.Ef[0] / RT)
    kb = cnet.k0b[0] * math.exp(-cnet.Eb[0] / RT)
    st = ThermoState.from_temperature(cnet, np.array([kb / kf, 1.0]), T)
    a = structure_matrices(cnet, st).a
    forward, _ = kernel.mass_action(cnet, st.N / cnet.reactor.V,
                                    kernel.rate_constants(cnet, st.T))
    assert np.abs(a).max() < 1e-12 * forward[0] * cnet.reactor.V


def test_input_matrix_flow_column(net):
    st = ThermoState.from_temperature(net, np.array([1.0, 1.0]), 342.0)
    g = structure_matrices(net, st).g
    h_in = net.cp * (310.0 - 300.0) + net.h_ref
    g00 = float(net.c_in @ h_in) - float(st.N @ st.h) / net.reactor.V
    assert g[0, 0] == pytest.approx(g00, rel=1e-13)
    np.testing.assert_allclose(g[1:, 0], net.c_in - st.N / net.reactor.V,
                               rtol=1e-14)
    np.testing.assert_array_equal(g[:, 1], [1.0, 0.0, 0.0])
    assert net.step_constants.h_in == pytest.approx(float(net.c_in @ h_in),
                                                    rel=1e-14)


def test_mixing_noise_scale_identity(net):
    """M = theta * g_flow^T Hess(-S) g_flow, and M >= 0."""
    rng = np.random.default_rng(25)
    Ts, Ns = random_states(net, 25, rng)
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(net, N, T)
        M = mixing_noise_scale(net, st)
        g_flow = structure_matrices(net, st).g[:, 0]
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


def test_second_law_through_generator(cnet):
    """Deterministic, isolated, consistent kinetics: L[-S] <= 0 everywhere."""
    rng = np.random.default_rng(27)
    Ts, Ns = random_states(cnet, 25, rng)
    field = NegEntropy(cnet)
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(cnet, N, T)
        val = float(field.gradient(st.x) @ sde_fields(cnet, st,
                                                      np.zeros(2)).drift)
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
        a = structure_matrices(net, st).a
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
    # delta is defined as the Hadamard correction, so F is zero
    assert report.feedthrough_min_eig == 0.0


def test_feedthrough_min_eig_is_eigvalsh_of_assembled_F(net, sp):
    """For the storages with Hessian Hess(-S) the corrected feedthrough
    F = delta - (1/2) sigma sigma^T o (gamma^T Hess gamma), assembled here
    from the structure matrices, is zero by the definition of delta: its
    eigensolve gives 0 to rounding, and the report gives exactly 0.  The
    trace lhs is the dense (1/2) a^T Hess(-S) a."""
    from phreactor.transform import AvailabilityHamiltonian

    rng = np.random.default_rng(32)
    fields = [NegEntropy(net), AvailabilityHamiltonian(net, sp)]
    for T, N in zip(*random_states(net, 30, rng)):
        st = ThermoState.from_temperature(net, N, T)
        S = structure_matrices(net, st)
        H = neg_entropy_hessian(net, st)
        F = S.delta - 0.5 * (S.sigma @ S.sigma.T) * (S.gamma.T @ H @ S.gamma)
        want = np.linalg.eigvalsh(0.5 * (F + F.T))[0]
        assert abs(want) <= 1e-12 * max(1.0, float(np.linalg.norm(S.delta)))
        for field in fields:
            report = check_passivity(net, st, field)
            assert report.feedthrough_min_eig == 0.0
            assert report.feedthrough_holds
            assert report.trace_lhs == pytest.approx(0.5 * float(S.a @ H @ S.a),
                                                     rel=1e-12)


class _NoHessian(NegEntropy):
    def hessian(self, x):
        raise AssertionError("the passivity check reads no dense Hessian")


def test_passivity_reads_no_field_hessian(net, x0):
    want = check_passivity(net, x0, NegEntropy(net))
    assert check_passivity(net, x0, _NoHessian(net)) == want


def test_passivity_evaluates_the_rates_once(net, sp, x0, monkeypatch):
    """The three reports come from one flow column and one rate
    evaluation, and each check is that one evaluation."""
    calls = {name: [] for name in ("mass_action", "rate_constants",
                                   "flow_column")}
    for name, log in calls.items():
        def counted(*args, real=getattr(kernel, name), log=log):
            log.append(args)
            return real(*args)

        monkeypatch.setattr(kernel, name, counted)
    field = AvailabilityHamiltonian(net, sp)
    for check in (lambda: check_conditions(net, x0, field, sp.V_star),
                  lambda: check_input_noise_bound(net, x0),
                  lambda: check_passivity(net, x0, field),
                  lambda: check_reaction_noise_bound(net, x0, sp.V_star)):
        check()
        assert {name: len(log) for name, log in calls.items()} == {
            "mass_action": 1, "rate_constants": 1, "flow_column": 1}
        for log in calls.values():
            log.clear()


@settings(max_examples=200, deadline=None)
@given(net=networks(), data=st.data())
def test_margins_rows_are_their_lone_calls_and_the_checks(net, data):
    """On networks of 1-5 species and 0-4 reactions (half of them without
    reactions) under non-zero noise, every row of a batched
    kernel.margins has the bits of that state's lone call, and the lone
    call has the bits of the three check reports, for -S and for an
    availability."""
    if data.draw(st.booleans(), label="no reactions"):
        net = replace(net, reactions=())
    net = replace(net, noise=NoiseSpec(*data.draw(
        st.tuples(*[st.floats(1e-3, 1.0)] * 3), label="noise")))
    p, B = net.n_species, data.draw(st.integers(1, 4), label="rows")

    def physical(n):
        return (np.array(data.draw(st.lists(st.floats(280.0, 420.0),
                                            min_size=n, max_size=n))),
                np.array(data.draw(st.lists(
                    st.lists(st.floats(1e-2, 5.0), min_size=p, max_size=p),
                    min_size=n, max_size=n))))

    (T_star,), (N_star,) = physical(1)
    sp = setpoint_from_state(net, N_star, T_star, 1e-5)
    T, N = physical(B)
    h, mu_over_T, _, theta = kernel.closures(net, N.T, T)
    states = [ThermoState.from_temperature(net, n, t) for t, n in zip(T, N)]
    for field in (NegEntropy(net), AvailabilityHamiltonian(net, sp)):
        grads = np.array([field.gradient(s)[1:] for s in states])
        batch = kernel.margins(net, N.T, T, h, mu_over_T, theta, grads.T,
                               sp.V_star)
        for i, s in enumerate(states):
            alone = kernel.margins(net, s.N, s.T, s.h, s.mu_over_T, s.theta,
                                   grads[i], sp.V_star)
            for row, value in zip(batch, alone):
                np.testing.assert_array_equal(row[i], value)
            norm, pas, rxn = check_conditions(net, s, field, sp.V_star)
            assert (norm, pas, rxn) == (
                check_input_noise_bound(net, s), check_passivity(net, s, field),
                check_reaction_noise_bound(net, s, sp.V_star))
            np.testing.assert_array_equal(
                [norm.holds, norm.lhs, norm.rhs, norm.delta_frobenius,
                 pas.trace_holds, pas.trace_lhs, pas.trace_rhs,
                 rxn.holds, rxn.lhs, rxn.rhs], alone[:-1])


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
    inter = feedback_interconnect(PortSystem(S1.J, S1.R, S1.g, S1.delta),
                                  PortSystem(S2.J, S2.R, S2.g, S2.delta))
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



def _recorded(f):
    """f() and the (message, category) of each warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        value = f()
    return value, [(str(w.message), w.category) for w in caught]


@pytest.mark.parametrize("T, N", [
    (342.0, [1.0, 1.0]), (331.9, [0.05, 1.5]), (5e-324, [1.0, 1.0]),
    (1e-170, [1.0, 1.0]), (1e300, [1e300, 1e300]), (342.0, [1e154, 1e154]),
    (1e-300, [1e200, 1e-11]), (3.0, [1e-11, 1e-11])])
def test_one_state_runs_on_floats_and_redoes_the_rest_on_numpy(net, T, N):
    """A state's margins and equivalence residual run on Python floats;
    where a float divisor is 0.0 or a value is inf or NaN they are redone
    on numpy, so each has the bits and warnings of the formulas on the
    state's numpy float64 scalars."""
    from phreactor.transform import equivalence_residual

    sp = setpoint_from_state(net, [1.3, 0.7], presets.T_STAR, presets.Q_STAR)
    st, _ = _recorded(lambda: ThermoState._build(net, 0.0, np.array(N), T))
    want, want_warnings = _recorded(lambda: kernel.margins(
        net, st.N, st.T, st.h, st.mu_over_T, st.theta,
        st.mu_over_T - sp.mu_star_over_T, sp.V_star))
    reports, warned = _recorded(lambda: check_conditions(
        net, st, AvailabilityHamiltonian(net, sp), sp.V_star))
    assert warned == want_warnings
    got = [reports[0].lhs, reports[0].rhs, reports[0].delta_frobenius,
           reports[1].trace_lhs, reports[1].trace_rhs, reports[2].lhs,
           reports[2].rhs]
    want = [want.input_noise_lhs, want.input_noise_rhs, want.feedthrough_norm,
            want.trace_lhs, want.trace_rhs, want.reaction_noise_lhs,
            want.reaction_noise_rhs]
    np.testing.assert_array_equal(np.array(got, dtype=float).view(np.uint64),
                                  np.array(want, dtype=float).view(np.uint64))
    if all(map(math.isfinite, want)):  # no redo: the floats' own values
        assert {type(x) for x in got} == {float}
    with np.errstate(all="ignore"):
        rates = kernel.mass_action(net, st.N / net.reactor.V,
                                   kernel.rate_constants(net, st.T))
        v = kernel.damping_apply(net, kernel.damping_weights(
            net, *rates, st.T), st.T, sp.pi_star[1:])
        got = equivalence_residual(net, sp, st)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(
        math.sqrt(kernel.dot(v, v))).tobytes()
