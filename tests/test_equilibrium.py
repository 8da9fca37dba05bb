"""Steady-state location, multiplicity over the jacket window, and spectral
classification of the roots."""

import numpy as np
import pytest

from conftest import equilibrium_composition
from phreactor import kernel, presets
from phreactor.control import jacket_temperature
from phreactor.equilibrium import (
    ConvergenceError,
    classify,
    drift_residual,
    mass_balance_steady,
    steady_states,
)
from phreactor.network import parse_network
from phreactor.structure import mass_action_rates, sde_fields
from phreactor.thermo import ThermoDomainError, ThermoState

#: The benchmark network with a second-order forward reaction, whose
#: cold-started Newton solve fails at two points of the default grid.
NONLINEAR = presets.CONFIG_TEXT.replace("A -> B k0f=1.2e9",
                                        "2 A -> B k0f=1.2e6")
#: Jacket temperature that puts this network's root between those points.
NONLINEAR_TW = 1842.25


@pytest.fixture(scope="module")
def jacket_Tw(net, sp_exact):
    return jacket_temperature(net, sp_exact.Qdot_star, sp_exact.T_star)


@pytest.fixture(scope="module")
def roots(net, sp_exact, jacket_Tw):
    return steady_states(net, sp_exact.q_star, jacket_Tw)


def test_mass_balance_steady_at_operating_point(net):
    N = mass_balance_steady(net, 331.9, 9.15e-6)
    np.testing.assert_allclose(N, [1.3082170071820614, 0.6917829928180222],
                               rtol=1e-10)
    # composition within 0.01 mol of the published rounded values
    assert np.abs(N - [1.3, 0.7]).max() < 0.01


def test_mass_balance_residual_is_tiny(net):
    N = mass_balance_steady(net, 331.9, 9.15e-6)
    st = ThermoState.from_temperature(net, N, 331.9)
    # mole balance alone (any heat input leaves it unchanged)
    from phreactor.structure import sde_fields
    d = sde_fields(net, st, np.array([9.15e-6, 0.0]),
                   include_noise=False).drift
    assert np.abs(d[1:]).max() < 1e-12 * 9.15e-6 * 2000.0


def test_no_reaction_network_washes_to_feed_composition(plain_net):
    N = mass_balance_steady(plain_net, 315.0, 1e-4)
    np.testing.assert_array_equal(N, [2.0, 0.0])


def test_convergence_error_when_iterations_exhausted(net):
    with pytest.raises(ConvergenceError):
        mass_balance_steady(net, 331.9, 9.15e-6, N0=np.array([5.0, 5.0]),
                            max_iter=1)


def test_convergence_error_names_the_first_failed_row(net):
    q = 9.15e-6
    Ts = np.array([330.0, 331.9, 335.0, 340.0])
    N0 = np.array([mass_balance_steady(net, T, q) for T in Ts])
    N0[1] = N0[3] = [5.0, 5.0]
    with pytest.raises(ConvergenceError, match="at T=331.9,") as info:
        mass_balance_steady(net, Ts, q, N0=N0, max_iter=1)
    np.testing.assert_array_equal(info.value.converged,
                                  [True, False, True, False])
    np.testing.assert_array_equal(info.value.N[[0, 2]], N0[[0, 2]])


def _newton_by_columns(net, T, q, N0=None, tol=1e-12):
    """The mole-balance solve as a scalar loop: one rate evaluation per
    residual, the Jacobian one column at a time."""
    V = net.reactor.V

    def balance(N):
        rates = mass_action_rates(net, N / V, T)
        return kernel.reaction_flux(net, rates.net) + q * kernel.feed_gap(net, N)

    def scale(N):
        rates = mass_action_rates(net, N / V, T)
        turnover = V * float(np.sum(rates.forward + rates.backward))
        return max(q * float(np.max(net.c_in)), turnover, 1e-300)

    N = np.array(N0, dtype=float) if N0 is not None else V * net.c_in
    f = balance(N)
    best = float(np.linalg.norm(f))
    while np.linalg.norm(f, ord=np.inf) > tol * scale(N):
        J = np.empty((N.size, N.size))
        for j in range(N.size):
            h = 1e-7 * max(abs(N[j]), 1e-6)
            Np, Nm = N.copy(), N.copy()
            Np[j] += h
            Nm[j] -= h
            J[:, j] = (balance(Np) - balance(Nm)) / (2.0 * h)
        step = np.linalg.solve(J, -f)
        alpha = 1.0
        while True:
            N_try = np.maximum(N + alpha * step, 0.0)
            f_try = balance(N_try)
            if (np.linalg.norm(f_try) <= (1.0 - 1e-4 * alpha) * best
                    or alpha < 1e-8):
                N, f, best = N_try, f_try, float(np.linalg.norm(f_try))
                break
            alpha *= 0.5
    return N


@pytest.mark.parametrize("T, q, N0", [
    (331.9, 9.15e-6, None), (250.0, 9.15e-6, None), (500.0, 9.15e-6, None),
    (320.0, 2e-5, None), (331.9, 9.15e-6, [5.0, 5.0]),
    (420.0, 1e-6, [0.3, 1.9]),
])
def test_solve_equals_column_loop(net, T, q, N0):
    np.testing.assert_array_equal(mass_balance_steady(net, T, q, N0=N0),
                                  _newton_by_columns(net, T, q, N0))


def test_batch_rows_equal_scalar_solves(net):
    q = 9.15e-6
    Ts = np.linspace(250.0, 500.0, 2000)
    batch = mass_balance_steady(net, Ts, q)
    assert batch.shape == (2000, 2)
    np.testing.assert_array_equal(
        batch, [mass_balance_steady(net, T, q) for T in Ts])
    # warm starts: one shared (p,) start, and one start per row
    N0 = batch[::400] * 1.5
    np.testing.assert_array_equal(
        mass_balance_steady(net, Ts[::400], q, N0=N0),
        [mass_balance_steady(net, T, q, N0=n) for T, n in zip(Ts[::400], N0)])
    np.testing.assert_array_equal(
        mass_balance_steady(net, Ts[:3], q, N0=[1.0, 1.0]),
        [mass_balance_steady(net, T, q, N0=[1.0, 1.0]) for T in Ts[:3]])


def _serial_roots(net, q, T_w, Ts, comps=None):
    """The scan as a serial continuation: every grid point warm-started
    from the previous one (unless the grid compositions are given), every
    bracket bisected on its own."""
    def energy(T, N):
        g00, _ = kernel.flow_column(net, N, kernel.enthalpy(net, T))
        return q * g00 + net.reactor.lam * (T_w - T)

    if comps is None:
        comps, N = [], None
        for T in Ts:
            N = mass_balance_steady(net, T, q, N0=N)
            comps.append(N)
    E = [energy(T, N) for T, N in zip(Ts, comps)]
    roots = []
    for i in range(len(Ts) - 1):
        if E[i] * E[i + 1] < 0:
            a, b, ea, N = Ts[i], Ts[i + 1], E[i], comps[i]
            while b - a > 1e-6:
                mid = 0.5 * (a + b)
                N = mass_balance_steady(net, mid, q, N0=N)
                em = energy(mid, N)
                if ea * em <= 0:
                    b = mid
                else:
                    a, ea = mid, em
            T = 0.5 * (a + b)
            roots.append((T, mass_balance_steady(net, T, q, N0=N)))
    return roots


def test_failed_cold_starts_are_retried_warm():
    net = parse_network(NONLINEAR)
    q = presets.Q_STAR
    Ts = np.linspace(250.0, 500.0, 2000)
    with pytest.raises(ConvergenceError) as info:
        mass_balance_steady(net, Ts, q)
    failed = Ts[~info.value.converged]
    np.testing.assert_allclose(failed, [499.50, 499.62], atol=0.01)
    # the root's bracket has both failed points as its ends
    roots = steady_states(net, q, NONLINEAR_TW)
    serial = _serial_roots(net, q, NONLINEAR_TW, Ts)
    assert len(roots) == len(serial) == 1
    assert failed[0] < roots[0].T < failed[1]
    for r, (T, N) in zip(roots, serial):
        assert r.T == pytest.approx(T, rel=1e-8)
        np.testing.assert_allclose(r.N, N, rtol=1e-8)
    # the default window, where the failed points bracket no root
    assert [r.classification for r in steady_states(net, q, 299.4922)] == [
        "stable"]


def test_lockstep_bisection_equals_bracket_by_bracket(net, roots):
    q, T_w = roots[0].q, roots[0].T_w
    Ts = np.linspace(250.0, 500.0, 2000)
    serial = _serial_roots(net, q, T_w, Ts, mass_balance_steady(net, Ts, q))
    assert [r.T for r in roots] == [T for T, _ in serial]
    np.testing.assert_array_equal([r.N for r in roots], [N for _, N in serial])


def test_three_steady_states_under_benchmark_jacket(roots):
    assert len(roots) == 3
    assert [r.classification for r in roots] == ["stable", "unstable",
                                                 "stable"]
    np.testing.assert_allclose([r.T for r in roots],
                               [320.2487049608484, 331.9000002740323,
                                371.9863905913834], rtol=1e-9)
    assert roots[0].T < roots[1].T < roots[2].T


def test_root_spectra(roots):
    max_re = [float(np.max(r.eigenvalues.real)) for r in roots]
    assert max_re[0] == pytest.approx(-0.0027242936195576023, rel=1e-4)
    assert max_re[1] == pytest.approx(0.0031469758598758387, rel=1e-4)
    assert max_re[2] == pytest.approx(-0.009149999999449253, rel=1e-4)


def test_middle_root_matches_exact_setpoint(roots, sp_exact):
    mid = roots[1]
    assert abs(mid.T - sp_exact.T_star) < 1e-5
    np.testing.assert_allclose(mid.N, sp_exact.N_star, rtol=1e-6)
    assert mid.U == pytest.approx(sp_exact.U_star, rel=1e-6)


def test_all_roots_are_stationary(net, roots):
    for r in roots:
        x = np.concatenate([[r.U], r.N])
        assert drift_residual(net, x, np.array([r.q, r.Qdot])) < 1e-8


def test_root_count_stable_under_grid_refinement(net, sp_exact, jacket_Tw,
                                                 roots):
    finer = steady_states(net, sp_exact.q_star, jacket_Tw, grid=4000)
    assert len(finer) == len(roots)
    np.testing.assert_allclose([r.T for r in finer], [r.T for r in roots],
                               atol=1e-5)


def test_empty_window_has_no_roots(net, sp_exact, jacket_Tw):
    assert steady_states(net, sp_exact.q_star, jacket_Tw,
                         T_range=(400.0, 420.0)) == []


@pytest.mark.parametrize("T_range, grid", [
    ((400.0, 300.0), 2000), ((300.0, 300.0), 2000), ((-10.0, 500.0), 2000),
    ((0.0, 500.0), 2000), ((250.0, np.inf), 2000), ((np.nan, 500.0), 2000),
    ((250.0, 500.0), 1), ((250.0, 500.0), 0), ((250.0, 500.0), -5),
])
def test_scan_range_is_validated(net, T_range, grid):
    with pytest.raises(ValueError, match="grid >= 2 and 0 < Tmin < Tmax"):
        steady_states(net, 9.15e-6, 299.4922, T_range=T_range, grid=grid)


def test_two_point_grid_scans(net, roots):
    # a grid of two points is the smallest scan; it brackets the only root
    # inside [331, 333]
    two = steady_states(net, roots[1].q, roots[1].T_w, T_range=(331.0, 333.0),
                        grid=2)
    assert [r.classification for r in two] == ["unstable"]
    assert two[0].T == pytest.approx(roots[1].T, abs=1e-6)


def _classify_by_columns(net, x, u, jacket=None):
    """classify's Jacobian one column at a time through ThermoState."""
    def drift(xv):
        st = ThermoState.from_vector(net, xv)
        uu = u if jacket is None else [u[0], jacket[0] * (jacket[1] - st.T)]
        return sde_fields(net, st, uu, include_noise=False).drift

    J = np.empty((x.size, x.size))
    for i in range(x.size):
        h = 1e-6 * max(abs(x[i]), 1.0)
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        J[:, i] = (drift(xp) - drift(xm)) / (2.0 * h)
    return np.linalg.eigvals(J)


def test_batched_classify_equals_column_loop(net, cnet, roots):
    for r in roots:
        x, u = np.concatenate([[r.U], r.N]), np.array([r.q, r.Qdot])
        for jacket in (None, (net.reactor.lam, r.T_w)):
            _, eigs = classify(net, x, u, jacket=jacket)
            np.testing.assert_array_equal(
                eigs, _classify_by_columns(net, x, u, jacket))
        np.testing.assert_array_equal(
            r.eigenvalues,
            _classify_by_columns(net, x, u, (net.reactor.lam, r.T_w)))
    # the isolated reactor at reaction equilibrium, with zero eigenvalues
    x = ThermoState.from_temperature(
        cnet, equilibrium_composition(cnet, 330.0), 330.0).x
    np.testing.assert_array_equal(classify(cnet, x, np.zeros(2))[1],
                                  _classify_by_columns(cnet, x, np.zeros(2)))


def test_classify_checks_every_perturbed_state(net):
    u = np.array([9.15e-6, 0.0])
    U = ThermoState.from_temperature(net, np.array([1.0, 1.0]), 330.0).U
    # N_B - h falls to the mole floor, though x itself is inside the domain
    with pytest.raises(ThermoDomainError, match="entries > 1e-12"):
        classify(net, np.array([U, 1.0, 1e-6]), u)
    # U - h gives T <= 0 for a state just above absolute zero
    U0 = ThermoState.from_temperature(net, np.array([1.0, 1.0]), 1e-5).U
    with pytest.raises(ThermoDomainError, match="not positive"):
        classify(net, np.array([U0, 1.0, 1.0]), u)
    with pytest.raises(ThermoDomainError, match="needs 2 entries"):
        classify(net, np.array([U, 1.0, 1.0, 1.0]), u)


def test_fixed_input_classification_of_middle_root(net, roots):
    # constant heat input removes the stabilizing jacket feedback, so the
    # middle root stays unstable
    mid = roots[1]
    label, eig = classify(net, np.concatenate([[mid.U], mid.N]),
                          np.array([mid.q, mid.Qdot]))
    assert label == "unstable"
    assert float(eig.real.max()) > 1e-3


def test_jacket_feedback_changes_spectrum(net, roots):
    mid = roots[1]
    x = np.concatenate([[mid.U], mid.N])
    u = np.array([mid.q, mid.Qdot])
    _, fixed = classify(net, x, u)
    _, fed = classify(net, x, u, jacket=(net.reactor.lam, mid.T_w))
    assert float(fed.real.max()) < float(fixed.real.max())


def test_isolated_reaction_equilibrium_is_marginal(cnet):
    # zero inputs conserve both energy and total moles, giving two zero
    # eigenvalues next to the negative reaction-relaxation mode
    N = equilibrium_composition(cnet, 330.0)
    st = ThermoState.from_temperature(cnet, N, 330.0)
    label, eig = classify(cnet, st.x, np.zeros(2))
    assert label == "marginal"
    assert (np.abs(eig.real) < 1e-9).sum() == 2
    assert float(eig.real.min()) < -1.0
