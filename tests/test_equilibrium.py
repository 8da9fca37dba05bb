"""Steady-state location, multiplicity over the jacket window, and spectral
classification of the roots."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (NO_REACTION, THREE_REACTIONS, equilibrium_composition,
                      networks, random_states)
from phreactor import equilibrium, kernel, presets
from phreactor.control import jacket_temperature
from phreactor.equilibrium import (
    ConvergenceError,
    classify,
    drift_residual,
    mass_balance_steady,
    steady_states,
)
from phreactor.network import parse_network
from phreactor.structure import sde_fields
from phreactor.thermo import ThermoDomainError, ThermoState
from phreactor.transform import make_setpoint

#: The benchmark network with a second-order forward reaction; its forward
#: rate is quadratic in c_A, so its Jacobian reads a multiplicity-2 power.
NONLINEAR = presets.CONFIG_TEXT.replace("A -> B k0f=1.2e9",
                                        "2 A -> B k0f=1.2e6")
#: Jacket temperature that puts this network's root at 499.56 K.
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
    d = sde_fields(net, st, np.array([9.15e-6, 0.0])).drift
    assert np.abs(d[1:]).max() < 1e-12 * 9.15e-6 * 2000.0


def test_no_reaction_network_washes_to_feed_composition(plain_net):
    N = mass_balance_steady(plain_net, 315.0, 1e-4)
    np.testing.assert_array_equal(N, [2.0, 0.0])
    # the stopping test reads every species: a start that is off in one
    # species only still iterates
    for N0 in ([2.0, 5.0], [5.0, 0.0]):
        N = mass_balance_steady(plain_net, [315.0, 315.0], 1e-4, N0=N0)
        np.testing.assert_allclose(N, [[2.0, 0.0]] * 2, atol=1e-12)


def test_negative_root_raises_value_error():
    # 2 A -> B has a second root of its mole balance with N_A < 0 near
    # (-1.92693, 1.96347); an unclamped Newton iteration from (-1, 2) finds
    # it, and passed as N0 it converges at once
    net2 = parse_network(NONLINEAR)
    k_T, q = kernel.rate_constants(net2, np.array([331.9])), 9.15e-6
    N = np.array([[-1.0, 2.0]])
    for _ in range(50):
        _, f, _ = equilibrium._balance(net2, N, k_T, q)
        J = equilibrium._balance_jacobian(net2, N, k_T, q)
        N = N + np.linalg.solve(J, -f[..., None])[..., 0]
    np.testing.assert_allclose(N[0], [-1.92693, 1.96347], atol=1e-5)
    with pytest.raises(ValueError, match="negative component"):
        mass_balance_steady(net2, 331.9, q, N0=N[0])


def test_convergence_error_when_iterations_exhausted(net, monkeypatch):
    monkeypatch.setattr(equilibrium, "MAX_NEWTON_ITER", 1)
    with pytest.raises(ConvergenceError):
        mass_balance_steady(net, 331.9, 9.15e-6, N0=np.array([5.0, 5.0]))


def test_convergence_error_names_the_first_failed_row(net, monkeypatch):
    q = 9.15e-6
    Ts = np.array([330.0, 331.9, 335.0, 340.0])
    N0 = np.array([mass_balance_steady(net, T, q) for T in Ts])
    N0[1] = N0[3] = [5.0, 5.0]
    monkeypatch.setattr(equilibrium, "MAX_NEWTON_ITER", 1)
    with pytest.raises(ConvergenceError, match="at T=331.9,") as info:
        mass_balance_steady(net, Ts, q, N0=N0)
    np.testing.assert_array_equal(info.value.converged,
                                  [True, False, True, False])
    np.testing.assert_array_equal(info.value.N[[0, 2]], N0[[0, 2]])


@pytest.mark.parametrize("network, conserved", [
    (presets.CONFIG_TEXT, "N_A + N_B"),
    (presets.CONFIG_TEXT.replace("A -> B", "2 A -> 3 B"),
     "N_A + 0.666667 N_B"),
    (NO_REACTION, "2 independent combinations of mole numbers"),
], ids=["bundled", "2A-3B", "no-reaction"])
def test_zero_flow_names_the_conserved_combination(network, conserved):
    # a closed reactor keeps every conserved combination of its start, so
    # the mole balance at q = 0 does not determine N
    net = parse_network(network)
    assert equilibrium.conserved_moles(net) == conserved
    for solve in (mass_balance_steady, make_setpoint):
        with pytest.raises(ConvergenceError) as info:
            solve(net, 331.9, 0.0)
        assert str(info.value) == (f"at q=0 the closed reactor conserves "
                                   f"{conserved}, so the mole balance does "
                                   "not determine N")
        assert not info.value.converged.any()


def test_scan_reraises_when_a_round_converges_nothing(net, monkeypatch):
    monkeypatch.setattr(equilibrium, "MAX_NEWTON_ITER", 0)
    with pytest.raises(ConvergenceError,
                       match="did not converge at T=250.0,") as info:
        steady_states(net, presets.Q_STAR, 299.4922)
    assert info.value.converged.shape == (2000,)
    assert not info.value.converged.any()


def _newton_by_columns(net, T, q, N0=None, tol=1e-12):
    """The mole-balance solve as a scalar loop: one rate evaluation per
    residual, the exact Jacobian one column at a time."""
    V, k_T = net.reactor.V, kernel.rate_constants(net, T)

    def balance(N):
        forward, backward = kernel.mass_action(net, N / V, k_T)
        return (kernel.reaction_flux(net, forward - backward)
                + q * kernel.feed_gap(net, N / V))

    def scale(N):
        forward, backward = kernel.mass_action(net, N / V, k_T)
        turnover = V * float(np.sum(forward + backward))
        return max(q * float(np.max(net.c_in)), turnover, 1e-300)

    N = np.array(N0, dtype=float) if N0 is not None else V * net.c_in
    f = balance(N)
    best = float(np.linalg.norm(f))
    while np.linalg.norm(f, ord=np.inf) > tol * scale(N):
        dr_f, dr_b = kernel.mass_action_jacobian(net, N / V, k_T)
        J = np.empty((N.size, N.size))
        for j in range(N.size):
            J[:, j] = (np.vecdot(net.stoich_net, dr_f[:, j] - dr_b[:, j])
                       - q / V * (np.arange(N.size) == j))
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


def _same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


#: The bundled network, the 2 A -> B network and the three-reaction
#: network: on the last two the Newton's live rows shrink as rows converge
#: (2 000 -> 1 731 -> 1 530 -> 1 335 on the three-reaction grid).
SOLVE_NETWORKS = (presets.CONFIG_TEXT, NONLINEAR, THREE_REACTIONS)


def _lone_outcome(net, T, q, N0=None):
    """One row's solve alone: its last iterate and whether it converged."""
    try:
        return mass_balance_steady(net, T, q, N0=N0), True
    except ConvergenceError as exc:
        return exc.N[0], bool(exc.converged[0])


@pytest.mark.parametrize("T, q, N0", [
    (331.9, 9.15e-6, None), (250.0, 9.15e-6, None), (500.0, 9.15e-6, None),
    (320.0, 2e-5, None), (331.9, 9.15e-6, [5.0, 5.0]),
    (420.0, 1e-6, [0.3, 1.9]), (331.9, 9.15e-6, [1e-3, 1e-3]),
])
def test_solve_equals_column_loop(T, q, N0):
    for net in map(parse_network, SOLVE_NETWORKS):
        _same_bits(mass_balance_steady(net, T, q, N0=N0),
                   _newton_by_columns(net, T, q, N0))


def test_batch_rows_equal_scalar_solves():
    q, Ts = 9.15e-6, np.linspace(250.0, 500.0, 2000)
    for net in map(parse_network, SOLVE_NETWORKS):
        batch = mass_balance_steady(net, Ts, q)
        assert batch.shape == (2000, 2)
        _same_bits(batch, np.array([mass_balance_steady(net, T, q)
                                    for T in Ts]))
        _same_bits(batch, np.array([_newton_by_columns(net, T, q)
                                    for T in Ts]))
        # warm starts: one start per row, and one shared (p,) start; from
        # N = (1e-3, 1e-3) the rows of the nonlinear networks halve their
        # steps in different rounds
        N0 = batch[::400] * 1.5
        _same_bits(mass_balance_steady(net, Ts[::400], q, N0=N0), np.array(
            [mass_balance_steady(net, T, q, N0=n)
             for T, n in zip(Ts[::400], N0)]))
        for start, rows in (([1.0, 1.0], Ts[:3]), ([1e-3, 1e-3], Ts[::100])):
            solved = mass_balance_steady(net, rows, q, N0=start)
            _same_bits(solved, np.array(
                [mass_balance_steady(net, T, q, N0=start) for T in rows]))
            _same_bits(solved, np.array(
                [_newton_by_columns(net, T, q, start) for T in rows]))


def test_rate_constants_once_per_solve(monkeypatch):
    """T stays fixed through a solve, so each call evaluates the Arrhenius
    constants of its rows once: on the 2 000-row grid, on warm-started
    rows, and on the networks whose rows leave the working set, with their
    constants, at different iterations."""
    sizes, rate_constants = [], kernel.rate_constants

    def counted(net, T):
        sizes.append(np.size(T))
        return rate_constants(net, T)

    monkeypatch.setattr(kernel, "rate_constants", counted)
    q, Ts = presets.Q_STAR, np.linspace(250.0, 500.0, 2000)
    for net in map(parse_network, SOLVE_NETWORKS):
        sizes.clear()
        grid = mass_balance_steady(net, Ts, q)
        assert sizes == [2000]
        for T, N0 in ((Ts[::400], grid[::400] * 1.5),
                      (Ts[::100], [1e-3, 1e-3]), (331.9, [5.0, 5.0])):
            sizes.clear()
            mass_balance_steady(net, T, q, N0=N0)
            assert sizes == [np.size(T)]


@pytest.mark.parametrize("network, caps, start", [
    (NONLINEAR, (3, 4, 5), None), (THREE_REACTIONS, (3, 4, 5), None),
    (NONLINEAR, (8, 12, 20), [1e-3, 1e-3]),
    (THREE_REACTIONS, (8, 12, 20), [1e-3, 1e-3]),
], ids=["2A-cold", "three-reactions-cold", "2A-halving",
        "three-reactions-halving"])
def test_unconverged_batch_carries_each_lone_outcome(network, caps, start,
                                                     monkeypatch):
    """Rows that converge at different iterations leave the working set at
    different times; a batch that runs out of iterations still reports, row
    by row, the last iterate and the flag of the row's lone solve."""
    net, q = parse_network(network), presets.Q_STAR
    Ts = np.linspace(250.0, 500.0, 2000)[::4 if start is None else 40]
    counts = []
    for cap in caps:
        monkeypatch.setattr(equilibrium, "MAX_NEWTON_ITER", cap)
        with pytest.raises(ConvergenceError) as info:
            mass_balance_steady(net, Ts, q, N0=start)
        lone = [_lone_outcome(net, T, q, start) for T in Ts]
        _same_bits(info.value.N, np.array([N for N, _ in lone]))
        np.testing.assert_array_equal(info.value.converged,
                                      [ok for _, ok in lone])
        counts.append(int(info.value.converged.sum()))
    assert 0 < counts[0] < counts[1] < counts[2] < len(Ts)


def test_singular_jacobian_reports_every_row_s_last_iterate(monkeypatch):
    """A singular Jacobian met after rows have left the working set names
    its T and reports each row's last iterate, as a solve stopped there."""
    net, q = parse_network(THREE_REACTIONS), presets.Q_STAR
    Ts = np.linspace(250.0, 500.0, 2000)[::4]
    stopped = {}
    for cap in (2, 3):
        monkeypatch.setattr(equilibrium, "MAX_NEWTON_ITER", cap)
        with pytest.raises(ConvergenceError) as info:
            mass_balance_steady(net, Ts, q)
        stopped[cap] = info.value
    monkeypatch.undo()
    jacobian, sizes = equilibrium._balance_jacobian, []

    def third_singular(*args):
        J = jacobian(*args)
        sizes.append(len(J))
        if len(sizes) == 3:
            J[-1] = 0.0
        return J

    monkeypatch.setattr(equilibrium, "_balance_jacobian", third_singular)
    with pytest.raises(ConvergenceError,
                       match=f"singular Jacobian at T={Ts[-1]}$") as info:
        mass_balance_steady(net, Ts, q)
    assert sizes[0] == sizes[1] == len(Ts) > sizes[2]
    _same_bits(info.value.N, stopped[2].N)
    np.testing.assert_array_equal(info.value.converged,
                                  stopped[3].converged)


@pytest.mark.parametrize("q", [1e-6, 9.15e-6, 2e-5])
def test_grid_solves_to_rounding_level(net, q):
    # the stopping rule asks for 1e-12 of the turnover scale; the exact
    # Jacobian's last step lands every grid point far below it
    Ts = np.linspace(250.0, 500.0, 2000)
    N = mass_balance_steady(net, Ts, q)
    _, f, scale = equilibrium._balance(net, N, kernel.rate_constants(net, Ts),
                                       q)
    assert (np.abs(f).max(-1) / scale).max() <= 1e-14


#: Step of the central differences, relative to max(N_j, 1e-3 mol).
FD_STEP = 1e-6
#: Their tolerance relative to the summed magnitudes of each entry's terms.
FD_RTOL = 1e-8


def _central_differences(net, N, T, q, h):
    """Per row, the balance's Jacobian by central differences of step h,
    Richardson-extrapolated with step 2h: the mole balance is a polynomial
    of degree <= 3 in each N_j, so only rounding is left."""
    B, p = N.shape
    steps, k_T = h[:, None, :] * np.eye(p), kernel.rate_constants(net, T)

    def central(k):
        f = [equilibrium._balance(net, (N[:, None] + s * k * steps).reshape(
            -1, p), k_T.repeat(p, 0), q)[1].reshape(B, p, p)
             for s in (1, -1)]
        return ((f[0] - f[1]) / (2.0 * k * h[..., None])).swapaxes(-1, -2)

    return (4.0 * central(1) - central(2)) / 3.0


@settings(max_examples=200, deadline=None)
@given(net=networks(), data=st.data())
def test_exact_jacobian_matches_central_differences(net, data):
    """The kernel's rate derivatives, assembled as the Newton solve does,
    agree with central differences of the mole balance, also where a
    concentration is zero; a batch row has the bits of the row alone."""
    p, B = net.n_species, data.draw(st.integers(1, 4))
    N = data.draw(arrays(float, (B, p), elements=st.one_of(
        st.just(0.0), st.floats(1e-4, 1.0))))
    N[0, 0] = 0.0
    T = data.draw(arrays(float, B, elements=st.floats(280.0, 420.0)))
    q = data.draw(st.one_of(st.just(0.0), st.floats(1e-8, 1e-4)))
    k_T = kernel.rate_constants(net, T)
    J = equilibrium._balance_jacobian(net, N, k_T, q)
    dr_f, dr_b = kernel.mass_action_jacobian(net, N / net.reactor.V, k_T)
    for b in range(B):
        k_b = kernel.rate_constants(net, T[b])
        np.testing.assert_array_equal(
            J[b], equilibrium._balance_jacobian(net, N[b], k_b, q))
        for batch, lone in zip((dr_f, dr_b), kernel.mass_action_jacobian(
                net, N[b] / net.reactor.V, k_b)):
            np.testing.assert_array_equal(batch[b], lone)

    # tolerance: FD_RTOL of the summed magnitudes of each entry's terms,
    # plus the differences' rounding, 1e-13 of the balance's terms at the
    # farthest differencing point over the step
    V, nu = net.reactor.V, np.abs(net.stoich_net)
    h = FD_STEP * np.maximum(N, 1e-3)
    far = N + 2.0 * h
    forward, backward = kernel.mass_action(net, far / V, k_T)
    sizes = (V * np.vecdot(nu, (forward + backward)[:, None, :])
             + q * (net.c_in + far / V))
    terms = np.vecdot(nu[:, None, :], (np.abs(dr_f) + np.abs(dr_b)).swapaxes(
        -1, -2)[..., None, :, :]) + q / V * np.eye(p)
    J_fd = _central_differences(net, N, T, q, h)
    bound = FD_RTOL * terms + 1e-13 * sizes[..., None] / h[:, None, :]
    assert (np.abs(J - J_fd) <= bound).all()


def _power_gradient(c, stoich):
    """The species product's derivatives by libm's powers, species j's
    lowered in row j, multiplied in species order: the reference for the
    gathered ones of multiplicities 0 and 1."""
    c_col, j = c[..., :, None], np.arange(len(stoich))
    factors = np.repeat(np.float_power(c_col, stoich)[..., None, :, :],
                        len(j), axis=-3)
    factors[..., j, j, :] = stoich * np.float_power(
        c_col, np.maximum(stoich - 1.0, 0.0))
    return np.multiply.reduce(factors, -2)


#: Concentrations at the edges of the floats; -nan has its sign bit set.
_EDGES = (0.0, -0.0, 5e-324, 2.0 ** -1030, 2.2250738585072014e-308, math.inf,
          -math.inf, math.nan, -math.nan)


@settings(max_examples=300, deadline=None)
@given(net=networks(max_multiplicity=1), data=st.data())
def test_gathered_gradient_has_the_powers_bits(net, data):
    """With multiplicities 0 and 1 only, the gathered derivatives have the
    bits of libm's powers, also at 0, -0.0, subnormals and inf, and NaN
    where they have NaN (pow drops a NaN's sign bit, a gather keeps it);
    a batch row has the bits of the row alone."""
    k, B = net.step_constants, data.draw(st.integers(1, 4))
    stoich = np.hstack((net.stoich_reactants, net.stoich_products))
    c = data.draw(arrays(float, (B, net.n_species), elements=st.one_of(
        st.sampled_from(_EDGES), st.floats(allow_nan=False))))
    with np.errstate(all="ignore"):  # inf * 0 and the like
        gathered = kernel._gathered_product(c, k.grad_slots)
        powers = _power_gradient(c, stoich)
        lone = [kernel._gathered_product(row, k.grad_slots) for row in c]
    np.testing.assert_array_equal(np.isnan(gathered), np.isnan(powers))
    number = ~np.isnan(powers)
    np.testing.assert_array_equal(gathered.view(np.uint64)[number],
                                  powers.view(np.uint64)[number])
    for row, alone in zip(gathered, lone):
        np.testing.assert_array_equal(row.view(np.uint64),
                                      alone.view(np.uint64))


def _no_pow(*args):
    raise AssertionError("the kernel took a libm power")


@settings(max_examples=100, deadline=None)
@given(net=networks(), data=st.data())
def test_no_network_takes_libm_powers(net, data):
    """The rates and their derivatives gather every multiplicity, 2 and 3
    among them, so neither calls np.float_power."""
    B = data.draw(st.integers(1, 4))
    c = data.draw(arrays(float, (B, net.n_species),
                         elements=st.floats(0.0, 1e3)))
    T = data.draw(arrays(float, B, elements=st.floats(280.0, 420.0)))
    second = parse_network(NONLINEAR)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "float_power", _no_pow)
        for each, conc in ((net, c), (second, np.array([[1.5, 0.25]]))):
            k_T = kernel.rate_constants(each, T[:len(conc)])
            kernel.mass_action(each, conc, k_T)
            kernel.mass_action_jacobian(each, conc, k_T)


def _energy(net, q, T_w, T, N):
    """The stationary energy residual E(T) at composition N."""
    g00 = kernel.flow_column(net, N, kernel.enthalpy(net, T))[0]
    return q * g00 + net.reactor.lam * (T_w - T)


def _serial_roots(net, q, T_w, Ts, comps=None):
    """The scan as a serial continuation: every grid point warm-started
    from the previous one (unless the grid compositions are given), every
    bracket narrowed on its own by ITP, one scalar step at a time."""
    if comps is None:
        comps, N = [], None
        for T in Ts:
            N = mass_balance_steady(net, T, q, N0=N)
            comps.append(N)
    E = [_energy(net, q, T_w, T, N) for T, N in zip(Ts, comps)]
    eps, w = equilibrium.ROOT_EPS, Ts[1] - Ts[0]
    kappa_1 = equilibrium.ITP_KAPPA1 / w
    # an array ** 2 multiplies, a float ** 2 calls pow: square by hand
    assert equilibrium.ITP_KAPPA2 == 2
    n_max = math.ceil(math.log2(w / (2 * eps))) + equilibrium.ITP_N0
    roots = []
    for i in range(len(Ts) - 1):
        if E[i] == 0 or E[i] * E[i + 1] < 0:
            a, b, ea, eb, N = Ts[i], Ts[i + 1], E[i], E[i + 1], comps[i]
            b = a if ea == 0 else b
            k = 0
            while b - a > 2 * eps:
                half, x_f = 0.5 * (a + b), a + (b - a) / (1 - eb / ea)
                sigma = np.sign(half - x_f)
                delta = kappa_1 * ((b - a) * (b - a))
                x_t = x_f + sigma * delta if delta <= abs(half - x_f) else half
                r = eps * 2.0 ** (n_max - k) - 0.5 * (b - a)
                x = x_t if abs(x_t - half) <= r else half - sigma * r
                N = mass_balance_steady(net, x, q, N0=N)
                ex = _energy(net, q, T_w, x, N)
                if ex == 0:
                    a = b = x
                elif (ex < 0) != (ea < 0):
                    b, eb = x, ex
                else:
                    a, ea = x, ex
                k += 1
            T = 0.5 * (a + b)
            roots.append((T, mass_balance_steady(net, T, q, N0=N)))
    return roots


def test_failed_cold_starts_are_retried_warm(monkeypatch):
    net = parse_network(NONLINEAR)
    q = presets.Q_STAR
    Ts = np.linspace(250.0, 500.0, 2000)
    # with the default cap every cold start converges
    assert mass_balance_steady(net, Ts, q).shape == (2000, 2)
    serial = _serial_roots(net, q, NONLINEAR_TW, Ts)
    # a lower cap fails most cold starts; the scan retries them warm
    monkeypatch.setattr(equilibrium, "MAX_NEWTON_ITER", 5)
    with pytest.raises(ConvergenceError) as info:
        mass_balance_steady(net, Ts, q)
    assert (~info.value.converged).sum() == 1409
    roots = steady_states(net, q, NONLINEAR_TW)
    assert len(roots) == len(serial) == 1
    for r, (T, N) in zip(roots, serial):
        assert r.T == pytest.approx(T, rel=1e-8)
        np.testing.assert_allclose(r.N, N, rtol=1e-8)
    # the default window
    assert [r.classification for r in steady_states(net, q, 299.4922)] == [
        "stable"]


def test_lockstep_itp_equals_bracket_by_bracket(net, roots):
    q, T_w = roots[0].q, roots[0].T_w
    Ts = np.linspace(250.0, 500.0, 2000)
    serial = _serial_roots(net, q, T_w, Ts, mass_balance_steady(net, Ts, q))
    assert [r.T for r in roots] == [T for T, _ in serial]
    np.testing.assert_array_equal([r.N for r in roots], [N for _, N in serial])


@settings(max_examples=25, deadline=None)
@given(q=st.floats(0.995 * presets.Q_STAR, 1.005 * presets.Q_STAR),
       T_w=st.floats(299.2922, 299.6922))
def test_itp_rounds_stay_within_bisection_bound(net, q, T_w):
    # over the benchmark's band: every scan takes at most n_0 rounds more
    # than bisection to 2 eps, and E changes sign across each root +- eps
    calls = []

    def counted(net, T, q, N0=None):
        calls.append(np.size(T))
        return mass_balance_steady(net, T, q, N0=N0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equilibrium, "mass_balance_steady", counted)
        found = steady_states(net, q, T_w)
    eps, w = equilibrium.ROOT_EPS, 250.0 / 1999
    bound = math.ceil(math.log2(w / (2 * eps))) + equilibrium.ITP_N0
    # one grid solve, the ITP rounds, one final solve
    assert calls[0] == 2000 and len(found) == 3
    assert len(calls) - 2 <= bound
    for r in found:
        Ts = np.array([r.T - eps, r.T + eps])
        E = _energy(net, q, T_w, Ts, mass_balance_steady(net, Ts, q, N0=r.N))
        assert np.sign(E[0]) == -np.sign(E[1]) != 0


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES.md FOUND, the ITP worst case: one bracket end at the energy "
    "residual's rounding floor keeps the truncation on one side of the "
    "root until the projection forces bisection-sized steps, 19 rounds"))
@pytest.mark.parametrize("q, T_w", [
    (9.114337509654208e-06, 299.6230563605849),
    (9.195478168245587e-06, 299.3261669276579)], ids=["seed605", "seed786"])
def test_itp_worst_case_takes_at_most_nine_rounds(net, q, T_w, monkeypatch):
    # the benchmark's equilibria draws for seeds 605 and 786 take 19 ITP
    # rounds, where the default scan and seeds 1-3 take 4
    calls = []
    monkeypatch.setattr(equilibrium, "mass_balance_steady",
                        _counting(calls, mass_balance_steady))
    assert len(steady_states(net, q, T_w)) == 3
    assert len(calls) - 2 <= 9  # one grid solve, the rounds, one final solve


def test_bundled_default_roots_are_stationary_to_1e_11(net):
    found = steady_states(net, presets.Q_STAR, 299.4922)
    assert [r.classification for r in found] == ["stable", "unstable",
                                                 "stable"]
    for r in found:
        x = np.concatenate([[r.U], r.N])
        assert drift_residual(net, x, np.array([r.q, r.Qdot])) < 1e-11


def test_huge_flow_scan_warns_of_nothing(net):
    # q = 1e150 makes residual products overflow; the scan compares signs,
    # so the first thing it raises is the feed-limit root's mole floor
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ThermoDomainError,
                           match="mole numbers must exceed"):
            steady_states(net, 1e150, 299.4922)


def test_exact_zero_of_the_energy_residual_is_a_root(net, monkeypatch):
    # with the feed enthalpy gap g00 stubbed to 0, E(T) = lambda (T_w - T)
    # is exactly 0 at T = T_w: a grid point there is a bracket of zero
    # width, and an ITP point that lands there closes its bracket
    flow_column = kernel.flow_column

    def no_gap(net, N, h):
        g00, dc, c = flow_column(net, N, h)
        return 0.0 * g00, dc, c

    monkeypatch.setattr(kernel, "flow_column", no_gap)
    q = presets.Q_STAR
    # 320 K is grid point 560 of a 0.125 K grid
    assert [r.T for r in steady_states(net, q, 320.0, grid=2001)] == [320.0]
    # [319, 321]: the first ITP point is the secant point 320 K
    assert [r.T for r in steady_states(net, q, 320.0, T_range=(319.0, 321.0),
                                       grid=2)] == [320.0]


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


_BAD_RANGES = [
    ((400.0, 300.0), 2000), ((300.0, 300.0), 2000), ((-10.0, 500.0), 2000),
    ((0.0, 500.0), 2000), ((250.0, np.inf), 2000), ((np.nan, 500.0), 2000),
    ((250.0, 500.0), 1), ((250.0, 500.0), 0), ((250.0, 500.0), -5),
]
_BAD_INPUTS = [(0.0, 299.4922, "q=0.0"), (-1e-6, 299.4922, "q=-1e-06"),
               (np.nan, 299.4922, "q=nan"), (np.inf, 299.4922, "q=inf"),
               (9.15e-6, np.nan, "T_w=nan"), (9.15e-6, -np.inf, "T_w=-inf")]


@pytest.mark.parametrize("T_range, grid, q, T_w, named", [
    *(pytest.param(T_range, grid, 9.15e-6, 299.4922, "T_range=",
                   id=f"T_range{i}-{grid}")
      for i, (T_range, grid) in enumerate(_BAD_RANGES)),
    *(pytest.param((250.0, 500.0), 2000, q, T_w, named, id=named)
      for q, T_w, named in _BAD_INPUTS),
])
def test_scan_range_is_validated(net, T_range, grid, q, T_w, named):
    with pytest.raises(ValueError, match="grid >= 2 and 0 < Tmin < Tmax") as err:
        steady_states(net, q, T_w, T_range=T_range, grid=grid)
    assert named in str(err.value)


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
        return sde_fields(net, st, uu).drift

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


def _scans(net):
    """(network, q, T_w) of the bundled default scan, the 2 A -> B scan and
    20 seeded draws from the benchmark's band (q* +- 0.5 %, T_w +- 0.2 K)."""
    rng = np.random.default_rng(25)
    return [(net, presets.Q_STAR, 299.4922),
            (parse_network(NONLINEAR), presets.Q_STAR, NONLINEAR_TW),
            *((net, presets.Q_STAR * (1.0 + rng.uniform(-0.005, 0.005)),
               299.4922 + rng.uniform(-0.2, 0.2)) for _ in range(20))]


def test_batched_tail_equals_each_root_alone(net):
    """The scan classifies its roots in one batch and the CLI takes their
    residuals in one: every root's label, eigenvalues and residual have
    the bits of the one-root classify and drift_residual calls."""
    for network, q, T_w in _scans(net):
        roots = steady_states(network, q, T_w)
        assert roots
        x = np.array([np.concatenate(([r.U], r.N)) for r in roots])
        u = np.array([[r.q, r.Qdot] for r in roots])
        residuals = drift_residual(network, x, u)
        for r, xr, ur, residual in zip(roots, x, u, residuals):
            label, eigs = classify(network, xr, ur,
                                   jacket=(network.reactor.lam, T_w))
            assert r.classification == label
            _same_bits(r.eigenvalues, eigs)
            assert residual.hex() == drift_residual(network, xr, ur).hex()


def test_batched_classify_keeps_each_spectrum_as_alone(net):
    # random states and inputs, some with complex spectra: each row keeps
    # its own dtype, which eigvals gives a whole stack
    rng = np.random.default_rng(3)
    Ts, Ns = random_states(net, 40, rng)
    x = np.array([ThermoState.from_temperature(net, N, T).x
                  for T, N in zip(Ts, Ns)])
    u = np.column_stack((presets.Q_STAR * rng.uniform(0.5, 2.0, len(x)),
                         rng.uniform(-100.0, 100.0, len(x))))
    for jacket in (None, (net.reactor.lam, 300.0)):
        labels, eigs = classify(net, x, u, jacket=jacket)
        assert {e.dtype.kind for e in eigs} == {"c", "f"}
        for xr, ur, label, e in zip(x, u, labels, eigs):
            alone = classify(net, xr, ur, jacket=jacket)
            assert label == alone[0]
            _same_bits(e, alone[1])


def test_bad_row_in_a_batch_raises_its_own_error(net, roots):
    x = np.array([np.concatenate(([r.U], r.N)) for r in roots])
    u = np.array([[r.q, r.Qdot] for r in roots])
    U_cold = ThermoState.from_temperature(net, np.array([1.0, 1.0]), 1e-5).U
    bad_rows = {
        classify: [[x[0, 0], 1.0, 1e-6], [U_cold, 1.0, 1.0]],
        drift_residual: [[x[0, 0], 1.0, math.nan], [x[0, 0], 1.0, 0.0],
                         [x[0, 0], math.inf, 1.0], [-1e12, 1.0, 1.0],
                         [math.inf, 1.0, 1.0], [math.nan, 1.0, 1.0]],
    }
    for call, rows in bad_rows.items():
        for bad in map(np.array, rows):
            with pytest.raises(ThermoDomainError) as alone:
                call(net, bad, u[1])
            with pytest.raises(ThermoDomainError) as batch:
                call(net, np.vstack((x[:1], bad, x[1:])),
                     np.vstack((u, u[:1])))
            assert str(batch.value) == str(alone.value)
    # of several bad rows, drift_residual names the first, as ThermoState,
    # and so does classify
    rows = np.array(bad_rows[drift_residual][::-1])
    with pytest.raises(ThermoDomainError, match="temperature nan K"):
        drift_residual(net, rows, np.tile(u[0], (len(rows), 1)))
    rows = np.array(bad_rows[classify][::-1])
    with pytest.raises(ThermoDomainError) as alone:
        classify(net, rows[0], u[0])
    assert "temperature" in str(alone.value)
    with pytest.raises(ThermoDomainError) as batch:
        classify(net, rows, u[:2])
    assert str(batch.value) == str(alone.value)
    # rows of the wrong width
    with pytest.raises(ThermoDomainError, match="needs 2 entries"):
        classify(net, np.ones((2, 4)), u[:2])
    with pytest.raises(ThermoDomainError, match=r"shape \(2,\), got \(3,\)"):
        drift_residual(net, np.ones((2, 4)), u[:2])


def _counting(calls, f):
    def counted(*args, **kwargs):
        calls.append(f.__name__)
        return f(*args, **kwargs)
    return counted


@pytest.mark.parametrize("network, T_w", [
    (presets.CONFIG_TEXT, 299.4922), (NONLINEAR, NONLINEAR_TW)],
    ids=["bundled", "2A"])
def test_scan_solves_six_times_and_classifies_once(network, T_w,
                                                   monkeypatch):
    """The grid, 4 ITP rounds and the final solve, then one classify call
    for all roots."""
    calls = []
    for f in (mass_balance_steady, classify):
        monkeypatch.setattr(equilibrium, f.__name__, _counting(calls, f))
    assert len(steady_states(parse_network(network), presets.Q_STAR, T_w))
    assert calls == ["mass_balance_steady"] * 6 + ["classify"]
