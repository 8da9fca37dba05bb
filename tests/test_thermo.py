"""Thermodynamic closures against hand-verifiable oracles and finite
differences.

The frozen numbers below come from independent evaluation of the closed
forms: h_j = cp_j (T - T_ref) + h_ref_j, U = N^T h - P V, and the ideal
mixing entropy.  For the benchmark at N = (1.3, 0.7) mol, T = 331.9 K:
h = (75.24*31.9, 60*31.9 - 4575) = (2400.156, -2661), and
U = 1.3*2400.156 + 0.7*(-2661) - 1e5*1e-3 = 1157.5028 J.
"""

import numpy as np
import pytest

from conftest import random_states
from phreactor.thermo import (
    N_FLOOR,
    ThermoDomainError,
    ThermoState,
    enthalpy,
    entropy,
    internal_energy,
    neg_entropy_gradient,
    neg_entropy_hessian,
    temperature,
)


def test_internal_energy_oracle(net):
    assert internal_energy(net, [1.3, 0.7], 331.9) == pytest.approx(
        1157.502799999997, abs=1e-9)
    assert internal_energy(net, [1.0, 1.0], 342.0) == pytest.approx(
        1005.0799999999999, abs=1e-9)


def test_enthalpy_oracle(net):
    np.testing.assert_allclose(enthalpy(net, 331.9), [2400.156, -2661.0],
                               rtol=1e-12)
    # at the reference temperature the enthalpy is the reference enthalpy
    np.testing.assert_allclose(enthalpy(net, 300.0), [0.0, -4575.0],
                               atol=1e-12)


def test_temperature_oracle(net):
    assert temperature(net, 1157.5, [1.3, 0.7]) == pytest.approx(
        331.8999799731067, abs=1e-12)


def test_entropy_and_potential_oracles(net):
    assert entropy(net, [1.0, 1.0], 342.0) == pytest.approx(
        260.04591352619286, rel=1e-13)
    assert entropy(net, [1.3, 0.7], 331.9) == pytest.approx(
        216.81391924974463, rel=1e-13)
    np.testing.assert_allclose(
        ThermoState.from_temperature(net, [1.3, 0.7], 331.9).mu_over_T,
        [-54.55306104, -203.00877093], atol=5e-9)


def test_temperature_inversion_round_trip(net):
    rng = np.random.default_rng(11)
    Ts, Ns = random_states(net, 200, rng, T_range=(260.0, 480.0),
                           logN_range=(-3.0, 1.0))
    for T, N in zip(Ts, Ns):
        U = internal_energy(net, N, T)
        assert abs(temperature(net, U, N) - T) < 1e-9


def test_euler_identity(net):
    """U/T + PV/T - (mu/T)^T N = S for the ideal mixture."""
    rng = np.random.default_rng(12)
    PV = net.reactor.P * net.reactor.V
    Ts, Ns = random_states(net, 100, rng)
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(net, N, T)
        lhs = st.U / st.T + PV / st.T - float(st.mu_over_T @ st.N)
        assert abs(lhs - st.S) <= 1e-10 * abs(st.S)


def test_gradient_matches_finite_differences(net):
    rng = np.random.default_rng(13)
    Ts, Ns = random_states(net, 30, rng)
    for T, N in zip(Ts, Ns):
        x = ThermoState.from_temperature(net, N, T).x
        grad = neg_entropy_gradient(net, x)
        fd = np.empty_like(grad)
        for i in range(x.size):
            h = 3e-6 * max(abs(x[i]), 1.0)
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (-entropy(net, xp[1:], temperature(net, xp[0], xp[1:]))
                     + entropy(net, xm[1:], temperature(net, xm[0], xm[1:]))
                     ) / (2.0 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-6)


def test_hessian_matches_finite_differences(net):
    rng = np.random.default_rng(14)
    Ts, Ns = random_states(net, 20, rng)
    for T, N in zip(Ts, Ns):
        x = ThermoState.from_temperature(net, N, T).x
        H = neg_entropy_hessian(net, x)
        fd = np.empty_like(H)
        for i in range(x.size):
            h = 3e-6 * max(abs(x[i]), 1.0)
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[:, i] = (neg_entropy_gradient(net, xp)
                        - neg_entropy_gradient(net, xm)) / (2.0 * h)
        scale = np.abs(H).max()
        np.testing.assert_allclose(H, fd, atol=1e-5 * scale, rtol=1e-5)


def test_hessian_positive_semidefinite(net):
    rng = np.random.default_rng(15)
    Ts, Ns = random_states(net, 100, rng, T_range=(260.0, 480.0),
                           logN_range=(-3.0, 1.0))
    for T, N in zip(Ts, Ns):
        H = neg_entropy_hessian(net, ThermoState.from_temperature(net, N, T))
        eigs = np.linalg.eigvalsh(H)
        assert eigs[0] >= -1e-12 * max(1.0, eigs[-1])


def test_hessian_symmetry(net):
    H = neg_entropy_hessian(net, ThermoState.from_temperature(
        net, np.array([1.3, 0.7]), 331.9))
    np.testing.assert_array_equal(H, H.T)
    assert H[0, 0] == pytest.approx(1.0 / 15401355.769319996, rel=1e-12)


def test_state_constructors_agree(net):
    st1 = ThermoState.from_temperature(net, np.array([1.3, 0.7]), 331.9)
    st2 = ThermoState.from_vector(net, st1.x)
    assert st2.T == pytest.approx(st1.T, abs=1e-10)
    assert st2.S == pytest.approx(st1.S, rel=1e-12)
    np.testing.assert_array_equal(st1.x, np.concatenate(([st1.U], st1.N)))


def test_domain_errors(net):
    with pytest.raises(ThermoDomainError):
        temperature(net, 1000.0, [1.0, 0.0])
    with pytest.raises(ThermoDomainError):
        temperature(net, 1000.0, [1.0, N_FLOOR])
    with pytest.raises(ThermoDomainError):
        internal_energy(net, [1.0], 300.0)  # wrong length
    with pytest.raises(ThermoDomainError):
        # energy low enough to push the temperature negative
        temperature(net, -1e6, [1.0, 1.0])
    with pytest.raises(ThermoDomainError):
        enthalpy(net, -10.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("T", [0.0, -5.0, np.nan, np.inf])
@pytest.mark.parametrize("closure", [
    lambda net, T: internal_energy(net, [1.0, 1.0], T),
    lambda net, T: enthalpy(net, T),
    lambda net, T: entropy(net, [1.0, 1.0], T),
    lambda net, T: ThermoState.from_temperature(net, [1.0, 1.0], T),
], ids=["internal_energy", "enthalpy", "entropy", "from_temperature"])
def test_temperature_must_be_finite_and_positive(net, closure, T):
    with pytest.raises(ThermoDomainError, match=f"temperature {T} K"):
        closure(net, T)
