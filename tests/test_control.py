"""Feedback synthesis: gain validation, the implicit feedthrough solve, the
flow clamp, and the jacket-temperature realization."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import random_states
from phreactor import presets
from phreactor.control import (
    Q_MAX_DEFAULT,
    ControllerGains,
    control_law,
    control_law_diagonal,
    jacket_temperature,
    solve_feedback,
)
from phreactor.sim import SimConfig, simulate
from phreactor.thermo import ThermoState
from phreactor.transform import make_setpoint, transformed_output


def test_gains_validation():
    with pytest.raises(ValueError):
        ControllerGains(np.ones((2, 3)))
    # one row and column per input (q, Qdot): a square gain of another size
    # is named by its shape, not left to fail inside solve_feedback
    for bad, shape in ((np.eye(3), r"\(3, 3\)"), ([[1e-7]], r"\(1, 1\)")):
        with pytest.raises(ValueError, match=f"must be 2 x 2, got {shape}"):
            ControllerGains(bad)
    with pytest.raises(ValueError):
        ControllerGains(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        ControllerGains(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        ControllerGains(np.zeros((2, 2)))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="gain matrix must be finite"):
            ControllerGains.diagonal(bad, 27430.0)
        with pytest.raises(ValueError, match="gain matrix must be finite"):
            ControllerGains(np.array([[1.0, bad], [bad, 1.0]]))
    K = ControllerGains.diagonal(1.64e-7, 27430.0).K
    np.testing.assert_array_equal(K, np.diag([1.64e-7, 27430.0]))


def test_benchmark_action_at_initial_state(net, sp, gains, x0):
    a = control_law(net, sp, gains, x0)
    assert a.q == pytest.approx(0.000913191679643401, rel=1e-12)
    assert a.Qdot == pytest.approx(-2.4406914599784155, rel=1e-12)
    assert a.T_w == pytest.approx(299.9770754135948, rel=1e-12)
    assert not a.saturated
    assert a.q_raw == a.q
    np.testing.assert_array_equal(a.u, [a.q, a.Qdot])
    # close to the published operating figures for this benchmark
    assert abs(a.q - 9.15e-4) < 3e-6
    assert abs(a.T_w - 299.97) < 0.05


def test_control_law_accepts_state_or_vector(net, sp, gains, x0):
    st = ThermoState.from_vector(net, x0)
    a1 = control_law(net, sp, gains, x0)
    a2 = control_law(net, sp, gains, st)
    assert a1 == a2


def test_general_matches_diagonal_closed_form(net, sp, gains):
    rng = np.random.default_rng(23)
    Ts, Ns = random_states(net, 50, rng)
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(net, N, T)
        a = control_law(net, sp, gains, st, clamp=False)
        q, Qdot = control_law_diagonal(net, sp, 1.64e-7, 27430.0, st)
        assert a.q == pytest.approx(q, rel=1e-12, abs=1e-300)
        assert a.Qdot == pytest.approx(Qdot, rel=1e-12, abs=1e-300)


def test_feedback_fixed_point_identity(net, sp, gains):
    # u solves u = -K y(x, u) with y the transformed passive output
    rng = np.random.default_rng(29)
    Ts, Ns = random_states(net, 25, rng)
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(net, N, T)
        u = control_law(net, sp, gains, st, clamp=False).u
        y = transformed_output(net, sp, st.x, u)
        lhs = u
        rhs = -gains.K @ y
        scale = max(float(np.abs(lhs).max()), 1e-30)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-12 * scale)
        # the closed loop extracts energy through the passive port
        assert float(y @ u) <= 1e-25


def test_clamp_low_engages(net, sp, gains):
    st = ThermoState.from_temperature(net, np.array([1.9, 0.1]), 300.0)
    a = control_law(net, sp, gains, st)
    assert a.q_raw < 0
    assert a.q == 0.0
    assert a.saturated
    free = control_law(net, sp, gains, st, clamp=False)
    assert not free.saturated
    assert free.q == free.q_raw == a.q_raw
    assert free.Qdot == a.Qdot  # heat channel is never clamped


def test_clamp_high_engages(net, sp, gains, x0):
    a = control_law(net, sp, gains, x0, q_max=1e-6)
    assert a.q == 1e-6
    assert a.saturated
    assert a.q_raw > 1e-6
    default = control_law(net, sp, gains, x0)
    assert default.q <= Q_MAX_DEFAULT


def test_jacket_temperature_oracle(net):
    assert jacket_temperature(net, -0.5808, 342.0) == pytest.approx(332.0,
                                                                    rel=1e-12)
    assert jacket_temperature(net, 0.0, 310.0) == 310.0


def test_no_heat_path_makes_jacket_undefined(net, sp, gains, x0):
    adiabatic = dataclasses.replace(
        net, reactor=dataclasses.replace(net.reactor, lam=0.0))
    with pytest.raises(ValueError):
        jacket_temperature(adiabatic, -1.0, 300.0)
    a = control_law(adiabatic, sp, gains, x0)
    assert math.isnan(a.T_w)


def test_solve_feedback_matches_linear_algebra():
    rng = np.random.default_rng(31)
    for _ in range(20):
        A = rng.standard_normal((2, 2))
        K = A @ A.T + 0.1 * np.eye(2)
        d1, d2 = rng.uniform(0.0, 2.0, size=2)
        o1, o2 = rng.standard_normal(2)
        u = solve_feedback(K, d1, d2, o1, o2)
        ref = -np.linalg.solve(np.eye(2) + K @ np.diag([d1, d2]),
                               K @ np.array([o1, o2]))
        np.testing.assert_allclose(u, ref, rtol=1e-11, atol=1e-14)


@pytest.mark.parametrize("setpoint, Qdot_star, T_at", [
    ("bundled", -2.26, (331.970534, 332.884544, 333.435872)),
    ("exact", -1.88, (331.718351, 332.643470, 333.200458)),
], ids=["bundled", "exact"])
def test_coded_law_settles_off_the_target(net, gains, x0, setpoint,
                                          Qdot_star, T_at):
    """Pins, without judging, how the coded law meets x*: grad A = 0 there
    gives u(x*) = (0, 0), though x* is held by u* = (q*, Qdot*), so the
    deterministic loop passes near T* = 331.9 K about t = 10 s and settles
    about 1.5 K above it on its slow modes (time constants near 100 s)."""
    sp = (presets.benchmark_setpoint(net) if setpoint == "bundled"
          else make_setpoint(net, presets.T_STAR, presets.Q_STAR))
    assert (sp.q_star, round(sp.Qdot_star, 2)) == (presets.Q_STAR, Qdot_star)
    action = control_law(net, sp, gains, sp.x_star)
    assert (action.q, action.Qdot) == (0.0, 0.0)
    tr = simulate(net, sp, gains, SimConfig(dt=1e-2, t_end=1000.0,
                                            mode="deterministic",
                                            record_every=1000), x0)
    np.testing.assert_array_equal(tr.times[[1, 10, 100]], [10.0, 100.0, 1000.0])
    np.testing.assert_allclose(tr.T[[1, 10, 100]], T_at, rtol=1e-6)
