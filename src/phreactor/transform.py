"""Setpoints and the shifted availability storage function.

A setpoint fixes a target state x* = (U*, N*) held by constant inputs
u* = (q*, Qdot*).  Around it the availability

    A(x) = S(x*) - S(x) + pi*^T (x - x*),   pi* = (1/T*, -(mu*/T*)^T)

is nonnegative, zero exactly at x*, and shares its Hessian with -S, so it
serves as a storage function for the setpoint-shifted dynamics.  Its
gradient is grad(-S)(x) - grad(-S)(x*).

Shifting moves the dissipation structure along unchanged only up to the
residual R(x) pi*, which vanishes when the target composition is at
reaction equilibrium (net affinity zero at x*) and is generally nonzero
for flow-sustained targets; :func:`equivalence_residual` reports its size
so callers can judge how far a given target is from the ideal shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .equilibrium import drift_residual, mass_balance_steady
from .network import ReactionNetwork
from .thermo import ThermoState, neg_entropy_hessian
from .structure import damping_matrix, input_matrix, mixing_noise_scale


@dataclass(frozen=True)
class Setpoint:
    """A target state and the constant inputs that hold it.

    ``pi_star`` is the costate (1/T*, -(mu*/T*)^T) and ``S_star`` the
    entropy S(x*), both entering the availability; ``drift_residual``
    records the scaled norm of the deterministic drift at (x*, u*), which
    is zero for an exactly solved setpoint and small-but-nonzero for a
    rounded one.
    """

    U_star: float
    N_star: np.ndarray
    T_star: float
    q_star: float
    Qdot_star: float
    pi_star: np.ndarray
    mu_star_over_T: np.ndarray
    V_star: float
    drift_residual: float
    S_star: float

    @property
    def x_star(self) -> np.ndarray:
        return np.concatenate(([self.U_star], self.N_star))

    @property
    def u_star(self) -> np.ndarray:
        return np.array([self.q_star, self.Qdot_star])


def _finish_setpoint(net: ReactionNetwork, N_star: np.ndarray, T_star: float,
                     q_star: float) -> Setpoint:
    st = ThermoState.from_temperature(net, N_star, T_star)
    Qdot_star = -q_star * kernel.flow_column(net, st.N, st.h)[0]
    pi_star = np.concatenate(([1.0 / T_star], -st.mu_over_T))
    residual = drift_residual(net, st.x, (q_star, Qdot_star))
    return Setpoint(
        U_star=st.U,
        N_star=st.N.copy(),
        T_star=float(T_star),
        q_star=float(q_star),
        Qdot_star=float(Qdot_star),
        pi_star=pi_star,
        mu_star_over_T=st.mu_over_T.copy(),
        V_star=net.reactor.V,
        drift_residual=residual,
        S_star=st.S,
    )


def make_setpoint(net: ReactionNetwork, T_star: float, q_star: float) -> Setpoint:
    """Construct the setpoint held by (q*, Qdot*) at temperature T*.

    The target composition solves the stationary mole balance at (T*, q*)
    exactly; the heat input Qdot* then balances the energy equation.  The
    returned ``drift_residual`` is at rounding level.
    """
    N_star = mass_balance_steady(net, T_star, q_star)
    return _finish_setpoint(net, N_star, T_star, q_star)


def setpoint_from_state(net: ReactionNetwork, N_star, T_star: float,
                        q_star: float) -> Setpoint:
    """Build a setpoint from a given target composition (e.g. a published
    rounded operating point) instead of solving the mole balance.

    Qdot* still balances the energy equation at (N*, T*, q*); the
    ``drift_residual`` field then reports how far the given composition is
    from an exact stationary point.
    """
    N_star = np.asarray(N_star, dtype=float)
    return _finish_setpoint(net, N_star, T_star, q_star)


def availability(net: ReactionNetwork, sp: Setpoint, x) -> float:
    """A(x) = S(x*) - S(x) + pi*^T (x - x*); nonnegative, zero at x*."""
    st = ThermoState.from_vector(net, x)
    return kernel.availability(sp.S_star, sp.pi_star, sp.x_star, st.S, st.x)


def availability_gradient(net: ReactionNetwork, sp: Setpoint, x) -> np.ndarray:
    """grad A = (1/T* - 1/T, (mu/T - mu*/T*)^T)."""
    st = ThermoState.from_vector(net, x)
    grad_U, grad_N = kernel.availability_gradient(
        sp.T_star, sp.mu_star_over_T, st.T, st.mu_over_T)
    return np.concatenate(([grad_U], grad_N))


def availability_hessian(net: ReactionNetwork, sp: Setpoint, x) -> np.ndarray:
    """Hess A = Hess(-S); the shift is affine."""
    return neg_entropy_hessian(net, x)


class AvailabilityHamiltonian:
    """The availability as a scalar field usable with the Ito generator
    and the passivity checks."""

    def __init__(self, net: ReactionNetwork, sp: Setpoint):
        self.net = net
        self.sp = sp

    def value(self, x) -> float:
        return availability(self.net, self.sp, x)

    def gradient(self, x) -> np.ndarray:
        return availability_gradient(self.net, self.sp, x)

    def hessian(self, x) -> np.ndarray:
        return availability_hessian(self.net, self.sp, x)


def transformed_output(net: ReactionNetwork, sp: Setpoint, x, u) -> np.ndarray:
    """Passive output for the shifted system: y = g^T grad A + delta u."""
    st = ThermoState.from_vector(net, x)
    delta = kernel.feedthrough(net, mixing_noise_scale(net, st), st.theta)
    return (input_matrix(net, st).T @ availability_gradient(net, sp, x)
            + np.array(delta) * np.asarray(u, dtype=float))


def equivalence_residual(net: ReactionNetwork, sp: Setpoint, x) -> float:
    """Norm of R(x) pi*: the obstruction to carrying the dissipation
    structure through the setpoint shift unchanged.

    Zero (to rounding) when the target composition has zero net affinity,
    strictly positive for flow-sustained targets away from reaction
    equilibrium.
    """
    st = ThermoState.from_vector(net, x)
    R = damping_matrix(net, st)
    return float(np.linalg.norm(R @ sp.pi_star))
