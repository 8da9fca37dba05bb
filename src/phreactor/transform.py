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
from .equilibrium import mass_balance_steady
from .network import ReactionNetwork
from .thermo import ThermoState, as_state, neg_entropy_hessian


@dataclass(frozen=True)
class Setpoint:
    """A target state and the constant inputs that hold it.

    ``pi_star`` is the costate (1/T*, -(mu*/T*)^T) and ``S_star`` the
    entropy S(x*), both entering the availability.  The drift residual at
    (x*, u*) (:func:`equilibrium.drift_residual`) is zero to rounding for
    an exactly solved setpoint and small-but-nonzero for a rounded one.
    """

    U_star: float
    N_star: np.ndarray
    T_star: float
    q_star: float
    Qdot_star: float
    pi_star: np.ndarray
    mu_star_over_T: np.ndarray
    V_star: float
    S_star: float

    @property
    def x_star(self) -> np.ndarray:
        return np.concatenate(([self.U_star], self.N_star))

    @property
    def u_star(self) -> np.ndarray:
        return np.array([self.q_star, self.Qdot_star])


def make_setpoint(net: ReactionNetwork, T_star: float, q_star: float) -> Setpoint:
    """Construct the setpoint held by (q*, Qdot*) at temperature T*.

    The target composition solves the stationary mole balance at (T*, q*)
    exactly; the heat input Qdot* then balances the energy equation, so
    the drift at (x*, u*) is at rounding level.
    """
    return setpoint_from_state(net, mass_balance_steady(net, T_star, q_star),
                               T_star, q_star)


def setpoint_from_state(net: ReactionNetwork, N_star, T_star: float,
                        q_star: float) -> Setpoint:
    """Build a setpoint from a given target composition (e.g. a published
    rounded operating point) instead of solving the mole balance.

    Qdot* still balances the energy equation at (N*, T*, q*); the mole
    balance is left with the mismatch of the given composition.
    """
    st = ThermoState.from_temperature(net, N_star, T_star)
    Qdot_star = -q_star * kernel.flow_column(net, st.N, st.h)[0]
    pi_star = np.concatenate(([1.0 / T_star], -st.mu_over_T))
    return Setpoint(
        U_star=st.U,
        N_star=st.N.copy(),
        T_star=float(T_star),
        q_star=float(q_star),
        Qdot_star=float(Qdot_star),
        pi_star=pi_star,
        mu_star_over_T=st.mu_over_T.copy(),
        V_star=net.reactor.V,
        S_star=st.S,
    )


class AvailabilityHamiltonian:
    """The availability as a scalar field usable with the Ito generator
    and the passivity checks."""

    def __init__(self, net: ReactionNetwork, sp: Setpoint):
        self.net = net
        self.sp = sp

    def value(self, x) -> float:
        """A(x) = S(x*) - S(x) + pi*^T (x - x*); nonnegative, zero at x*."""
        sp, st = self.sp, as_state(self.net, x)
        return kernel.availability(sp.S_star, sp.pi_star, sp.x_star, st.S, st.x)

    def gradient(self, x) -> np.ndarray:
        """grad A = (1/T* - 1/T, (mu/T - mu*/T*)^T)."""
        st = as_state(self.net, x)
        grad_U, grad_N = kernel.availability_gradient(
            self.sp.T_star, self.sp.mu_star_over_T, st.T, st.mu_over_T)
        return np.concatenate(([grad_U], grad_N))

    def hessian(self, x) -> np.ndarray:
        """Hess A = Hess(-S); the shift is affine."""
        return neg_entropy_hessian(self.net, x)


def transformed_output(net: ReactionNetwork, sp: Setpoint, x, u) -> np.ndarray:
    """Passive output for the shifted system: y = g^T grad A + delta u."""
    st = as_state(net, x)
    d1, d2, o1, o2, *_ = kernel.feedback_terms(net, st.N, st.T, sp.T_star,
                                               sp.mu_star_over_T)
    return np.array([o1, o2]) + np.array([d1, d2]) * np.asarray(u, dtype=float)


def equivalence_residual(net: ReactionNetwork, sp: Setpoint, x) -> float:
    """Norm of R(x) pi*, that is of R_NN pi*_N (log-mean weights): the
    obstruction to carrying the dissipation structure through the setpoint
    shift unchanged.

    Zero (to rounding) when the target composition has zero net affinity,
    strictly positive for flow-sustained targets away from reaction
    equilibrium.
    """
    st = as_state(net, x)
    rates = kernel.mass_action(net, st.N / net.reactor.V,
                               kernel.rate_constants(net, st.T))
    return float(np.linalg.norm(kernel.damping_apply(
        net, kernel.damping_weights(net, *rates, st.T), st.T, sp.pi_star[1:])))
