"""Ideal-mixture thermodynamic closures for the reactor state.

The extensive state is x = (U, N) with internal energy U (J) and mole
numbers N (mol); the vessel volume and pressure are constant.  With
per-species constant heat capacities the closures are explicit:

    U(N, T)    = sum_j N_j (cp_j (T - T_ref) + h_ref_j) - P V
    h_j(T)     = cp_j (T - T_ref) + h_ref_j
    mu_j / T   = -cp_j ln(T/T_ref) + R ln(N_j / sum N) - s_ref_j + h_j / T
    S(N, T)    = sum_j N_j (cp_j ln(T/T_ref) + s_ref_j - R ln(N_j / sum N))

Temperature inverts the first line in closed form.  The gradient of -S in
x is (-1/T, (mu/T)^T) and its Hessian is

    [ 1/theta          -h^T/theta                                   ]
    [ -h/theta   h h^T/theta - (R/sum N) 11^T + diag(R/N_j)         ]

with theta = T^2 sum_j N_j cp_j.  The Hessian is positive semidefinite on
the physical domain, which makes -S a valid convex storage candidate.

A :class:`ThermoState` evaluates its closures on numpy float64 scalars, so
an extreme state warns as numpy does; the mole numbers are checked as
Python floats, and the formulas that read a state downstream run on the
network's float view (:func:`kernel.on_floats`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .network import ReactionNetwork

#: Mole numbers at or below this floor (mol) are outside the domain of the
#: logarithmic closures.
N_FLOOR = 1e-12


class ThermoDomainError(ValueError):
    """State outside the domain of the thermodynamic closures."""


def _as_moles(net: ReactionNetwork, N) -> np.ndarray:
    N = np.asarray(N, dtype=float)
    if N.shape != (net.n_species,):
        raise ThermoDomainError(
            f"N must have shape ({net.n_species},), got {N.shape}")
    if not all(map(math.isfinite, values := N.tolist())):
        raise ThermoDomainError(f"mole numbers must be finite, got {values}")
    if min(values, default=math.inf) <= N_FLOOR:
        raise ThermoDomainError(f"mole numbers must exceed {N_FLOOR} mol, "
                                f"got {values}")
    return N


def _positive(T: float) -> float:
    if not 0 < T < np.inf:
        raise ThermoDomainError(f"temperature {T} K is not finite and positive")
    return T


def temperature(net: ReactionNetwork, U: float, N) -> float:
    """Invert U(N, T) for T.  Raises if the result is not positive."""
    return _positive(kernel.temperature(net, U, _as_moles(net, N)))


def internal_energy(net: ReactionNetwork, N, T: float) -> float:
    """U(N, T) in J."""
    N = _as_moles(net, N)
    return float(kernel.dot(N, enthalpy(net, T))) - net.step_constants.PV


def enthalpy(net: ReactionNetwork, T: float) -> np.ndarray:
    """Molar enthalpies h_j(T) in J/mol."""
    return np.array(kernel.enthalpy(net, _positive(T)))


def entropy(net: ReactionNetwork, N, T: float) -> float:
    """Mixture entropy S(N, T) in J/K."""
    return kernel.closures(net, _as_moles(net, N), _positive(T))[2]


@dataclass(frozen=True)
class ThermoState:
    """An evaluated state: (U, N) together with the derived intensive
    quantities used everywhere downstream."""

    U: float
    N: np.ndarray
    T: float
    h: np.ndarray
    mu_over_T: np.ndarray
    S: float
    theta: float

    @classmethod
    def from_temperature(cls, net: ReactionNetwork, N, T: float) -> "ThermoState":
        N, U = _as_moles(net, N), internal_energy(net, N, T)
        if not 0 < (T_U := kernel.temperature(net, U, N)) < np.inf:
            raise ThermoDomainError(f"temperature {T} K gives T(U, N) = {T_U} "
                                    "K, which is not finite and positive")
        return cls._build(net, U, N, np.float64(T))

    @classmethod
    def from_vector(cls, net: ReactionNetwork, x) -> "ThermoState":
        x = np.asarray(x, dtype=float)
        N = _as_moles(net, x[1:])
        return cls._build(net, float(x[0]), N, temperature(net, x[0], N))

    @classmethod
    def _build(cls, net, U, N, T):
        h, mu_over_T, S, theta = kernel.closures(net, N, T)
        return cls(U, N, T, np.array(h), np.array(mu_over_T), S, theta)

    @property
    def x(self) -> np.ndarray:
        """Full state vector (U, N_1, ..., N_p)."""
        return np.concatenate(([self.U], self.N))


def as_state(net: ReactionNetwork, state) -> ThermoState:
    """The :class:`ThermoState` itself, or one built from (U, N_1, ..., N_p)."""
    if isinstance(state, ThermoState):
        return state
    return ThermoState.from_vector(net, state)


def neg_entropy_gradient(net: ReactionNetwork, state) -> np.ndarray:
    """Gradient of -S with respect to (U, N): (-1/T, (mu/T)^T)."""
    st = as_state(net, state)
    return np.concatenate(([-1.0 / st.T], st.mu_over_T))


def neg_entropy_hessian(net: ReactionNetwork, state) -> np.ndarray:
    """Hessian of -S with respect to (U, N); positive semidefinite."""
    st = as_state(net, state)
    p, R = net.n_species, net.reactor.R_gas
    H = np.empty((p + 1, p + 1))
    H[0, 0] = 1.0 / st.theta
    H[0, 1:] = -st.h / st.theta
    H[1:, 0] = H[0, 1:]
    H[1:, 1:] = (np.outer(st.h, st.h) / st.theta
                 - (R / st.N.sum()) * np.ones((p, p)) + np.diag(R / st.N))
    return H
