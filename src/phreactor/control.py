"""Passivity-based stabilizing feedback for the reactor.

The controller damps the passive output of the availability-shifted
system: with y = g^T grad A + delta u, the law u = -K y for a symmetric
positive definite gain K gives y^T u = -y^T K y <= 0.  Because the output
feeds through delta(x), solving the implicit relation gives the explicit
form

    u(x) = -(I + K delta(x))^(-1) K g(x)^T grad A(x).

Physically u = (q, Qdot): inlet/outlet flow and jacket heat.  The flow is
clamped to [0, q_max] by default (a pump cannot run backwards), and the
heat input is realized through a jacket at temperature T_w = Qdot/lambda + T.
At x*, grad A = 0 gives u(x*) = (0, 0), while x* is held by u* = (9.15e-6
m^3/s, -2.26 W): from the case study's start the deterministic loop settles
at 333.44 K (333.20 K on the exact setpoint), not at T* = 331.9 K; its slow
modes take about 100 s, so a 10 s horizon sees it pass near T*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .network import ReactionNetwork
from .thermo import as_state
from .transform import Setpoint

#: Default upper clamp on the flow input, m^3/s.
Q_MAX_DEFAULT = 1e-2


@dataclass(frozen=True)
class ControllerGains:
    """Symmetric positive definite gain on the passive output."""

    K: np.ndarray

    def __post_init__(self):
        K = np.atleast_2d(np.asarray(self.K, dtype=float))
        object.__setattr__(self, "K", K)
        if not np.all(np.isfinite(K)):
            raise ValueError("gain matrix must be finite")
        if K.shape != (2, 2):  # one row and column per input, q and Qdot
            raise ValueError(f"gain matrix must be 2 x 2, got {K.shape}")
        if not np.allclose(K, K.T):
            raise ValueError("gain matrix must be symmetric")
        if np.any(np.linalg.eigvalsh(K) <= 0):
            raise ValueError("gain matrix must be positive definite")

    @classmethod
    def diagonal(cls, k_flow: float, k_heat: float) -> "ControllerGains":
        return cls(np.diag([float(k_flow), float(k_heat)]))


@dataclass(frozen=True)
class ControlAction:
    """One evaluation of the feedback: applied inputs, jacket temperature,
    whether the flow clamp engaged, and the raw (unclamped) flow."""

    q: float
    Qdot: float
    T_w: float
    saturated: bool
    q_raw: float

    @property
    def u(self) -> np.ndarray:
        return np.array([self.q, self.Qdot])


def jacket_temperature(net: ReactionNetwork, Qdot: float, T: float) -> float:
    """Jacket temperature realizing a heat input: T_w = Qdot/lambda + T.

    Undefined for lambda = 0 (no heat transfer path)."""
    if net.reactor.lam == 0:
        raise ValueError("jacket temperature is undefined for lambda = 0")
    return kernel.jacket_temperature(net, Qdot, T)


def solve_feedback(K: np.ndarray, d1: float, d2: float, o1: float,
                   o2: float) -> tuple[float, float]:
    """Closed-form 2x2 solve of u = -(I + K diag(d1, d2))^(-1) K (o1, o2),
    elementwise over arrays of (d1, d2, o1, o2)."""
    (k00, k01), (k10, k11) = K.tolist()
    b1 = -(k00 * o1 + k01 * o2)
    b2 = -(k10 * o1 + k11 * o2)
    a11 = 1.0 + k00 * d1
    a12 = k01 * d2
    a21 = k10 * d1
    a22 = 1.0 + k11 * d2
    det = a11 * a22 - a12 * a21
    try:
        return (a22 * b1 - a12 * b2) / det, (a11 * b2 - a21 * b1) / det
    except ZeroDivisionError:  # a float det of 0.0: numpy's inf or NaN
        return solve_feedback(K, *map(np.float64, (d1, d2, o1, o2)))


def _clamped_feedback(net, sp, K, N, T, clamp: bool, q_max: float):
    """The feedback (q, Qdot) at states (N, T) with the flow limited to
    [0, q_max] when ``clamp`` (NaN stays NaN), whether that limit engaged,
    the flow column (g00, dc) at (N, T), and the raw flow; row-safe."""
    d1, d2, o1, o2, *column = kernel.feedback_terms(net, N, T, sp.T_star,
                                                     sp.mu_star_over_T)
    q_raw, Qdot = solve_feedback(K, d1, d2, o1, o2)
    if not clamp:
        q = q_raw
    elif isinstance(q_raw, np.ndarray):
        q = np.minimum(np.maximum(q_raw, 0.0), q_max)
    else:  # one state, on floats, as np.maximum: NaN stays, -0.0 becomes 0.0
        q = min(0.0 if q_raw <= 0.0 else q_raw, q_max)
    return q, Qdot, clamp and q != q_raw, column, q_raw


def control_law(net: ReactionNetwork, sp: Setpoint, gains: ControllerGains, x,
                clamp: bool = True, q_max: float = Q_MAX_DEFAULT) -> ControlAction:
    """Evaluate the stabilizing feedback at a state.

    With ``clamp`` (the default) the flow is limited to [0, q_max] and the
    action reports whether the limit engaged.  The jacket temperature is
    derived from the heat input when the network has a heat transfer path,
    else it is NaN.
    """
    st = as_state(net, x)
    q, Qdot, saturated, _, q_raw = _clamped_feedback(net, sp, gains.K, st.N,
                                                     st.T, clamp, q_max)
    return ControlAction(q=float(q), Qdot=float(Qdot),
                         T_w=kernel.jacket_temperature(net, Qdot, st.T),
                         saturated=bool(saturated), q_raw=float(q_raw))


def control_law_diagonal(net: ReactionNetwork, sp: Setpoint, k_flow: float,
                         k_heat: float, x) -> tuple[float, float]:
    """Scalar closed form of the feedback for a diagonal gain.

    Because the feedthrough is diagonal the two channels decouple:

        q    = -k_flow / (1 + k_flow rho2^2 M / (2 theta)) *
               (g00 (1/T* - 1/T) + dc^T (mu/T - mu*/T*))
        Qdot = -k_heat / (1 + k_heat rho3^2 / (2 theta)) * (1/T* - 1/T)

    Unclamped; an independent cross-check of the 2x2 solve in
    :func:`control_law`.
    """
    st = as_state(net, x)
    d1, d2, o1, o2, *_ = kernel.feedback_terms(net, st.N, st.T, sp.T_star,
                                               sp.mu_star_over_T)
    return -k_flow / (1.0 + k_flow * d1) * o1, -k_heat / (1.0 + k_heat * d2) * o2
