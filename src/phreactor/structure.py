"""Dissipative structure of the reactor balance equations.

For the state x = (U, N) the deterministic balances are

    dU/dt = q (c_in^T h(T_in) - N^T h(T)/V) + Qdot
    dN/dt = V nu (r_f - r_b) + q (c_in - N/V)

with nu the net stoichiometry (products minus reactants) and r_f, r_b the
mass-action rates per unit volume.  With the convex storage -S these
balances take gradient form dx/dt = (J - R) grad(-S) + g u, where J = 0,
R collects the reaction dissipation, and g maps the inputs u = (q, Qdot).

Three independent Wiener channels perturb the dynamics: one multiplies the
reaction flux (intensity rho1), and one each multiplies the two inputs
(intensities rho2, rho3).  The input noise induces an effective feedthrough
delta = diag(rho2^2 M / (2 theta), rho3^2 / (2 theta)) in the natural
output, where M is the storage curvature seen by the flow column of g and
theta = T^2 N^T cp.  This module assembles all of those pieces, evaluates
the Ito generator of scalar fields along the dynamics, and reports the
paper's three sufficient conditions for the noisy system to stay passive:
the input-noise bound, the trace condition of a storage with Hessian
Hess(-S) (whose corrected feedthrough is zero by the definition of delta)
and the reaction-noise bound.  Their formulas live in
:func:`kernel.margins` alone; :func:`check_conditions` builds the three
reports from one call of it, and each ``check_*`` is one of them.

It also forms the negative-feedback interconnection of two such systems,
which is again a dissipative structure pair (J, R).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from . import kernel
from .network import ReactionNetwork
from .thermo import as_state, neg_entropy_gradient, neg_entropy_hessian


def damping_matrix(net: ReactionNetwork, state,
                   mode: str = "logmean") -> np.ndarray:
    """Symmetric positive semidefinite damping matrix R on (U, N).

    The energy row and column are zero; reactions dissipate only through
    composition, as V T sum_i c_i dz_i dz_i^T with dz_i = reactants -
    products, as :func:`kernel.damping_apply` on the identity.  ``mode``
    picks the weights c_i of :func:`kernel.damping_weights`: ``"logmean"``,
    nonnegative for any rate constants, or ``"strict"``, the rate over the
    affinity, equal to the log-mean weight exactly when the kinetics are
    thermodynamically consistent.
    """
    if mode not in ("logmean", "strict"):
        raise ValueError(f"unknown damping mode {mode!r}")
    st = as_state(net, state)
    rates = kernel.mass_action(net, st.N / net.reactor.V,
                               kernel.rate_constants(net, st.T))
    weights = kernel.damping_weights(
        net, *rates, st.T,
        kernel.affinity(net, st.mu_over_T, st.T) if mode == "strict" else None)
    R = np.zeros((net.n_species + 1, net.n_species + 1))
    R[1:, 1:] = kernel.damping_apply(net, weights, st.T, np.eye(net.n_species))
    return R


def mixing_noise_scale(net: ReactionNetwork, state) -> float:
    """Curvature scale M = theta g_q^T Hess(-S) g_q >= 0 of the storage
    along the flow column g_q of g; see :func:`kernel.mixing_scale`."""
    st = as_state(net, state)
    return kernel.mixing_scale(net, st.N, st.h, st.theta,
                               *kernel.flow_column(net, st.N, st.h)[:2],
                               st.N.sum())


@dataclass(frozen=True)
class StructureMatrices:
    """All state-dependent structure pieces at one state.

    J and R are the conservative and dissipative matrices on (U, N); g maps
    the inputs u = (q, Qdot) (flow column: feed-minus-vessel enthalpy
    density, then concentrations; heat column: into U); the reaction-noise
    column a = rho1 (0, V nu (r_f - r_b)) vanishes at r_f = r_b; gamma (= g)
    and sigma carry the input noise; delta is the induced feedthrough;
    M and theta are the scalars entering delta.
    """

    J: np.ndarray
    R: np.ndarray
    g: np.ndarray
    a: np.ndarray
    gamma: np.ndarray
    sigma: np.ndarray
    delta: np.ndarray
    M: float
    theta: float


@dataclass(frozen=True)
class SdeFields:
    """Drift vector and diffusion matrix (one column per Wiener channel)."""

    drift: np.ndarray
    diffusion: np.ndarray


def structure_matrices(net: ReactionNetwork, state,
                       mode: str = "logmean") -> StructureMatrices:
    """Evaluate every structure matrix at a state (input-independent)."""
    st = as_state(net, state)
    p = net.n_species
    g = np.zeros((p + 1, 2))
    g[0, 0], g[1:, 0], c = kernel.flow_column(net, st.N, st.h)
    g[0, 1] = 1.0
    forward, backward = kernel.mass_action(net, c,
                                           kernel.rate_constants(net, st.T))
    a = np.zeros(p + 1)
    a[1:] = net.noise.rho1 * kernel.reaction_flux(net, forward - backward)
    M = mixing_noise_scale(net, st)
    sigma = np.diag([net.noise.rho2, net.noise.rho3])
    delta = np.diag(kernel.feedthrough(net, M, st.theta))
    return StructureMatrices(
        J=np.zeros((p + 1, p + 1)),
        R=damping_matrix(net, st, mode),
        g=g,
        a=a,
        gamma=g,
        sigma=sigma,
        delta=delta,
        M=M,
        theta=st.theta,
    )


def sde_fields(net: ReactionNetwork, state, u) -> SdeFields:
    """Drift and diffusion of the balance SDE at (state, u).

    The drift is computed from the balance equations directly, which
    coincides with (J - R) grad(-S) + g u for thermodynamically consistent
    rate weights.  The diffusion has one column per Wiener channel:
    reaction-flux noise, flow-input noise, heat-input noise.
    """
    st = as_state(net, state)
    q, Qdot = float(u[0]), float(u[1])
    drift = np.empty(net.n_species + 1)
    D = np.zeros((net.n_species + 1, 3))
    (drift[0], drift[1:]), noise = kernel.sde_terms(net, st.N, st.T, q, Qdot)
    D[1:, 0], D[0, 1], D[1:, 1], D[0, 2] = noise
    return SdeFields(drift, D)


# ---------------------------------------------------------------------------
# scalar fields and the Ito generator


class ScalarField(Protocol):
    """A twice-differentiable scalar field over the state vector (U, N)."""

    def value(self, x: np.ndarray) -> float: ...

    def gradient(self, x: np.ndarray) -> np.ndarray: ...

    def hessian(self, x: np.ndarray) -> np.ndarray: ...


class NegEntropy:
    """The convex storage -S as a :class:`ScalarField`."""

    def __init__(self, net: ReactionNetwork):
        self.net = net

    def value(self, x) -> float:
        return -as_state(self.net, x).S

    def gradient(self, x) -> np.ndarray:
        return neg_entropy_gradient(self.net, x)

    def hessian(self, x) -> np.ndarray:
        return neg_entropy_hessian(self.net, x)


def ito_generator(net: ReactionNetwork, field: ScalarField, state, u) -> float:
    """Ito generator L[field] = grad^T drift + (1/2) tr(Hess D D^T); its
    noise-free part is ``field.gradient(x) @ sde_fields(...).drift``."""
    st = as_state(net, state)
    fields = sde_fields(net, st, u)
    x, D = st.x, fields.diffusion
    return float(field.gradient(x) @ fields.drift) + 0.5 * float(
        np.einsum("ij,ik,jk->", field.hessian(x), D, D))


# ---------------------------------------------------------------------------
# passivity and noise-bound checks


@dataclass(frozen=True)
class InputNoiseReport:
    """Whether ||delta||_F < 1 (see :func:`kernel.margins`)."""

    holds: bool
    lhs: float
    rhs: float
    delta_frobenius: float


@dataclass(frozen=True)
class PassivityReport:
    """Whether the curvature (1/2) a^T Hess a that reaction noise injects
    into a storage with Hessian Hess(-S) (-S or the availability) is paid
    for by the dissipation grad^T R grad.  The corrected feedthrough
    delta - (1/2) sigma sigma^T o (gamma^T Hess gamma) is zero by the
    definition of delta, so ``feedthrough_holds`` is always true and
    ``feedthrough_min_eig`` always 0."""

    trace_holds: bool
    trace_lhs: float
    trace_rhs: float
    feedthrough_holds = True
    feedthrough_min_eig = 0.0

    @property
    def holds(self) -> bool:
        return self.trace_holds


@dataclass(frozen=True)
class ReactionNoiseReport:
    """Whether the reaction-noise intensity is small enough for the trace
    condition at the natural storage (see :func:`kernel.margins`)."""

    holds: bool
    lhs: float
    rhs: float


def check_conditions(net: ReactionNetwork, state,
                     field: ScalarField | None = None,
                     V_star: float | None = None):
    """(input-noise, trace, reaction-noise) reports at a state from one
    :func:`kernel.margins` call: the trace condition of ``field`` (default
    -S; only its ``gradient``, which takes a :class:`ThermoState`, is read),
    the reaction-noise bound at volume ``V_star`` (default V)."""
    st = as_state(net, state)
    m = kernel.margins(
        net, st.N, st.T, st.h, st.mu_over_T, st.theta,
        st.mu_over_T if field is None else field.gradient(st)[1:],
        net.reactor.V if V_star is None else float(V_star))
    return (InputNoiseReport(bool(m.input_noise_holds), *m[1:4]),
            PassivityReport(bool(m.trace_holds), *m[5:7]),
            ReactionNoiseReport(bool(m.reaction_noise_holds), *m[8:10]))


def check_input_noise_bound(net: ReactionNetwork, state) -> InputNoiseReport:
    return check_conditions(net, state)[0]


def check_passivity(net: ReactionNetwork, state,
                    field: ScalarField) -> PassivityReport:
    return check_conditions(net, state, field)[1]


def check_reaction_noise_bound(net: ReactionNetwork, state,
                               V_star: float | None = None) -> ReactionNoiseReport:
    return check_conditions(net, state, V_star=V_star)[2]


# ---------------------------------------------------------------------------
# interconnection


@dataclass(frozen=True)
class PortSystem:
    """The pieces of one port system needed for interconnection: J, R on
    its own state, input map g, and feedthrough delta."""

    J: np.ndarray
    R: np.ndarray
    g: np.ndarray
    delta: np.ndarray


@dataclass(frozen=True)
class Interconnection:
    """Structure pair of the negative-feedback interconnection; J is skew,
    R symmetric positive semidefinite."""

    J: np.ndarray
    R: np.ndarray


def feedback_interconnect(sys1: PortSystem, sys2: PortSystem) -> Interconnection:
    """Close the loop u1 = -y2, u2 = y1 between two port systems.

    With feedthroughs the loop is well posed when ||delta1|| ||delta2|| < 1;
    the combined dynamics is again of the form (J - R) with

        J = blkdiag(g1, g2) [[0, -(I + d2 d1)^-1], [(I + d1 d2)^-1, 0]]
            blkdiag(g1, g2)^T + blkdiag(J1, J2)
        R = blkdiag(g1, g2) [[d2 (I + d1 d2)^-1, 0], [0, d1 (I + d2 d1)^-1]]
            blkdiag(g1, g2)^T + blkdiag(R1, R2)
    """
    m = sys1.delta.shape[0]
    if sys2.delta.shape[0] != m or sys1.g.shape[1] != m or sys2.g.shape[1] != m:
        raise ValueError("port dimensions of the two systems must agree")
    d1, d2 = sys1.delta, sys2.delta
    eye = np.eye(m)
    inv12 = np.linalg.inv(eye + d1 @ d2)
    inv21 = np.linalg.inv(eye + d2 @ d1)
    n1 = sys1.J.shape[0]
    n2 = sys2.J.shape[0]
    G = np.zeros((n1 + n2, 2 * m))
    G[:n1, :m] = sys1.g
    G[n1:, m:] = sys2.g
    J_mid = np.zeros((2 * m, 2 * m))
    J_mid[:m, m:] = -inv21
    J_mid[m:, :m] = inv12
    R_mid = np.zeros((2 * m, 2 * m))
    R_mid[:m, :m] = d2 @ inv12
    R_mid[m:, m:] = d1 @ inv21
    J = G @ J_mid @ G.T
    J[:n1, :n1] += sys1.J
    J[n1:, n1:] += sys2.J
    R = G @ R_mid @ G.T
    R[:n1, :n1] += sys1.R
    R[n1:, n1:] += sys2.R
    R = 0.5 * (R + R.T)
    return Interconnection(J, R)
