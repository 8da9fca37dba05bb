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
the Ito generator of scalar fields along the dynamics, and checks the
conditions under which the noisy system remains passive:

* an input-noise bound (the feedthrough correction stays contractive),
* a trace condition (reaction-noise curvature is paid for by dissipation);
  the corrected feedthrough it comes with is zero by the definition of
  delta for the storages with Hessian Hess(-S),
* a reaction-noise bound sufficient for the trace condition at the
  natural storage.

The checks read the closed forms of :mod:`kernel` and assemble no
:class:`StructureMatrices`: the reaction-noise curvature is
:func:`kernel.mixing_scale` along the flux.

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
    products.  ``mode`` picks the weights c_i of :func:`kernel.damping_weights`:
    ``"logmean"``, nonnegative for any rate constants, or ``"strict"``, the
    rate over the affinity, equal to the log-mean weight exactly when the
    kinetics are thermodynamically consistent.
    """
    if mode not in ("logmean", "strict"):
        raise ValueError(f"unknown damping mode {mode!r}")
    st = as_state(net, state)
    weights = kernel.damping_weights(
        net, *kernel.mass_action(net, st.N / net.reactor.V, st.T), st.T,
        kernel.affinity(net, st.mu_over_T, st.T) if mode == "strict" else None)
    R = np.zeros((net.n_species + 1, net.n_species + 1))
    dz = -net.stoich_net  # reactants minus products, one column per reaction
    R[1:, 1:] = (dz[:, None] * dz) @ (net.reactor.V * st.T * weights)
    return R


def mixing_noise_scale(net: ReactionNetwork, state) -> float:
    """Curvature scale M = theta g_q^T Hess(-S) g_q >= 0 of the storage
    along the flow column g_q of g; see :func:`kernel.mixing_scale`."""
    st = as_state(net, state)
    return kernel.mixing_scale(net, st.N, st.h, st.theta,
                               *kernel.flow_column(net, st.N, st.h)[:2])


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
    forward, backward = kernel.mass_action(net, c, st.T)
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


def ito_generator(net: ReactionNetwork, field: ScalarField, state, u,
                  include_noise: bool = True) -> float:
    """Ito generator L[field] = grad^T drift + (1/2) tr(Hess D D^T)."""
    st = as_state(net, state)
    fields = sde_fields(net, st, u)
    x = st.x
    value = float(field.gradient(x) @ fields.drift)
    if include_noise:
        H = field.hessian(x)
        D = fields.diffusion
        value += 0.5 * float(np.einsum("ij,ik,jk->", H, D, D))
    return value


# ---------------------------------------------------------------------------
# passivity and noise-bound checks


@dataclass(frozen=True)
class InputNoiseReport:
    """Whether the input-noise feedthrough stays contractive:
    rho2^4 M^2 + rho3^4 < 4 theta^2, i.e. ||delta||_F < 1."""

    holds: bool
    lhs: float
    rhs: float
    delta_frobenius: float


def check_input_noise_bound(net: ReactionNetwork, state) -> InputNoiseReport:
    st = as_state(net, state)
    M = mixing_noise_scale(net, st)
    rho = net.noise
    lhs = rho.rho2 ** 4 * M * M + rho.rho3 ** 4
    rhs = 4.0 * st.theta ** 2
    frob = 0.5 * np.sqrt(lhs) / st.theta
    return InputNoiseReport(bool(lhs < rhs), lhs, rhs, frob)


@dataclass(frozen=True)
class PassivityReport:
    """Sufficient passivity conditions for a storage with Hessian Hess(-S)
    (-S itself or the availability) under the full noise: the curvature
    (1/2) a^T Hess a injected by reaction noise must not exceed the
    dissipation grad^T R grad (trace condition).

    The corrected feedthrough F = delta - (1/2) sigma sigma^T o
    (gamma^T Hess gamma) is zero for these storages, since delta is defined
    as exactly that correction; so ``feedthrough_holds`` is always true and
    ``feedthrough_min_eig`` always 0."""

    trace_holds: bool
    trace_lhs: float
    trace_rhs: float
    feedthrough_holds = True
    feedthrough_min_eig = 0.0

    @property
    def holds(self) -> bool:
        return self.trace_holds


def check_passivity(net: ReactionNetwork, state,
                    field: ScalarField) -> PassivityReport:
    """The conditions of :class:`PassivityReport` at a state.  ``field`` is
    a storage with Hessian Hess(-S) whose ``gradient`` takes a
    :class:`ThermoState`; nothing else of it is read."""
    st = as_state(net, state)
    grad = field.gradient(st)
    rates = kernel.mass_action(net, st.N / net.reactor.V, st.T)
    # a = rho1 (0, flux): theta a^T Hess(-S) a is rho1^2 times the mixing
    # scale along (0, flux)
    flux = kernel.reaction_flux(net, rates[0] - rates[1])
    trace_lhs = float(0.5 * net.noise.rho1 ** 2 * kernel.mixing_scale(
        net, st.N, st.h, st.theta, 0.0, flux) / st.theta)
    # R's energy row and column vanish: grad^T R grad = grad_N^T R_NN grad_N
    trace_rhs = float(grad[1:] @ kernel.damping_apply(
        net, kernel.damping_weights(net, *rates, st.T), st.T, grad[1:]))
    return PassivityReport(
        bool(trace_lhs <= trace_rhs + 1e-12 * max(1.0, abs(trace_rhs))),
        trace_lhs, trace_rhs)


@dataclass(frozen=True)
class ReactionNoiseReport:
    """Whether the reaction-noise intensity is small enough for the trace
    condition at the natural storage:

        (1/2) rho1^2 V f^T Hess_NN(-S) f  <=  sum_i (r_f - r_b)_i dz_i^T mu / T

    with f = nu (r_f - r_b) the reaction flux direction and Hess_NN(-S)
    the composition block of the Hessian."""

    holds: bool
    lhs: float
    rhs: float


def check_reaction_noise_bound(net: ReactionNetwork, state,
                               V_star: float | None = None) -> ReactionNoiseReport:
    st = as_state(net, state)
    forward, backward = kernel.mass_action(net, st.N / net.reactor.V, st.T)
    rate_net = forward - backward
    flux_dir = net.stoich_net @ rate_net  # mol/(m^3 s)
    quad = kernel.mixing_scale(net, st.N, st.h, st.theta, 0.0, flux_dir)
    V_star = net.reactor.V if V_star is None else float(V_star)
    lhs = 0.5 * net.noise.rho1 ** 2 * V_star * float(quad) / st.theta
    rhs = float(rate_net @ kernel.affinity(net, st.mu_over_T, st.T)) / st.T
    return ReactionNoiseReport(bool(lhs <= rhs), lhs, rhs)


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
