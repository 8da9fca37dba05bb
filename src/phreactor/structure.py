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
* a trace condition (reaction-noise curvature is paid for by dissipation)
  together with positive semidefiniteness of the corrected feedthrough,
* a reaction-noise bound sufficient for the trace condition at the
  natural storage.

The checks read the closed forms of :mod:`kernel` and assemble no
:class:`StructureMatrices`: the corrected feedthrough is diagonal, and the
reaction-noise curvature is :func:`kernel.mixing_scale` along the flux.

It also forms the negative-feedback interconnection of two such systems,
which is again a dissipative structure pair (J, R).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from . import kernel
from .network import ReactionNetwork
from .thermo import (
    ThermoState,
    as_state,
    neg_entropy_gradient,
    neg_entropy_hessian,
)


@dataclass(frozen=True)
class RateVector:
    """Forward and backward mass-action rates per unit volume, mol/(m^3 s)."""

    forward: np.ndarray
    backward: np.ndarray

    @property
    def net(self) -> np.ndarray:
        return self.forward - self.backward


def mass_action_rates(net: ReactionNetwork, c, T: float) -> RateVector:
    """Arrhenius mass-action rates at concentrations c (mol/m^3) and
    temperature T.  Accepts zero concentrations."""
    return RateVector(*kernel.mass_action(net, np.asarray(c, dtype=float), T))


def reaction_rates(net: ReactionNetwork, state) -> RateVector:
    """Arrhenius mass-action rates at the state's composition and
    temperature."""
    st = as_state(net, state)
    return mass_action_rates(net, st.N / net.reactor.V, st.T)


def log_mean(a: float, b: float) -> float:
    """Logarithmic mean (a - b)/ln(a/b), continuously extended.

    Returns 0 when either argument is nonpositive (an absent rate carries
    no dissipation weight) and the midpoint when the arguments are within
    1e-9 relative of each other.
    """
    if a <= 0.0 or b <= 0.0:
        return 0.0
    d = a - b
    if abs(d) <= 1e-9 * (a + b):
        return 0.5 * (a + b)
    return d / np.log(a / b)


#: Affinities smaller than this (J/mol) fall back to the logarithmic-mean
#: weight in strict mode.
AFFINITY_GUARD = 1e-9


def damping_coefficients(net: ReactionNetwork, state,
                         mode: str = "logmean") -> np.ndarray:
    """Per-reaction dissipation weights c_i >= 0 such that the damping
    matrix's composition block is V T sum_i c_i dz_i dz_i^T, with
    dz_i = reactants - products.

    ``"logmean"`` uses logmean(r_f, r_b) / (R T), which is nonnegative for
    any rate constants.  ``"strict"`` uses the literal quotient
    (r_f - r_b) / (dz^T mu), which agrees with the logmean form exactly
    when the kinetics are thermodynamically consistent; it falls back to
    the logmean weight when |dz^T mu| < 1e-9.
    """
    st = as_state(net, state)
    rates = reaction_rates(net, st)
    RT = net.reactor.R_gas * st.T
    lm = np.array([log_mean(f, b) for f, b in zip(rates.forward, rates.backward)])
    coef = lm / RT
    if mode == "strict":
        affinity = kernel.affinity(net, st.mu_over_T, st.T)
        strict = np.abs(affinity) > AFFINITY_GUARD
        coef[strict] = rates.net[strict] / affinity[strict]
    elif mode != "logmean":
        raise ValueError(f"unknown damping mode {mode!r}")
    return coef


def damping_matrix(net: ReactionNetwork, state,
                   mode: str = "logmean") -> np.ndarray:
    """Symmetric positive semidefinite damping matrix R on (U, N).

    The energy row and column are zero; reactions dissipate only through
    composition.  See :func:`damping_coefficients` for the two weightings.
    """
    st = as_state(net, state)
    p = net.n_species
    R = np.zeros((p + 1, p + 1))
    coef = damping_coefficients(net, st, mode)
    VT = net.reactor.V * st.T
    dz = -net.stoich_net  # reactants minus products, one column per reaction
    for i in range(net.n_reactions):
        R[1:, 1:] += VT * coef[i] * np.outer(dz[:, i], dz[:, i])
    return R


def input_matrix(net: ReactionNetwork, state) -> np.ndarray:
    """Input map g on (U, N) for u = (q, Qdot).

    Column one is the flow channel (enthalpy-density difference between
    feed and vessel contents, then concentration differences); column two
    feeds heat straight into U.
    """
    st = as_state(net, state)
    g = np.zeros((net.n_species + 1, 2))
    g[0, 0], g[1:, 0] = kernel.flow_column(net, st.N, st.h)
    g[0, 1] = 1.0
    return g


def reaction_noise_column(net: ReactionNetwork, state) -> np.ndarray:
    """Diffusion column a(x) = rho1 * (0, V nu (r_f - r_b)): the reaction
    flux scaled by the flux-noise intensity.  Vanishes at r_f = r_b."""
    st = as_state(net, state)
    a = np.zeros(net.n_species + 1)
    a[1:] = net.noise.rho1 * kernel.reaction_flux(net, reaction_rates(net, st).net)
    return a


def mixing_noise_scale(net: ReactionNetwork, state) -> float:
    """Curvature scale M = theta g_q^T Hess(-S) g_q >= 0 of the storage
    along the flow column g_q of g; see :func:`kernel.mixing_scale`."""
    st = as_state(net, state)
    return kernel.mixing_scale(net, st.N, st.h, st.theta,
                               *kernel.flow_column(net, st.N, st.h))


@dataclass(frozen=True)
class StructureMatrices:
    """All state-dependent structure pieces at one state.

    J and R are the conservative and dissipative matrices on (U, N); g maps
    the inputs; a is the reaction-noise diffusion column; gamma (= g) and
    sigma carry the input noise; delta is the induced feedthrough;
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
    g = input_matrix(net, st)
    a = reaction_noise_column(net, st)
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


def sde_fields(net: ReactionNetwork, state, u,
               include_noise: bool = True) -> SdeFields:
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
    if include_noise:
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
        st = ThermoState.from_vector(self.net, x)
        return -st.S

    def gradient(self, x) -> np.ndarray:
        return neg_entropy_gradient(self.net, x)

    def hessian(self, x) -> np.ndarray:
        return neg_entropy_hessian(self.net, x)


def ito_generator(net: ReactionNetwork, field: ScalarField, state, u,
                  include_noise: bool = True) -> float:
    """Ito generator L[field] = grad^T drift + (1/2) tr(Hess D D^T)."""
    st = as_state(net, state)
    fields = sde_fields(net, st, u, include_noise=include_noise)
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
    """Sufficient passivity conditions for a storage field under the full
    noise: the curvature injected by reaction noise must not exceed the
    dissipation (trace condition), and the corrected feedthrough
    F = delta - (1/2) sigma sigma^T o (gamma^T Hess gamma) must be positive
    semidefinite.  sigma sigma^T is diagonal, so F is diagonal and its
    smallest eigenvalue is its smallest diagonal entry."""

    trace_holds: bool
    feedthrough_holds: bool
    trace_lhs: float
    trace_rhs: float
    feedthrough_min_eig: float

    @property
    def holds(self) -> bool:
        return self.trace_holds and self.feedthrough_holds


def check_passivity(net: ReactionNetwork, state,
                    field: ScalarField) -> PassivityReport:
    st = as_state(net, state)
    grad = field.gradient(st.x)
    H = field.hessian(st.x)
    a = reaction_noise_column(net, st)
    trace_lhs = 0.5 * float(a @ H @ a)
    trace_rhs = float(grad @ damping_matrix(net, st) @ grad)
    g = input_matrix(net, st)
    delta = np.array(kernel.feedthrough(net, mixing_noise_scale(net, st),
                                        st.theta))
    sig2 = np.array([net.noise.rho2 ** 2, net.noise.rho3 ** 2])
    min_eig = float((delta - 0.5 * sig2 * np.diag(g.T @ H @ g)).min())
    scale = max(1.0, float(np.linalg.norm(delta)))
    return PassivityReport(
        trace_holds=bool(trace_lhs <= trace_rhs + 1e-12 * max(1.0, abs(trace_rhs))),
        feedthrough_holds=bool(min_eig >= -1e-12 * scale),
        trace_lhs=trace_lhs,
        trace_rhs=trace_rhs,
        feedthrough_min_eig=min_eig,
    )


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
    rates = reaction_rates(net, st)
    flux_dir = net.stoich_net @ rates.net  # mol/(m^3 s)
    quad = kernel.mixing_scale(net, st.N, st.h, st.theta, 0.0, flux_dir)
    V_star = net.reactor.V if V_star is None else float(V_star)
    lhs = 0.5 * net.noise.rho1 ** 2 * V_star * float(quad) / st.theta
    rhs = float(rates.net @ kernel.affinity(net, st.mu_over_T, st.T)) / st.T
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

    @classmethod
    def from_structure(cls, S: StructureMatrices) -> "PortSystem":
        return cls(S.J, S.R, S.g, S.delta)


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
