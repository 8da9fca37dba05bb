"""The reactor balance formulas on raw values, each written once.

Every function takes the network and plain floats or arrays (U in J,
N in mol, T in K) and validates nothing: the public modules check shapes,
the mole floor and T > 0 at their boundary (see :mod:`thermo`), and the
stepper in :mod:`sim` adds its own guards.  ``net`` is only read for its
parameters, so this module imports nothing from the package.

Every function is row-safe: it takes one state (U and T scalars, N of
shape (p,)) or a batch of B states (U and T of shape (B,), N of shape
(B, p)), and each row of a batch result has the same bits as the result
for that row alone.  So per-row values get a trailing axis (:func:`_col`),
every dot product over species is one ``np.vecdot`` per row
(:func:`_dot`), never a matrix product, whose summation order depends on
the operand shapes, and squares are written ``x * x``, since a scalar
``x ** 2`` calls ``pow`` where an array's multiplies.  The dense Hessian
of -S, which is not row-safe, lives in :mod:`thermo`.
"""

from __future__ import annotations

import math

import numpy as np


def _col(a):
    """``a`` with a trailing axis, so a per-row value broadcasts over a row;
    a scalar broadcasts as it is."""
    return a[..., None] if isinstance(a, np.ndarray) else a


def _sum(a):
    """Row sums over the last axis (``a.sum(-1)`` without its wrapper)."""
    return np.add.reduce(a, -1)


def _dot(a, b):
    """Row-wise a . b over the last axis; a 1-D call gives ``a @ b``."""
    return np.vecdot(a, b)


def enthalpy(net, T) -> np.ndarray:
    """h_j(T) = cp_j (T - T_ref) + h_ref_j, J/mol."""
    return net.cp * (_col(T) - net.reactor.T_ref) + net.h_ref


def temperature(net, U, N):
    """T(U, N) = T_ref + (U + P V - N^T h_ref) / N^T cp."""
    rx = net.reactor
    return rx.T_ref + (U + rx.P * rx.V - _dot(N, net.h_ref)) / _dot(N, net.cp)


def closures(net, N, T):
    """(h, mu/T, S, theta) at (N, T); see :mod:`thermo` for the formulas."""
    h = enthalpy(net, T)
    T_col = _col(T)
    log_tau = np.log(T_col / net.reactor.T_ref)
    log_x = np.log(N / _col(_sum(N)))
    R = net.reactor.R_gas
    mu_over_T = -net.cp * log_tau + R * log_x - net.s_ref + h / T_col
    S = _dot(N, net.cp * log_tau + net.s_ref - R * log_x)
    return h, mu_over_T, S, T * T * _dot(N, net.cp)


def mass_action(net, c, T) -> tuple[np.ndarray, np.ndarray]:
    """Arrhenius mass-action rates (r_f, r_b) at concentrations c."""
    RT = _col(net.reactor.R_gas * T)
    c = c[..., :, None]
    forward = (net.k0f * np.exp(-net.Ef / RT)
               * np.multiply.reduce(c ** net.stoich_reactants, -2))
    backward = (net.k0b * np.exp(-net.Eb / RT)
                * np.multiply.reduce(c ** net.stoich_products, -2))
    return forward, backward


def reaction_flux(net, rate_net) -> np.ndarray:
    """V nu (r_f - r_b): moles produced by reaction, mol/s."""
    return net.reactor.V * _dot(net.stoich_net, rate_net[..., None, :])


def affinity(net, mu_over_T, T) -> np.ndarray:
    """Reaction affinities -nu^T mu, J/mol."""
    return -_dot(net.stoich_net.T, (mu_over_T * _col(T))[..., None, :])


def feed_gap(net, N) -> np.ndarray:
    """dc = c_in - N / V, mol/m^3."""
    return net.c_in - N / net.reactor.V


def flow_column(net, N, h):
    """The flow column (g00, dc) of g, g00 = c_in^T h(T_in) - N^T h / V."""
    g00 = net.inlet_enthalpy_density - _dot(N, h) / net.reactor.V
    return g00, feed_gap(net, N)


def mixing_scale(net, N, h, theta, g00, dc):
    """theta (g00, dc)^T Hess(-S) (g00, dc) for a direction (g00, dc) on
    (U, N), explicitly

        dc^T (h h^T - (theta R / sum N) 11^T + diag(theta R / N_j)) dc
        - 2 g00 h^T dc + g00^2;

    the mixing scale M when (g00, dc) is the flow column of g."""
    R = net.reactor.R_gas
    hdc = _dot(h, dc)
    dc_sum = _sum(dc)
    quad = (hdc * hdc - theta * R / _sum(N) * (dc_sum * dc_sum)
            + theta * R * _dot(dc, dc / N))
    return quad - 2.0 * g00 * hdc + g00 * g00


def feedthrough(net, M, theta):
    """Diagonal of delta = diag(rho2^2 M / (2 theta), rho3^2 / (2 theta))."""
    rho = net.noise
    return 0.5 * rho.rho2 ** 2 * M / theta, 0.5 * rho.rho3 ** 2 / theta


def availability(S_star, pi_star, x_star, S, x):
    """A(x) = S(x*) - S(x) + pi*^T (x - x*)."""
    return S_star - S + _dot(pi_star, x - x_star)


def availability_gradient(T_star, mu_star_over_T, T, mu_over_T):
    """grad A = (1/T* - 1/T, mu/T - mu*/T*), as (U part, N part)."""
    return 1.0 / T_star - 1.0 / T, mu_over_T - mu_star_over_T


def feedback_terms(net, N, T, T_star, mu_star_over_T):
    """(d1, d2, o1, o2, g00, dc): delta = diag(d1, d2) and g^T grad A =
    (o1, o2) in the feedback u = -(I + K delta)^(-1) K g^T grad A, and the
    flow column (g00, dc) they use, which :func:`em_update` takes too."""
    h, mu_over_T, _, theta = closures(net, N, T)
    g00, dc = flow_column(net, N, h)
    d1, d2 = feedthrough(net, mixing_scale(net, N, h, theta, g00, dc), theta)
    grad_U, grad_N = availability_gradient(T_star, mu_star_over_T, T, mu_over_T)
    return d1, d2, g00 * grad_U + _dot(dc, grad_N), grad_U, g00, dc


def sde_terms(net, N, T, q, Qdot, column=None):
    """Drift (dU, dN) and diffusion entries (a, b_U, b_N, c_U) under inputs
    (q, Qdot): reaction noise a = rho1 flux on N, flow noise rho2 q (g00, dc),
    heat noise c_U = rho3 Qdot.  ``column`` is the flow column (g00, dc) at
    (N, T) if the caller has it."""
    g00, dc = column or flow_column(net, N, enthalpy(net, T))
    forward, backward = mass_action(net, N / net.reactor.V, T)
    flux = reaction_flux(net, forward - backward)
    rho, q_col = net.noise, _col(q)
    return ((g00 * q + Qdot, flux + q_col * dc),
            (rho.rho1 * flux, rho.rho2 * q * g00, rho.rho2 * q_col * dc,
             rho.rho3 * Qdot))


def em_update(net, U, N, T, q, Qdot, dt, dW=None, column=None):
    """One Euler-Maruyama update of (U, N); noise-free when dW is None.
    dW holds the three channel increments on its last axis; ``column`` is
    passed to :func:`sde_terms`."""
    (dU, dN), (a, b_U, b_N, c_U) = sde_terms(net, N, T, q, Qdot, column)
    U_new, N_new = U + dU * dt, N + dN * dt
    if dW is not None:
        U_new = U_new + (b_U * dW[..., 1] + c_U * dW[..., 2])
        N_new = N_new + a * dW[..., 0, None] + b_N * dW[..., 1, None]
    return U_new, N_new


def jacket_temperature(net, Qdot, T):
    """T_w = Qdot / lambda + T, NaN without a heat transfer path."""
    lam = net.reactor.lam
    return Qdot / lam + T if lam > 0 else math.nan
