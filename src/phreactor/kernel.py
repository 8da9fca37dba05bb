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

One closed-loop step computes each quantity once: :func:`feedback_terms`
takes sum N once for the S-free closures (:func:`potentials`) and the
mixing scale, computes no entropy S (the step never reads it), and hands
its flow column (g00, dc, c = N / V) to :func:`em_update`, whose rates
read the concentrations c from it.
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


def potentials(net, N, T, N_sum):
    """The closures other than S at (N, T), given N_sum = sum N:
    (h, mu/T, theta, log(T / T_ref), log x); :func:`closures` takes S from
    the last two."""
    h = enthalpy(net, T)
    T_col = _col(T)
    log_tau = np.log(T_col / net.reactor.T_ref)
    log_x = np.log(N / _col(N_sum))
    mu_over_T = (-net.cp * log_tau + net.reactor.R_gas * log_x - net.s_ref
                 + h / T_col)
    return h, mu_over_T, T * T * _dot(N, net.cp), log_tau, log_x


def closures(net, N, T):
    """(h, mu/T, S, theta) at (N, T); see :mod:`thermo` for the formulas."""
    h, mu_over_T, theta, log_tau, log_x = potentials(net, N, T, _sum(N))
    S = _dot(N, net.cp * log_tau + net.s_ref - net.reactor.R_gas * log_x)
    return h, mu_over_T, S, theta


def _species_product(c, stoich):
    """prod_j c_j ** stoich[j] over the species j, multiplied in species
    order.  The powers are ``np.float_power``'s, which takes libm's ``pow``
    element by element: ``**`` runs numpy's vectorised ``pow`` on contiguous
    operands and the scalar one on broadcast ones, which round apart in the
    last bit, so a batch row could differ from the row alone."""
    return _ordered_product(np.float_power(c[..., :, None], stoich))


def _species_product_gradient(c, stoich):
    """The derivatives of :func:`_species_product` in c, shape (..., p, r):
    entry (j, i) is stoich[j, i] c_j ** (stoich[j, i] - 1) times the other
    species' powers of reaction i.  The lowered power is taken as
    stoich c_j ** max(stoich - 1, 0), so it is exact at c_j = 0."""
    c_col, j = c[..., :, None], np.arange(len(stoich))
    # row j: the powers with species j's lowered
    factors = np.repeat(np.float_power(c_col, stoich)[..., None, :, :],
                        len(j), axis=-3)
    lowered = np.float_power(c_col, np.maximum(stoich - 1.0, 0.0))
    factors[..., j, j, :] = stoich * lowered
    return _ordered_product(factors)


def _ordered_product(factors):
    """Product over the species axis (-2) of ``factors``, multiplied in
    species order."""
    product = factors[..., 0, :]
    for j in range(1, factors.shape[-2]):
        product = product * factors[..., j, :]
    return product


def _rate_constants(net, T):
    """Arrhenius constants (k_f, k_b) = k0 exp(-E / (R T)) per reaction."""
    RT = _col(net.reactor.R_gas * T)
    return net.k0f * np.exp(-net.Ef / RT), net.k0b * np.exp(-net.Eb / RT)


def mass_action(net, c, T) -> tuple[np.ndarray, np.ndarray]:
    """Arrhenius mass-action rates (r_f, r_b) at concentrations c."""
    kf, kb = _rate_constants(net, T)
    return (kf * _species_product(c, net.stoich_reactants),
            kb * _species_product(c, net.stoich_products))


def mass_action_jacobian(net, c, T):
    """(dr_f/dc, dr_b/dc): the exact derivatives of the :func:`mass_action`
    rates in c, shape (..., r, p), entry (i, j) = k_i alpha_ij
    c_j ** (alpha_ij - 1) prod_{l != j} c_l ** alpha_il for the
    multiplicities alpha of that side; exact at c_j = 0."""
    kf, kb = _rate_constants(net, T)
    return tuple(_col(k) * _species_product_gradient(c, stoich).swapaxes(-1, -2)
                 for k, stoich in ((kf, net.stoich_reactants),
                                   (kb, net.stoich_products)))


def reaction_flux(net, rate_net) -> np.ndarray:
    """V nu (r_f - r_b): moles produced by reaction, mol/s."""
    return net.reactor.V * _dot(net.stoich_net, rate_net[..., None, :])


def affinity(net, mu_over_T, T) -> np.ndarray:
    """Reaction affinities -nu^T mu, J/mol."""
    return -_dot(net.stoich_net.T, (mu_over_T * _col(T))[..., None, :])


#: Affinities smaller than this (J/mol) fall back to the logarithmic-mean
#: weight in strict mode.
AFFINITY_GUARD = 1e-9


def log_mean(a, b):
    """Elementwise logarithmic mean (a - b) / ln(a / b), continuously
    extended: 0 where an argument is nonpositive (an absent rate carries no
    dissipation weight), the midpoint within 1e-9 relative.  Unselected
    quotients see safe stand-in operands, so only selected ones can warn."""
    d = a - b
    absent = (a <= 0.0) | (b <= 0.0)
    mid = np.abs(d) <= 1e-9 * (a + b)
    quotient = ~(absent | mid)
    ratio = np.where(quotient, a, 2.0) / np.where(quotient, b, 1.0)
    return np.where(quotient, d / np.log(ratio),
                    np.where(absent, 0.0, 0.5 * (a + b)))


def damping_weights(net, forward, backward, T, affinity=None):
    """Per-reaction weights c_i of the damping matrix (see
    :func:`damping_apply`) from the rates (r_f, r_b): logmean(r_f, r_b) / (R T)
    >= 0 or, given the affinities, the strict (r_f - r_b) / affinity wherever
    |affinity| > :data:`AFFINITY_GUARD`, the log-mean weight elsewhere."""
    coef = log_mean(forward, backward) / _col(net.reactor.R_gas * T)
    if affinity is None:
        return coef
    strict = np.abs(affinity) > AFFINITY_GUARD
    return np.where(strict,
                    (forward - backward) / np.where(strict, affinity, 1.0),
                    coef)


def damping_apply(net, c, T, v):
    """R_NN v for the composition block R_NN = V T sum_i c_i dz_i dz_i^T of
    the damping matrix, dz_i = -nu_i (reactants minus products), weights c."""
    nu = net.stoich_net
    weighted = c * _dot(nu.T, v[..., None, :])
    return _col(net.reactor.V * T) * _dot(nu, weighted[..., None, :])


def feed_gap(net, c) -> np.ndarray:
    """dc = c_in - c at concentrations c = N / V, mol/m^3."""
    return net.c_in - c


def flow_column(net, N, h):
    """(g00, dc, c): the flow column (g00, dc) of g,
    g00 = c_in^T h(T_in) - N^T h / V, and the concentrations c = N / V."""
    c = N / net.reactor.V
    g00 = net.inlet_enthalpy_density - _dot(N, h) / net.reactor.V
    return g00, feed_gap(net, c), c


def mixing_scale(net, N, h, theta, g00, dc, N_sum=None):
    """theta (g00, dc)^T Hess(-S) (g00, dc) for a direction (g00, dc) on
    (U, N), explicitly

        dc^T (h h^T - (theta R / sum N) 11^T + diag(theta R / N_j)) dc
        - 2 g00 h^T dc + g00^2;

    the mixing scale M when (g00, dc) is the flow column of g.  ``N_sum``
    is sum N if the caller has it."""
    R = net.reactor.R_gas
    hdc = _dot(h, dc)
    dc_sum = _sum(dc)
    if N_sum is None:
        N_sum = _sum(N)
    quad = (hdc * hdc - theta * R / N_sum * (dc_sum * dc_sum)
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
    """(d1, d2, o1, o2, g00, dc, c): delta = diag(d1, d2) and g^T grad A =
    (o1, o2) in the feedback u = -(I + K delta)^(-1) K g^T grad A, and the
    :func:`flow_column` (g00, dc, c) they use, which :func:`em_update`
    takes too.  Each quantity is computed once: sum N feeds both the
    potentials and M, and S, which the feedback does not read, is not
    computed at all."""
    N_sum = _sum(N)
    h, mu_over_T, theta, _, _ = potentials(net, N, T, N_sum)
    g00, dc, c = flow_column(net, N, h)
    d1, d2 = feedthrough(net, mixing_scale(net, N, h, theta, g00, dc, N_sum),
                         theta)
    grad_U, grad_N = availability_gradient(T_star, mu_star_over_T, T, mu_over_T)
    return d1, d2, g00 * grad_U + _dot(dc, grad_N), grad_U, g00, dc, c


def sde_terms(net, N, T, q, Qdot, column=None):
    """Drift (dU, dN) and diffusion entries (a, b_U, b_N, c_U) under inputs
    (q, Qdot): reaction noise a = rho1 flux on N, flow noise rho2 q (g00, dc),
    heat noise c_U = rho3 Qdot.  ``column`` is the :func:`flow_column`
    (g00, dc, c) at (N, T) if the caller has it; the rates are taken at
    its concentrations c."""
    g00, dc, c = column or flow_column(net, N, enthalpy(net, T))
    forward, backward = mass_action(net, c, T)
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
