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
every dot product over species is one ``np.vecdot`` per row (:func:`_dot`,
whose bits vary by host), never a matrix product, whose summation order
depends on the operand shapes, and squares are written ``x * x``, since a
scalar ``x ** 2`` calls ``pow`` where an array's multiplies.  The dense
Hessian of -S, which is not row-safe, lives in :mod:`thermo`.

One closed-loop step computes each quantity once: :func:`feedback_terms`
takes sum N once for the S-free closures (:func:`potentials`) and the
mixing scale, computes no entropy S (the step never reads it), and hands
its flow column (g00, dc, c = N / V) to :func:`em_update`, whose rates
read the concentrations c from it.  The constants come derived once, from
the network's :class:`StepConstants`, and multiplicities of 0 or 1 gather
concentrations instead of raising them to powers, in the rates and in their
derivatives alike, with the same bits save a NaN's sign, which pow drops.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

#: See :func:`step_constants`.
StepConstants = namedtuple("StepConstants", "neg_cp k0 neg_E stoich slots "
                           "grad_slots half_rho2_sq half_rho3_sq V R T_ref PV "
                           "c_in h_in")


def step_constants(net) -> StepConstants:
    """The constants of ``net``'s formulas, cached as ``net.step_constants``,
    each as exact as inline: -cp; k0, -E and the multiplicities (p, 2 r) of
    the forward then the backward directions, with :func:`_species_slots`
    and :func:`_gradient_slots`; 0.5 rho2^2 and 0.5 rho3^2; V, R, T_ref and
    P V; c_in and the inlet enthalpy density c_in^T h(T_in)."""
    rx, rho = net.reactor, net.noise
    stoich = np.hstack((net.stoich_reactants, net.stoich_products))
    return StepConstants(
        -net.cp, np.concatenate((net.k0f, net.k0b)),
        -np.concatenate((net.Ef, net.Eb)), stoich, _species_slots(stoich),
        _gradient_slots(stoich),
        0.5 * rho.rho2 ** 2, 0.5 * rho.rho3 ** 2, rx.V, rx.R_gas, rx.T_ref,
        rx.P * rx.V, net.c_in, float(net.c_in @ enthalpy(net, net.inlet.T_in)))


def _col(a):
    """``a`` with a trailing axis, so a per-row value broadcasts over a row;
    a scalar broadcasts as it is."""
    return a[..., None] if isinstance(a, np.ndarray) else a


#: Row-wise a . b over the last axis; a 1-D call gives ``a @ b``.  Both are
#: OpenBLAS ``ddot``, whose kernel is picked by CPU core type at run time:
#: a two-term row is fma(a1, b1, a0 b0) on SkylakeX, a0 b0 + a1 b1 on Haswell.
_dot = np.vecdot


def enthalpy(net, T) -> np.ndarray:
    """h_j(T) = cp_j (T - T_ref) + h_ref_j, J/mol."""
    return net.cp * (_col(T) - net.reactor.T_ref) + net.h_ref


def temperature(net, U, N):
    """T(U, N) = T_ref + (U + P V - N^T h_ref) / N^T cp."""
    k = net.step_constants
    return k.T_ref + (U + k.PV - _dot(N, net.h_ref)) / _dot(N, net.cp)


def potentials(net, N, T, N_sum):
    """The closures other than S at (N, T), given N_sum = sum N:
    (h, mu/T, theta, log(T / T_ref), log x); :func:`closures` takes S from
    the last two."""
    k = net.step_constants
    h = enthalpy(net, T)
    T_col = _col(T)
    log_tau = np.log(T_col / k.T_ref)
    log_x = np.log(N / _col(N_sum))
    mu_over_T = k.neg_cp * log_tau + k.R * log_x - net.s_ref + h / T_col
    return h, mu_over_T, T * T * _dot(N, net.cp), log_tau, log_x


def closures(net, N, T):
    """(h, mu/T, S, theta) at (N, T); see :mod:`thermo` for the formulas."""
    h, mu_over_T, theta, log_tau, log_x = potentials(net, N, T,
                                                     np.add.reduce(N, -1))
    S = _dot(N, net.cp * log_tau + net.s_ref - net.step_constants.R * log_x)
    return h, mu_over_T, S, theta


def _species_product(c, stoich, slots=None):
    """prod_j c_j ** stoich[j] over the species j, multiplied in species
    order.  The powers are ``np.float_power``'s, which takes libm's ``pow``
    element by element: ``**`` runs numpy's vectorised ``pow`` on contiguous
    operands and the scalar one on broadcast ones, which round apart in the
    last bit, so a batch row could differ from the row alone.  Given its
    :func:`_species_slots`, it multiplies gathered c_j instead, with the
    same bits: pow(x, 1) = x, pow(x, 0) = 1 and x * 1 = x save a NaN's sign."""
    if slots is None:
        return _ordered_product(np.float_power(c[..., :, None], stoich))
    index, pad = slots
    if pad:  # a column with fewer species reads 1 from an appended slot
        c = np.concatenate((c, np.ones_like(c[..., :1])), -1)
    return _ordered_product(c.take(index, -1))


def _species_slots(stoich):
    """(index, pad) when every multiplicity in ``stoich`` is 0 or 1, else
    None.  Row k of the index array holds each column's k-th species of
    multiplicity 1 in species order, or, past its last, p: an appended
    slot that reads 1; ``pad`` says whether any slot is p."""
    columns, p = stoich.T.tolist(), len(stoich)  # lists: a tiny matrix
    if all(v in (0.0, 1.0) for column in columns for v in column):
        index = [[j for j, v in enumerate(column) if v] for column in columns]
        m = max(map(len, index), default=1) or 1
        index = [species + [p] * (m - len(species)) for species in index]
        return (np.array(index, dtype=int).reshape(-1, m).T,
                any(p in species for species in index))


def _gradient_slots(stoich):
    """The index into (c, 1, 0) of :func:`_species_product_gradient`'s
    factors when every multiplicity is 0 or 1, else None: entry (j, l, i)
    reads c_l or 1 by stoich[l, i], and stoich[j, i] itself at l = j."""
    p, one = len(stoich), stoich == 1.0
    if (one | (stoich == 0.0)).all():
        diagonal = np.eye(p, dtype=bool)[..., None]
        return np.where(diagonal, np.where(one, p, p + 1)[:, None],
                        np.where(one, np.arange(p)[:, None], p))


def _species_product_gradient(c, stoich, index=None):
    """The derivatives of :func:`_species_product` in c, shape (..., p, r):
    entry (j, i) is stoich[j, i] c_j ** (stoich[j, i] - 1) times the other
    species' powers of reaction i.  The lowered power is taken as
    stoich c_j ** max(stoich - 1, 0), so it is exact at c_j = 0.  Given its
    :func:`_gradient_slots`, it gathers the factors instead."""
    if index is not None:  # (c, 1, 0), read through the index
        ext = np.zeros((*c.shape[:-1], len(stoich) + 2))
        ext[..., :-2], ext[..., -2] = c, 1.0
        return _ordered_product(ext[..., index])
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
    """Arrhenius constants k0 exp(-E / (R T)) of the forward then the
    backward direction of each reaction, shape (..., 2 r)."""
    k = net.step_constants
    return k.k0 * np.exp(k.neg_E / _col(k.R * T))


def mass_action(net, c, T) -> tuple[np.ndarray, np.ndarray]:
    """Arrhenius mass-action rates (r_f, r_b) at concentrations c."""
    k = net.step_constants
    rates = _rate_constants(net, T) * _species_product(c, k.stoich, k.slots)
    return rates[..., :len(net.reactions)], rates[..., len(net.reactions):]


def mass_action_jacobian(net, c, T):
    """(dr_f/dc, dr_b/dc): the exact derivatives of the :func:`mass_action`
    rates in c, shape (..., r, p), entry (i, j) = k_i alpha_ij
    c_j ** (alpha_ij - 1) prod_{l != j} c_l ** alpha_il for the
    multiplicities alpha of that side; exact at c_j = 0."""
    k = net.step_constants
    J = (_rate_constants(net, T)[..., None, :] * _species_product_gradient(
        c, k.stoich, k.grad_slots)).swapaxes(-1, -2)
    return J[..., :len(net.reactions), :], J[..., len(net.reactions):, :]


def reaction_flux(net, rate_net) -> np.ndarray:
    """V nu (r_f - r_b): moles produced by reaction, mol/s."""
    return net.step_constants.V * _dot(net.stoich_net, rate_net[..., None, :])


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
    return net.step_constants.c_in - c


def flow_column(net, N, h):
    """(g00, dc, c): the flow column (g00, dc) of g,
    g00 = c_in^T h(T_in) - N^T h / V, and the concentrations c = N / V."""
    k = net.step_constants
    c = N / k.V
    g00 = k.h_in - _dot(N, h) / k.V
    return g00, feed_gap(net, c), c


def mixing_scale(net, N, h, theta, g00, dc, N_sum=None):
    """theta (g00, dc)^T Hess(-S) (g00, dc) for a direction (g00, dc) on
    (U, N), explicitly

        dc^T (h h^T - (theta R / sum N) 11^T + diag(theta R / N_j)) dc
        - 2 g00 h^T dc + g00^2;

    the mixing scale M when (g00, dc) is the flow column of g.  ``N_sum``
    is sum N if the caller has it."""
    R = net.step_constants.R
    hdc = _dot(h, dc)
    dc_sum = np.add.reduce(dc, -1)
    if N_sum is None:
        N_sum = np.add.reduce(N, -1)
    quad = (hdc * hdc - theta * R / N_sum * (dc_sum * dc_sum)
            + theta * R * _dot(dc, dc / N))
    return quad - 2.0 * g00 * hdc + g00 * g00


def feedthrough(net, M, theta):
    """Diagonal of delta = diag(rho2^2 M / (2 theta), rho3^2 / (2 theta))."""
    k = net.step_constants
    return k.half_rho2_sq * M / theta, k.half_rho3_sq / theta


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
    N_sum = np.add.reduce(N, -1)
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
        w0, w1, w2 = dW.T  # a lone state's are scalars: no 0-d arithmetic
        U_new = U_new + (b_U * w1 + c_U * w2)
        N_new = N_new + a * _col(w0) + b_N * _col(w1)
    return U_new, N_new


def jacket_temperature(net, Qdot, T):
    """T_w = Qdot / lambda + T, NaN without a heat transfer path."""
    lam = net.reactor.lam
    return Qdot / lam + T if lam > 0 else math.nan
