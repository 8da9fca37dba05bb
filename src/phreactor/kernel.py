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
the network's :class:`StepConstants`.  The rates and their derivatives take
no ``pow``: c_j ** alpha is c_j gathered alpha times, in species order, for
every multiplicity alpha (:func:`_gathers`), and they take the Arrhenius
constants of :func:`rate_constants`, so a solve at fixed T evaluates those
once.  The paper's three passivity and noise conditions are written once,
in :func:`margins`.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

#: See :func:`step_constants`.
StepConstants = namedtuple("StepConstants", "neg_cp k0 neg_E slots grad_slots "
                           "half_rho2_sq half_rho3_sq V R T_ref PV c_in h_in")


def step_constants(net) -> StepConstants:
    """The constants of ``net``'s formulas, cached as ``net.step_constants``,
    each as exact as inline: -cp; k0 and -E of the forward then the backward
    directions, with the :func:`_gathers` of their multiplicities; 0.5 rho2^2
    and 0.5 rho3^2; V, R, T_ref and P V; c_in and the inlet enthalpy density
    c_in^T h(T_in)."""
    rx, rho = net.reactor, net.noise
    return StepConstants(
        -net.cp, np.concatenate((net.k0f, net.k0b)),
        -np.concatenate((net.Ef, net.Eb)),
        *_gathers(np.hstack((net.stoich_reactants, net.stoich_products))),
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


def _gathers(stoich):
    """(slots, grad_slots): the gathers of :func:`_gathered_product` for
    prod_l c_l ** alpha_l over each column alpha of ``stoich``, shape
    (m, 2 r), and for its derivatives in each c_j, shape (p, m', 2 r).  The
    product lists each c_l alpha_l times; the derivative in c_j lists alpha_j
    at l = j, then c_j alpha_j - 1 times, then each other c_l alpha_l times,
    all in species order.  Slot p + v reads v from the gather's tail
    (0, 1, ...), empty when only c is read; slot p + 1 (1) pads the lists."""
    p, columns = len(stoich), stoich.T.tolist()
    if not all(a >= 0 and a % 1 == 0 for column in columns for a in column):
        raise ValueError(f"multiplicities must be integers >= 0: {columns}")
    columns = [[int(a) for a in column] for column in columns]

    def slots(column, j):  # derivative in c_j, or the product for j = None
        return [s for l, a in enumerate(column)
                for s in ([p + a] + [l] * (a - 1) if l == j else [l] * a)]

    def gather(rows):
        lists = [[slots(column, j) for column in columns] for j in rows]
        m = max((len(f) for row in lists for f in row), default=1) or 1
        index = np.array([[f + [p + 1] * (m - len(f)) for f in row]
                          for row in lists], dtype=np.intp)
        index = index.reshape(len(rows), -1, m).swapaxes(-1, -2)
        return index, np.arange(max(index.max(initial=0) - p + 1, 0),
                                dtype=float)

    (product, tail), gradient = gather([None]), gather(range(p))
    return (product[0], tail), gradient


def _gathered_product(c, gather):
    """The product of each list of factors that ``gather`` (see
    :func:`_gathers`) reads from c and its tail of constants, multiplied in
    list order.  Every multiplicity is a gather, so the rates take no
    ``pow``: a square c * c is correctly rounded, and an appended 1 exact."""
    index, tail = gather
    if len(tail):  # slot p + v reads v; the zeros give v = 0
        p = c.shape[-1]
        ext = np.zeros((*c.shape[:-1], p + len(tail)))
        ext[..., :p], ext[..., p + 1:] = c, tail[1:]
        c = ext
    factors = c[..., index]
    product = factors[..., 0, :]
    for k in range(1, index.shape[-2]):
        product = product * factors[..., k, :]
    return product


def rate_constants(net, T):
    """Arrhenius constants k0 exp(-E / (R T)) of the forward then the
    backward direction of each reaction, shape (..., 2 r): the ``k_T`` that
    :func:`mass_action` and :func:`mass_action_jacobian` take."""
    k = net.step_constants
    return k.k0 * np.exp(k.neg_E / _col(k.R * T))


def mass_action(net, c, k_T) -> tuple[np.ndarray, np.ndarray]:
    """Mass-action rates (r_f, r_b) at concentrations c, given the
    Arrhenius constants k_T = :func:`rate_constants` at the temperature;
    a caller that holds T fixed over many c evaluates k_T once."""
    rates = k_T * _gathered_product(c, net.step_constants.slots)
    return rates[..., :len(net.reactions)], rates[..., len(net.reactions):]


def mass_action_jacobian(net, c, k_T):
    """(dr_f/dc, dr_b/dc): the exact derivatives of the :func:`mass_action`
    rates in c, given the same constants k_T, shape (..., r, p), entry
    (i, j) = k_i alpha_ij c_j ** (alpha_ij - 1) prod_{l != j} c_l ** alpha_il
    for the multiplicities alpha of that side; exact at c_j = 0."""
    J = (k_T[..., None, :] * _gathered_product(
        c, net.step_constants.grad_slots)).swapaxes(-1, -2)
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


def mixing_scale(net, N, h, theta, g00, dc, N_sum):
    """theta (g00, dc)^T Hess(-S) (g00, dc) for a direction (g00, dc) on
    (U, N), with N_sum = sum N, explicitly

        dc^T (h h^T - (theta R / N_sum) 11^T + diag(theta R / N_j)) dc
        - 2 g00 h^T dc + g00^2;

    the mixing scale M when (g00, dc) is the flow column of g."""
    R = net.step_constants.R
    hdc = _dot(h, dc)
    dc_sum = np.add.reduce(dc, -1)
    quad = (hdc * hdc - theta * R / N_sum * (dc_sum * dc_sum)
            + theta * R * _dot(dc, dc / N))
    return quad - 2.0 * g00 * hdc + g00 * g00


def feedthrough(net, M, theta):
    """Diagonal of delta = diag(rho2^2 M / (2 theta), rho3^2 / (2 theta))."""
    k = net.step_constants
    return k.half_rho2_sq * M / theta, k.half_rho3_sq / theta


#: See :func:`margins`.
Margins = namedtuple("Margins", "input_noise_holds input_noise_lhs "
                     "input_noise_rhs feedthrough_norm trace_holds trace_lhs "
                     "trace_rhs reaction_noise_holds reaction_noise_lhs "
                     "reaction_noise_rhs grad_flux")


def margins(net, N, T, h, mu_over_T, theta, grad_N, V_star) -> Margins:
    """The paper's three conditions at (N, T), each as (holds, lhs, rhs),
    from one flow column and one rate evaluation, with M_d the mixing scale
    along (0, d) and f = nu (r_f - r_b): rho2^4 M^2 + rho3^4 < 4 theta^2,
    and ||delta||_F; (1/2) rho1^2 M_flux / theta <= grad_N^T R_NN grad_N
    (log-mean weights, to 1e-12 relative) for a storage with Hessian
    Hess(-S) and gradient grad_N; (1/2) rho1^2 V_star M_f / theta <=
    (r_f - r_b)^T A / T.  Last grad_N^T flux: L[A] - y^T u = trace lhs + it."""
    rho, half_rho1_sq = net.noise, 0.5 * net.noise.rho1 ** 2
    g00, dc, c = flow_column(net, N, h)
    forward, backward = mass_action(net, c, rate_constants(net, T))
    rate_net, N_sum = forward - backward, np.add.reduce(N, -1)
    f = _dot(net.stoich_net, rate_net[..., None, :])
    flux = net.step_constants.V * f  # reaction_flux
    M = mixing_scale(net, N, h, theta, g00, dc, N_sum)
    noise_lhs = rho.rho2 ** 4 * M * M + rho.rho3 ** 4  # pow of constants
    noise_rhs = 4.0 * theta * theta
    trace_lhs = half_rho1_sq * mixing_scale(net, N, h, theta, 0.0, flux,
                                            N_sum) / theta
    trace_rhs = _dot(grad_N, damping_apply(
        net, damping_weights(net, forward, backward, T), T, grad_N))
    rxn_lhs = half_rho1_sq * V_star * mixing_scale(net, N, h, theta, 0.0, f,
                                                   N_sum) / theta
    rxn_rhs = _dot(rate_net, affinity(net, mu_over_T, T)) / T
    return Margins(
        noise_lhs < noise_rhs, noise_lhs, noise_rhs,
        0.5 * np.sqrt(noise_lhs) / theta,
        trace_lhs <= trace_rhs + 1e-12 * np.maximum(1.0, np.abs(trace_rhs)),
        trace_lhs, trace_rhs, rxn_lhs <= rxn_rhs, rxn_lhs, rxn_rhs,
        _dot(grad_N, flux))


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
    forward, backward = mass_action(net, c, rate_constants(net, T))
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
