"""Steady states of the reactor and their local stability.

At fixed temperature T and flow q the stationary mole balance

    0 = V nu (r_f(c, T) - r_b(c, T)) + q (c_in - N/V)

is solved by damped Newton iteration with its exact Jacobian
nu (dr_f/dc - dr_b/dc) - (q/V) I, from the kernel's mass-action
derivatives, and its own p x p elimination (:func:`kernel.solve`): one
body on floats for one T and on (B,) columns for a batch.  The scan solves
a temperature grid as one batch, retries each point that fails from its
nearest converged lower-T point, and narrows every sign change of

    E(T) = q (c_in^T h(T_in) - N(T)^T h(T)/V) + lambda (T_w - T),

the stationary energy residual under a jacket at T_w, by the ITP method
(interpolate, truncate, project), all brackets in lockstep; exothermic
networks can have several roots, classified in one batch by the spectra of
the deterministic drift's exact Jacobians (:func:`classify`).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import reduce
from operator import add, and_, sub

import numpy as np

from . import kernel
from .network import ReactionNetwork
from .thermo import N_FLOOR, ThermoState, internal_energy

#: Newton iterations :func:`mass_balance_steady` takes before it gives up.
MAX_NEWTON_ITER = 200

#: ITP root bracketing (Oliveira & Takahashi, ACM TOMS 47(1), 2020): each
#: root ends in a bracket at most 2 ROOT_EPS kelvin wide; the truncation is
#: ITP_KAPPA1 / w (b - a)^ITP_KAPPA2 for grid cells w kelvin wide; a bracket
#: takes at most ITP_N0 rounds more than bisection would.
ROOT_EPS, ITP_KAPPA1, ITP_KAPPA2, ITP_N0 = 2.5e-7, 0.004, 2, 1


class ConvergenceError(RuntimeError):
    """A steady-state solve failed to converge.  ``N`` holds the last
    iterate of every row and ``converged`` marks the rows that converged."""

    def __init__(self, message: str, N=None, converged=None):
        super().__init__(message)
        self.N, self.converged = N, converged


def _state(net: ReactionNetwork, x):
    """Species-major N and T(U, N) at rows x = (U, N) of any leading shape;
    the first row outside the domain raises its :class:`ThermoState` error."""
    N = np.moveaxis(x[..., 1:], -1, 0)  # species-major
    fine = len(N) == net.n_species and np.all((N_FLOOR < N) & (N < math.inf))
    T = kernel.temperature(net, x[..., 0], N) if fine else None
    if not (fine and np.all((0 < T) & (T < math.inf))):
        for row in x.reshape(-1, x.shape[-1]):
            ThermoState.from_vector(net, row)
    return N, T


def drift_residual(net: ReactionNetwork, x, u):
    """Scaled norm of the deterministic drift at (x, u).

    Components are scaled by (max(|U|, 1), max(N_j, 1e-6)) so the value is
    comparable across operating points; every converged steady state keeps
    it below 1e-8.  Rows x (R, n), u (R, 2) give R norms, each as alone,
    and the first row outside the domain raises its error.
    """
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    dU, dN = kernel.sde_terms(net, *_state(net, x), u[..., 0], u[..., 1])[0]
    scaled = np.moveaxis(np.stack((dU, *dN), -1) / np.maximum(
        np.abs(x), [1.0] + [1e-6] * net.n_species), -1, 0)
    norm = np.sqrt(kernel.dot(scaled, scaled))  # BLAS ddot's bits vary by CPU
    return float(norm) if x.ndim == 1 else norm


def _residual(net: ReactionNetwork, c, k_T, q):
    """The mole balance f and the turnover V sum (r_f + r_b) at species-major
    concentrations c: one row's floats or a batch's columns."""
    forward, backward = kernel.mass_action(net, c, k_T)
    f = [flux + q * gap for flux, gap in zip(kernel.reaction_flux(
        net, list(map(sub, forward, backward))), kernel.feed_gap(net, c))]
    return f, net.step_constants.V * kernel.total(map(add, forward, backward))


def _jacobian(net: ReactionNetwork, c, k_T, q):
    """The exact Jacobian in N, nu (dr_f/dc - dr_b/dc) - (q / V) I, at
    species-major concentrations c, p rows of p items."""
    dr_f, dr_b = kernel.mass_action_jacobian(net, c, k_T)
    dr = [[f[j] - b[j] for f, b in zip(dr_f, dr_b)] for j in range(len(c))]
    J = [[kernel.dot(nu_k, dr_j) for dr_j in dr]  # nu_k by column j of dr
         for nu_k in net.step_constants.nu]
    for k, row in enumerate(J):
        row[k] = row[k] - q / net.step_constants.V
    return J


def _drift_jacobian(net: ReactionNetwork, N, T, q, lam):
    """The drift's exact Jacobian in (U, N), p + 1 rows of p + 1 items, at
    species-major N and T(U, N), one state's floats or (B,) columns, under
    flow q and Qdot = lam (T_w - T), lam 0.0 for a fixed Qdot: with C = N^T cp,
    dT/dU = 1 / C, dT/dN_j = -h_j / C and dk_i/dT = k_i E_i / (R T^2)."""
    k, k_T = net.step_constants, kernel.rate_constants(net, T)
    c, C, RTT = [n / k.V for n in N], kernel.dot(N, k.cp), k.R * T * T
    f_T = kernel.reaction_flux(net, list(map(sub, *kernel.mass_action(
        net, c, [k_i * (-neg_E / RTT) for k_i, neg_E in zip(k_T, k.neg_E)]))))
    h_C = [h / C for h in kernel.enthalpy(net, T)]
    return [[-q / k.V - lam / C, *[lam * h for h in h_C]],
            *([f / C, *[J_ij - f * h for J_ij, h in zip(row, h_C)]]
              for f, row in zip(f_T, _jacobian(net, c, k_T, q)))]


def _newton(net: ReactionNetwork, Ts, q, N, k_T):
    """The damped Newton from species-major N, one row's floats on the float
    view or (B,) columns, given the rows' constants k_T: each row's last
    iterate (B, p), whether it converged, and the first T whose Jacobian is
    singular, if one stops it.  Converged rows leave the working set; rows
    that fail the decrease test halve their step, gathered unless all do."""
    k, rows, singular = net.step_constants, slice(None), None
    out, done = np.empty((Ts.size, len(N))), np.zeros(Ts.size, dtype=bool)
    floor = max(q * max(k.c_in), 1e-300)

    def balance(N, k_T):  # the norm, the residual and the converged rows
        f, turnover = _residual(net, [n / k.V for n in N], k_T, q)
        tol = 1e-12 * k.where(floor > turnover, floor, turnover)  # np.maximum
        return (k.sqrt(kernel.dot(f, f)), f,
                reduce(and_, [abs(f_j) <= tol for f_j in f]))

    best, f, conv = balance(N, k_T)
    for _ in range(MAX_NEWTON_ITER):
        if k.all(conv):
            break
        if k.any(conv):  # converged rows leave the working set
            rows, keep = np.arange(Ts.size)[rows], ~conv
            out[rows[conv]], done[rows[conv]] = np.array([n[conv] for n in N]).T, True
            rows, best, N, f, k_T = rows[keep], best[keep], *(
                [a[keep] for a in x] for x in (N, f, k_T))
        try:
            step = kernel.solve(net, _jacobian(net, [n / k.V for n in N], k_T,
                                               q), [-f_j for f_j in f])
        except ZeroDivisionError as exc:  # args[1] marks the singular rows
            singular = Ts[rows][np.argmax(exc.args[1])]
            break
        # every row takes its full step (alpha 1.0), clamped as np.maximum(N,
        # 0.0) (NaN stays); the rows whose norm does not fall enough halve it
        N_old, best_old, k_h, alpha, at, ok = N, best, k_T, 2.0, None, False
        while not k.all(ok):
            if k.any(ok):  # gather the rows that halve
                at, fail = np.flatnonzero(~ok) if at is None else at[~ok], ~ok
                N_old, step, k_h = ([a[fail] for a in x]
                                    for x in (N_old, step, k_h))
                best_old = best_old[fail]
            alpha = 0.5 * alpha
            N_try = [k.where(n <= 0.0, 0.0, n) for n in map(
                add, N_old, [alpha * s for s in step])]
            norm, f_try, conv_try = balance(N_try, k_h)
            if at is None:
                N, best, f, conv = N_try, norm, f_try, conv_try
            else:
                for whole, part in zip((*N, *f, best, conv),
                                       (*N_try, *f_try, norm, conv_try)):
                    whole[at] = part
            ok = (norm <= (1.0 - 1e-4 * alpha) * best_old) | (alpha < 1e-8)
    else:
        conv = False
    out[rows], done[rows] = np.array(N).T, k.all(conv)
    return out, done, singular


def conserved_moles(net: ReactionNetwork) -> str:
    """The combinations w^T N of mole numbers that no reaction changes
    (w^T nu = 0), as text: the combination, its first weight scaled to 1,
    when there is one, else how many there are; empty if none."""
    nu = net.stoich_net
    basis = np.linalg.svd(nu)[0][:, np.linalg.matrix_rank(nu):].T
    if len(basis) != 1:
        return (f"{len(basis)} independent combinations of mole numbers"
                if len(basis) else "")
    w = basis[0] / basis[0][np.abs(basis[0]) > 1e-9][0]
    terms = []
    for c, name in zip(w, net.species_names):
        if abs(c) > 1e-9:
            weight = "" if abs(abs(c) - 1.0) < 1e-9 else f"{abs(c):.6g} "
            terms.append(f"{'-' if c < 0 else '+'} {weight}N_{name}")
    return " ".join(terms).removeprefix("+ ")


def mass_balance_steady(net: ReactionNetwork, T, q: float,
                        N0=None) -> np.ndarray:
    """Solve the stationary mole balance at (T, q) for the composition N.

    Damped Newton (:func:`_newton`) from N = V c_in (or the warm start N0)
    with the exact Jacobian (:func:`kernel.mass_action_jacobian`, so also at
    a zero concentration), the kernel's p x p :func:`kernel.solve` and step
    halving on residual increase.  A scalar T iterates on the float view's
    Python floats and returns a converged, finite, nonnegative N; any other
    outcome, a residual norm that overflows included (the view's sqrt of
    inf raises), is repeated as a one-row batch, for its errors and numpy's
    warnings.  T of shape (B,) solves B rows as one batch on (B,) columns
    and gives N of shape (B, p); each row has the bits of its lone solve,
    and the Arrhenius constants of every row are evaluated once per call
    (:func:`kernel.rate_constants`).  Raises :class:`ConvergenceError`
    naming the combination of mole numbers the network conserves at q = 0
    (:func:`conserved_moles`), which leaves N undetermined, the first T not
    converged in ``MAX_NEWTON_ITER`` iterations, or the first T whose
    Jacobian is singular (a zero pivot), with every row's last iterate; and
    :class:`ValueError` if a solution has a negative component.
    """
    Ts = np.asarray(T, dtype=float).reshape(-1)
    N = np.empty((Ts.size, net.n_species))
    N[...] = net.reactor.V * net.c_in if N0 is None else N0
    if q == 0 and (conserved := conserved_moles(net)):
        raise ConvergenceError(f"at q=0 the closed reactor conserves "
                               f"{conserved}, so the mole balance does not "
                               "determine N", N, np.zeros(Ts.size, dtype=bool))
    kw = kernel.rate_constants(net, Ts)  # a (B,) column per constant
    if not np.ndim(T):  # on floats; the batch repeats any other outcome
        with contextlib.suppress(ZeroDivisionError):  # sqrt of inf or NaN
            lone, done, _ = _newton(net.float_view, Ts, q, N[0].tolist(),
                                    [float(k_i[0]) for k_i in kw])
            if done[0] and all(0.0 <= x < math.inf for x in lone[0].tolist()):
                return lone[0]
    N, done, singular = _newton(net, Ts, q, [*N.T], kw)
    if singular is not None:  # every row's last iterate
        raise ConvergenceError(f"singular Jacobian at T={singular}", N, done)
    if not done.all():
        raise ConvergenceError(
            f"mole balance did not converge at T={Ts[~done][0]}, q={q}", N, done)
    if (N < 0).any():
        raise ValueError("steady composition has a negative component: "
                         f"{N[(N < 0).any(-1)][0]}")
    return N if np.ndim(T) else N[0]


def _itp_point(a, b, ea, eb, kappa_1, r_k):
    """The ITP point of the bracket [a, b], whose residuals ea != 0 and eb
    differ in sign: the regula falsi point in ratio form, truncated toward
    the midpoint by kappa_1 (b - a) ** 2 and projected into the ball of
    radius r_k - (b - a) / 2 about it, which keeps bisection's bound."""
    width, half = b - a, 0.5 * (a + b)
    x_f = a + width / (1.0 - eb / ea)
    sigma = (half > x_f) - (half < x_f)
    # ITP_KAPPA2 = 2, squared by hand: a float's ** calls pow
    delta = kappa_1 * (width * width)
    x_t = x_f + sigma * delta if delta <= abs(half - x_f) else half
    r = r_k - 0.5 * width
    return x_t if abs(x_t - half) <= r else half - sigma * r


@dataclass(frozen=True)
class SteadyState:
    """One operating point sustained by (q, T_w), with its stability."""

    T: float
    N: np.ndarray
    U: float
    q: float
    Qdot: float
    T_w: float
    classification: str
    eigenvalues: np.ndarray


#: |max Re eigenvalue| below this is classified as marginal.
MARGINAL_TOL = 1e-9


def classify(net: ReactionNetwork, x, u, T_w: float | None = None):
    """Classify a stationary state by the exact drift Jacobian's spectrum.

    With ``T_w=None`` the inputs u = (q, Qdot) are held fixed; given a
    jacket temperature ``T_w`` the heat input follows the jacket law
    Qdot = lambda (T_w - T(x)), the physically relevant linearization for a
    jacket held at constant temperature.  Rows x (R, n), u (R, 2) classify
    R states, each as alone; the first state outside the domain raises the
    error :func:`drift_residual` raises for it.

    Returns ("stable" | "unstable" | "marginal", eigenvalues), or R of each.
    """
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    rows = _drift_jacobian(net, *_state(net, x), u[..., 0],
                           0.0 if T_w is None else net.step_constants.lam)
    J = np.empty(x.shape + x.shape[-1:])
    for i, j in np.ndindex(J.shape[-2:]):
        J[..., i, j] = rows[i][j]
    eigs = np.linalg.eigvals(J)
    labels = ["marginal" if abs(max_re) < MARGINAL_TOL
              else "stable" if max_re < 0 else "unstable"
              for max_re in np.atleast_1d(np.max(eigs.real, -1)).tolist()]
    if x.ndim == 1:
        return labels[0], eigs
    # eigvals makes a whole stack complex if one row is: each row's lone dtype
    return labels, [e if e.imag.any() else e.real for e in eigs]


def steady_states(net: ReactionNetwork, q: float, T_w: float,
                  T_range: tuple[float, float] = (250.0, 500.0),
                  grid: int = 2000) -> list[SteadyState]:
    """All steady states under constant flow q and jacket temperature T_w.

    Scans the stationary energy residual E(T) over ``grid`` temperatures
    spanning ``T_range``, narrows each sign change by ITP to a bracket at
    most 2 ``ROOT_EPS`` = 5e-7 K wide, in at most ``ITP_N0`` rounds more
    than bisection, takes its midpoint, and classifies each root under the
    jacket-law linearization.  Returns the roots ordered by temperature.
    Raises :class:`ValueError`, naming the bad inputs, unless q > 0 and T_w
    are finite, grid >= 2 and 0 < T_lo < T_hi <= 1e6 K, a ceiling far below
    where a window's enthalpies or ITP bound 2 ** n_max overflow a float,
    and the rate constants' E / (R T_lo) does not overflow.
    """
    (T_lo, T_hi), R = T_range, net.reactor.R_gas
    E = max(map(abs, net.step_constants.neg_E), default=0.0)
    bad = [f"q={q}"] if not 0.0 < q < math.inf else []
    if not math.isfinite(T_w):
        bad.append(f"T_w={T_w}")
    if not (grid >= 2 and 0.0 < T_lo < T_hi <= 1e6):
        bad.append(f"grid={grid}, T_range={T_range}")
    elif R * T_lo == 0.0 or math.isinf(E / (R * T_lo)):  # as rate_constants
        bound = E / np.finfo(float).max / R
        bad.append(f"Tmin={T_lo}, where E / (R Tmin) overflows: " + (
            f"Tmin must be above about {bound:.3g} K" if bound < 1e6 else
            "it overflows for every Tmin <= 1e6 K, so no window can be scanned"))
    if bad:
        raise ValueError("the scan needs finite q > 0 and T_w, grid >= 2 and "
                         "0 < Tmin < Tmax, both finite, with Tmax <= 1e6 K; "
                         "got " + ", ".join(bad))
    lam, Ts = net.reactor.lam, np.linspace(T_lo, T_hi, grid)

    def energy(T, N):
        g00 = kernel.flow_column(net, N.T, kernel.enthalpy(net, T))[0]
        return q * g00 + lam * (T_w - T)

    # Solve the grid cold, then each failed point from its nearest converged
    # lower-T point (cold if none), until a round converges none.
    comps, ok = np.empty((grid, net.n_species)), np.zeros(grid, dtype=bool)
    rows, start = slice(None), None
    while True:
        try:
            comps[rows], ok[rows] = mass_balance_steady(net, Ts[rows], q,
                                                        N0=start), True
        except ConvergenceError as exc:
            if not exc.converged.any():
                raise
            comps[rows], ok[rows] = exc.N, exc.converged
        if ok.all():
            break
        rows = np.flatnonzero(~ok)
        lower = np.maximum.accumulate(np.where(ok, np.arange(grid), -1))[rows]
        start = np.where(lower[:, None] >= 0, comps[lower], net.reactor.V * net.c_in)
    E = energy(Ts, comps)

    # ITP-narrow every sign change, each bracket [a, b, E(a), E(b)]
    # warm-started from its own last iterate and all solved in lockstep; a
    # grid point with E == 0 is a bracket of zero width.  A round's few
    # points are floats (:func:`_itp_point`), which cost less than arrays of
    # a few entries.  Signs are compared, never residuals multiplied, which
    # could overflow or underflow.
    s = np.sign(E)
    j = np.flatnonzero((E[:-1] == 0.0) | (s[:-1] == -s[1:]))
    brackets = [[a, a if ea == 0.0 else b, ea, eb] for a, b, ea, eb in zip(
        Ts[j].tolist(), Ts[j + 1].tolist(), E[j].tolist(), E[j + 1].tolist())]
    N_it, w = comps[j], float(Ts[1] - Ts[0])
    n_max, k = math.ceil(math.log2(w / (2.0 * ROOT_EPS))) + ITP_N0, 0
    while live := [i for i, (a, b, _, _) in enumerate(brackets)
                   if b - a > 2.0 * ROOT_EPS]:
        r_k = ROOT_EPS * 2.0 ** (n_max - k)
        x = np.array([_itp_point(*brackets[i], ITP_KAPPA1 / w, r_k) for i in live])
        N_it[live] = mass_balance_steady(net, x, q, N0=N_it[live])
        for bracket, x_i, e_i in zip([brackets[i] for i in live], x.tolist(),
                                     energy(x, N_it[live]).tolist()):
            if e_i == 0.0:
                bracket[:2] = x_i, x_i
            elif e_i > 0.0 if bracket[2] > 0.0 else e_i < 0.0:  # E(a)'s side
                bracket[0], bracket[2] = x_i, e_i
            else:
                bracket[1], bracket[3] = x_i, e_i
        k += 1
    root_T = np.array([0.5 * (a + b) for a, b, _, _ in brackets])
    root_N = mass_balance_steady(net, root_T, q, N0=N_it)

    U = [internal_energy(net, N, T) for T, N in zip(root_T, root_N)]
    Qdot = lam * (T_w - root_T)
    labels, eigs = classify(net, np.column_stack((U, root_N)),
                            np.column_stack((np.full(len(U), q), Qdot)), T_w)
    rows = zip(root_T, root_N, U, Qdot, labels, eigs)  # in temperature order
    return [SteadyState(T, N, U_T, q, Qdot_T, T_w, label, e)
            for T, N, U_T, Qdot_T, label, e in rows]
