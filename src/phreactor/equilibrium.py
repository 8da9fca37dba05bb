"""Steady states of the reactor and their local stability.

At fixed temperature T and flow q the stationary mole balance

    0 = V nu (r_f(c, T) - r_b(c, T)) + q (c_in - N/V)

is solved by damped Newton iteration with its exact Jacobian
nu (dr_f/dc - dr_b/dc) - (q/V) I, from the kernel's mass-action
derivatives, for one T or a batch of them.  The scan solves a temperature
grid as one batch, retries each point that fails from its nearest
converged lower-T point, and narrows every sign change of

    E(T) = q (c_in^T h(T_in) - N(T)^T h(T)/V) + lambda (T_w - T),

the stationary energy residual under a jacket at T_w, by the ITP method
(interpolate, truncate, project), all brackets in lockstep; exothermic
networks can have several roots, classified in one batch by the eigenvalues
of finite-difference Jacobians of the deterministic drift (:func:`classify`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import kernel
from .network import ReactionNetwork
from .thermo import N_FLOOR, ThermoDomainError, ThermoState, internal_energy

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


def drift_residual(net: ReactionNetwork, x, u):
    """Scaled norm of the deterministic drift at (x, u).

    Components are scaled by (max(|U|, 1), max(N_j, 1e-6)) so the value is
    comparable across operating points; every converged steady state keeps
    it below 1e-8.  Rows x (R, n), u (R, 2) give R norms, each as alone,
    and the first row outside the domain raises its error.
    """
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    N = x[..., 1:]
    fine = (N.shape[-1:] == (net.n_species,) and np.isfinite(N).all()
            and (N > N_FLOOR).all())
    T = kernel.temperature(net, x[..., 0], N) if fine else None
    if not (fine and np.all((0 < T) & (T < math.inf))):
        for row in x.reshape(-1, x.shape[-1]):
            ThermoState.from_vector(net, row)
    dU, dN = kernel.sde_terms(net, N, T, u[..., 0], u[..., 1])[0]
    scaled = np.concatenate((dU[..., None], dN), -1) / np.maximum(
        np.abs(x), [1.0] + [1e-6] * net.n_species)
    norm = np.sqrt(np.vecdot(scaled, scaled))
    return float(norm) if x.ndim == 1 else norm


def _balance(net: ReactionNetwork, N, k_T, q):
    """Per row: the mole balance's norm, residual and convergence scale,
    given the rows' Arrhenius constants k_T (:func:`kernel.rate_constants`)."""
    c = N / net.reactor.V
    forward, backward = kernel.mass_action(net, c, k_T)
    f = (kernel.reaction_flux(net, forward - backward)
         + q * kernel.feed_gap(net, c))
    turnover = net.reactor.V * np.add.reduce(forward + backward, -1)
    floor = max(q * max(net.inlet.c_in), 1e-300)
    return np.sqrt(np.vecdot(f, f)), f, np.maximum(turnover, floor)


def _balance_jacobian(net: ReactionNetwork, N, k_T, q):
    """Per row: the mole balance's exact Jacobian in N,
    nu (dr_f/dc - dr_b/dc) - (q / V) I, given the constants k_T."""
    V = net.reactor.V
    dr_f, dr_b = kernel.mass_action_jacobian(net, N / V, k_T)
    # entry (k, j) is row k of nu dotted with column j of dr
    dr = (dr_f - dr_b).swapaxes(-1, -2)[..., None, :, :]
    return (np.vecdot(net.stoich_net[:, None, :], dr)
            - q / V * np.eye(net.n_species))


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

    Damped Newton from N = V c_in (or the warm start N0) with the exact
    Jacobian (:func:`kernel.mass_action_jacobian`, so also at a zero
    concentration) and step halving on residual increase.  T of shape (B,)
    solves B rows as one batch and gives N of shape (B, p).  The Arrhenius
    constants of every row are evaluated once per call
    (:func:`kernel.rate_constants`), since T stays fixed through the solve.
    A row leaves the working set (a slice of all B until one leaves) with
    its constants when it converges; every live row takes its full step,
    and only the rows whose norm does not fall enough are gathered and
    halve it, so the batch pays for its live rows only and each row keeps
    the bits of its lone solve.  Raises :class:`ConvergenceError` naming
    the combination of mole numbers the network conserves at q = 0
    (:func:`conserved_moles`), which leaves N undetermined, the first T not
    converged in ``MAX_NEWTON_ITER`` iterations, or a T where the solve
    meets a singular Jacobian; and :class:`ValueError` if a solution has a
    negative component.
    """
    Ts = np.asarray(T, dtype=float).reshape(-1)
    N = np.empty((Ts.size, net.n_species))
    N[...] = net.reactor.V * net.c_in if N0 is None else N0
    done = np.zeros(Ts.size, dtype=bool)
    if q == 0 and (conserved := conserved_moles(net)):
        raise ConvergenceError(f"at q=0 the closed reactor conserves "
                               f"{conserved}, so the mole balance does not "
                               "determine N", N, done)
    rows, Nw, kw, conv = slice(None), N, kernel.rate_constants(net, Ts), done
    best, f, scale = _balance(net, N, kw, q)
    for _ in range(MAX_NEWTON_ITER):
        # max |f_j| column by column: numpy reduces a short axis row by row
        conv = reduce(np.maximum, np.abs(f).T) <= 1e-12 * scale
        if conv.all():
            break
        if conv.any():  # converged rows leave the working set
            at, keep = np.arange(Ts.size)[rows], ~conv
            N[at[conv]], done[at[conv]] = Nw[conv], True
            rows, Nw, kw, f, best = (a[keep] for a in (at, Nw, kw, f, best))
        J = _balance_jacobian(net, Nw, kw, q)
        try:
            step = np.linalg.solve(J, -f[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            N[rows], T_bad = Nw, Ts[rows][np.argmin(np.abs(np.linalg.det(J)))]
            raise ConvergenceError(f"singular Jacobian at T={T_bad}", N, done) from exc
        # every row takes its full step; only the rows whose norm does not
        # fall enough are gathered and halve it, round by round
        N_old, best_old = Nw, best
        Nw = np.maximum(N_old + step, 0.0)
        best, f, scale = _balance(net, Nw, kw, q)
        ok, i, alpha = best <= (1.0 - 1e-4) * best_old, slice(None), 1.0
        while not ok.all():
            i, alpha = np.arange(len(Nw))[i][~ok], 0.5 * alpha
            N_try = np.maximum(N_old[i] + alpha * step[i], 0.0)
            norm, f[i], scale[i] = _balance(net, N_try, kw[i], q)
            Nw[i], best[i] = N_try, norm
            ok = (norm <= (1.0 - 1e-4 * alpha) * best_old[i]) | (alpha < 1e-8)
    N[rows], done[rows] = Nw, conv.all()  # all rows left converged, or none
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


def classify(net: ReactionNetwork, x, u,
             jacket: tuple[float, float] | None = None):
    """Classify a stationary state by the drift Jacobian's spectrum.

    With ``jacket=None`` the inputs u = (q, Qdot) are held fixed.  With
    ``jacket=(lam, T_w)`` the heat input follows the jacket law
    Qdot = lam (T_w - T(x)), which adds thermal feedback and is the
    physically relevant linearization for a jacket held at constant
    temperature.  The perturbed states are evaluated as one batch, each
    checked like a :class:`ThermoState`; rows x (R, n), u (R, 2) classify R
    states in that batch, each as alone, and the first bad row raises its
    error.

    Returns ("stable" | "unstable" | "marginal", eigenvalues), or R of each.
    """
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    n, k = x.shape[-1], np.arange(x.shape[-1])
    h = 1e-6 * np.maximum(np.abs(x), 1.0)
    X = np.repeat(x[..., None, :], 2 * n, -2)  # per state: +h rows, -h rows
    X[..., k, k] += h
    X[..., n + k, k] -= h
    N = (flat := X.reshape(-1, n))[:, 1:]
    fine = N.shape[1] == net.n_species and not np.any(N <= N_FLOOR)
    T = kernel.temperature(net, flat[:, 0], N) if fine else None
    if not (fine and np.all(T > 0)):
        if x.ndim > 1:  # the first bad row raises its own error
            for row, inputs in zip(x.reshape(-1, n), u.reshape(-1, 2)):
                classify(net, row, inputs, jacket)
        if not fine:
            raise ThermoDomainError(
                f"perturbed N needs {net.n_species} entries > {N_FLOOR}")
        raise ThermoDomainError(f"temperature {T.min()} K is not positive")
    q, Qdot = np.repeat(u.reshape(-1, 2), 2 * n, 0).T
    Qdot = Qdot if jacket is None else jacket[0] * (jacket[1] - T)
    D = np.column_stack(kernel.sde_terms(net, N, T, q, Qdot)[0]).reshape(X.shape)
    eigs = np.linalg.eigvals(((D[..., :n, :] - D[..., n:, :])
                              / (2.0 * h)[..., :, None]).swapaxes(-1, -2))
    labels = ["marginal" if abs(max_re) < MARGINAL_TOL
              else "stable" if max_re < 0 else "unstable"
              for max_re in np.atleast_1d(np.max(eigs.real, -1)).tolist()]
    if x.ndim == 1:
        return labels[0], eigs
    # eigvals makes a whole stack complex if one row is: give each row the
    # dtype of its lone call
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
    are finite, grid >= 2 and 0 < T_lo < T_hi, both finite.
    """
    T_lo, T_hi = T_range
    bad = [f"q={q}"] if not 0.0 < q < math.inf else []
    if not math.isfinite(T_w):
        bad.append(f"T_w={T_w}")
    if not (grid >= 2 and 0.0 < T_lo < T_hi < math.inf):
        bad.append(f"grid={grid}, T_range={T_range}")
    if bad:
        raise ValueError("the scan needs finite q > 0 and T_w, grid >= 2 and "
                         "0 < Tmin < Tmax, both finite; got " + ", ".join(bad))
    lam, Ts = net.reactor.lam, np.linspace(T_lo, T_hi, grid)

    def energy(T, N):
        g00 = kernel.flow_column(net, N, kernel.enthalpy(net, T))[0]
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
                            np.column_stack((np.full(len(U), q), Qdot)),
                            jacket=(lam, T_w))
    rows = zip(root_T, root_N, U, Qdot, labels, eigs)  # in temperature order
    return [SteadyState(T, N, U_T, q, Qdot_T, T_w, label, e)
            for T, N, U_T, Qdot_T, label, e in rows]
