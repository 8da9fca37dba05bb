"""Steady states of the reactor and their local stability.

At fixed temperature T and flow q the stationary mole balance

    0 = V nu (r_f(c, T) - r_b(c, T)) + q (c_in - N/V)

is solved by damped Newton iteration with a finite-difference Jacobian,
for one T or a batch of them.  The scan solves a temperature grid as one
batch, retries each point that fails from its nearest converged lower-T
point, and bisects, all brackets in lockstep, every sign change of

    E(T) = q (c_in^T h(T_in) - N(T)^T h(T)/V) + lambda (T_w - T),

the stationary energy residual under a jacket at T_w; exothermic networks
can have several roots.  Each is classified by the eigenvalues of a
finite-difference Jacobian of the deterministic drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .network import ReactionNetwork
from .thermo import N_FLOOR, ThermoDomainError, ThermoState, internal_energy
from .structure import sde_fields


class ConvergenceError(RuntimeError):
    """A steady-state solve failed to converge.  ``N`` holds the last
    iterate of every row and ``converged`` marks the rows that converged."""

    def __init__(self, message: str, N=None, converged=None):
        super().__init__(message)
        self.N, self.converged = N, converged


def drift_residual(net: ReactionNetwork, x, u) -> float:
    """Scaled norm of the deterministic drift at (x, u).

    Components are scaled by (max(|U|, 1), max(N_j, 1e-6)) so the value is
    comparable across operating points; every converged steady state keeps
    it below 1e-8.
    """
    st = ThermoState.from_vector(net, x)
    drift = sde_fields(net, st, np.asarray(u, dtype=float),
                       include_noise=False).drift
    scale = np.concatenate(([max(abs(st.U), 1.0)], np.maximum(st.N, 1e-6)))
    return float(np.linalg.norm(drift / scale))


def _balance(net: ReactionNetwork, N, T, q):
    """Per row: the mole balance's norm, residual and convergence scale."""
    forward, backward = kernel.mass_action(net, N / net.reactor.V, T)
    f = kernel.reaction_flux(net, forward - backward) + q * kernel.feed_gap(net, N)
    turnover = net.reactor.V * np.add.reduce(forward + backward, -1)
    floor = max(q * max(net.inlet.c_in), 1e-300)
    return np.sqrt(np.vecdot(f, f)), f, np.maximum(turnover, floor)


def mass_balance_steady(net: ReactionNetwork, T, q: float,
                        tol: float = 1e-12, max_iter: int = 200,
                        N0=None) -> np.ndarray:
    """Solve the stationary mole balance at (T, q) for the composition N.

    Damped Newton from N = V c_in (or the warm start N0) with a central
    finite-difference Jacobian and step halving on residual increase.  T of
    shape (B,) solves B rows as one batch, each with the bits of its scalar
    solve, and gives N of shape (B, p).  Raises :class:`ConvergenceError`
    naming the first T not converged in ``max_iter`` iterations, and
    :class:`ValueError` if a solution has a negative component.
    """
    p = net.n_species
    Ts = np.asarray(T, dtype=float).reshape(-1)
    N = np.empty((Ts.size, p))
    N[...] = net.reactor.V * net.c_in if N0 is None else N0
    best, f, scale = _balance(net, N, Ts, q)
    done = np.zeros(Ts.size, dtype=bool)
    for _ in range(max_iter):
        done = np.maximum.reduce(np.abs(f), -1) <= tol * scale
        rows = (~done).nonzero()[0]
        if not rows.size:
            break
        # the 2p perturbed states of every row in one evaluation
        h = 1e-7 * np.maximum(np.abs(N[rows]), 1e-6)
        E = np.eye(p)
        X = N[rows][:, None, :] + np.concatenate((E, -E)) * h[:, None, :]
        F = _balance(net, X.reshape(-1, p), Ts[rows].repeat(2 * p), q)[1]
        F = F.reshape(X.shape)
        J = ((F[:, :p] - F[:, p:]) / (2.0 * h)[..., None]).transpose(0, 2, 1)
        try:
            step = np.linalg.solve(J, -f[rows][..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            T_bad = Ts[rows][np.argmin(np.abs(np.linalg.det(J)))]
            raise ConvergenceError(f"singular Jacobian at T={T_bad}", N, done) from exc
        i, alpha = rows, np.ones(rows.size)
        for _ in range(40):
            N_try = np.maximum(N[i] + alpha[:, None] * step, 0.0)
            norm, f_try, s_try = _balance(net, N_try, Ts[i], q)
            ok = (norm <= (1.0 - 1e-4 * alpha) * best[i]) | (alpha < 1e-8)
            a = i[ok]
            N[a], f[a], scale[a], best[a] = N_try[ok], f_try[ok], s_try[ok], norm[ok]
            i, alpha, step = i[~ok], 0.5 * alpha[~ok], step[~ok]
            if not i.size:
                break
    if not done.all():
        raise ConvergenceError(
            f"mole balance did not converge at T={Ts[~done][0]}, q={q}", N, done)
    if (N < 0).any():
        raise ValueError("steady composition has a negative component: "
                         f"{N[(N < 0).any(-1)][0]}")
    return N if np.ndim(T) else N[0]


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


def classify(net: ReactionNetwork, x, u, jacket: tuple[float, float] | None = None,
             ) -> tuple[str, np.ndarray]:
    """Classify a stationary state by the drift Jacobian's spectrum.

    With ``jacket=None`` the inputs u = (q, Qdot) are held fixed.  With
    ``jacket=(lam, T_w)`` the heat input follows the jacket law
    Qdot = lam (T_w - T(x)), which adds thermal feedback and is the
    physically relevant linearization for a jacket held at constant
    temperature.  The perturbed states are evaluated as one batch, each
    checked like a :class:`ThermoState`.

    Returns ("stable" | "unstable" | "marginal", eigenvalues).
    """
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    n, k = x.size, np.arange(x.size)
    h = 1e-6 * np.maximum(np.abs(x), 1.0)
    X = np.tile(x, (2 * n, 1))
    X[k, k] += h
    X[n + k, k] -= h
    N = X[:, 1:]
    if N.shape[1] != net.n_species or np.any(N <= N_FLOOR):
        raise ThermoDomainError(f"perturbed N needs {net.n_species} entries > {N_FLOOR}")
    if not np.all((T := kernel.temperature(net, X[:, 0], N)) > 0):
        raise ThermoDomainError(f"temperature {T.min()} K is not positive")
    Qdot = float(u[1]) if jacket is None else jacket[0] * (jacket[1] - T)
    D = np.column_stack(kernel.sde_terms(net, N, T, float(u[0]), Qdot)[0])
    eigs = np.linalg.eigvals(((D[:n] - D[n:]) / (2.0 * h)[:, None]).T)
    max_re = float(np.max(eigs.real))
    label = ("marginal" if abs(max_re) < MARGINAL_TOL
             else "stable" if max_re < 0 else "unstable")
    return label, eigs


def steady_states(net: ReactionNetwork, q: float, T_w: float,
                  T_range: tuple[float, float] = (250.0, 500.0),
                  grid: int = 2000) -> list[SteadyState]:
    """All steady states under constant flow q and jacket temperature T_w.

    Scans the stationary energy residual E(T) over ``grid`` temperatures
    spanning ``T_range``, bisects each sign change to |dT| < 1e-6 K, and
    classifies each root under the jacket-law linearization.  Returns the
    roots ordered by temperature.  Raises :class:`ValueError` unless
    grid >= 2 and 0 < T_lo < T_hi, both finite.
    """
    T_lo, T_hi = T_range
    if not (grid >= 2 and 0.0 < T_lo < T_hi < math.inf):
        raise ValueError("the scan needs grid >= 2 and 0 < Tmin < Tmax, both "
                         f"finite; got grid={grid}, T_range={T_range}")
    lam, Ts = net.reactor.lam, np.linspace(T_lo, T_hi, grid)

    def energy(T, N):
        g00, _ = kernel.flow_column(net, N, kernel.enthalpy(net, T))
        return q * g00 + lam * (T_w - T)

    # Solve the points not yet converged, each from its nearest converged
    # lower-T point (cold if none), until a round converges none.
    cold = net.reactor.V * net.c_in
    comps, ok = np.tile(cold, (grid, 1)), np.zeros(grid, dtype=bool)
    while not ok.all():
        rows = np.flatnonzero(~ok)
        lower = np.maximum.accumulate(np.where(ok, np.arange(grid), -1))[rows]
        start = np.where((lower >= 0)[:, None], comps[lower], cold)
        try:
            comps[rows] = mass_balance_steady(net, Ts[rows], q, N0=start)
            ok[rows] = True
        except ConvergenceError as exc:
            if not exc.converged.any():
                raise
            comps[rows], ok[rows] = exc.N, exc.converged
    E = energy(Ts, comps)

    # Bisect every bracket in lockstep, each warm-started from its own last
    # midpoint; a grid point with E == 0 is a bracket of zero width.
    j = np.flatnonzero((E[:-1] == 0.0) | (E[:-1] * E[1:] < 0))
    a, ea, N_bis = Ts[j], E[j], comps[j]
    b = np.where(ea == 0.0, a, Ts[j + 1])
    while (live := np.flatnonzero(b - a > 1e-6)).size:
        mid = 0.5 * (a[live] + b[live])
        N_bis[live] = mass_balance_steady(net, mid, q, N0=N_bis[live])
        em = energy(mid, N_bis[live])
        left = ea[live] * em <= 0
        b[live[left]] = mid[left]
        a[live[~left]], ea[live[~left]] = mid[~left], em[~left]
    root_T = 0.5 * (a + b)
    root_N = mass_balance_steady(net, root_T, q, N0=N_bis)

    roots = []
    for T, N in zip(root_T, root_N):  # grid order is temperature order
        U, Qdot = internal_energy(net, N, T), lam * (T_w - T)
        label, eigs = classify(net, np.concatenate(([U], N)),
                               np.array([q, Qdot]), jacket=(lam, T_w))
        roots.append(SteadyState(T, N, U, q, Qdot, T_w, label, eigs))
    return roots
