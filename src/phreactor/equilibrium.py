"""Steady states of the reactor and their local stability.

At fixed temperature T and flow q the stationary mole balance

    0 = V nu (r_f(c, T) - r_b(c, T)) + q (c_in - N/V)

is solved by damped Newton iteration with a finite-difference Jacobian
(for first-order networks this converges in one step).  Scanning T over a
grid and bisecting the stationary energy residual

    E(T) = q (c_in^T h(T_in) - N(T)^T h(T)/V) + lambda (T_w - T)

locates every operating point sustained by a flow q and a jacket at
temperature T_w; exothermic networks can expose several.  Each steady
state is classified by the eigenvalues of a finite-difference Jacobian of
the deterministic drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .network import ReactionNetwork
from .thermo import ThermoState, enthalpy, internal_energy
from .structure import mass_action_rates, sde_fields


class ConvergenceError(RuntimeError):
    """A steady-state solve failed to converge."""


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


def _mole_balance(net: ReactionNetwork, N: np.ndarray, T: float,
                  q: float) -> np.ndarray:
    rates = mass_action_rates(net, N / net.reactor.V, T)
    return kernel.reaction_flux(net, rates.net) + q * kernel.feed_gap(net, N)


def _balance_scale(net: ReactionNetwork, N: np.ndarray, T: float,
                   q: float) -> float:
    V = net.reactor.V
    rates = mass_action_rates(net, N / V, T)
    inflow = q * float(np.max(net.c_in)) if net.n_species else 0.0
    turnover = V * float(np.sum(rates.forward + rates.backward))
    return max(inflow, turnover, 1e-300)


def mass_balance_steady(net: ReactionNetwork, T: float, q: float,
                        tol: float = 1e-12, max_iter: int = 200,
                        N0=None) -> np.ndarray:
    """Solve the stationary mole balance at (T, q) for the composition N.

    Damped Newton from N = V c_in (or a caller-supplied warm start) with a
    central finite-difference Jacobian and step halving on residual
    increase.  Raises :class:`ConvergenceError` after ``max_iter``
    iterations and :class:`ValueError` if the solution has a negative
    component.
    """
    V = net.reactor.V
    p = net.n_species
    N = np.array(N0, dtype=float) if N0 is not None else V * net.c_in.copy()
    f = _mole_balance(net, N, T, q)
    best = float(np.linalg.norm(f))
    for _ in range(max_iter):
        scale = _balance_scale(net, N, T, q)
        if np.linalg.norm(f, ord=np.inf) <= tol * scale:
            break
        J = np.empty((p, p))
        for j in range(p):
            h = 1e-7 * max(abs(N[j]), 1e-6)
            Np, Nm = N.copy(), N.copy()
            Np[j] += h
            Nm[j] -= h
            J[:, j] = (_mole_balance(net, Np, T, q)
                       - _mole_balance(net, Nm, T, q)) / (2.0 * h)
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian at T={T}") from exc
        alpha = 1.0
        for _ in range(40):
            N_try = np.maximum(N + alpha * step, 0.0)
            f_try = _mole_balance(net, N_try, T, q)
            if np.linalg.norm(f_try) <= (1.0 - 1e-4 * alpha) * best or alpha < 1e-8:
                N, f = N_try, f_try
                best = float(np.linalg.norm(f_try))
                break
            alpha *= 0.5
    else:
        raise ConvergenceError(
            f"mole balance did not converge at T={T}, q={q}")
    if np.any(N < 0):
        raise ValueError(f"steady composition has a negative component: {N}")
    return N


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
    temperature.

    Returns ("stable" | "unstable" | "marginal", eigenvalues).
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)

    def drift(xv: np.ndarray) -> np.ndarray:
        st = ThermoState.from_vector(net, xv)
        uu = u
        if jacket is not None:
            lam, T_w = jacket
            uu = np.array([u[0], lam * (T_w - st.T)])
        return sde_fields(net, st, uu, include_noise=False).drift

    n = x.size
    J = np.empty((n, n))
    for i in range(n):
        h = 1e-6 * max(abs(x[i]), 1.0)
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        J[:, i] = (drift(xp) - drift(xm)) / (2.0 * h)
    eigs = np.linalg.eigvals(J)
    max_re = float(np.max(eigs.real))
    if abs(max_re) < MARGINAL_TOL:
        label = "marginal"
    elif max_re < 0:
        label = "stable"
    else:
        label = "unstable"
    return label, eigs


def _energy_residual(net: ReactionNetwork, T: float, q: float, T_w: float,
                     N0=None) -> tuple[float, np.ndarray]:
    N = mass_balance_steady(net, T, q, N0=N0)
    g00, _ = kernel.flow_column(net, N, enthalpy(net, T))
    return q * g00 + net.reactor.lam * (T_w - T), N


def steady_states(net: ReactionNetwork, q: float, T_w: float,
                  T_range: tuple[float, float] = (250.0, 500.0),
                  grid: int = 2000) -> list[SteadyState]:
    """All steady states under constant flow q and jacket temperature T_w.

    Scans the stationary energy residual E(T) over a temperature grid,
    bisects each sign change to |dT| < 1e-6 K, and classifies each root
    under the jacket-law linearization.  Returns the roots ordered by
    temperature.
    """
    T_lo, T_hi = T_range
    Ts = np.linspace(T_lo, T_hi, grid)
    residuals = np.empty(grid)
    N_prev = None
    comps = []
    for i, T in enumerate(Ts):
        residuals[i], N_prev = _energy_residual(net, T, q, T_w, N0=N_prev)
        comps.append(N_prev)

    roots: list[SteadyState] = []
    for i in range(grid - 1):
        e0, e1 = residuals[i], residuals[i + 1]
        if e0 == 0.0:
            root_T, root_N = Ts[i], comps[i]
        elif e0 * e1 < 0:
            a, b = Ts[i], Ts[i + 1]
            ea = e0
            N_bis = comps[i]
            while b - a > 1e-6:
                mid = 0.5 * (a + b)
                em, N_bis = _energy_residual(net, mid, q, T_w, N0=N_bis)
                if ea * em <= 0:
                    b = mid
                else:
                    a, ea = mid, em
            root_T = 0.5 * (a + b)
            root_N = mass_balance_steady(net, root_T, q, N0=N_bis)
        else:
            continue
        U = internal_energy(net, root_N, root_T)
        Qdot = net.reactor.lam * (T_w - root_T)
        x = np.concatenate(([U], root_N))
        label, eigs = classify(net, x, np.array([q, Qdot]),
                               jacket=(net.reactor.lam, T_w))
        roots.append(SteadyState(T=root_T, N=root_N, U=U, q=q, Qdot=Qdot,
                                 T_w=T_w, classification=label,
                                 eigenvalues=eigs))
    roots.sort(key=lambda s: s.T)
    return roots
