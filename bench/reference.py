"""Frozen reference for the ``casestudy`` workload's ensemble means.

This is an independent, batched re-statement of the closed-loop
Euler-Maruyama stepper as it stands when the benchmark was defined: the
feedback law with its noise-aware feedthrough, the flow clamp, Arrhenius
mass-action rates, and the three-channel multiplicative noise, drawn from
the same per-trajectory substreams.  It steps every trajectory at once as
a (B, p) array, so it is cheap next to the program under test, and it
shares no code with the package beyond the parsed network constants.

A later change to the package may reorder floating-point sums (a batched
stepper does), so callers compare against these values with a relative
tolerance, never bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

#: Trajectory mole floor of the stepper, mol.
N_FLOOR = 1e-9


def substream(seed: int, index: int) -> np.random.Generator:
    """The generator the package uses for trajectory ``index``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(index,)))


def ensemble_means(net, *, T_star: float, q_star: float, N_star, T0: float,
                   N0, k_flow: float, k_heat: float, seed: int, n_traj: int,
                   dt: float, n_steps: int, record_every: int,
                   q_max: float = 1e-2) -> dict[str, np.ndarray]:
    """Mean temperature and mean availability over ``n_traj`` closed-loop
    trajectories, at every recorded step (0, record_every, ..., n_steps).

    The setpoint is built from the given rounded composition ``N_star``,
    as the bundled case study does.  Raises ``ValueError`` if a step
    would need the halving guard, which this reference does not model.
    """
    rx = net.reactor
    V, P, T_ref, lam, R = rx.V, rx.P, rx.T_ref, rx.lam, rx.R_gas
    cp, h_ref, s_ref, c_in = net.cp, net.h_ref, net.s_ref, net.c_in
    zr, zp, nu = net.stoich_reactants, net.stoich_products, net.stoich_net
    rho1, rho2, rho3 = net.noise.rho1, net.noise.rho2, net.noise.rho3
    cinh = float(c_in @ (cp * (net.inlet.T_in - T_ref) + h_ref))

    def enthalpy(T):
        return cp * (T[:, None] - T_ref) + h_ref

    def mu_over_T(N, T):
        return (-cp * np.log(T[:, None] / T_ref)
                + R * np.log(N / N.sum(axis=1, keepdims=True))
                - s_ref + enthalpy(T) / T[:, None])

    def entropy(N, T):
        return np.sum(N * (cp * np.log(T[:, None] / T_ref) + s_ref
                           - R * np.log(N / N.sum(axis=1, keepdims=True))),
                      axis=1)

    def temperature(U, N):
        return T_ref + (U + P * V - N @ h_ref) / (N @ cp)

    # Setpoint from the rounded composition.
    Ns = np.asarray(N_star, dtype=float)[None, :]
    Ts = np.array([T_star])
    U_star = float(np.sum(Ns * enthalpy(Ts)) - P * V)
    mu_star = mu_over_T(Ns, Ts)[0]
    S_star = float(entropy(Ns, Ts)[0])
    pi_star = np.concatenate(([1.0 / T_star], -mu_star))
    x_star = np.concatenate(([U_star], Ns[0]))

    K = np.diag([float(k_flow), float(k_heat)])

    def feedback(N, T):
        h = enthalpy(T)
        g00 = cinh - np.sum(N * h, axis=1) / V
        dc = c_in - N / V
        grad_U = 1.0 / T_star - 1.0 / T
        o1 = g00 * grad_U + np.sum(dc * (mu_over_T(N, T) - mu_star), axis=1)
        o2 = grad_U
        theta = T * T * (N @ cp)
        hdc = np.sum(h * dc, axis=1)
        quad = (hdc ** 2 - theta * R / N.sum(axis=1) * dc.sum(axis=1) ** 2
                + theta * R * np.sum(dc * (dc / N), axis=1))
        M = quad - 2.0 * g00 * hdc + g00 * g00
        d1 = 0.5 * rho2 ** 2 * M / theta
        d2 = 0.5 * rho3 ** 2 / theta
        b1 = -(K[0, 0] * o1 + K[0, 1] * o2)
        b2 = -(K[1, 0] * o1 + K[1, 1] * o2)
        a11 = 1.0 + K[0, 0] * d1
        a12 = K[0, 1] * d2
        a21 = K[1, 0] * d1
        a22 = 1.0 + K[1, 1] * d2
        det = a11 * a22 - a12 * a21
        q = np.clip((a22 * b1 - a12 * b2) / det, 0.0, q_max)
        Qdot = (a11 * b2 - a21 * b1) / det
        return q, Qdot, g00, dc

    N = np.tile(np.asarray(N0, dtype=float), (n_traj, 1))
    T = np.full(n_traj, float(T0))
    U = np.sum(N * enthalpy(T), axis=1) - P * V
    sqdt = math.sqrt(dt)
    dW = np.stack([substream(seed, i).standard_normal((n_steps, 3))
                   for i in range(n_traj)], axis=1) * sqdt

    mean_T, mean_A = [], []

    def record():
        Tr = temperature(U, N)
        A = (S_star - entropy(N, Tr)
             + np.column_stack((U, N)) @ pi_star - float(pi_star @ x_star))
        mean_T.append(Tr.mean())
        mean_A.append(A.mean())

    record()
    for k in range(n_steps):
        q, Qdot, g00, dc = feedback(N, T)
        RT = R * T[:, None]
        c = N / V
        kf = net.k0f * np.exp(-net.Ef / RT)
        kb = net.k0b * np.exp(-net.Eb / RT)
        rate_net = (kf * np.prod(c[:, :, None] ** zr, axis=1)
                    - kb * np.prod(c[:, :, None] ** zp, axis=1))
        flux = V * (rate_net @ nu.T)
        w = dW[k]
        U = (U + (g00 * q + Qdot) * dt
             + rho2 * q * g00 * w[:, 1] + rho3 * Qdot * w[:, 2])
        N = (N + (flux + q[:, None] * dc) * dt
             + (rho1 * flux) * w[:, 0:1] + (rho2 * q[:, None] * dc) * w[:, 1:2])
        N = np.maximum(N, N_FLOOR)
        T = temperature(U, N)
        if not np.all(T > 0):
            raise ValueError("a step needs the halving guard")
        if (k + 1) % record_every == 0 or k + 1 == n_steps:
            record()
    return {"T": np.array(mean_T), "H_bar": np.array(mean_A)}
