"""Euler-Maruyama simulation of the noisy reactor, single paths and
seeded ensembles.

Integration uses the Ito interpretation on a fixed grid with three
independent Wiener channels (reaction flux, flow input, heat input).
Each trajectory draws from its own counter-derived substream of the
master seed, so ensembles are reproducible draw for draw regardless of
how trajectories are scheduled.

Domain guards keep paths physical: mole numbers are clamped at a small
floor (logged as an event), and a step whose energy update would push the
temperature nonpositive is retried as two half steps, recursively up to
20 halvings, after which the trajectory aborts.  Non-finite arithmetic
aborts immediately with a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import control, kernel
from .control import ControllerGains, Q_MAX_DEFAULT
from .network import ReactionNetwork
from .thermo import ThermoState, as_state
from .transform import Setpoint

#: Trajectory mole floor (mol): components are clamped here, above the
#: thermodynamic domain floor, so the closures stay evaluable.
N_TRAJ_FLOOR = 1e-9

#: Maximum recursive step halvings before a trajectory aborts.
MAX_HALVINGS = 20

_MODES = ("closed_loop", "open_loop", "deterministic", "isolated")


class SimulationAbort(RuntimeError):
    """Raised internally when a trajectory cannot be continued."""


@dataclass
class SimConfig:
    """Integration settings.

    mode selects the input and noise wiring: ``closed_loop`` (feedback,
    noise on), ``deterministic`` (feedback, noise off), ``open_loop``
    (constant ``u_open``, noise on), ``isolated`` (zero inputs, noise
    off).  With ``open_loop_until > 0`` the first part of a feedback run
    applies ``u_open`` instead.  ``eps`` is the scaled ball radius used
    for the ensemble stabilization estimate.  ``t_end`` must be a whole
    number of steps ``dt``.
    """

    dt: float = 1e-3
    t_end: float = 10.0
    seed: int = 0
    n_traj: int = 1
    record_every: int = 10
    mode: str = "closed_loop"
    u_open: tuple[float, float] = (0.0, 0.0)
    open_loop_until: float = 0.0
    clamp: bool = True
    q_max: float = Q_MAX_DEFAULT
    eps: float = 0.05

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not (self.dt > 0 and self.t_end > 0):
            raise ValueError("dt and t_end must be positive")
        if not abs(self.n_steps * self.dt - self.t_end) <= 1e-9 * self.t_end:
            raise ValueError(f"t_end={self.t_end} is not a whole number of "
                             f"steps dt={self.dt}")
        if self.record_every < 1 or self.n_traj < 1:
            raise ValueError("record_every and n_traj must be >= 1")
        if not (self.q_max > 0 and self.eps > 0):
            raise ValueError("q_max and eps must be positive")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    @property
    def record_steps(self) -> list[int]:
        """The recorded steps: every ``record_every``-th, and the last."""
        n = self.n_steps
        return sorted({n, *range(0, n + 1, self.record_every)})

    @property
    def noise_on(self) -> bool:
        return self.mode in ("closed_loop", "open_loop")


@dataclass
class Trajectory:
    """One recorded path: the state series, the derived series used for
    reporting, and the event log (list of (step, code))."""

    index: int
    times: np.ndarray
    states: np.ndarray  # (n_records, 1 + n_species)
    T: np.ndarray
    S: np.ndarray
    avail: np.ndarray
    q: np.ndarray
    Qdot: np.ndarray
    T_w: np.ndarray
    events: list[tuple[int, str]] = field(default_factory=list)
    aborted: bool = False
    abort_reason: str | None = None

    @property
    def U(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def N(self) -> np.ndarray:
        return self.states[:, 1:]


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """The dedicated substream for one trajectory of one master seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(index,)))


def _guarded_update(net: ReactionNetwork, U, N, T, q, Qdot, dt, dW,
                    events=None, step_no=0):
    """:func:`kernel.em_update` with the non-finite abort and the mole floor
    clamp, whose hits go to ``events``.  The caller judges a T <= 0."""
    U_new, N_new = kernel.em_update(net, U, N, T, q, Qdot, dt, dW)
    if not (math.isfinite(U_new) and np.all(np.isfinite(N_new))):
        raise SimulationAbort("non-finite state update")
    low = N_new < N_TRAJ_FLOOR
    if low.any():
        if events is not None:
            events.extend((step_no, f"floor_{net.species_names[j]}")
                          for j in np.flatnonzero(low))
        N_new = np.maximum(N_new, N_TRAJ_FLOOR)
    return U_new, N_new, kernel.temperature(net, U_new, N_new)


def euler_maruyama_step(net: ReactionNetwork, x, u, dt: float, dW) -> np.ndarray:
    """One explicit Euler-Maruyama update of (U, N).

    Applies the mole floor clamp; raises :class:`SimulationAbort` if the
    update is non-finite or leaves the temperature domain.  The stepping
    loop in :func:`simulate` adds the halving retry on top of this.
    """
    st = ThermoState.from_vector(net, x)
    U, N, T = _guarded_update(net, st.U, st.N, st.T, float(u[0]), float(u[1]),
                              dt, np.asarray(dW, dtype=float))
    if not T > 0:
        raise SimulationAbort(f"temperature left the domain ({T} K)")
    return np.concatenate(([U], N))


def simulate(net: ReactionNetwork, sp: Setpoint | None,
             gains: ControllerGains | None, cfg: SimConfig, x0,
             traj_index: int = 0) -> Trajectory:
    """Integrate one trajectory from x0 = (U, N_1, ..., N_p).

    Uses substream ``traj_index`` of ``cfg.seed``.  Feedback modes require
    a setpoint and gains.  On abort the recorded prefix is returned with
    ``aborted`` set and the reason attached.
    """
    feedback = cfg.mode in ("closed_loop", "deterministic")
    if feedback and (sp is None or gains is None):
        raise ValueError(f"mode {cfg.mode!r} needs a setpoint and gains")
    rng = trajectory_rng(cfg.seed, traj_index) if cfg.noise_on else None
    u_fixed = ((0.0, 0.0) if cfg.mode == "isolated"
               else (float(cfg.u_open[0]), float(cfg.u_open[1])))
    events: list[tuple[int, str]] = []
    step_no = 0

    def input_at(N, T, t, log=True):
        if not feedback or t < cfg.open_loop_until:
            return u_fixed
        q_raw, Qdot = control.solve_feedback(gains.K, *kernel.feedback_terms(
            net, N, T, sp.T_star, sp.mu_star_over_T))
        if not cfg.clamp:
            return q_raw, Qdot
        q = min(max(q_raw, 0.0), cfg.q_max)
        if log and q != q_raw:
            events.append((step_no, "q_clamp"))
        return q, Qdot

    def advance(U, N, T, t, dt, depth):
        q, Qdot = input_at(N, T, t)
        dW = None
        if rng is not None:
            dW = rng.standard_normal(3) * math.sqrt(dt)
        U_new, N_new, T_new = _guarded_update(net, U, N, T, q, Qdot, dt, dW,
                                              events, step_no)
        if not T_new > 0:
            if depth >= MAX_HALVINGS:
                raise SimulationAbort(
                    f"temperature stayed nonpositive after {MAX_HALVINGS} "
                    f"step halvings at t={t:.6g}")
            events.append((step_no, "halve"))
            U_h, N_h, T_h = advance(U, N, T, t, 0.5 * dt, depth + 1)
            return advance(U_h, N_h, T_h, t + 0.5 * dt, 0.5 * dt, depth + 1)
        return U_new, N_new, T_new

    record_steps = cfg.record_steps
    x_star = sp.x_star if sp is not None else None
    times, states, Ts, Ss, avs, qs, Qs, Tws = ([] for _ in range(8))

    def record(U, N, T, t):
        q, Qdot = input_at(N, T, t, log=False)
        # The recorded T is T(U, N), which can differ from a given initial
        # T in the last bit.
        T = kernel.temperature(net, U, N)
        x = np.concatenate(([U], N))
        S = kernel.closures(net, N, T)[2]
        times.append(t)
        states.append(x)
        Ts.append(T)
        Ss.append(S)
        avs.append(kernel.availability(sp.S_star, sp.pi_star, x_star, S, x)
                   if sp is not None else math.nan)
        qs.append(q)
        Qs.append(Qdot)
        Tws.append(kernel.jacket_temperature(net, Qdot, T))

    st0 = as_state(net, x0)
    U_cur, N_cur, T_cur = st0.U, st0.N.copy(), st0.T
    aborted = False
    reason = None
    record(U_cur, N_cur, T_cur, 0.0)
    rec_idx = 1
    try:
        for k in range(cfg.n_steps):
            step_no = k + 1
            U_cur, N_cur, T_cur = advance(U_cur, N_cur, T_cur, k * cfg.dt,
                                          cfg.dt, 0)
            if rec_idx < len(record_steps) and step_no == record_steps[rec_idx]:
                record(U_cur, N_cur, T_cur, step_no * cfg.dt)
                rec_idx += 1
    except SimulationAbort as exc:
        aborted = True
        reason = str(exc)

    return Trajectory(
        index=traj_index,
        times=np.array(times),
        states=np.array(states),
        T=np.array(Ts),
        S=np.array(Ss),
        avail=np.array(avs),
        q=np.array(qs),
        Qdot=np.array(Qs),
        T_w=np.array(Tws),
        events=events,
        aborted=aborted,
        abort_reason=reason,
    )


SERIES = ("U", "N", "T", "S", "avail", "q", "Qdot", "T_w")


@dataclass
class EnsembleStats:
    """Checkpoint statistics over an ensemble plus per-trajectory terminal
    errors.  Aborted trajectories are kept in ``trajectories`` but are
    excluded from the statistics."""

    times: np.ndarray
    mean: dict[str, np.ndarray]
    std: dict[str, np.ndarray]
    stabilization_probability: float
    terminal_T_error: np.ndarray
    terminal_N_error: np.ndarray
    sup_scaled_error: np.ndarray
    n_aborted: int
    trajectories: list[Trajectory]


def scaled_errors(traj: Trajectory, sp: Setpoint) -> np.ndarray:
    """Per-checkpoint relative distance to the setpoint: the 2-norm of
    (x - x*) scaled componentwise by (|U*|, N*)."""
    scale = np.concatenate(([max(abs(sp.U_star), 1.0)], sp.N_star))
    return np.linalg.norm((traj.states - sp.x_star) / scale, axis=1)


def stability_estimate(trajs: list[Trajectory], sp: Setpoint,
                       eps: float) -> float:
    """Fraction of trajectories whose scaled distance to the setpoint
    stays strictly inside eps over the whole recorded window."""
    if not trajs:
        return 0.0
    inside = [float(np.max(scaled_errors(tr, sp))) < eps for tr in trajs]
    return sum(inside) / len(trajs)


def ensemble(net: ReactionNetwork, sp: Setpoint | None,
             gains: ControllerGains | None, cfg: SimConfig, x0) -> EnsembleStats:
    """Run cfg.n_traj trajectories on substreams 0..n_traj-1 and
    aggregate checkpoint statistics."""
    trajs = [simulate(net, sp, gains, cfg, x0, traj_index=i)
             for i in range(cfg.n_traj)]
    ok = [tr for tr in trajs if not tr.aborted]
    if not ok:
        raise SimulationAbort("every trajectory aborted")
    times = ok[0].times
    mean: dict[str, np.ndarray] = {}
    std: dict[str, np.ndarray] = {}
    for name in SERIES:
        stack = np.stack([getattr(tr, name) for tr in ok])
        mean[name] = stack.mean(axis=0)
        std[name] = stack.std(axis=0)
    if sp is not None:
        terminal_T = np.array([abs(tr.T[-1] - sp.T_star) for tr in ok])
        terminal_N = np.array([float(np.linalg.norm(tr.N[-1] - sp.N_star))
                               for tr in ok])
        sup_err = np.array([float(np.max(scaled_errors(tr, sp))) for tr in ok])
        prob = stability_estimate(ok, sp, cfg.eps)
    else:
        terminal_T = terminal_N = sup_err = np.full(len(ok), math.nan)
        prob = math.nan
    return EnsembleStats(
        times=times,
        mean=mean,
        std=std,
        stabilization_probability=prob,
        terminal_T_error=terminal_T,
        terminal_N_error=terminal_N,
        sup_scaled_error=sup_err,
        n_aborted=len(trajs) - len(ok),
        trajectories=trajs,
    )
