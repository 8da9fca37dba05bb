"""Euler-Maruyama simulation of the noisy reactor, single paths and
seeded ensembles.

Integration uses the Ito interpretation on a fixed grid with three
independent Wiener channels (reaction flux, flow input, heat input).
Each trajectory draws from its own counter-derived substream of the
master seed, so ensembles are reproducible draw for draw regardless of
how trajectories are scheduled.  A trajectory draws its increments k at
a time into a block that its own cursor reads in stream order, so its
path has the same bits for every block length k, refined or not.

Domain guards keep paths physical: a non-finite update aborts the
trajectory with a diagnostic, mole numbers are clamped at a small floor
(logged as an event), and a step whose update leaves T <= 0 is redone as
two half steps, recursively up to 20 halvings, after which the trajectory
aborts.  One routine, ``_Stepper.settle``, applies them to a batch of raw
updates at once and redoes the rows at T <= 0 as one sub-batch.

One stepping loop serves every trajectory count.  The states of the B
active trajectories are species-major, as the kernel takes them: U, T
and each N_j are (B,) columns, and each grid step makes one feedback solve
and one update for the whole batch, each row drawing its increments from
its own substream; a lone trajectory, as in :func:`simulate`, steps on
Python floats with the int 0 for its row, by the kernel's traced code.  A
step whose every row is finite, at or above the floor and at T > 0 passes
without ``settle``, the one guard, which takes a lone path's step, floored
or not, as a one-row batch.  A row that aborts keeps its recorded prefix.
The kernel is row-safe, so a row has the bits :func:`simulate` gives that
trajectory, whatever the batch size.  The loop records only the states
(U, N) and the applied inputs (q, Qdot); T, S, the availability and T_w of
every record are derived from them after stepping.
"""

from __future__ import annotations

import math
import numbers
from functools import reduce
from dataclasses import dataclass, field, replace

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

#: Noise increments pre-drawn across a batch of B trajectories: each draws
#: k = max(1, min(n_steps, NOISE_BLOCK // B)) increments of its three
#: channels at a time, about 768 KB in all for up to 2**15 trajectories.
NOISE_BLOCK = 2 ** 15

#: The input and noise wirings ``SimConfig.mode`` accepts.
MODES = ("closed_loop", "open_loop", "deterministic", "isolated")


class SimulationAbort(RuntimeError):
    """Raised internally when a trajectory cannot be continued."""


@dataclass(frozen=True)
class SimConfig:
    """Integration settings.

    mode selects the input and noise wiring: ``closed_loop`` (feedback,
    noise on), ``deterministic`` (feedback, noise off), ``open_loop``
    (constant ``u_open``, noise on), ``isolated`` (zero inputs, noise
    off).  With ``open_loop_until > 0`` the first part of a feedback run
    applies ``u_open`` instead.  ``eps`` is the scaled ball radius used
    for the ensemble stabilization estimate.  ``t_end`` must be a whole
    number of steps ``dt``.  A config is frozen, so every instance has
    passed these checks; ``dataclasses.replace`` makes a checked copy.
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
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (0 < self.dt < math.inf and 0 < self.t_end < math.inf):
            raise ValueError("dt and t_end must be finite and positive")
        if not abs(self.n_steps * self.dt - self.t_end) <= 1e-9 * self.t_end:
            raise ValueError(f"t_end={self.t_end} is not a whole number of "
                             f"steps dt={self.dt}")
        for name in ("seed", "n_traj", "record_every"):
            if not isinstance(value := getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.record_every < 1 or self.n_traj < 1:
            raise ValueError("record_every and n_traj must be >= 1")
        for what, n in ((f"t_end / dt = {self.t_end / self.dt:.3g} steps "
                         "(--t-end, --dt)", self.n_steps + 1),
                        ("record_every (--record-every)", self.record_every)):
            if n >= 2 ** 63:  # the recorded steps are int64
                raise ValueError(f"{what} is more than int64 holds")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (self.q_max > 0 and self.eps > 0):
            raise ValueError("q_max and eps must be positive")
        if len(self.u_open) != 2:
            raise ValueError(f"open-loop inputs (q, Qdot) must be a pair, "
                             f"got {tuple(self.u_open)}")
        if not all(map(math.isfinite, self.u_open)):
            raise ValueError(f"open-loop inputs (q, Qdot) must be finite, "
                             f"got {tuple(self.u_open)}")
        if not math.isfinite(self.open_loop_until):
            raise ValueError(f"open_loop_until must be finite, "
                             f"got {self.open_loop_until}")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    @property
    def record_steps(self) -> np.ndarray:
        """The recorded steps: every ``record_every``-th, and the last."""
        n = self.n_steps
        steps = np.arange(0, n + 1, self.record_every)
        return steps if steps[-1] == n else np.append(steps, n)

    @property
    def noise_on(self) -> bool:
        return self.mode in ("closed_loop", "open_loop")

    @property
    def feedback_on(self) -> bool:
        return self.mode in ("closed_loop", "deterministic")


@dataclass
class Trajectory:
    """One recorded path: the state series, the derived series used for
    reporting, and the event log (list of (step, code)).  The series of
    the trajectories of one ensemble are views into shared arrays."""

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


def euler_maruyama_step(net: ReactionNetwork, x, u, dt: float, dW) -> np.ndarray:
    """One explicit Euler-Maruyama update of (U, N).

    Applies the mole floor clamp; raises :class:`SimulationAbort` if the
    update is non-finite or leaves the temperature domain.  The public
    single-step reference of the stepping loop, which adds the halving
    retry on top of this.
    """
    st = ThermoState.from_vector(net, x)
    U, N = kernel.em_update(net, st.U, st.N, st.T, float(u[0]), float(u[1]),
                            dt, np.asarray(dW, dtype=float))
    if not (math.isfinite(U) and np.all(np.isfinite(N))):
        raise SimulationAbort("non-finite state update")
    N = np.maximum(N, N_TRAJ_FLOOR)
    T = kernel.temperature(net, U, N)
    if not T > 0:
        raise SimulationAbort(f"temperature left the domain ({T} K)")
    return np.concatenate(([U], N))


@dataclass
class _Path:
    """The bookkeeping of one trajectory: its noise substream, its event log
    of (grid step, code) pairs, and why it aborted, if it did."""

    index: int
    rng: np.random.Generator | None
    events: list[tuple[int, str]] = field(default_factory=list)
    abort_reason: str | None = None


class _Stepper:
    """The stepping of a set of trajectories: their paths, and the inputs,
    updates and guards of a batch of rows.  ``rows`` holds each row's index
    into ``paths``: an array of shape (b,), or the int 0 for a lone path
    stepped on floats.  Events are logged at grid step ``step_no``.  With
    noise on, ``noise`` (paths, k, 3) holds each path's block of standard
    normals and ``cursor`` its next unread one; else ``noise`` is None."""

    def __init__(self, net: ReactionNetwork, sp: Setpoint | None,
                 gains: ControllerGains | None, cfg: SimConfig, indices):
        if cfg.feedback_on and (sp is None or gains is None):
            raise ValueError(f"mode {cfg.mode!r} needs a setpoint and gains")
        self.sp, self.gains, self.cfg = sp, gains, cfg
        self.paths = [_Path(i, trajectory_rng(cfg.seed, i) if cfg.noise_on
                            else None) for i in indices]
        self.net = (net.float_view if len(self.paths) == 1
                    else kernel.batch_view(net))
        if len(self.paths) == 1 and sp is not None:  # mu*/T* as floats, as T* is
            self.sp = replace(sp, mu_star_over_T=sp.mu_star_over_T.tolist())
        self.step_no, self.noise = 0, None
        if cfg.noise_on:  # every block starts used up: drawn on first use
            k = max(1, min(cfg.n_steps, NOISE_BLOCK // len(self.paths)))
            self.noise = np.empty((len(self.paths), k, 3))
            self.cursor = np.full(len(self.paths), k)

    def law(self, N, T, t: float):
        """The inputs (q, Qdot) at states (N, T) and time t, whether the
        flow clamp engaged, and the flow column at (N, T) if the feedback
        computed it (else None); row-safe."""
        cfg = self.cfg
        if cfg.mode == "isolated":
            return 0.0, 0.0, False, None
        if cfg.mode == "open_loop" or t < cfg.open_loop_until:
            return float(cfg.u_open[0]), float(cfg.u_open[1]), False, None
        return control._clamped_feedback(self.net, self.sp, self.gains.K, N,
                                         T, cfg.clamp, cfg.q_max)[:4]

    def inputs(self, rows, N, T, t: float):
        """:meth:`law` of the rows, logging ``q_clamp`` where the clamp
        engaged: (q, Qdot, column)."""
        q, Qdot, clamped, column = self.law(N, T, t)
        # a lone path's row is an int and its flag one bool
        for r in (([rows] if clamped else []) if type(rows) is int
                  else rows[clamped].tolist()):
            self.paths[r].events.append((self.step_no, "q_clamp"))
        return q, Qdot, column

    def update(self, rows, U, N, T, q, Qdot, column, dt: float):
        """The raw updates of the steps of length dt from the rows' states
        under (q, Qdot); ``column`` is the flow column from :meth:`inputs`.

        Each row takes the next increment of its noise block at its own
        cursor; a row whose block is used up first refills it with one
        (k, 3) draw from its substream.  A block holds the bits of k
        sequential (3,) draws, so a row's increments are its stream in
        order, however many of them its refinements take."""
        dW = None
        if self.noise is not None:
            at, k = self.cursor[rows], self.noise.shape[1]
            used_up = at == k  # one bool for a lone path's int row
            if self.net.step_constants.any(used_up):
                for r in np.asarray(rows)[used_up].tolist():
                    self.noise[r] = self.paths[r].rng.standard_normal((k, 3))
                at = at % k  # the used-up rows read their fresh blocks at 0
            scale = math.sqrt(dt)  # channel-major, floats for a lone path
            dW = ([w * scale for w in self.noise[rows, at].tolist()]
                  if type(rows) is int else (self.noise[rows, at] * scale).T)
            self.cursor[rows] = at + 1
        return kernel.em_update(self.net, U, N, T, q, Qdot, dt, dW, column)

    def settle(self, rows, U, N, T, U_new, N_new, t: float, dt: float,
               depth=0):
        """The guarded ends (U, N, T), N as (p, b), of the steps of length
        dt from the rows' (b,) states (U, N, T) at time t whose raw updates
        are (U_new, N_new), a lone path's as a one-row batch.  A non-finite
        update aborts its row; the loop's one floor clamp lifts and logs
        N_j below the floor; the rows at T <= 0 redo their step as two half
        steps, each with inputs evaluated at its own start, as one sub-batch
        that recurses on the rows that fail again.  T is NaN where aborted."""
        rows, U, T, U_new = (np.reshape(a, -1) for a in (rows, U, T, U_new))
        N, N_new = (np.reshape(a, (len(a), -1)) for a in (N, N_new))  # (p, b)
        finite = np.isfinite(U_new) & np.isfinite(N_new).all(0)
        for r in rows[~finite]:
            self.paths[r].abort_reason = "non-finite state update"
        low = finite & (N_new < N_TRAJ_FLOOR)
        for j, r in zip(*np.nonzero(low)):  # a row's in species order
            self.paths[rows[r]].events.append(
                (self.step_no, f"floor_{self.net.species_names[j]}"))
        N_new = np.where(low, N_TRAJ_FLOOR, N_new)
        T_new = np.full_like(U_new, np.nan)
        T_new[finite] = kernel.temperature(self.net, U_new[finite],
                                           N_new[:, finite])
        redo = finite & ~(T_new > 0)
        if not redo.any():
            return U_new, N_new, T_new
        sub, U, N, T = rows[redo], U[redo], N[:, redo], T[redo]
        if depth < MAX_HALVINGS:
            for r in sub:
                self.paths[r].events.append((self.step_no, "halve"))
        else:
            for r in sub:
                self.paths[r].abort_reason = (
                    f"temperature stayed nonpositive after {MAX_HALVINGS} "
                    f"step halvings at t={t:.6g}")
            T[:] = np.nan
        for t_half in (t, t + 0.5 * dt):
            go = T > 0  # a row that aborted in the first half stops there
            if not go.any():
                break
            r, U_go, N_go, T_go = sub[go], U[go], N[:, go], T[go]
            U[go], N[:, go], T[go] = self.settle(
                r, U_go, N_go, T_go, *self.update(
                    r, U_go, N_go, T_go, *self.inputs(r, N_go, T_go, t_half),
                    0.5 * dt), t_half, 0.5 * dt, depth + 1)
        U_new = np.array(U_new)  # writable
        U_new[redo], N_new[:, redo], T_new[redo] = U, N, T
        return U_new, N_new, T_new


class _Records:
    """The recorded series of B trajectories in preallocated arrays of
    shape (B, n_records) ((B, n_records, 1 + p) for the states); row i
    holds ``count[i]`` records, the rest stay NaN.  Stepping writes the
    states and the inputs; :meth:`derive` computes the other series."""

    FIELDS = ("states", "T", "S", "avail", "q", "Qdot", "T_w")

    def __init__(self, net: ReactionNetwork, cfg: SimConfig, n_rows: int):
        steps = cfg.record_steps
        self.times = steps * cfg.dt
        self.states = np.full((n_rows, len(steps), 1 + net.n_species), np.nan)
        self.q, self.Qdot = (np.full((n_rows, len(steps)), np.nan)
                             for _ in range(2))
        self.count = np.zeros(n_rows, dtype=int)

    def write(self, rows, j: int, U, N, q, Qdot) -> None:
        """Record ``j`` of ``rows`` (an index or an index array): the states
        (U, N) and the inputs (q, Qdot) applied from them."""
        self.states[rows, j, 0] = U
        for i, n in enumerate(N, 1):
            self.states[rows, j, i] = n
        self.q[rows, j] = q
        self.Qdot[rows, j] = Qdot
        self.count[rows] = j + 1

    def derive(self, net: ReactionNetwork, sp: Setpoint | None) -> None:
        """T, S, the availability relative to ``sp`` (NaN without one) and
        T_w of every record, in one row-safe kernel call each; unrecorded
        slots stay NaN.  T is T(U, N), which can differ from a given
        initial T in the last bit."""
        x = np.moveaxis(self.states, -1, 0)  # species-major: U, N_1, ...
        self.T = kernel.temperature(net, x[0], x[1:])
        self.S = kernel.closures(net, x[1:], self.T)[2]
        self.avail, self.T_w = (np.full_like(self.T, np.nan) for _ in range(2))
        if sp is not None:
            self.avail[...] = kernel.availability(
                sp.S_star, sp.pi_star, sp.x_star, self.S, x)
        self.T_w[...] = kernel.jacket_temperature(net, self.Qdot, self.T)

    def trajectory(self, row: int, path: _Path) -> Trajectory:
        """Row ``row`` as a :class:`Trajectory` of views into the arrays."""
        n = self.count[row]
        return Trajectory(path.index, self.times[:n],
                          *(getattr(self, f)[row, :n] for f in self.FIELDS),
                          events=path.events,
                          aborted=path.abort_reason is not None,
                          abort_reason=path.abort_reason)


# an overflowing or invalid update, or a feedback made NaN by a huge gain,
# aborts its row without a warning
@np.errstate(over="ignore", invalid="ignore")
def _simulate_paths(net: ReactionNetwork, sp: Setpoint | None,
                    gains: ControllerGains | None, cfg: SimConfig, x0,
                    indices) -> tuple[_Records, list[_Path]]:
    """Step the trajectories ``indices`` from x0 together, one row each:
    their records, row i that of ``paths[i]``, and their paths.

    Each grid step solves the feedback and updates every active row at
    once; only a step that fails the cheap check below goes to the guards.
    """
    run = _Stepper(net, sp, gains, cfg, indices)
    n = len(run.paths)
    rec = _Records(net, cfg, n)
    st0 = as_state(net, x0)
    lone = n == 1
    rows = 0 if lone else np.arange(n)  # a lone path: floats, row int 0
    least = min if lone else lambda N: np.minimum.reduce(reduce(np.minimum, N))
    U, T, *N = (float(a) if lone else np.full(n, a) for a in (st0.U, st0.T, *st0.N))
    dt, j = cfg.dt, 0
    for k in range(cfg.n_steps):
        t, run.step_no = k * dt, k + 1
        q, Qdot, column = run.inputs(rows, N, T, t)
        if k % cfg.record_every == 0:
            rec.write(rows, j, U, N, q, Qdot)
            j += 1
        U_new, N_new = run.update(rows, U, N, T, q, Qdot, column, dt)
        # settle passes a step whose rows are all finite, at or above the
        # floor and at T > 0 as it is.  A NaN N_j makes N^T cp and so T NaN
        # (a lone path's min may pass it), an infinite N_j makes N^T h_ref
        # and so T NaN, and a NaN or infinite U a T that is not finite.
        if (N_TRAJ_FLOOR <= least(N_new) and run.net.step_constants.all(
                (0 < (T_new := kernel.temperature(run.net, U_new, N_new)))
                & (T_new < math.inf))):
            U, N, T = U_new, N_new, T_new
            continue
        U, N, T = run.settle(rows, U, N, T, U_new, N_new, t, dt)
        ok = T > 0
        if not ok.all():
            rows, U, N, T = np.reshape(rows, -1)[ok], U[ok], N[:, ok], T[ok]
            if not rows.size:
                break
        if lone:  # settle hands back a one-row batch
            U, N, T = U.item(), N[:, 0].tolist(), T.item()
    else:
        q, Qdot, *_ = run.law(N, T, cfg.n_steps * dt)
        rec.write(rows, j, U, N, q, Qdot)
    rec.derive(net, sp)
    return rec, run.paths


def simulate(net: ReactionNetwork, sp: Setpoint | None,
             gains: ControllerGains | None, cfg: SimConfig, x0,
             traj_index: int = 0) -> Trajectory:
    """Integrate one trajectory from x0 = (U, N_1, ..., N_p).

    Uses substream ``traj_index`` of ``cfg.seed``.  Feedback modes require
    a setpoint and gains.  On abort the recorded prefix is returned with
    ``aborted`` set and the reason attached.  The stepping loop run on
    this one path, stepped on scalar states.
    """
    rec, paths = _simulate_paths(net, sp, gains, cfg, x0, [traj_index])
    return rec.trajectory(0, paths[0])


@dataclass
class EnsembleStats:
    """Checkpoint statistics over an ensemble plus per-trajectory terminal
    errors; ``mean`` and ``std`` are keyed by the series names of a
    :class:`Trajectory` (``states``, ``T``, ..., ``T_w``).  Aborted
    trajectories are kept in ``trajectories`` but are excluded from the
    statistics.  ``sup_scaled_error`` is each kept path's
    largest norm of (x - x*) / (max(|U*|, 1), N*) over its records, and
    ``stabilization_probability`` the fraction of them below ``cfg.eps``.
    The records include t = 0, so a start outside the ``eps`` ball gives
    0: the bundled case study starts at scaled error 0.504 against
    ``eps`` = 0.05."""

    times: np.ndarray
    mean: dict[str, np.ndarray]
    std: dict[str, np.ndarray]
    stabilization_probability: float
    terminal_T_error: np.ndarray
    terminal_N_error: np.ndarray
    sup_scaled_error: np.ndarray
    n_aborted: int
    trajectories: list[Trajectory]


# a spread too wide for a float is an inf std, without a warning
@np.errstate(over="ignore", invalid="ignore")
def ensemble(net: ReactionNetwork, sp: Setpoint | None,
             gains: ControllerGains | None, cfg: SimConfig, x0) -> EnsembleStats:
    """Run cfg.n_traj trajectories on substreams 0..n_traj-1 and
    aggregate checkpoint statistics.

    The trajectories are stepped together in one loop, trajectory i
    identical to ``simulate(..., traj_index=i)``.  Raises
    :class:`SimulationAbort`, naming the first trajectory's reason, when
    every trajectory aborted.
    """
    rec, paths = _simulate_paths(net, sp, gains, cfg, x0, range(cfg.n_traj))
    kept = np.array([path.abort_reason is None for path in paths])
    if not kept.any():
        raise SimulationAbort(f"every trajectory aborted (trajectory "
                              f"{paths[0].index}: {paths[0].abort_reason})")
    # a kept row holds every record
    table = {f: getattr(rec, f)[kept] for f in _Records.FIELDS}
    mean = {f: table[f].mean(axis=0) for f in _Records.FIELDS}
    std = {f: table[f].std(axis=0) for f in _Records.FIELDS}
    states = table["states"]
    if sp is not None:
        terminal_T = np.abs(table["T"][:, -1] - sp.T_star)
        dN = states[:, -1, 1:] - sp.N_star
        terminal_N = np.sqrt(kernel.dot(dN.T, dN.T))
        scale = np.concatenate(([max(abs(sp.U_star), 1.0)], sp.N_star))
        sup_err = np.linalg.norm((states - sp.x_star) / scale, axis=-1).max(-1)
        prob = np.count_nonzero(sup_err < cfg.eps) / len(sup_err)
    else:
        terminal_T = terminal_N = sup_err = np.full(len(states), math.nan)
        prob = math.nan
    return EnsembleStats(
        times=rec.times,
        mean=mean,
        std=std,
        stabilization_probability=prob,
        terminal_T_error=terminal_T,
        terminal_N_error=terminal_N,
        sup_scaled_error=sup_err,
        n_aborted=np.count_nonzero(~kept),
        trajectories=[rec.trajectory(i, path) for i, path in enumerate(paths)],
    )
