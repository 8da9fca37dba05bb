"""Command line front end: condition checks, steady-state tables, and
seeded trajectory/ensemble CSV artifacts.

Every subcommand takes --out (artifact directory, default ``.``);
``check``, ``equilibria`` and ``simulate`` take --network (config file;
omitted: the bundled benchmark network), and ``simulate`` and
``casestudy`` take --seed (master seed):

* ``check``       evaluate the noise bounds, the storage passivity
                  conditions, and the setpoint-shift residual at a state;
* ``equilibria``  tabulate every steady state under a constant flow and
                  jacket temperature over a temperature window;
* ``simulate``    integrate trajectories and write per-trajectory and
                  ensemble-summary CSV files;
* ``casestudy``   one-command run of the bundled benchmark stabilization
                  ensemble (64 trajectories, seed 42).

Exit codes: 0 success, 1 input error (unreadable flags or config), 2 a
checked condition failed under ``check --strict``, 3 a simulation aborted.

Every CSV uses '.' as the decimal mark, ``%.17g`` floats, LF line endings
and a header row, so repeated seeded runs are byte-identical.  One writer
writes every file, and each numeric column is formatted with one ``%``,
once per run however many files repeat it.  The trajectory schema is

    t, U, N_<species>..., T, S, H_bar, q, Qdot, T_w, events

where H_bar is the stored availability relative to the setpoint (nan when
no setpoint is in play) and events aggregates guard events since the
previous row as ``code:count`` pairs joined by ';'.  The summary schema is
``t`` followed by ``mean_<col>, std_<col>`` for each numeric trajectory
column, with a final ``stabilization_probability,<value>`` footer row.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

import numpy as np

from . import presets
from .control import ControllerGains, Q_MAX_DEFAULT
from .equilibrium import (ConvergenceError, conserved_moles, drift_residual,
                          steady_states)
from .network import ReactionNetwork, parse_network, serialize_network
from .sim import (
    MODES,
    EnsembleStats,
    SimConfig,
    SimulationAbort,
    Trajectory,
    ensemble,
)
from .structure import check_conditions
from .thermo import ThermoDomainError, ThermoState
from .transform import (
    AvailabilityHamiltonian,
    Setpoint,
    equivalence_residual,
    make_setpoint,
    setpoint_from_state,
)


class CliError(Exception):
    """Input error surfaced as exit code 1."""


def _cells(values, seen: dict[bytes, list[str]]) -> list[str]:
    """The ``%.17g`` cells of a numeric column by one ``%`` format, kept in
    ``seen`` under its bytes for reuse (so 0.0 and -0.0 stay apart)."""
    values = np.asarray(values, dtype=float)
    if (key := values.tobytes()) not in seen:
        text = "%.17g\n" * len(values) % tuple(values.tolist())
        seen[key] = text.splitlines()
    return seen[key]


def _write_csv(path: Path, columns: dict[str, list[str]], footer=()) -> None:
    """Write equal-length text columns under their names as header, then
    the ``footer`` lines, in one write."""
    lines = chain([",".join(columns)], map(",".join, zip(*columns.values())),
                  footer)
    path.write_bytes(("\n".join(lines) + "\n").encode())


def _moles(net: ReactionNetwork, text: str, flag: str) -> np.ndarray:
    """The mole numbers of a comma-separated flag value, one per species."""
    try:
        N = np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise CliError(f"{flag} expects comma-separated numbers, got {text!r}")
    if N.size != net.n_species:
        raise CliError(f"{flag} must list {net.n_species} mole numbers, "
                       f"got {N.size}")
    return N


def _load_network(path: str | None) -> ReactionNetwork:
    if path is None:
        return presets.benchmark_network()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read network config: {exc}")
    return parse_network(text)


def _setpoint_from_flags(net: ReactionNetwork, args) -> Setpoint:
    T, q = args.setpoint_T, args.setpoint_q
    if T is None or q is None:
        raise CliError("--setpoint-T and --setpoint-q are required")
    if not 0 < T < np.inf:
        raise CliError(f"--setpoint-T must be finite and positive, got {T}")
    if not 0 <= q < np.inf:
        raise CliError(f"--setpoint-q must be finite and nonnegative, got {q}")
    given = args.setpoint_N is not None
    if not given and q == 0 and (conserved := conserved_moles(net)):
        raise CliError(f"at --setpoint-q 0 the closed reactor conserves "
                       f"{conserved}, so (T*, q*) does not determine N*; "
                       "give it with --setpoint-N")
    try:
        if given:
            return setpoint_from_state(net, _moles(net, args.setpoint_N,
                                                   "--setpoint-N"), T, q)
        return make_setpoint(net, T, q)
    except ThermoDomainError as exc:
        raise CliError(f"the setpoint N* {'given' if given else 'solved'} at "
                       f"--setpoint-T {T} and --setpoint-q {q} leaves the "
                       f"domain: {exc}") from None


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    net = _load_network(args.network)
    state = ThermoState.from_temperature(net, _moles(net, args.N, "--N"),
                                         args.T)
    sp = _setpoint_from_flags(net, args)
    field = AvailabilityHamiltonian(net, sp)

    # a side that overflows at a finite state is named below, not warned of
    with np.errstate(all="ignore"):
        norm, pas, rxn = check_conditions(net, state, field, sp.V_star)
        residual = equivalence_residual(net, sp, state)
    all_hold = norm.holds and pas.holds and rxn.holds
    row = {  # the check.csv columns, in order
        "all_hold": all_hold,
        "input_noise_holds": norm.holds, "input_noise_lhs": norm.lhs,
        "input_noise_rhs": norm.rhs, "feedthrough_norm": norm.delta_frobenius,
        "trace_holds": pas.trace_holds, "trace_lhs": pas.trace_lhs,
        "trace_rhs": pas.trace_rhs,
        "feedthrough_psd_holds": pas.feedthrough_holds,
        "feedthrough_min_eig": pas.feedthrough_min_eig,
        "reaction_noise_holds": rxn.holds, "reaction_noise_lhs": rxn.lhs,
        "reaction_noise_rhs": rxn.rhs, "equivalence_residual": residual,
    }
    for name, value in row.items():
        if not math.isfinite(value):
            raise CliError(f"{name} = {value} is not finite at "
                           f"T={args.T} K, N={args.N}")

    def verdict(flag: bool) -> str:
        return "holds" if flag else "FAILS"

    print(f"input-noise bound     {verdict(norm.holds)}   "
          f"lhs={norm.lhs:.6g} rhs={norm.rhs:.6g} "
          f"(feedthrough norm {norm.delta_frobenius:.3g})")
    print(f"storage trace bound   {verdict(pas.trace_holds)}   "
          f"lhs={pas.trace_lhs:.6g} rhs={pas.trace_rhs:.6g}")
    print(f"feedthrough PSD       {verdict(pas.feedthrough_holds)}   "
          f"min eig={pas.feedthrough_min_eig:.3g}")
    print(f"reaction-noise bound  {verdict(rxn.holds)}   "
          f"lhs={rxn.lhs:.6g} rhs={rxn.rhs:.6g}")
    print(f"setpoint-shift residual = {residual:.6g}")
    print("all conditions hold" if all_hold else "some condition FAILS")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cells = iter(_cells([value for value in row.values()
                         if not isinstance(value, bool)], {}))
    _write_csv(out / "check.csv", {
        name: [str(value).lower() if isinstance(value, bool) else next(cells)]
        for name, value in row.items()})

    if args.strict and not all_hold:
        return 2
    return 0


# ---------------------------------------------------------------------------
# equilibria


def cmd_equilibria(args) -> int:
    net = _load_network(args.network)
    roots = steady_states(net, args.q, args.Tw,
                          T_range=(args.Tmin, args.Tmax), grid=args.grid)

    x = np.array([(ss.U, *ss.N) for ss in roots]).reshape(-1, net.n_species + 1)
    u = np.array([(ss.q, ss.Qdot) for ss in roots]).reshape(-1, 2)
    columns = {"T": _cells([ss.T for ss in roots], {})}
    columns.update((f"N_{name}", _cells(x[:, i], {}))
                   for i, name in enumerate(net.species_names, 1))
    columns.update({
        "U": _cells(x[:, 0], {}),
        "Qdot_required": _cells(u[:, 1], {}),
        "classification": [ss.classification for ss in roots],
        "max_re_lambda": _cells([np.max(ss.eigenvalues.real)
                                 for ss in roots], {}),
        "residual": _cells(drift_residual(net, x, u), {}),
    })

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "equilibria.csv", columns)

    if not roots:
        print(f"no steady states in [{args.Tmin}, {args.Tmax}] K")
    for ss in roots:
        print(f"T={ss.T:.4f} K  N=({', '.join(f'{n:.6g}' for n in ss.N)}) mol"
              f"  U={ss.U:.6g} J  Qdot={ss.Qdot:.6g} W  {ss.classification}")
    print(f"wrote {out / 'equilibria.csv'}")
    return 0


# ---------------------------------------------------------------------------
# simulate / casestudy


def _event_cells(traj: Trajectory, steps: np.ndarray) -> list[str]:
    """One events cell per recorded row: guard events since the previous
    row as sorted ``code:count`` pairs; abort lands on the last row, which
    of an aborted path also takes every event after the row before it."""
    last, cells = len(traj.times) - 1, [""] * len(traj.times)
    if not (traj.events or traj.aborted):
        return cells
    at, codes = zip(*traj.events) if traj.events else ((), ())
    counts = Counter(zip(np.searchsorted(steps[:last], at).tolist(), codes))
    if traj.aborted:
        counts[last, "abort"] = 1
    for (row, code), n in sorted(counts.items()):
        cells[row] += f";{code}:{n}" if cells[row] else f"{code}:{n}"
    return cells


def _series(net: ReactionNetwork, get, seen: dict) -> dict[str, list[str]]:
    """The cells of the numeric columns after ``t`` by CSV name."""
    states = get("states")
    columns = {"U": states[:, 0],
               **{f"N_{name}": states[:, 1 + i]
                  for i, name in enumerate(net.species_names)},
               "T": get("T"), "S": get("S"), "H_bar": get("avail"),
               "q": get("q"), "Qdot": get("Qdot"), "T_w": get("T_w")}
    return {name: _cells(v, seen) for name, v in columns.items()}


def _write_ensemble(out: Path, net: ReactionNetwork, stats: EnsembleStats,
                    steps: np.ndarray) -> None:
    """Write ``traj_<index>.csv`` per trajectory and ``summary.csv``, keeping
    t's cells and the last trajectory's, which a one-path summary reuses."""
    t = {stats.times.tobytes(): _cells(stats.times, {})}
    for traj in stats.trajectories:
        seen = dict(t)
        _write_csv(out / f"traj_{traj.index:03d}.csv", {
            "t": _cells(traj.times, seen),
            **_series(net, functools.partial(getattr, traj), seen),
            "events": _event_cells(traj, steps)})
    columns = {"t": _cells(stats.times, seen)}
    mean, std = (_series(net, s.get, seen) for s in (stats.mean, stats.std))
    for name in mean:
        columns[f"mean_{name}"], columns[f"std_{name}"] = mean[name], std[name]
    _write_csv(out / "summary.csv", columns, ["stabilization_probability,"
               + _cells([stats.stabilization_probability], seen)[0]])


def _run_ensemble(net: ReactionNetwork, sp: Setpoint | None,
                  gains: ControllerGains | None, cfg: SimConfig,
                  x0, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    try:
        stats = ensemble(net, sp, gains, cfg, x0)
    except SimulationAbort as exc:
        print(f"phreactor: simulation aborted: {exc}", file=sys.stderr)
        return 3
    _write_ensemble(out, net, stats, cfg.record_steps)

    n = len(stats.trajectories)
    print(f"{n} trajectories, {stats.n_aborted} aborted; "
          f"wrote {out / 'summary.csv'}")
    if sp is not None and stats.n_aborted < n:
        print(f"mean terminal T = {stats.mean['T'][-1]:.4f} K "
              f"(target {sp.T_star:.4f} K); "
              f"mean |T error| = {np.mean(stats.terminal_T_error):.4g} K; "
              f"stabilization probability = "
              f"{stats.stabilization_probability:.4g}")
    if stats.n_aborted:
        for traj in stats.trajectories:
            if traj.aborted:
                print(f"trajectory {traj.index} aborted: {traj.abort_reason}",
                      file=sys.stderr)
        return 3
    return 0


def cmd_simulate(args) -> int:
    net = _load_network(args.network)
    cfg = SimConfig(
        dt=args.dt, t_end=args.t_end, seed=args.seed, n_traj=args.n_traj,
        record_every=args.record_every, mode=args.mode,
        u_open=(args.q_open, args.Qdot_open),
        open_loop_until=args.open_until,
        clamp=not args.no_clamp, q_max=args.q_max, eps=args.eps,
    )
    x0 = ThermoState.from_temperature(net, _moles(net, args.N0, "--N0"),
                                      args.T0)

    sp = gains = None
    if cfg.feedback_on or args.setpoint_T is not None:
        sp = _setpoint_from_flags(net, args)
        gains = ControllerGains.diagonal(args.k_flow, args.k_heat)
    return _run_ensemble(net, sp, gains, cfg, x0, Path(args.out))


def cmd_casestudy(args) -> int:
    net = presets.benchmark_network()
    sp = presets.benchmark_setpoint(net)
    gains = presets.benchmark_gains()
    x0 = presets.benchmark_initial_state(net)
    cfg = SimConfig(
        dt=args.dt, t_end=args.t_end, seed=args.seed, n_traj=args.n_traj,
        record_every=args.record_every, mode=args.mode,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "network.cfg").write_text(serialize_network(net), newline="\n")
    print(f"benchmark: T*={sp.T_star} K, q*={sp.q_star} m^3/s, "
          f"N*=({', '.join(f'{n:.6g}' for n in sp.N_star)}) mol, "
          f"seed {cfg.seed}, {cfg.n_traj} trajectories")
    return _run_ensemble(net, sp, gains, cfg, x0, out)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1 (input error)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--out", metavar="DIR", default=".",
                        help="directory for CSV artifacts (default: .)")
    networked = _Parser(add_help=False, parents=[common])
    networked.add_argument("--network", metavar="PATH",
                           help="reaction network config file")

    parser = _Parser(prog="phreactor",
                     description="Stochastic port-Hamiltonian reactor "
                                 "toolkit: checks, steady states, and "
                                 "seeded simulations.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def setpoint_flags(p):
        p.add_argument("--setpoint-T", type=float, metavar="K",
                       help="target temperature")
        p.add_argument("--setpoint-q", type=float, metavar="M3_S",
                       help="target flow")
        p.add_argument("--setpoint-N", metavar="MOLES",
                       help="target mole numbers (comma separated); "
                            "omitted: solve the stationary mole balance")

    p = sub.add_parser("check", parents=[networked],
                       help="evaluate passivity and noise-bound conditions "
                            "at a state")
    p.add_argument("--T", type=float, required=True, metavar="K",
                   help="temperature of the evaluation state")
    p.add_argument("--N", required=True, metavar="MOLES",
                   help="mole numbers of the evaluation state "
                        "(comma separated)")
    setpoint_flags(p)
    p.add_argument("--strict", action="store_true",
                   help="exit with code 2 if any condition fails")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("equilibria", parents=[networked],
                       help="tabulate steady states under constant flow "
                            "and jacket temperature")
    p.add_argument("--q", type=float, required=True, metavar="M3_S",
                   help="flow")
    p.add_argument("--Tw", type=float, required=True, metavar="K",
                   help="jacket temperature")
    p.add_argument("--Tmin", type=float, default=250.0, metavar="K")
    p.add_argument("--Tmax", type=float, default=500.0, metavar="K")
    p.add_argument("--grid", type=int, default=2000,
                   help="temperature scan points (default: 2000)")
    p.set_defaults(func=cmd_equilibria)

    def sim_flags(p, seed, n_traj):
        dt, t_end, every = SimConfig.dt, SimConfig.t_end, SimConfig.record_every
        p.add_argument("--seed", type=int, default=seed,
                       help=f"master seed (default: {seed})")
        p.add_argument("--dt", type=float, default=dt,
                       help=f"time step (default: {dt})")
        p.add_argument("--t-end", type=float, default=t_end,
                       help=f"horizon (default: {t_end})")
        p.add_argument("--n-traj", type=int, default=n_traj,
                       help=f"ensemble size (default: {n_traj})")
        p.add_argument("--record-every", type=int, default=every,
                       help=f"record every k-th step (default: {every})")

    p = sub.add_parser("simulate", parents=[networked],
                       help="integrate trajectories and write CSV files")
    p.add_argument("--T0", type=float, required=True, metavar="K",
                   help="initial temperature")
    p.add_argument("--N0", required=True, metavar="MOLES",
                   help="initial mole numbers (comma separated)")
    p.add_argument("--mode", default=SimConfig.mode, choices=MODES)
    sim_flags(p, seed=0, n_traj=1)
    setpoint_flags(p)
    p.add_argument("--k-flow", type=float, default=presets.K_FLOW,
                   help="flow-channel gain")
    p.add_argument("--k-heat", type=float, default=presets.K_HEAT,
                   help="heat-channel gain")
    p.add_argument("--q-open", type=float, default=0.0,
                   help="open-loop flow input")
    p.add_argument("--Qdot-open", type=float, default=0.0,
                   help="open-loop heat input")
    p.add_argument("--open-until", type=float, default=0.0,
                   help="apply the open-loop input before this time")
    p.add_argument("--q-max", type=float, default=Q_MAX_DEFAULT,
                   help="flow clamp ceiling")
    p.add_argument("--no-clamp", action="store_true",
                   help="disable the flow clamp")
    p.add_argument("--eps", type=float, default=SimConfig.eps,
                   help="scaled ball radius of the stabilization estimate")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("casestudy", parents=[common],
                       help="run the bundled benchmark stabilization "
                            "ensemble")
    sim_flags(p, seed=42, n_traj=64)
    p.add_argument("--mode", default=SimConfig.mode,
                   choices=("closed_loop", "deterministic"))
    p.set_defaults(func=cmd_casestudy)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, ConvergenceError, OSError,
            MemoryError) as exc:
        print(f"phreactor: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
