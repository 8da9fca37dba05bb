"""Spans and counts around calls into each layer of the package.

The tracer replaces the module attributes that callers look up (for
example ``phreactor.sim.simulate``, which ``ensemble`` calls) with thin
wrappers that open a span for the duration of the call.  Nothing inside
the package changes: only calls that cross a module boundary through a
module attribute are seen.

Spans are kept in memory as ``[name, parent, start, end, round]`` lists in
the order they were opened, so a parent always precedes its children; the
per-layer metrics are derived from them when the run ends.  A span's self
time is its duration minus the durations of its direct child spans (the
program is single threaded, so children never overlap).
"""

from __future__ import annotations

import importlib
import math
import time
from contextlib import contextmanager

#: (module, attribute, span name).  One function reachable under several
#: module attributes gets one wrapper under one span name.  ``simulate``,
#: ``trajectory_rng`` and ``ThermoState._build`` are wrapped separately in
#: :func:`installed` because they also feed counters.
WRAPPED = (
    ("phreactor.cli", "ensemble", "sim.ensemble"),
    ("phreactor.sim", "solve_feedback", "control.solve_feedback"),
    ("phreactor.control", "solve_feedback", "control.solve_feedback"),
    ("phreactor.sim", "availability", "transform.availability"),
    ("phreactor.transform", "availability", "transform.availability"),
    ("phreactor.cli", "make_setpoint", "transform.make_setpoint"),
    ("phreactor.cli", "equivalence_residual", "transform.equivalence_residual"),
    ("phreactor.cli", "check_passivity", "structure.check_passivity"),
    ("phreactor.cli", "check_input_noise_bound",
     "structure.check_input_noise_bound"),
    ("phreactor.cli", "check_reaction_noise_bound",
     "structure.check_reaction_noise_bound"),
    ("phreactor.structure", "mass_action_rates", "structure.mass_action_rates"),
    ("phreactor.equilibrium", "mass_action_rates",
     "structure.mass_action_rates"),
    ("phreactor.structure", "sde_fields", "structure.sde_fields"),
    ("phreactor.equilibrium", "sde_fields", "structure.sde_fields"),
    ("phreactor.cli", "parse_network", "network.parse"),
    ("phreactor.presets", "parse_network", "network.parse"),
    ("phreactor.cli", "steady_states", "equilibrium.steady_states"),
    ("phreactor.equilibrium", "mass_balance_steady", "equilibrium.newton"),
    ("phreactor.equilibrium", "classify", "equilibrium.classify"),
)

#: Per-layer metrics in report order: name -> unit.
PER_LAYER = {
    "sim.step_self_s": "s",
    "sim.us_per_traj_step": "us",
    "sim.traj_steps": "count",
    "sim.simulate_calls": "count",
    "sim.rng_draws": "count",
    "sim.rng_s": "s",
    "sim.aggregate_s": "s",
    "sim.events_q_clamp": "count",
    "sim.events_halve": "count",
    "sim.events_floor": "count",
    "sim.aborted": "count",
    "control.solve_feedback_calls": "count",
    "control.solve_feedback_s": "s",
    "transform.availability_calls": "count",
    "transform.availability_s": "s",
    "thermo.state_builds": "count",
    "thermo.state_build_s": "s",
    "transform.make_setpoint_calls": "count",
    "transform.make_setpoint_s": "s",
    "transform.equivalence_residual_s": "s",
    "structure.check_passivity_s": "s",
    "structure.check_input_noise_bound_s": "s",
    "structure.check_reaction_noise_bound_s": "s",
    "network.parse_s": "s",
    "equilibrium.newton_solves": "count",
    "equilibrium.newton_s": "s",
    "equilibrium.rate_evals_per_solve": "count",
    "equilibrium.classify_s": "s",
    "equilibrium.scan_self_s": "s",
    "structure.mass_action_rates_calls": "count",
    "structure.sde_fields_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "count",
    "cli.files_written": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory spans plus named counters for one run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = {}
        self.round = 0
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.clock(), math.nan, self.round])
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][3] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.enter(name)
        try:
            yield
        finally:
            self.exit(index)

    def count(self, name: str, n: float = 1) -> None:
        key = (self.round, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(index)
        traced.__wrapped__ = fn
        return traced


class _TimedGenerator:
    """Stands in for the generator a trajectory draws its noise from,
    counting the normals drawn and timing each draw."""

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer

    def standard_normal(self, size=None, *args, **kwargs):
        n = 1 if size is None else math.prod(
            (size,) if isinstance(size, int) else size)
        self._tracer.count("sim.rng_draws", n)
        with self._tracer.span("sim.rng"):
            return self._rng.standard_normal(size, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer boundary for the duration of the block."""
    import phreactor.sim as sim
    from phreactor.thermo import ThermoState

    simulate, trajectory_rng = sim.simulate, sim.trajectory_rng

    def counted_simulate(net, sp, gains, cfg, x0, traj_index=0):
        traj = simulate(net, sp, gains, cfg, x0, traj_index=traj_index)
        steps = (cfg.n_steps if not traj.aborted
                 else round(float(traj.times[-1]) / cfg.dt))
        tracer.count("sim.traj_steps", steps)
        tracer.count("sim.aborted", int(traj.aborted))
        for _, code in traj.events:
            kind = "floor" if code.startswith("floor_") else code
            tracer.count(f"sim.events_{kind}")
        return traj

    def timed_rng(seed, index):
        return _TimedGenerator(trajectory_rng(seed, index), tracer)

    patches = [
        (sim, "simulate", tracer.wrap(counted_simulate, "sim.simulate")),
        (sim, "trajectory_rng", timed_rng),
    ]
    if "_build" in vars(ThermoState):
        patches.append((ThermoState, "_build", classmethod(tracer.wrap(
            ThermoState._build.__func__, "thermo.state_build"))))
    wrappers: dict[int, object] = {}
    for module_name, attr, span_name in WRAPPED:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            continue  # the boundary is gone; its metrics read 0
        if id(fn) not in wrappers:
            wrappers[id(fn)] = tracer.wrap(fn, span_name)
        patches.append((module, attr, wrappers[id(fn)]))
    saved = [(obj, attr, vars(obj)[attr]) for obj, attr, _ in patches]
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        yield tracer
    finally:
        for obj, attr, old in saved:
            setattr(obj, attr, old)


def span_table(spans: list[list]) -> dict[tuple[int, str], dict[str, float]]:
    """Per (round, span name): calls, inclusive time, self time, and the
    number of spans opened inside an ``equilibrium.newton`` span (rate
    evaluations per Newton solve come from the latter)."""
    child_time = [0.0] * len(spans)
    in_newton = [False] * len(spans)
    table: dict[tuple[int, str], dict[str, float]] = {}
    for i, (name, parent, start, end, rnd) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            in_newton[i] = (in_newton[parent]
                            or spans[parent][0] == "equilibrium.newton")
    for i, (name, parent, start, end, rnd) in enumerate(spans):
        row = table.setdefault((rnd, name), {"calls": 0, "total": 0.0,
                                             "self": 0.0, "in_newton": 0})
        row["calls"] += 1
        row["total"] += end - start
        row["self"] += end - start - child_time[i]
        row["in_newton"] += in_newton[i]
    return table


def layer_metrics(tracer: Tracer, rounds) -> dict[int, dict[str, float]]:
    """Every per-layer metric except the tracing overhead, per round."""
    table = span_table(tracer.spans)
    return {rnd: _round_metrics(table, tracer.counts, rnd) for rnd in rounds}


def _round_metrics(table, counts, rnd: int) -> dict[str, float]:
    def get(name: str, field: str) -> float:
        row = table.get((rnd, name))
        return row[field] if row else 0

    def count(name: str) -> float:
        return counts.get((rnd, name), 0)

    steps = count("sim.traj_steps")
    solves = get("equilibrium.newton", "calls")
    return {
        "sim.step_self_s": get("sim.simulate", "self"),
        "sim.us_per_traj_step": (get("sim.simulate", "total") / steps * 1e6
                                 if steps else 0.0),
        "sim.traj_steps": steps,
        "sim.simulate_calls": get("sim.simulate", "calls"),
        "sim.rng_draws": count("sim.rng_draws"),
        "sim.rng_s": get("sim.rng", "total"),
        "sim.aggregate_s": get("sim.ensemble", "self"),
        "sim.events_q_clamp": count("sim.events_q_clamp"),
        "sim.events_halve": count("sim.events_halve"),
        "sim.events_floor": count("sim.events_floor"),
        "sim.aborted": count("sim.aborted"),
        "control.solve_feedback_calls": get("control.solve_feedback", "calls"),
        "control.solve_feedback_s": get("control.solve_feedback", "total"),
        "transform.availability_calls": get("transform.availability", "calls"),
        "transform.availability_s": get("transform.availability", "total"),
        "thermo.state_builds": get("thermo.state_build", "calls"),
        "thermo.state_build_s": get("thermo.state_build", "total"),
        "transform.make_setpoint_calls": get("transform.make_setpoint", "calls"),
        "transform.make_setpoint_s": get("transform.make_setpoint", "total"),
        "transform.equivalence_residual_s":
            get("transform.equivalence_residual", "total"),
        "structure.check_passivity_s": get("structure.check_passivity", "total"),
        "structure.check_input_noise_bound_s":
            get("structure.check_input_noise_bound", "total"),
        "structure.check_reaction_noise_bound_s":
            get("structure.check_reaction_noise_bound", "total"),
        "network.parse_s": get("network.parse", "total"),
        "equilibrium.newton_solves": solves,
        "equilibrium.newton_s": get("equilibrium.newton", "total"),
        "equilibrium.rate_evals_per_solve":
            (get("structure.mass_action_rates", "in_newton") / solves
             if solves else 0.0),
        "equilibrium.classify_s": get("equilibrium.classify", "total"),
        "equilibrium.scan_self_s": get("equilibrium.steady_states", "self"),
        "structure.mass_action_rates_calls":
            get("structure.mass_action_rates", "calls"),
        "structure.sde_fields_s": get("structure.sde_fields", "total"),
        "cli.self_s": get("cli.main", "self"),
        "cli.bytes_written": count("cli.bytes_written"),
        "cli.files_written": count("cli.files_written"),
    }
