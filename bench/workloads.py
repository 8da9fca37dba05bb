"""The four benchmark workloads: inputs made from the seed, the
``phreactor`` command lines each round runs, and the correctness checks
on what those commands write.

Every workload drives the public entry point ``phreactor.cli.main``.  A
round is the unit that ``wall_s`` times: one command for ``casestudy``,
``saturated-path`` and ``equilibria``, a batch of commands for
``check-sweep``.  Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from phreactor import presets
from phreactor.structure import (
    check_input_noise_bound,
    check_passivity,
    check_reaction_noise_bound,
)
from phreactor.thermo import ThermoState
from phreactor.transform import (
    AvailabilityHamiltonian,
    equivalence_residual,
    make_setpoint,
)

import reference

#: Largest drift residual a converged steady state may carry.
ROOT_RESIDUAL = 1e-8

#: Relative tolerance of the case-study means against the frozen
#: reference: far above last-bit summation-order differences (about
#: 1e-14 measured), far below any change in the dynamics.
MEAN_RTOL = 1e-9


def _csv(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode())))


class Workload:
    """Base: ``calls(k)`` lists the argv of round k's commands;
    ``work`` is the throughput unit per command and ``ops`` the
    operations per command that attempted/failed count."""

    name = ""
    work_name = ""
    work = 1
    ops = 1
    min_calls = 1

    def calls(self, k: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, argv: list[str], files: dict[str, bytes]) -> list[str]:
        """Problems with the files one command wrote; empty when correct."""
        raise NotImplementedError


class CaseStudy(Workload):
    """64 closed-loop trajectories of the bundled network."""

    name = "casestudy"
    work_name = "traj_steps_per_s"
    n_traj = 64
    dt = 1e-3
    n_steps = 100
    record_every = 10

    def __init__(self, rng: np.random.Generator, out: str, net_path: str):
        self.seed = int(rng.integers(0, 2 ** 31))
        self.out = out
        self.work = self.n_traj * self.n_steps
        self.ops = self.n_traj

    def calls(self, k):
        return [["casestudy", "--seed", str(self.seed),
                 "--n-traj", str(self.n_traj), "--dt", repr(self.dt),
                 "--t-end", repr(self.n_steps * self.dt),
                 "--record-every", str(self.record_every), "--out", self.out]]

    def check(self, argv, files):
        problems = []
        if len(files) != self.n_traj + 2:
            return [f"expected {self.n_traj + 2} files, got {len(files)}"]
        for name, data in files.items():
            if name.startswith("traj_") and b"abort" in data:
                problems.append(f"{name}: trajectory aborted")
        rows = _csv(files["summary.csv"])
        header, body = rows[0], rows[1:-1]
        net = presets.benchmark_network()
        ref = reference.ensemble_means(
            net, T_star=presets.T_STAR, q_star=presets.Q_STAR,
            N_star=presets.N_STAR, T0=presets.T0, N0=presets.N0,
            k_flow=presets.K_FLOW, k_heat=presets.K_HEAT, seed=self.seed,
            n_traj=self.n_traj, dt=self.dt, n_steps=self.n_steps,
            record_every=self.record_every)
        for col in ("T", "H_bar"):
            got = np.array([float(r[header.index(f"mean_{col}")])
                            for r in body])
            want = ref[col]
            if got.shape != want.shape:
                problems.append(f"mean_{col}: {got.size} rows, "
                                f"reference has {want.size}")
                continue
            err = float(np.max(np.abs(got - want)))
            if not err <= MEAN_RTOL * float(np.max(np.abs(want))):
                problems.append(f"mean_{col} differs from the reference "
                                f"by {err:.3g}")
        return problems


class SaturatedPath(Workload):
    """One long closed-loop path whose flow clamp fires on every step."""

    name = "saturated-path"
    work_name = "traj_steps_per_s"
    dt = 1e-3
    n_steps = 2000
    q_max = 5e-6  # below q* = 9.15e-6, so the clamp holds q at q_max

    def __init__(self, rng, out, net_path):
        self.T0 = presets.T0 + float(rng.uniform(-0.5, 0.5))
        self.seed = int(rng.integers(0, 2 ** 31))
        self.out = out
        self.net_path = net_path
        self.work = self.n_steps

    def calls(self, k):
        N0 = ",".join(repr(float(n)) for n in presets.N0)
        return [["simulate", "--network", self.net_path,
                 "--T0", repr(self.T0), "--N0", N0,
                 "--setpoint-T", repr(presets.T_STAR),
                 "--setpoint-q", repr(presets.Q_STAR),
                 "--q-max", repr(self.q_max), "--dt", repr(self.dt),
                 "--t-end", repr(self.n_steps * self.dt),
                 "--record-every", "1", "--seed", str(self.seed),
                 "--out", self.out]]

    def check(self, argv, files):
        rows = _csv(files["traj_000.csv"])
        events = rows[0].index("events")
        body = rows[1:]
        if len(body) != self.n_steps + 1:
            return [f"traj_000.csv has {len(body)} rows, "
                    f"expected {self.n_steps + 1}"]
        missing = [i for i, row in enumerate(body[1:], start=1)
                   if "q_clamp:1" not in row[events].split(";")]
        if missing:
            return [f"{len(missing)} steps did not log q_clamp "
                    f"(first: step {missing[0]})"]
        return []


class Equilibria(Workload):
    """The steady-state scan at a slightly perturbed operating point."""

    name = "equilibria"
    work_name = "scan_points_per_s"
    grid = 2000
    ops = 3  # roots expected: stable, unstable, stable

    def __init__(self, rng, out, net_path):
        # Within +-0.5 % of q* and +-0.2 K of the jacket temperature the
        # three roots (about 320 K, 332 K, 372 K) persist.
        self.q = presets.Q_STAR * (1.0 + float(rng.uniform(-0.005, 0.005)))
        self.Tw = 299.4922 + float(rng.uniform(-0.2, 0.2))
        self.out = out
        self.net_path = net_path
        self.work = self.grid

    def calls(self, k):
        return [["equilibria", "--network", self.net_path,
                 "--q", repr(self.q), "--Tw", repr(self.Tw),
                 "--grid", str(self.grid), "--out", self.out]]

    def check(self, argv, files):
        rows = _csv(files["equilibria.csv"])
        header, body = rows[0], rows[1:]
        labels = [r[header.index("classification")] for r in body]
        if labels != ["stable", "unstable", "stable"]:
            return [f"roots classified {labels}, expected "
                    "stable/unstable/stable"]
        residuals = [float(r[header.index("residual")]) for r in body]
        if not all(res < ROOT_RESIDUAL for res in residuals):
            return [f"root residuals {residuals} exceed {ROOT_RESIDUAL}"]
        return []


class CheckSweep(Workload):
    """``phreactor check`` at seeded random states against the benchmark
    setpoint (T*, q*), whose composition every call re-solves."""

    name = "check-sweep"
    work_name = "checks_per_s"
    n_states = 500
    batch = 100
    min_calls = 1000  # enough samples for a 99th percentile

    def __init__(self, rng, out, net_path):
        # The state distribution of tests/conftest.random_states.
        self.Ts = rng.uniform(280.0, 420.0, size=self.n_states)
        self.Ns = 10.0 ** rng.uniform(-2.0, 0.7, size=(self.n_states, 2))
        self.out = out
        self.net_path = net_path
        self._direct = None

    def calls(self, k):
        lo = (k % (self.n_states // self.batch)) * self.batch
        return [["check", "--network", self.net_path,
                 "--T", repr(float(self.Ts[i])),
                 "--N", ",".join(repr(float(n)) for n in self.Ns[i]),
                 "--setpoint-T", repr(presets.T_STAR),
                 "--setpoint-q", repr(presets.Q_STAR), "--out", self.out]
                for i in range(lo, lo + self.batch)]

    def check(self, argv, files):
        if self._direct is None:
            net = presets.benchmark_network()
            sp = make_setpoint(net, presets.T_STAR, presets.Q_STAR)
            self._direct = (net, sp, AvailabilityHamiltonian(net, sp))
        net, sp, field = self._direct
        T = float(argv[argv.index("--T") + 1])
        N = np.array([float(n) for n in argv[argv.index("--N") + 1].split(",")])
        st = ThermoState.from_temperature(net, N, T)
        norm = check_input_noise_bound(net, st)
        pas = check_passivity(net, st, field)
        rxn = check_reaction_noise_bound(net, st, V_star=sp.V_star)
        want = {
            "all_hold": norm.holds and pas.holds and rxn.holds,
            "input_noise_holds": norm.holds, "input_noise_lhs": norm.lhs,
            "input_noise_rhs": norm.rhs, "feedthrough_norm": norm.delta_frobenius,
            "trace_holds": pas.trace_holds, "trace_lhs": pas.trace_lhs,
            "trace_rhs": pas.trace_rhs,
            "feedthrough_psd_holds": pas.feedthrough_holds,
            "feedthrough_min_eig": pas.feedthrough_min_eig,
            "reaction_noise_holds": rxn.holds, "reaction_noise_lhs": rxn.lhs,
            "reaction_noise_rhs": rxn.rhs,
            "equivalence_residual": equivalence_residual(net, sp, st.x),
        }
        header, row = _csv(files["check.csv"])
        got = dict(zip(header, row))
        problems = []
        for key, value in want.items():
            if isinstance(value, bool):
                ok = got.get(key) == str(value).lower()
            else:
                ok = key in got and math.isclose(float(got[key]), value,
                                                 rel_tol=1e-9, abs_tol=1e-15)
            if not ok:
                problems.append(f"check.csv {key}={got.get(key)} at T={T}, "
                                f"N={N.tolist()}; direct call gives {value}")
        return problems


WORKLOADS = {w.name: w for w in (CaseStudy, SaturatedPath, Equilibria,
                                 CheckSweep)}
