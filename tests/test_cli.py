"""Command-line front end: exit codes, CSV schemas, and byte-stable seeded
artifacts, all exercised in-process through ``main``."""

import math
import os
import resource
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import NO_REACTION, THREE_REACTIONS
import phreactor
from phreactor import presets, sim
from phreactor.cli import (_build_parser, _cells, _event_cells, _write_csv,
                           main)
from phreactor.equilibrium import drift_residual, steady_states
from phreactor.network import parse_network
from phreactor.sim import Trajectory
from phreactor.structure import (check_input_noise_bound, check_passivity,
                                 check_reaction_noise_bound)
from phreactor.thermo import ThermoState
from phreactor.transform import (AvailabilityHamiltonian,
                                 equivalence_residual, make_setpoint,
                                 setpoint_from_state)

SINGLE_SPECIES = """\
[species]
A cp=75.24 h_ref=0 s_ref=50.6
[reactions]
[reactor]
V=0.001 P=1e5 T_ref=300.0 lambda=0.05808 R_gas=8.314
[inlet]
T_in=310.0 c_A=2000.0
[noise]
rho1=0.1 rho2=5e-7 rho3=0.05
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "network.cfg"
    path.write_text(presets.CONFIG_TEXT)
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ------------------------------------------------------------------- check


def test_check_benchmark_state(cfg_path, tmp_path, capsys):
    out = tmp_path / "artifacts"
    rc = main(["check", "--network", str(cfg_path), "--out", str(out),
               "--T", "342", "--N", "1,1",
               "--setpoint-T", "331.9", "--setpoint-q", "9.15e-6",
               "--setpoint-N", "1.3,0.7"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "all conditions hold" in text
    header, rows = read_csv(out / "check.csv")
    assert header[:2] == ["all_hold", "input_noise_holds"]
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["all_hold"] == "true"
    assert row["feedthrough_psd_holds"] == "true"
    assert float(row["equivalence_residual"]) == pytest.approx(
        0.08414477214381652, rel=1e-12)
    assert float(row["input_noise_lhs"]) < float(row["input_noise_rhs"])
    assert float(row["trace_lhs"]) < float(row["trace_rhs"])


CHECK_ARGS = ["--T", "342", "--N", "1,1",
              "--setpoint-T", "331.9", "--setpoint-q", "9.15e-6"]


def test_check_reads_no_storage_hessian(cfg_path, tmp_path, monkeypatch):
    from phreactor.transform import AvailabilityHamiltonian

    def hessian(self, x):
        raise AssertionError("check reads no dense Hessian")

    monkeypatch.setattr(AvailabilityHamiltonian, "hessian", hessian)
    assert main(["check", "--network", str(cfg_path),
                 "--out", str(tmp_path / "o")] + CHECK_ARGS) == 0


def test_check_builds_each_state_once(cfg_path, tmp_path, monkeypatch):
    """The checked state and the setpoint: two ThermoState builds, the
    checked one handed down to every check."""
    from phreactor.thermo import ThermoState

    real, builds = ThermoState._build.__func__, []

    def build(cls, *args):
        builds.append(args)
        return real(cls, *args)

    monkeypatch.setattr(ThermoState, "_build", classmethod(build))
    assert main(["check", "--network", str(cfg_path),
                 "--out", str(tmp_path / "o")] + CHECK_ARGS) == 0
    assert len(builds) <= 2


def test_check_builds_its_constants_and_float_view_once(cfg_path, tmp_path,
                                                        monkeypatch):
    """One check command derives its network's constants once and their
    float view once, however many states, solves and checks read them."""
    from phreactor import kernel

    built = {"step_constants": 0, "float_view": 0}
    for name in built:
        def counted(net, real=getattr(kernel, name), name=name):
            built[name] += 1
            return real(net)
        monkeypatch.setattr(kernel, name, counted)
    assert main(["check", "--network", str(cfg_path),
                 "--out", str(tmp_path / "o")] + CHECK_ARGS) == 0
    assert built == {"step_constants": 1, "float_view": 1}


def test_check_without_network_uses_bundled_network(cfg_path, tmp_path):
    args = ["--T", "342", "--N", "1,1", "--setpoint-T", "331.9",
            "--setpoint-q", "9.15e-6"]
    assert main(["check", "--out", str(tmp_path / "a")] + args) == 0
    assert main(["check", "--network", str(cfg_path),
                 "--out", str(tmp_path / "b")] + args) == 0
    assert (tmp_path / "a" / "check.csv").read_bytes() == \
        (tmp_path / "b" / "check.csv").read_bytes()


def test_check_strict_exits_2_when_condition_fails(cfg_path, tmp_path, capsys):
    base = parse_network(presets.CONFIG_TEXT)
    noisy = base.with_noise(base.noise.scaled(f2=1e6))
    from phreactor.network import serialize_network
    bad = tmp_path / "noisy.cfg"
    bad.write_text(serialize_network(noisy))
    args = ["check", "--network", str(bad), "--out", str(tmp_path / "o"),
            "--T", "342", "--N", "1,1",
            "--setpoint-T", "331.9", "--setpoint-q", "9.15e-6"]
    assert main(args) == 0            # reported, but not strict
    assert main(args + ["--strict"]) == 2
    text = capsys.readouterr().out
    assert "FAILS" in text
    _, rows = read_csv(tmp_path / "o" / "check.csv")
    assert rows[0][0] == "false"


def test_check_single_species_network(tmp_path):
    cfg = tmp_path / "single.cfg"
    cfg.write_text(SINGLE_SPECIES)
    out = tmp_path / "o"
    rc = main(["check", "--network", str(cfg), "--out", str(out),
               "--T", "315", "--N", "1.5",
               "--setpoint-T", "310", "--setpoint-q", "1e-4"])
    assert rc == 0
    header, rows = read_csv(out / "check.csv")
    row = dict(zip(header, rows[0]))
    assert row["all_hold"] == "true"
    # with no reactions the damping matrix vanishes identically
    assert float(row["reaction_noise_lhs"]) == 0.0
    assert float(row["equivalence_residual"]) == 0.0


@pytest.mark.parametrize("T, N, message", [
    ("342", "1e160,1", "input_noise_lhs = nan is not finite at T=342.0 K, "
                       "N=1e160,1"),
    ("1e150", "1,1", "input_noise_lhs = inf is not finite at T=1e+150 K, "
                     "N=1,1"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_overflowing_condition_exits_1(cfg_path, tmp_path, capsys, T, N,
                                             message):
    # a finite state where a condition side overflows: the command warns of
    # nothing, names the quantity and writes nothing
    out = tmp_path / "o"
    args = ["check", "--network", str(cfg_path), "--out", str(out),
            "--T", T, "--N", N,
            "--setpoint-T", "331.9", "--setpoint-q", "9.15e-6"]
    for strict in ([], ["--strict"]):
        assert main(args + strict) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()


# -------------------------------------------------------------- equilibria


def test_equilibria_benchmark_window(cfg_path, tmp_path, capsys):
    out = tmp_path / "eq"
    rc = main(["equilibria", "--network", str(cfg_path), "--out", str(out),
               "--q", "9.15e-6", "--Tw", "299.49223054566045"])
    assert rc == 0
    header, rows = read_csv(out / "equilibria.csv")
    assert header == ["T", "N_A", "N_B", "U", "Qdot_required",
                      "classification", "max_re_lambda", "residual"]
    assert [r[5] for r in rows] == ["stable", "unstable", "stable"]
    temps = [float(r[0]) for r in rows]
    np.testing.assert_allclose(temps, [320.2487049608484, 331.9000002740323,
                                       371.9863905913834], rtol=1e-9)
    assert all(float(r[7]) < 1e-8 for r in rows)
    assert capsys.readouterr().out.count("T=") == 3


def test_equilibria_high_flow_window(tmp_path, capsys):
    # the one root's N_B is 1.6e-7 mol, close to the 1e-12 mol floor
    assert main(["equilibria", "--q", "10", "--Tw", "299.4922", "--out",
                 str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "equilibria.csv")
    assert [r[5] for r in rows] == ["stable"]
    assert float(rows[0][0]) == pytest.approx(310.0, abs=1e-3)
    assert capsys.readouterr().out.count("T=") == 1


def test_equilibria_empty_window(cfg_path, tmp_path, capsys):
    out = tmp_path / "eq"
    rc = main(["equilibria", "--network", str(cfg_path), "--out", str(out),
               "--q", "9.15e-6", "--Tw", "299.49", "--Tmin", "400",
               "--Tmax", "420"])
    assert rc == 0
    header, rows = read_csv(out / "equilibria.csv")
    assert rows == []
    assert header[0] == "T"
    assert "no steady states" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [
    ["--Tmin", "400", "--Tmax", "300"],
    ["--Tmin", "-10"],
    ["--Tmax", "inf"],
    ["--grid", "0"],
    ["--grid", "1"],
    ["--q", "0"],
    ["--q=-1e-6"],
    ["--q", "nan"],
    ["--Tw", "nan"],
    ["--Tw", "inf"],
    # windows whose enthalpies (1e304) or ITP bound 2 ** n_max (1e305, and
    # log2(inf) from 1e306) overflow a float, were it scanned
    ["--Tmax", "1e304"],
    ["--Tmax", "1e305"],
    ["--Tmax", "1e306"],
])
def test_equilibria_rejects_bad_scan(cfg_path, tmp_path, capsys, flags):
    out = tmp_path / "eq"
    rc = main(["equilibria", "--network", str(cfg_path), "--out", str(out),
               "--q", "9.15e-6", "--Tw", "299.49"] + flags)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("phreactor: error: ") and err.count("\n") == 1
    assert ("grid >= 2 and 0 < Tmin < Tmax, both finite, with Tmax <= 1e6 K"
            in err)
    assert "did not converge" not in err
    assert not (out / "equilibria.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_equilibria_rejects_a_tmin_whose_rate_exponent_overflows(
        cfg_path, tmp_path, capsys):
    """A subnormal --Tmin makes the rate constants' E / (R T) overflow; the
    scan refuses it before any rate is taken, naming the bound, and scans
    a window just above the bound without a warning."""
    flags = ["--network", str(cfg_path), "--q", "9.15e-6", "--Tw", "299.49"]
    out = tmp_path / "eq"
    assert main(["equilibria", *flags, "--out", str(out),
                 "--Tmin", "1e-310"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("phreactor: error: ") and err.count("\n") == 1
    assert ("got Tmin=1e-310, where E / (R Tmin) overflows: Tmin must be "
            "above about 5.01e-305 K" in err)
    assert not (out / "equilibria.csv").exists()
    assert main(["equilibria", *flags, "--out", str(out), "--Tmin", "5.1e-305",
                 "--Tmax", "400"]) == 0


def test_equilibria_rejects_a_tmin_whose_r_t_underflows(tmp_path, capsys):
    """With R = 5e-324 J/(mol K), R Tmin rounds to 0.0 at Tmin = 0.1 K: the
    scan exits 1 with one error line naming Tmin, not a traceback."""
    (cfg := tmp_path / "tiny_R.cfg").write_text(
        presets.CONFIG_TEXT.replace("R_gas=8.314", "R_gas=5e-324"))
    out = tmp_path / "eq"
    assert main(["equilibria", "--network", str(cfg), "--q", "9.15e-6",
                 "--Tw", "299.4922", "--Tmin", "0.1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("phreactor: error: ") and err.count("\n") == 1
    assert "got Tmin=0.1, where E / (R Tmin) overflows" in err
    assert "so no window can be scanned" in err and not out.exists()


def test_equilibria_says_no_window_of_a_network_can_be_scanned(tmp_path,
                                                               capsys):
    """With R = 5e-324 J/(mol K), E / (R T) overflows for every T up to the
    scan's 1e6 K ceiling: the default window exits 1 with one error line
    that says so, names no bound for Tmin, and writes nothing."""
    (cfg := tmp_path / "tiny_R.cfg").write_text(
        presets.CONFIG_TEXT.replace("R_gas=8.314", "R_gas=5e-324"))
    out = tmp_path / "eq"
    assert main(["equilibria", "--network", str(cfg), "--q", "9.15e-6",
                 "--Tw", "299.4922", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("phreactor: error: ") and err.count("\n") == 1
    assert ("overflows: it overflows for every Tmin <= 1e6 K, so no window "
            "can be scanned" in err)
    assert "above about" not in err and not out.exists()


# ---------------------------------------------------------------- simulate


SIM_ARGS = ["--T0", "342", "--N0", "1,1", "--setpoint-T", "331.9",
            "--setpoint-q", "9.15e-6", "--setpoint-N", "1.3,0.7",
            "--t-end", "0.2", "--seed", "9", "--n-traj", "2"]


def test_simulate_writes_trajectories_and_summary(cfg_path, tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate", "--network", str(cfg_path), "--out", str(out)]
              + SIM_ARGS)
    assert rc == 0
    header, rows = read_csv(out / "traj_000.csv")
    assert header == ["t", "U", "N_A", "N_B", "T", "S", "H_bar", "q", "Qdot",
                      "T_w", "events"]
    times = [float(r[0]) for r in rows]
    np.testing.assert_allclose(np.diff(times), 0.01, atol=1e-12)
    assert float(rows[0][6]) == pytest.approx(0.84547554388462487, rel=1e-12)
    assert float(rows[0][7]) == pytest.approx(0.000913191679643401, rel=1e-12)

    sh, srows = read_csv(out / "summary.csv")
    assert sh[:3] == ["t", "mean_U", "std_U"]
    assert srows[-1][0] == "stabilization_probability"
    data_rows = srows[:-1]
    assert len(data_rows) == len(rows)


def test_simulate_seeded_rerun_is_byte_identical(cfg_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["simulate", "--network", str(cfg_path), "--out",
                     str(out)] + SIM_ARGS) == 0
    for name in ("traj_000.csv", "traj_001.csv", "summary.csv"):
        b1 = (out1 / name).read_bytes()
        assert b1 == (out2 / name).read_bytes()
        assert b"\r" not in b1
        assert b1.endswith(b"\n")


def test_parser_is_built_once_and_keeps_no_flag_values(cfg_path, tmp_path):
    assert _build_parser() is _build_parser()
    # SIM_ARGS without its --seed 9 --n-traj 2 tail
    argv = ["simulate", "--network", str(cfg_path)] + SIM_ARGS[:-4]
    for name, seed in (("five", ["--seed", "5"]), ("default", []),
                       ("zero", ["--seed", "0"])):
        assert main(argv + seed + ["--out", str(tmp_path / name)]) == 0
    five, default, zero = ((tmp_path / name / "traj_000.csv").read_bytes()
                           for name in ("five", "default", "zero"))
    assert default == zero != five


def test_simulate_deterministic_trajectories_coincide(cfg_path, tmp_path):
    out = tmp_path / "det"
    rc = main(["simulate", "--network", str(cfg_path), "--out", str(out),
               "--mode", "deterministic"] + SIM_ARGS)
    assert rc == 0
    assert (out / "traj_000.csv").read_bytes() == \
        (out / "traj_001.csv").read_bytes()


def test_simulate_zero_theta_aborts_with_numpys_warning(tmp_path, capsys):
    """With T_ref = 1e-200 K, T0 = 1e-170 K is a state whose own temperature
    T(U, N) is 1e-200 K, and theta = T^2 N^T cp underflows to 0.0: the
    feedthrough divides by zero with numpy's warning, the feedback is NaN,
    and the lone path aborts on its first update, writing nothing."""
    text = presets.CONFIG_TEXT.replace("T_ref=300.0", "T_ref=1e-200")
    (cfg := tmp_path / "cold.cfg").write_text(text)
    out = tmp_path / "t0"
    argv = ["simulate", "--network", str(cfg), "--T0", "1e-170", "--N0",
            "1,1", "--setpoint-T", "331.9", "--setpoint-q", "9.15e-6",
            "--t-end", "0.01", "--seed", "1", "--out", str(out)]
    with pytest.warns(RuntimeWarning, match="divide by zero") as caught:
        assert main(argv) == 3
    assert ("divide by zero encountered in scalar divide", "kernel.py") in {
        (str(w.message), Path(w.filename).name) for w in caught}
    assert capsys.readouterr() == ("", (
        "phreactor: simulation aborted: every trajectory aborted "
        "(trajectory 0: non-finite state update)\n"))
    assert list(out.iterdir()) == []
    net = parse_network(text)
    x0 = ThermoState.from_temperature(net, np.array([1.0, 1.0]), 1e-170)
    with np.errstate(divide="ignore"):
        tr = sim.simulate(net, make_setpoint(net, 331.9, 9.15e-6),
                          presets.benchmark_gains(),
                          sim.SimConfig(t_end=0.01, seed=1), x0)
    assert tr.abort_reason == "non-finite state update"
    assert tr.events == [(1, "q_clamp")]
    assert tr.states.tolist() == [x0.x.tolist()]
    assert math.isnan(tr.q[0]) and math.isnan(tr.Qdot[0])
    assert tr.T.tolist() == [1e-200]  # T(U, N), as derived


def test_simulate_rejects_a_start_whose_own_temperature_is_zero(
        cfg_path, tmp_path, capsys):
    """On the bundled network, U(N, T0) at T0 = 1e-170 K inverts to
    T(U, N) = 0.0 K: the start is refused as a state outside the domain,
    naming both temperatures, before anything is written."""
    out = tmp_path / "t0"
    assert main(["simulate", "--network", str(cfg_path), "--T0", "1e-170",
                 "--N0", "1,1", "--setpoint-T", "331.9", "--setpoint-q",
                 "9.15e-6", "--t-end", "0.01", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", (
        "phreactor: error: temperature 1e-170 K gives T(U, N) = 0.0 K, which "
        "is not finite and positive\n"))
    assert not out.exists()


def test_simulate_zero_RT_lone_path_has_its_batch_rows_bytes(tmp_path):
    """With R_gas = 5e-324 J/(mol K), R T underflows to 0.0 at T = 0.1 K:
    the rate constants divide by zero with numpy's warning, exp(-inf) = 0,
    and the lone path goes on, with the bytes of its row in a batch."""
    cfg = tmp_path / "tiny_R.cfg"
    cfg.write_text(presets.CONFIG_TEXT.replace("R_gas=8.314", "R_gas=5e-324"))
    argv = ["simulate", "--network", str(cfg), "--T0", "0.1", "--N0", "1,1",
            "--mode", "open_loop", "--Qdot-open", "1e3", "--t-end", "0.02",
            "--record-every", "1", "--seed", "1"]
    for n in ("1", "2"):
        with pytest.warns(RuntimeWarning,
                          match="divide by zero encountered in .*divide"):
            assert main(argv + ["--n-traj", n, "--out", str(tmp_path / n)]) == 0
    lone = (tmp_path / "1" / "traj_000.csv").read_bytes()
    assert lone == (tmp_path / "2" / "traj_000.csv").read_bytes()
    T = [float(row[4]) for row in read_csv(tmp_path / "1" / "traj_000.csv")[1]]
    assert len(T) == 21 and max(T) < 0.5  # every step at R T = 0.0


def test_simulate_isolated_without_setpoint(cfg_path, tmp_path):
    out = tmp_path / "iso"
    rc = main(["simulate", "--network", str(cfg_path), "--out", str(out),
               "--mode", "isolated", "--T0", "342", "--N0", "1,1",
               "--t-end", "0.1"])
    assert rc == 0
    header, rows = read_csv(out / "traj_000.csv")
    col = header.index("H_bar")
    assert all(r[col] == "nan" for r in rows)
    assert all(float(r[header.index("q")]) == 0.0 for r in rows)


def test_simulate_events_column_aggregates_floor_hits(tmp_path):
    cfg = tmp_path / "plain.cfg"
    cfg.write_text(NO_REACTION)
    out = tmp_path / "wash"
    rc = main(["simulate", "--network", str(cfg), "--out", str(out),
               "--mode", "open_loop", "--q-open", "0.5",
               "--T0", "342", "--N0", "1,1", "--t-end", "0.1", "--seed", "3"])
    assert rc == 0
    header, rows = read_csv(out / "traj_000.csv")
    cell = rows[-1][header.index("events")]
    assert cell == "floor_B:10"
    assert rows[0][header.index("events")] == ""

    # an aborted path recorded at steps 0, 10, 20 of the grid 0, 10, 20, 30
    n = 3
    traj = Trajectory(index=0, times=np.arange(n) * 0.01,
                      states=np.ones((n, 3)), T=np.ones(n), S=np.ones(n),
                      avail=np.ones(n), q=np.ones(n), Qdot=np.ones(n),
                      T_w=np.ones(n), aborted=True, abort_reason="test",
                      events=[(3, "q_clamp"), (5, "halve"), (5, "halve"),
                              (10, "floor_A"), (15, "floor_B"), (22, "halve")])
    assert _event_cells(traj, [0, 10, 20, 30]) == [
        "",                                    # no events
        "floor_A:1;halve:2;q_clamp:1",         # sorted; step 10 on the boundary
        "abort:1;floor_B:1;halve:1",           # aborted: everything after step 10
    ]


def test_simulate_no_clamp_lets_flow_exceed_q_max(cfg_path, tmp_path):
    # with the clamp this run holds q at q_max on every step
    rc = main(["simulate", "--network", str(cfg_path), "--out", str(tmp_path),
               "--T0", "342", "--N0", "1,1", "--setpoint-T", "331.9",
               "--setpoint-q", "9.15e-6", "--q-max", "5e-6", "--no-clamp",
               "--t-end", "0.1", "--seed", "3"])
    assert rc == 0
    header, rows = read_csv(tmp_path / "traj_000.csv")
    assert max(float(r[header.index("q")]) for r in rows) > 5e-6
    assert not any("q_clamp" in r[header.index("events")] for r in rows)


def test_partial_abort_writes_every_trajectory_and_exits_3(cfg_path, tmp_path,
                                                         capsys, monkeypatch):
    # with 4 halvings allowed, trajectories 0 and 2 of this cooling run
    # abort and 1 and 3 finish: all four are written, each abort reported
    monkeypatch.setattr(sim, "MAX_HALVINGS", 4)
    out = tmp_path / "out"
    rc = main(["simulate", "--network", str(cfg_path), "--out", str(out),
               "--T0", "342", "--N0", "1,1", "--mode", "open_loop",
               "--Qdot-open=-1e6", "--t-end", "0.07", "--record-every", "1",
               "--n-traj", "4", "--seed", "0"])
    assert rc == 3
    assert sorted(p.name for p in out.iterdir()) == [
        "summary.csv", "traj_000.csv", "traj_001.csv", "traj_002.csv",
        "traj_003.csv"]
    assert capsys.readouterr().err.splitlines() == [
        f"trajectory {i} aborted: temperature stayed nonpositive after 4 "
        f"step halvings at t={t}" for i, t in ((0, "0.04925"), (2, "0.0675"))]
    header, rows = read_csv(out / "traj_002.csv")
    assert rows[-1][header.index("events")] == "abort:1;halve:4"


@pytest.mark.filterwarnings("error")
def test_simulate_abort_exits_3(cfg_path, tmp_path, capsys):
    # the update overflows: every trajectory aborts, and no numpy warning
    # reaches stderr before the reason
    for n_traj in ("1", "3"):
        rc = main(["simulate", "--network", str(cfg_path), "--out",
                   str(tmp_path / n_traj), "--mode", "open_loop",
                   "--q-open=-1e9", "--T0", "342", "--N0", "1,1", "--t-end",
                   "0.1", "--seed", "1", "--n-traj", n_traj])
        assert rc == 3
        assert capsys.readouterr().err == (
            "phreactor: simulation aborted: every trajectory aborted "
            "(trajectory 0: non-finite state update)\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gain, n_traj, rc", [
    (["--k-flow", "1e308"], "1", 3), (["--k-flow", "1e308"], "3", 3),
    (["--k-flow", "1e200"], "1", 0), (["--k-heat", "1e308"], "1", 0)])
def test_huge_finite_gain_warns_of_nothing(cfg_path, tmp_path, capsys, gain,
                                           n_traj, rc):
    # k_flow = 1e308 makes the feedback solve inf * 0 = NaN: the run aborts
    # with its reason alone on stderr; smaller huge gains still run
    assert main(["simulate", "--network", str(cfg_path), "--out",
                 str(tmp_path), "--T0", "342", "--N0", "1,1", "--setpoint-T",
                 "331.9", "--setpoint-q", "9.15e-6", "--t-end", "0.01",
                 "--n-traj", n_traj, *gain]) == rc
    assert capsys.readouterr().err == ("" if rc == 0 else (
        "phreactor: simulation aborted: every trajectory aborted "
        "(trajectory 0: non-finite state update)\n"))


@pytest.mark.filterwarnings("error")
def test_overflowing_spread_warns_of_nothing(cfg_path, tmp_path, capsys):
    # every path stays finite, but the square in the std overflows: the
    # summary carries inf cells and stderr stays empty
    assert main(["simulate", "--network", str(cfg_path), "--out",
                 str(tmp_path), "--mode", "open_loop", "--q-open=-1e3",
                 "--T0", "342", "--N0", "1,1", "--t-end", "0.1", "--n-traj",
                 "8", "--seed", "1"]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(tmp_path / "summary.csv")
    assert "inf" in {cell for row in rows for cell in row}


def test_check_bytes_do_not_follow_the_openblas_core_type(tmp_path):
    """At q* > 0 the setpoint's Newton solves with the kernel's elimination,
    so a check calls no BLAS or LAPACK routine: its check.csv has the same
    bytes in a child with OPENBLAS_CORETYPE=Haswell as in one without."""
    src = str(Path(phreactor.__file__).parents[1])
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    written = []
    for name, variant in (("default", {}),
                          ("haswell", {"OPENBLAS_CORETYPE": "Haswell"})):
        subprocess.run(
            [sys.executable, "-m", "phreactor", "check", "--T", "342", "--N",
             "1,1", "--setpoint-T", "331.9", "--setpoint-q", "1e-7", "--out",
             str(tmp_path / name)], env={**env, **variant}, check=True,
            stdout=subprocess.DEVNULL)
        written.append((tmp_path / name / "check.csv").read_bytes())
    assert written[0] == written[1]


def test_unallocatable_record_table_exits_1(tmp_path):
    # 1e10 steps, which int64 holds: the 1e9 recorded steps cannot be
    # allocated.  The child runs under a 2 GiB address-space limit, so code
    # that builds them one by one fails there without exhausting the memory
    # of the host.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(phreactor.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    with open(tmp_path / "stderr", "w+") as err:
        child = subprocess.Popen(
            [sys.executable, "-m", "phreactor", "simulate", "--mode",
             "isolated", "--T0", "342", "--N0", "1,1", "--dt", "1e-12",
             "--t-end", "0.01", "--out", str(tmp_path)],
            stdout=subprocess.DEVNULL, stderr=err, env=env, preexec_fn=limit)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read()
    assert child.returncode == 1, text
    assert text.startswith("phreactor: error: ") and "Traceback" not in text
    assert usage.ru_maxrss < 300 * 1024  # KiB


@pytest.mark.parametrize("flags, named", [
    (["--dt", "1e-300", "--t-end", "0.01"], "(--t-end, --dt)"),
    (["--record-every", str(2 ** 63)], "(--record-every)")])
def test_step_counts_past_int64_exit_1_naming_their_flags(tmp_path, capsys,
                                                          flags, named):
    rc = main(["simulate", "--mode", "isolated", "--T0", "342", "--N0", "1,1",
               *flags, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("phreactor: error: ") and named in err
    assert "Maximum allowed size" not in err and not any(tmp_path.iterdir())


def csv_cell(v):
    return v if isinstance(v, str) else format(v, ".17g")


def test_csv_rows_have_the_bytes_of_per_cell_formatting(tmp_path):
    # the writer, fed _cells, gives the bytes of format(v, ".17g") per cell
    values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 330.0,
              0.1, -1.0 / 3.0]
    text = {"events": ["", "floor_A:1", "abort:1;halve:4", "q_clamp:2",
                        "", "", "", "", ""],
            "classification": ["stable", "unstable", "", "stable", "", "",
                               "", "", ""],
            "all_hold": ["true", "false"] + [""] * 7}
    table = {"t": values, "U": values[::-1], **text,
             "T": values[3:] + values[:3]}
    _write_csv(tmp_path / "table.csv", {
        name: column if name in text else _cells(column, {})
        for name, column in table.items()})

    expected = [",".join(table), *(",".join(map(csv_cell, row)) for row in
                                   zip(*table.values()))]
    assert (tmp_path / "table.csv").read_bytes() == (
        "\n".join(expected) + "\n").encode()
    assert expected[1] == "nan,-0.33333333333333331,,stable,true,-0"
    # a table without rows is its header
    _write_csv(tmp_path / "empty.csv", {"T": _cells([], {}),
                                        "classification": []})
    assert (tmp_path / "empty.csv").read_bytes() == b"T,classification\n"


@pytest.mark.parametrize(
    "text, T, N, setpoint_N",
    [(None, "342", "1,1", None), (None, "331.9", "0.05,1.5", None),
     (THREE_REACTIONS, "342", "1,1", None),
     (NO_REACTION, "342", "1,1", "1.3,0.7")],
    ids=["342-1,1", "331.9-0.05,1.5", "three-reactions", "no-reaction"])
def test_check_csv_has_the_library_values_bit_for_bit(tmp_path, text, T, N,
                                                      setpoint_N):
    # the second state fails the reaction-noise bound; the network without
    # reactions has no stationary N* with N_B > 0, so it is given
    argv = ["check", "--T", T, "--N", N, "--setpoint-T", "331.9",
            "--setpoint-q", "9.15e-6", "--out", str(tmp_path)]
    if text is None:
        net = presets.benchmark_network()
    else:
        net = parse_network(text)
        (tmp_path / "network.cfg").write_text(text)
        argv += ["--network", str(tmp_path / "network.cfg")]
    if setpoint_N is None:
        sp = make_setpoint(net, 331.9, 9.15e-6)
    else:
        sp = setpoint_from_state(net, [float(n) for n in setpoint_N.split(",")],
                                 331.9, 9.15e-6)
        argv += ["--setpoint-N", setpoint_N]
    state = ThermoState.from_temperature(
        net, np.array([float(n) for n in N.split(",")]), float(T))
    norm = check_input_noise_bound(net, state)
    pas = check_passivity(net, state, AvailabilityHamiltonian(net, sp))
    rxn = check_reaction_noise_bound(net, state, V_star=sp.V_star)
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
        "equivalence_residual": equivalence_residual(net, sp, state),
    }
    assert sum(not isinstance(v, bool) for v in want.values()) == 9
    assert main(argv) == 0
    header, rows = read_csv(tmp_path / "check.csv")
    assert header == list(want)
    assert rows == [[str(v).lower() if isinstance(v, bool) else csv_cell(v)
                     for v in want.values()]]


def test_equilibria_csv_has_the_library_values_bit_for_bit(tmp_path):
    net = presets.benchmark_network()
    want = [[ss.T, *ss.N, ss.U, ss.Qdot, ss.classification,
             np.max(ss.eigenvalues.real),
             drift_residual(net, np.concatenate(([ss.U], ss.N)),
                            (ss.q, ss.Qdot))]
            for ss in steady_states(net, 9.15e-6, 299.4922)]
    assert main(["equilibria", "--q", "9.15e-6", "--Tw", "299.4922",
                 "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "equilibria.csv")
    assert len(rows) == 3
    assert rows == [[csv_cell(v) for v in row] for row in want]


def test_open_loop_summary_ends_in_nan_probability(cfg_path, tmp_path):
    # with no setpoint nothing is stabilized: the footer row reads nan
    assert main(["simulate", "--network", str(cfg_path), "--out",
                 str(tmp_path), "--mode", "open_loop", "--T0", "342", "--N0",
                 "1,1", "--t-end", "0.01", "--n-traj", "2"]) == 0
    assert (tmp_path / "summary.csv").read_bytes().endswith(
        b"\nstabilization_probability,nan\n")


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                 allow_subnormal=True), max_size=40))
@example(values=[math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                 2.2250738585072014e-308, 1.7976931348623157e308, 0.1])
def test_column_cells_are_per_cell_formatting(values):
    # one % format of the whole column gives format(v, ".17g") per cell
    cells = _cells(np.array(values, dtype=float), {})
    assert cells == [format(v, ".17g") for v in values]


def test_column_cells_are_kept_by_their_bytes():
    seen = {}
    zeros, negative_zeros = np.zeros(3), np.full(3, -0.0)
    assert _cells(zeros, seen) == ["0", "0", "0"]
    assert _cells(negative_zeros, seen) == ["-0", "-0", "-0"]  # not reused
    assert _cells(np.zeros(0), seen) == []  # an empty column has no cells
    # a column with the bits of one seen before, here a strided view, reuses
    # its cells without converting again
    table = np.array([[0.0, 1.5], [0.0, 2.5], [0.0, -3.0]])
    assert _cells(table[:, 0], seen) is _cells(zeros, seen)
    assert _cells(table[:, 1], seen) == ["1.5", "2.5", "-3"]
    assert len(seen) == 4


@pytest.mark.parametrize("argv, std_H_bar", [
    # the flow clamp fires every step, every step recorded
    (["--setpoint-T", "331.9", "--setpoint-q", "9.15e-6", "--q-max", "5e-6",
      "--record-every", "1", "--seed", "3"], "0"),
    # no setpoint: H_bar is nan throughout
    (["--mode", "isolated"], "nan"),
], ids=["saturated", "isolated"])
def test_one_path_summary_repeats_its_trajectory(cfg_path, tmp_path, argv,
                                                 std_H_bar):
    out = tmp_path / "one"
    assert main(["simulate", "--network", str(cfg_path), "--T0", "342",
                 "--N0", "1,1", "--t-end", "0.1", "--out", str(out)]
                + argv) == 0
    header, rows = read_csv(out / "traj_000.csv")
    sheader, srows = read_csv(out / "summary.csv")
    assert srows[-1][0] == "stabilization_probability"
    traj = dict(zip(header, zip(*rows)))
    summary = dict(zip(sheader, zip(*srows[:-1])))
    assert summary["t"] == traj["t"]
    for name in header[1:-1]:  # the numeric columns after t
        assert summary[f"mean_{name}"] == traj[name], name
        assert summary[f"std_{name}"] == tuple(
            "0" if math.isfinite(float(v)) else "nan" for v in traj[name])
    assert set(summary["std_H_bar"]) == {std_H_bar}


# --------------------------------------------------------------- casestudy


def test_casestudy_small_run(tmp_path, capsys):
    out = tmp_path / "case"
    rc = main(["casestudy", "--out", str(out), "--n-traj", "2",
               "--t-end", "0.2"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "T*=331.9" in text
    assert "seed 42" in text
    again = parse_network((out / "network.cfg").read_text())
    assert again == presets.benchmark_network()
    assert (out / "traj_001.csv").exists()
    assert (out / "summary.csv").exists()


# -------------------------------------------------------------- exit codes


def test_usage_error_exits_1(cfg_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--network", str(cfg_path)])  # missing --T0/--N0
    assert exc.value.code == 1


@pytest.mark.parametrize("argv, flag", [
    (["casestudy", "--network", "my.cfg"], "--network"),
    (["check", "--T", "342", "--N", "1,1", "--seed", "1"], "--seed"),
    (["equilibria", "--q", "9.15e-6", "--Tw", "299.4922", "--seed", "1"],
     "--seed"),
], ids=["casestudy-network", "check-seed", "equilibria-seed"])
def test_unread_options_are_usage_errors(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_unparseable_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[species]\nA cp=banana\n")
    rc = main(["check", "--network", str(bad), "--T", "342", "--N", "1",
               "--setpoint-T", "331.9", "--setpoint-q", "9.15e-6"])
    assert rc == 1
    assert "phreactor: error:" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path, capsys):
    rc = main(["check", "--network", str(tmp_path / "absent.cfg"),
               "--T", "342", "--N", "1,1",
               "--setpoint-T", "331.9", "--setpoint-q", "9.15e-6"])
    assert rc == 1
    assert "cannot read network config" in capsys.readouterr().err


def test_invalid_sim_config_exits_1(tmp_path, capsys):
    rc = main(["casestudy", "--out", str(tmp_path), "--n-traj", "0",
               "--t-end", "0.01"])
    assert rc == 1
    assert "n_traj" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["check", "--T", "342", "--N", "nan,1"],
    ["check", "--T", "342", "--N", "inf,1"],
    ["simulate", "--T0", "342", "--N0", "inf,1", "--t-end", "0.01"],
    ["simulate", "--T0", "342", "--N0", "1,nan", "--t-end", "0.01"],
])
def test_nonfinite_mole_numbers_exit_1(cfg_path, tmp_path, capsys, argv):
    rc = main(argv + ["--network", str(cfg_path), "--out", str(tmp_path),
                      "--setpoint-T", "331.9", "--setpoint-q", "9.15e-6"])
    assert rc == 1
    assert "mole numbers must be finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (["check", "--T", "inf", "--N", "1,1"],
     "temperature inf K is not finite and positive"),
    (["check", "--T", "342", "--N", "1,1",
      "--setpoint-T", "inf", "--setpoint-N", "1.3,0.7"],
     "--setpoint-T must be finite and positive, got inf"),
    (["simulate", "--T0", "inf", "--N0", "1,1", "--t-end", "0.01"],
     "temperature inf K is not finite and positive"),
    (["check", "--T", "342", "--N", "1,1", "--setpoint-T", "nan"],
     "--setpoint-T must be finite and positive, got nan"),
    (["check", "--T", "342", "--N", "1,1", "--setpoint-T=-5"],
     "--setpoint-T must be finite and positive, got -5.0"),
    (["check", "--T", "342", "--N", "1,1", "--setpoint-q", "nan"],
     "--setpoint-q must be finite and nonnegative, got nan"),
    (["check", "--T", "342", "--N", "1,1", "--setpoint-q=-1e-6"],
     "--setpoint-q must be finite and nonnegative, got -1e-06"),
    (["simulate", "--T0", "342", "--N0", "1,1", "--t-end", "inf"],
     "phreactor: error: dt and t_end must be finite and positive"),
    (["simulate", "--T0", "342", "--N0", "1,1", "--dt", "inf"],
     "phreactor: error: dt and t_end must be finite and positive"),
    (["simulate", "--T0", "342", "--N0", "1,1", "--t-end", "0.01",
      "--k-flow", "inf"], "phreactor: error: gain matrix must be finite"),
    (["simulate", "--T0", "342", "--N0", "1,1", "--t-end", "0.01",
      "--k-flow", "nan"], "phreactor: error: gain matrix must be finite"),
    # at 150 K no B forms: the mole balance solves to N* = (2, 0)
    (["check", "--T", "342", "--N", "1,1", "--setpoint-T", "150"],
     "the setpoint N* solved at --setpoint-T 150.0 and "
     "--setpoint-q 9.15e-06 leaves the domain: mole numbers must exceed "
     "1e-12 mol, got [2.0, 0.0]"),
    (["simulate", "--T0", "342", "--N0", "1,1", "--t-end", "0.01",
      "--setpoint-T", "150"], "the setpoint N* solved at --setpoint-T 150.0 "
     "and --setpoint-q 9.15e-06 leaves the domain: mole numbers must exceed "
     "1e-12 mol, got [2.0, 0.0]"),
    (["check", "--T", "342", "--N", "1,1", "--setpoint-N", "1,0"],
     "the setpoint N* given at --setpoint-T 331.9 and "
     "--setpoint-q 9.15e-06 leaves the domain: mole numbers must exceed "
     "1e-12 mol, got [1.0, 0.0]"),
], ids=["check-T-inf", "check-setpoint-T-inf", "simulate-T0-inf",
        "setpoint-T-nan", "setpoint-T-negative", "setpoint-q-nan",
        "setpoint-q-negative", "simulate-t-end-inf", "simulate-dt-inf",
        "simulate-k-flow-inf", "simulate-k-flow-nan", "setpoint-solved-outside",
        "simulate-setpoint-solved-outside", "setpoint-N-outside"])
def test_bad_temperatures_and_setpoints_exit_1(cfg_path, tmp_path, capsys,
                                               argv, message):
    # the valid setpoint comes first, so a later flag in argv overrides it
    rc = main(argv[:1] + ["--network", str(cfg_path), "--out", str(tmp_path),
                          "--setpoint-T", "331.9", "--setpoint-q", "9.15e-6"]
              + argv[1:])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "check.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag, message", [
    ("--q-open=nan",
     "open-loop inputs (q, Qdot) must be finite, got (nan, 0.0)"),
    ("--Qdot-open=inf",
     "open-loop inputs (q, Qdot) must be finite, got (0.0, inf)"),
    ("--open-until=nan", "open_loop_until must be finite, got nan"),
])
def test_nonfinite_open_loop_inputs_exit_1(cfg_path, tmp_path, capsys, flag,
                                           message):
    # rejected before the model is stepped or the output directory made
    out = tmp_path / "out"
    rc = main(["simulate", "--network", str(cfg_path), "--out", str(out),
               "--mode", "open_loop", "--T0", "342", "--N0", "1,1",
               "--t-end", "0.01", flag])
    assert rc == 1
    assert capsys.readouterr().err == f"phreactor: error: {message}\n"
    assert not out.exists()


def test_module_runs_as_the_command(cfg_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [
        "phreactor", "check", "--network", str(cfg_path), "--out",
        str(tmp_path), "--T", "342", "--N", "1,1", "--setpoint-T", "331.9",
        "--setpoint-q", "9.15e-6"])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("phreactor", run_name="__main__")
    assert done.value.code == 0
    assert (tmp_path / "check.csv").exists()


def test_zero_setpoint_flow_with_composition_runs(cfg_path, tmp_path):
    rc = main(["check", "--network", str(cfg_path), "--out", str(tmp_path),
               "--T", "342", "--N", "1,1", "--setpoint-T", "331.9",
               "--setpoint-q", "0", "--setpoint-N", "1.3,0.7"])
    assert rc == 0


@pytest.mark.parametrize("network, conserved", [
    (presets.CONFIG_TEXT, "N_A + N_B"),
    (presets.CONFIG_TEXT.replace("A -> B", "2 A -> 3 B"),
     "N_A + 0.666667 N_B"),
    (NO_REACTION, "2 independent combinations of mole numbers"),
], ids=["bundled", "2A-3B", "no-reaction"])
@pytest.mark.parametrize("command", [
    ["check", "--T", "342", "--N", "1,1"],
    ["simulate", "--T0", "342", "--N0", "1,1", "--t-end", "0.01"],
], ids=["check", "simulate"])
def test_zero_setpoint_flow_without_composition_names_the_cause(
        tmp_path, capsys, network, conserved, command):
    # a closed reactor keeps every conserved combination of its start, so
    # the mole balance at q* = 0 does not determine N*
    cfg = tmp_path / "network.cfg"
    cfg.write_text(network)
    out = tmp_path / "out"
    rc = main(command + ["--network", str(cfg), "--out", str(out),
                         "--setpoint-T", "331.9", "--setpoint-q", "0"])
    assert rc == 1
    assert capsys.readouterr() == ("", (
        f"phreactor: error: at --setpoint-q 0 the closed reactor conserves "
        f"{conserved}, so (T*, q*) does not determine N*; give it with "
        f"--setpoint-N\n"))
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--T0", "342", "--N0", "1,1", "--mode", "isolated",
     "--t-end", "0.01", "--seed", "-1"],
    ["simulate", "--T0", "342", "--N0", "1,1", "--mode", "open_loop",
     "--t-end", "0.01", "--seed", "-1"],
    ["casestudy", "--t-end", "0.01", "--seed", "-5"],
], ids=["simulate-isolated", "simulate-noisy", "casestudy"])
def test_negative_seed_exits_1_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
    seed = argv[-1]
    assert rc == 1
    assert capsys.readouterr() == ("", f"phreactor: error: seed must be >= 0, "
                                       f"got {seed}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--N", "1,x", "--setpoint-T", "331.9", "--setpoint-q", "9.15e-6"],
     "--N expects comma-separated numbers, got '1,x'"),
    (["--N", "1,1", "--setpoint-q", "9.15e-6"],
     "--setpoint-T and --setpoint-q are required"),
], ids=["unparseable-N", "no-setpoint-T"])
def test_check_input_errors_exit_1(cfg_path, tmp_path, capsys, argv, message):
    rc = main(["check", "--network", str(cfg_path), "--out", str(tmp_path),
               "--T", "342"] + argv)
    assert rc == 1
    assert capsys.readouterr().err == f"phreactor: error: {message}\n"
    assert not (tmp_path / "check.csv").exists()


def test_wrong_species_count_exits_1(cfg_path, capsys):
    rc = main(["check", "--network", str(cfg_path), "--T", "342",
               "--N", "1,2,3",
               "--setpoint-T", "331.9", "--setpoint-q", "9.15e-6"])
    assert rc == 1
    assert "must list 2 mole numbers" in capsys.readouterr().err
