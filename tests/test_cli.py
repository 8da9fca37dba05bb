"""Command-line front end: exit codes, CSV schemas, and byte-stable seeded
artifacts, all exercised in-process through ``main``."""

import numpy as np
import pytest

from conftest import NO_REACTION
from phreactor import presets
from phreactor.cli import _event_cells, main
from phreactor.network import parse_network
from phreactor.sim import Trajectory

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
])
def test_equilibria_rejects_bad_scan(cfg_path, tmp_path, capsys, flags):
    out = tmp_path / "eq"
    rc = main(["equilibria", "--network", str(cfg_path), "--out", str(out),
               "--q", "9.15e-6", "--Tw", "299.49"] + flags)
    assert rc == 1
    err = capsys.readouterr().err
    assert "grid >= 2 and 0 < Tmin < Tmax, both finite" in err
    assert "did not converge" not in err
    assert not (out / "equilibria.csv").exists()


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


def test_simulate_deterministic_trajectories_coincide(cfg_path, tmp_path):
    out = tmp_path / "det"
    rc = main(["simulate", "--network", str(cfg_path), "--out", str(out),
               "--mode", "deterministic"] + SIM_ARGS)
    assert rc == 0
    assert (out / "traj_000.csv").read_bytes() == \
        (out / "traj_001.csv").read_bytes()


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulate_abort_exits_3(cfg_path, tmp_path, capsys):
    out = tmp_path / "boom"
    rc = main(["simulate", "--network", str(cfg_path), "--out", str(out),
               "--mode", "open_loop", "--q-open=-1e9",
               "--T0", "342", "--N0", "1,1", "--t-end", "0.1", "--seed", "1"])
    assert rc == 3
    assert "aborted" in capsys.readouterr().err


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


def test_wrong_species_count_exits_1(cfg_path, capsys):
    rc = main(["check", "--network", str(cfg_path), "--T", "342",
               "--N", "1,2,3",
               "--setpoint-T", "331.9", "--setpoint-q", "9.15e-6"])
    assert rc == 1
    assert "must list 2 mole numbers" in capsys.readouterr().err
