"""Acceptance gate: one test per shipped guarantee, each printing a single
``criterion NN <name>: PASS/FAIL`` line (run with ``-s`` to see them all)
before asserting.  Numbers in the lines are the measured quantities the
verdict is based on.

Two criteria are expected to fail with the bundled benchmark data; the
analysis lives in the project decision log, not here, and the tests state
the measured gap rather than papering over it.
"""

import time

import numpy as np
import pytest

from conftest import random_states
from phreactor import kernel, presets
from phreactor.cli import main as cli_main
from phreactor.control import control_law, control_law_diagonal
from phreactor.network import parse_network, serialize_network
from phreactor.sim import SimConfig, ensemble, simulate
from phreactor.structure import (
    PortSystem,
    check_input_noise_bound,
    check_reaction_noise_bound,
    damping_matrix,
    feedback_interconnect,
    mixing_noise_scale,
    sde_fields,
    structure_matrices,
)
from phreactor.thermo import (
    ThermoState,
    entropy,
    internal_energy,
    neg_entropy_gradient,
    neg_entropy_hessian,
    temperature,
)
from phreactor.transform import make_setpoint, transformed_output

T_STAR, Q_STAR = 331.9, 9.15e-6
N_TAB = np.array([1.3, 0.7])
U_TAB = 1157.5


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    return ok


@pytest.fixture(scope="module")
def det_traj(net, sp, gains, x0):
    """Nominal noise-free closed-loop run over the full horizon, timed."""
    cfg = SimConfig(dt=1e-3, t_end=10.0, mode="deterministic", record_every=10)
    t0 = time.perf_counter()
    tr = simulate(net, sp, gains, cfg, x0)
    return tr, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mc(net, sp, gains, x0):
    """The benchmark stabilization ensemble (64 trajectories, seed 42)."""
    cfg = SimConfig(dt=1e-3, t_end=10.0, seed=42, n_traj=64,
                    mode="closed_loop", record_every=10)
    t0 = time.perf_counter()
    stats = ensemble(net, sp, gains, cfg, x0)
    return stats, time.perf_counter() - t0


def test_criterion_01_setpoint_reproduction(net):
    t0 = time.perf_counter()
    sp2 = make_setpoint(net, T_STAR, Q_STAR)
    elapsed = time.perf_counter() - t0
    n_err = float(np.abs(sp2.N_star - N_TAB).max())
    u_err = abs(sp2.U_star - U_TAB)
    ok = n_err < 0.01 and u_err < 1.0 and elapsed < 1.0
    report(1, "setpoint-reproduction", ok,
           f"N err {n_err:.3g} mol (tol 0.01), U err {u_err:.4g} J (tol 1), "
           f"{elapsed:.3f} s")
    assert n_err < 0.01
    assert elapsed < 1.0
    # expected failure with the bundled benchmark data: the published U*
    # was evaluated at the rounded composition, not the solved one
    assert u_err < 1.0, (
        f"solved U* = {sp2.U_star:.4f} J differs from the tabulated "
        f"{U_TAB} J by {u_err:.4g} J (tolerance 1 J)")


def test_criterion_02_forward_energy(net):
    val = internal_energy(net, N_TAB, T_STAR)
    err = abs(val - U_TAB)
    ok = err < 1.0
    report(2, "forward-energy", ok, f"U({N_TAB.tolist()}, {T_STAR}) = "
           f"{val:.4f} J, err {err:.4g} J (tol 1)")
    assert ok


def test_criterion_03_thermo_oracles(net):
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    Ts, Ns = random_states(net, 100, rng, T_range=(260.0, 480.0))
    worst_rt = worst_euler = 0.0
    min_eig = np.inf
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(net, N, T)
        worst_rt = max(worst_rt, abs(temperature(net, st.U, N) - T))
        euler = st.U / st.T + net.reactor.P * net.reactor.V / st.T \
            - float(st.mu_over_T @ N) - st.S
        worst_euler = max(worst_euler, abs(euler) / abs(st.S))
        H = neg_entropy_hessian(net, st.x)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(H).min()))
    worst_g = worst_h = 0.0
    for T, N in zip(Ts[:20], Ns[:20]):
        st = ThermoState.from_temperature(net, N, T)
        x = st.x
        g = neg_entropy_gradient(net, st)
        H = neg_entropy_hessian(net, x)
        for i in range(x.size):
            h = 3e-6 * max(abs(x[i]), 1.0)
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            stp = ThermoState.from_vector(net, xp)
            stm = ThermoState.from_vector(net, xm)
            fd = (-stp.S + stm.S) / (2 * h)
            worst_g = max(worst_g, abs(fd - g[i]) / max(abs(g[i]), 1e-12))
            fd_row = (neg_entropy_gradient(net, stp)
                      - neg_entropy_gradient(net, stm)) / (2 * h)
            scale = np.abs(H[i]).max()
            worst_h = max(worst_h, float(np.abs(fd_row - H[i]).max()) / scale)
    elapsed = time.perf_counter() - t0
    ok = (worst_rt < 1e-9 and worst_g < 1e-6 and worst_h < 1e-5
          and worst_euler < 1e-10 and min_eig > -1e-18 and elapsed < 5.0)
    report(3, "thermo-oracles", ok,
           f"round trip {worst_rt:.2g} K, grad FD {worst_g:.2g}, "
           f"hess FD {worst_h:.2g}, identity {worst_euler:.2g}, "
           f"min eig {min_eig:.2g}, {elapsed:.2f} s")
    assert ok


def test_criterion_04_structure_equivalence(net):
    rng = np.random.default_rng(404)
    Ts, Ns = random_states(net, 50, rng)
    worst = 0.0
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(net, N, T)
        u = np.array([rng.uniform(0.0, 1e-2), rng.uniform(-50.0, 50.0)])
        S = structure_matrices(net, st, mode="strict")
        structured = (S.J - S.R) @ neg_entropy_gradient(net, st) + S.g @ u
        raw = sde_fields(net, st, u)
        scale = np.maximum(np.abs(raw.drift), 1e-12)
        worst = max(worst, float(np.abs(structured - raw.drift).max()
                                 / scale.max()))
        D = np.column_stack([S.a, net.noise.rho2 * u[0] * S.gamma[:, 0],
                             net.noise.rho3 * u[1] * S.gamma[:, 1]])
        dscale = max(float(np.abs(raw.diffusion).max()), 1e-12)
        worst = max(worst, float(np.abs(D - raw.diffusion).max()) / dscale)
    ok = worst < 1e-10
    report(4, "structure-equivalence", ok,
           f"worst relative defect {worst:.2g} over 50 (state, input) pairs "
           f"(tol 1e-10)")
    assert ok


def test_criterion_05_mixing_scale_identity(net):
    rng = np.random.default_rng(505)
    Ts, Ns = random_states(net, 50, rng)
    worst = 0.0
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(net, N, T)
        M = mixing_noise_scale(net, st)
        S = structure_matrices(net, st)
        g1 = S.gamma[:, 0]
        ref = st.theta * float(g1 @ neg_entropy_hessian(net, st.x) @ g1)
        worst = max(worst, abs(M - ref) / max(abs(ref), 1e-30))
    ok = worst < 1e-10
    report(5, "mixing-scale-identity", ok,
           f"worst relative defect {worst:.2g} over 50 states (tol 1e-10)")
    assert ok


def test_criterion_06_isolated_laws(net, x0):
    t0 = time.perf_counter()
    cfg = SimConfig(dt=1e-3, t_end=10.0, mode="isolated", record_every=1)
    tr = simulate(net, None, None, cfg, x0)
    drift_U = float(np.abs(tr.U - x0[0]).max()) / abs(x0[0])
    min_dS = float(np.diff(tr.S).min())
    min_prod = np.inf
    for row in tr.states:
        st = ThermoState.from_vector(net, row)
        grad_S = -neg_entropy_gradient(net, st)
        min_prod = min(min_prod, float(grad_S @ damping_matrix(net, st)
                                       @ grad_S))
    elapsed = time.perf_counter() - t0
    ok = (not tr.aborted and drift_U < 1e-9 and min_dS >= 0.0
          and min_prod >= 0.0 and elapsed < 5.0)
    report(6, "isolated-laws", ok,
           f"energy drift {drift_U:.2g}, min dS {min_dS:.2g}, "
           f"min entropy production {min_prod:.2g}, {elapsed:.2f} s")
    assert ok


def test_criterion_07_noise_bound_checks(net, sp, det_traj):
    tr, _ = det_traj
    scaled_input = net.with_noise(net.noise.scaled(f2=1e6))
    scaled_rxn = net.with_noise(net.noise.scaled(f1=1e4))
    held_in = held_rx = bad_in = bad_rx = 0
    for row in tr.states:
        st = ThermoState.from_vector(net, row)
        held_in += check_input_noise_bound(net, st).holds
        held_rx += check_reaction_noise_bound(net, st,
                                              V_star=sp.V_star).holds
        st2 = ThermoState.from_vector(scaled_input, row)
        bad_in += check_input_noise_bound(scaled_input, st2).holds
        st3 = ThermoState.from_vector(scaled_rxn, row)
        bad_rx += check_reaction_noise_bound(scaled_rxn, st3,
                                             V_star=sp.V_star).holds
    n = len(tr.states)
    ok = (held_in >= 0.99 * n and held_rx >= 0.99 * n
          and bad_in <= 0.01 * n and bad_rx <= 0.01 * n)
    report(7, "noise-bound-checks", ok,
           f"nominal holds {held_in}/{n} and {held_rx}/{n}; "
           f"scaled noise holds {bad_in}/{n} and {bad_rx}/{n}")
    assert ok


def test_criterion_08_controller_identity(net, sp, gains):
    rng = np.random.default_rng(808)
    Ts, Ns = random_states(net, 50, rng)
    worst_diag = worst_fix = 0.0
    max_power = -np.inf
    for T, N in zip(Ts, Ns):
        st = ThermoState.from_temperature(net, N, T)
        a = control_law(net, sp, gains, st, clamp=False)
        q, Qdot = control_law_diagonal(net, sp, 1.64e-7, 27430.0, st)
        worst_diag = max(worst_diag,
                         abs(a.q - q) / max(abs(q), 1e-30),
                         abs(a.Qdot - Qdot) / max(abs(Qdot), 1e-30))
        y = transformed_output(net, sp, st.x, a.u)
        resid = a.u + gains.K @ y
        worst_fix = max(worst_fix, float(np.abs(resid).max())
                        / max(float(np.abs(a.u).max()), 1e-30))
        max_power = max(max_power, float(y @ a.u))
    ok = worst_diag <= 1e-12 and worst_fix <= 1e-12 and max_power <= 0.0
    report(8, "controller-identity", ok,
           f"closed-form defect {worst_diag:.2g}, feedback identity "
           f"{worst_fix:.2g} (tol 1e-12), max output power {max_power:.2g}")
    assert ok


def test_criterion_09_deterministic_stabilization(sp, det_traj):
    tr, elapsed = det_traj
    T_err = abs(tr.T[-1] - T_STAR)
    N_err = float(np.linalg.norm(tr.N[-1] - N_TAB))
    ok = T_err < 0.1 and N_err < 0.01 and elapsed < 5.0
    report(9, "deterministic-stabilization", ok,
           f"|T(10) - {T_STAR}| = {T_err:.4g} K (tol 0.1), "
           f"terminal composition error {N_err:.4g} mol (tol 0.01), "
           f"{elapsed:.2f} s")
    assert ok


def test_criterion_10_stochastic_stabilization(sp, mc):
    stats, elapsed = mc
    mean_T_err = float(np.mean(stats.terminal_T_error))
    p_ball = float(np.mean(stats.terminal_N_error <= 0.05))
    idx = [int(round(t / 0.01)) for t in (2.0, 4.0, 6.0, 8.0, 10.0)]
    checkpoints = stats.mean["avail"][idx]
    drops = np.all(checkpoints[1:] <= checkpoints[:-1] * 1.05 + 1e-12)
    ok = (mean_T_err < 1.0 and p_ball >= 0.9 and bool(drops)
          and stats.n_aborted == 0 and elapsed < 120.0)
    report(10, "stochastic-stabilization", ok,
           f"mean |T(10) - T*| = {mean_T_err:.4g} K (tol 1), "
           f"P(composition ball) = {p_ball:.3f} (need 0.9), "
           f"mean availability at 2..10 s = "
           f"[{', '.join(f'{v:.2e}' for v in checkpoints)}], "
           f"{stats.n_aborted} aborted, {elapsed:.1f} s")
    assert ok


def test_criterion_11_generator_passivity(net, sp, det_traj):
    tr, _ = det_traj
    U, N = tr.states[:, 0], tr.states[:, 1:]
    T = kernel.temperature(net, U, N)
    h, mu_over_T, _, theta = kernel.closures(net, N, T)
    m = kernel.margins(net, N, T, h, mu_over_T, theta,
                       mu_over_T - sp.mu_star_over_T, sp.V_star)
    # whatever the input, L[A] - y^T u = (1/2) rho1^2 M_flux / theta
    # + (mu/T - mu*/T*)^T flux, M_flux the storage curvature along the
    # reaction flux, because delta u cancels the Ito trace of the input
    # noise exactly (tests/test_transform.py pins the identity)
    gap = (m.trace_lhs + m.grad_flux)[m.trace_holds]
    checked, held = len(gap), int(np.count_nonzero(gap <= 1e-8))
    worst_gap = gap.max(initial=-np.inf)
    frac = held / checked if checked else 0.0
    ok = checked > 0 and frac >= 0.99
    records = len(T)
    report(11, "generator-passivity", ok,
           f"dissipation inequality held at {held}/{checked} judged states "
           f"({frac:.1%}, need 99%): the {checked} of the path's {records} "
           f"records where the trace condition holds, which fails at the "
           f"other {records - checked}; worst gap {worst_gap:.3g}")
    # expected failure with the bundled benchmark data.  The flux term of
    # the gap is the setpoint-shift coupling grad A^T R pi* less the
    # dissipation grad A^T R grad A (R the strict damping matrix), and
    # R pi* != 0 at this flow-sustained target (see the transform module).
    # At t = 0 that is 0.05971 - 0.00225, and the reaction-noise trace adds
    # only 9.6e-6, so the inequality fails at every checkpoint through the
    # shift coupling
    assert ok, (
        f"storage rate exceeded the supplied power at "
        f"{checked - held}/{checked} judged states (of {records} records, "
        f"the trace condition fails at {records - checked}); worst gap "
        f"{worst_gap:.3g}")


def _random_port_system(rng, n, m):
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    C = rng.standard_normal((m, m))
    delta = C @ C.T
    delta *= rng.uniform(0.05, 0.95) / np.linalg.norm(delta)
    return PortSystem(J=A - A.T, R=B @ B.T, g=rng.standard_normal((n, m)),
                      delta=delta)


def test_criterion_12_interconnection(net, sp, x0):
    worst_skew = worst_eig = 0.0
    pairs = []
    for state in (x0, sp.x_star):
        S = structure_matrices(net, ThermoState.from_vector(net, state))
        side = PortSystem(J=S.J, R=S.R, g=S.g, delta=S.delta)
        pairs.append((side, side))
    rng = np.random.default_rng(1212)
    for _ in range(20):
        n, m = rng.integers(2, 6), rng.integers(1, 4)
        pairs.append((_random_port_system(rng, n, m),
                      _random_port_system(rng, n, m)))
    for sys1, sys2 in pairs:
        inter = feedback_interconnect(sys1, sys2)
        scale = max(float(np.abs(inter.J).max()), 1e-12)
        worst_skew = max(worst_skew,
                         float(np.abs(inter.J + inter.J.T).max()) / scale)
        eigs = np.linalg.eigvalsh(inter.R)
        rscale = max(float(np.abs(eigs).max()), 1e-12)
        worst_eig = max(worst_eig, max(0.0, float(-eigs.min())) / rscale)
    ok = worst_skew < 1e-12 and worst_eig < 1e-10
    report(12, "interconnection", ok,
           f"worst skew defect {worst_skew:.2g} (tol 1e-12), worst negative "
           f"damping eigenvalue {worst_eig:.2g} relative (tol 1e-10), "
           f"{len(pairs)} compositions")
    assert ok


def test_criterion_13_determinism_and_parser(tmp_path):
    cfg = tmp_path / "network.cfg"
    cfg.write_text(presets.CONFIG_TEXT)
    args = ["simulate", "--network", str(cfg), "--T0", "342", "--N0", "1,1",
            "--setpoint-T", str(T_STAR), "--setpoint-q", str(Q_STAR),
            "--setpoint-N", "1.3,0.7", "--t-end", "0.2", "--seed", "9",
            "--n-traj", "2"]
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli_main(args + ["--out", str(out)]) == 0
        outs.append(out)
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("traj_000.csv", "traj_001.csv", "summary.csv"))
    parsed = parse_network(presets.CONFIG_TEXT)
    round_trip = parse_network(serialize_network(parsed)) == parsed
    ok = identical and round_trip
    report(13, "determinism-and-parser", ok,
           f"seeded rerun byte-identical: {identical}; "
           f"config round trip exact: {round_trip}")
    assert ok
