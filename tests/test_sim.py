"""Trajectory integration: bit-reproducibility, fused-loop equivalence with
the public step functions, batched-ensemble equivalence with single paths,
guard events, and ensemble aggregation."""

import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from phreactor import kernel, presets, sim, thermo, transform
from phreactor.control import ControllerGains, control_law
from phreactor.sim import (
    N_TRAJ_FLOOR,
    SimConfig,
    SimulationAbort,
    ensemble,
    euler_maruyama_step,
    scaled_errors,
    simulate,
    stability_estimate,
    trajectory_rng,
)
from phreactor.network import parse_network
from phreactor.thermo import ThermoState


# ------------------------------------------------------------ configuration


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(mode="bogus")
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(t_end=-1.0)
    for bad in (dict(t_end=np.inf), dict(dt=np.inf), dict(t_end=np.nan),
                dict(dt=np.nan)):
        with pytest.raises(ValueError, match="finite and positive"):
            SimConfig(**bad)
    with pytest.raises(ValueError):
        SimConfig(record_every=0)
    for bad in (dict(n_traj=0), dict(eps=0.0), dict(eps=-0.1),
                dict(q_max=0.0), dict(q_max=-1e-6),
                dict(dt=1e-3, t_end=0.0105), dict(dt=1e-3, t_end=1e-4)):
        with pytest.raises(ValueError):
            SimConfig(**bad)
    # horizons written as repr(n * dt) are whole numbers of steps
    for n in (1, 100, 300, 2000):
        assert SimConfig(dt=1e-3, t_end=float(repr(n * 1e-3))).n_steps == n
    assert SimConfig(dt=1e-3, t_end=10.0).n_steps == 10000
    assert SimConfig(mode="closed_loop").noise_on
    assert SimConfig(mode="open_loop").noise_on
    assert not SimConfig(mode="deterministic").noise_on
    assert not SimConfig(mode="isolated").noise_on
    assert SimConfig(mode="closed_loop").feedback_on
    assert SimConfig(mode="deterministic").feedback_on
    assert not SimConfig(mode="open_loop").feedback_on
    assert not SimConfig(mode="isolated").feedback_on
    # the open-loop inputs and switch time are checked before any stepping
    for bad in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ValueError, match=r"open-loop inputs \(q, Qdot\) "
                           "must be finite"):
            SimConfig(mode="open_loop", u_open=bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="open_loop_until must be finite"):
            SimConfig(open_loop_until=bad)


def test_sim_config_is_frozen_and_replace_validates():
    cfg = SimConfig(dt=1e-3, t_end=0.1)
    with pytest.raises(FrozenInstanceError):
        cfg.dt = 0.0
    assert cfg.n_steps == 100
    with pytest.raises(ValueError, match="finite and positive"):
        replace(cfg, dt=0.0)
    assert replace(cfg, t_end=0.2).n_steps == 200


def test_feedback_modes_require_setpoint_and_gains(net, x0):
    cfg = SimConfig(t_end=0.01, mode="closed_loop")
    with pytest.raises(ValueError):
        simulate(net, None, None, cfg, x0)


def test_record_grid(net, sp, gains, x0):
    cfg = SimConfig(dt=1e-3, t_end=0.05, mode="deterministic", record_every=10)
    tr = simulate(net, sp, gains, cfg, x0)
    np.testing.assert_allclose(tr.times, [0.0, 0.01, 0.02, 0.03, 0.04, 0.05],
                               atol=1e-15)
    # a stride that misses the end still records the final step
    cfg = SimConfig(dt=1e-3, t_end=0.05, mode="deterministic", record_every=7)
    tr = simulate(net, sp, gains, cfg, x0)
    steps = np.rint(tr.times / cfg.dt).astype(int)
    assert steps.tolist() == [0, 7, 14, 21, 28, 35, 42, 49, 50]


# ------------------------------------- fused loop vs the public step pieces


def test_deterministic_loop_matches_public_functions(net, sp, gains, x0):
    cfg = SimConfig(dt=1e-3, t_end=0.3, mode="deterministic", record_every=10)
    tr = simulate(net, sp, gains, cfg, x0)
    x = x0.copy()
    states, qs, Qs = [x.copy()], [], []
    for k in range(cfg.n_steps):
        a = control_law(net, sp, gains, x)
        x = euler_maruyama_step(net, x, a.u, cfg.dt, np.zeros(3))
        if (k + 1) % cfg.record_every == 0:
            states.append(x.copy())
    np.testing.assert_array_equal(tr.states, np.array(states))
    for i, xs in enumerate(states):
        a = control_law(net, sp, gains, xs)
        assert tr.q[i] == a.q
        assert tr.Qdot[i] == a.Qdot


def test_noisy_loop_matches_public_functions(net, sp, gains, x0,
                                            monkeypatch):
    cfg = SimConfig(dt=1e-3, t_end=0.2, seed=123, mode="closed_loop",
                    record_every=10)
    tr = simulate(net, sp, gains, cfg, x0)
    # noise blocks of 64 steps: the path refills three times, the last
    # block only partly used
    monkeypatch.setattr(sim, "NOISE_BLOCK", 64)
    refilled = simulate(net, sp, gains, cfg, x0)
    rng = trajectory_rng(cfg.seed, 0)
    sq = np.sqrt(cfg.dt)
    x = x0.copy()
    states = [x.copy()]
    for k in range(cfg.n_steps):
        a = control_law(net, sp, gains, x)
        dW = rng.standard_normal(3) * sq
        x = euler_maruyama_step(net, x, a.u, cfg.dt, dW)
        if (k + 1) % cfg.record_every == 0:
            states.append(x.copy())
    # identical draws through the same update
    np.testing.assert_array_equal(tr.states, np.array(states))
    np.testing.assert_array_equal(refilled.states, np.array(states))


# ---------------------------------------------------------- reproducibility


def test_seeded_rerun_is_bit_identical(net, sp, gains, x0):
    cfg = SimConfig(dt=1e-3, t_end=0.2, seed=42, mode="closed_loop")
    a = simulate(net, sp, gains, cfg, x0)
    b = simulate(net, sp, gains, cfg, x0)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.q, b.q)
    assert a.events == b.events


def test_trajectory_rng_substreams():
    first = trajectory_rng(7, 0).standard_normal(4)
    np.testing.assert_array_equal(first, trajectory_rng(7, 0).standard_normal(4))
    assert not np.allclose(first, trajectory_rng(7, 1).standard_normal(4))
    assert not np.allclose(first, trajectory_rng(8, 0).standard_normal(4))


def test_ensemble_reuses_per_trajectory_substreams(net, sp, gains, x0):
    cfg = SimConfig(dt=1e-3, t_end=0.1, seed=5, n_traj=3, mode="closed_loop")
    stats = ensemble(net, sp, gains, cfg, x0)
    assert len(stats.trajectories) == 3
    for i, tr in enumerate(stats.trajectories):
        solo = simulate(net, sp, gains, cfg, x0, traj_index=i)
        np.testing.assert_array_equal(tr.states, solo.states)
    assert not np.array_equal(stats.trajectories[0].states,
                              stats.trajectories[1].states)


# ------------------------------------ batched ensemble vs single trajectories

_FIELDS = ("index", "times", "states", "T", "S", "avail", "q", "Qdot", "T_w",
           "events", "aborted", "abort_reason")

#: name -> (SimConfig fields, uses the no-reaction network, MAX_HALVINGS)
_BATCH_CASES = {
    "closed_loop": (dict(mode="closed_loop", seed=5), False, None),
    "deterministic": (dict(mode="deterministic"), False, None),
    "isolated": (dict(mode="isolated"), False, None),
    # rows 0-3 start halving at steps 43/50/34/43: refined and unrefined
    # rows in one batch step
    "halving": (dict(mode="open_loop", seed=0, u_open=(0.0, -1e6)), False,
                None),
    "open_loop_until": (dict(mode="closed_loop", seed=2, open_loop_until=0.05,
                             u_open=(0.0, 0.0)), False, None),
    "q_clamp": (dict(mode="closed_loop", seed=4, q_max=5e-6), False, None),
    "washout": (dict(mode="open_loop", seed=3, u_open=(0.5, 0.0)), True,
                None),
    # with at most 4 halvings rows 0 and 2 abort at different steps while
    # rows 1 and 3 run to the end
    "rows_abort": (dict(mode="open_loop", seed=0, u_open=(0.0, -1e6),
                        t_end=0.07, record_every=1), False, 4),
}


def _assert_same_path(a, b):
    for name in _FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name),
                                      err_msg=name)


@pytest.mark.parametrize("case", sorted(_BATCH_CASES))
def test_batched_rows_match_simulate(case, net, sp, gains, x0, plain_net,
                                     monkeypatch):
    fields, washout, max_halvings = _BATCH_CASES[case]
    if max_halvings is not None:
        monkeypatch.setattr(sim, "MAX_HALVINGS", max_halvings)
    if washout:
        net, sp, gains = plain_net, None, None
        x0 = ThermoState.from_temperature(net, np.array([1.0, 1.0]), 342.0).x
    cfg = SimConfig(**{"dt": 1e-3, "t_end": 0.1, "n_traj": 4, **fields})
    stats = ensemble(net, sp, gains, cfg, x0)
    for i, tr in enumerate(stats.trajectories):
        _assert_same_path(tr, simulate(net, sp, gains, cfg, x0, traj_index=i))
    # a row does not depend on the batch size
    for n in (2, 5):
        other = ensemble(net, sp, gains, replace(cfg, n_traj=n), x0)
        _assert_same_path(other.trajectories[1], stats.trajectories[1])
    # nor on the noise block length (k = 1, 1, 7 here; 1, 7, 28 for a lone
    # path): refining rows use up their blocks unevenly and refill in the
    # middle of a refinement
    for block in (1, 7, 28):
        monkeypatch.setattr(sim, "NOISE_BLOCK", block)
        other = ensemble(net, sp, gains, cfg, x0)
        for i, tr in enumerate(stats.trajectories):
            _assert_same_path(other.trajectories[i], tr)
            _assert_same_path(simulate(net, sp, gains, cfg, x0, traj_index=i),
                              tr)
    codes = [{c.split("_")[0] for _, c in tr.events}
             for tr in stats.trajectories]
    if case == "halving":
        first = [min(s for s, c in tr.events if c == "halve")
                 for tr in stats.trajectories]
        assert first == [43, 50, 34, 43]
    if case == "q_clamp":
        assert all(c == {"q"} for c in codes)
    if case == "washout":
        assert all("floor" in c for c in codes)
    if case == "rows_abort":
        aborted = [tr.aborted for tr in stats.trajectories]
        assert aborted == [True, False, True, False]
        assert len({len(tr.times) for tr in stats.trajectories}) == 3
        assert stats.n_aborted == 2


def test_each_trajectory_draws_its_noise_in_one_block(net, sp, gains, x0,
                                                     monkeypatch):
    calls = []

    class Counted:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            calls.append(name)
            return getattr(self.rng, name)

    real = sim.trajectory_rng
    monkeypatch.setattr(sim, "trajectory_rng",
                        lambda seed, index: Counted(real(seed, index)))
    cfg = SimConfig(dt=1e-3, t_end=0.1, seed=42, n_traj=64, mode="closed_loop")
    stats = ensemble(net, sp, gains, cfg, x0)
    assert stats.n_aborted == 0
    # one (100, 3) draw per trajectory, not one (3,) draw per row and step
    assert calls == ["standard_normal"] * 64


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("poisoned", ["U", "N"])
def test_batched_row_with_nonfinite_update_aborts_alone(net, sp, gains, x0,
                                                        monkeypatch, poisoned):
    cfg = SimConfig(dt=1e-3, t_end=0.1, seed=5, n_traj=4, mode="closed_loop")
    solo = [simulate(net, sp, gains, cfg, x0, traj_index=i) for i in range(4)]
    real, batch_calls = kernel.em_update, []

    def em_update(net, U, N, *args):
        U_new, N_new = real(net, U, N, *args)
        if np.ndim(U):  # a batch call; scalar calls pass through
            batch_calls.append(len(U))
            if len(batch_calls) == 30:  # step 30: row 1 blows up
                (U_new if poisoned == "U" else N_new[:, 0])[1] = np.inf
        return U_new, N_new

    monkeypatch.setattr(kernel, "em_update", em_update)
    stats = ensemble(net, sp, gains, cfg, x0)
    assert batch_calls == [4] * 30 + [3] * 70
    bad = stats.trajectories[1]
    assert bad.aborted and bad.abort_reason == "non-finite state update"
    # records at steps 0, 10 and 20 were written before step 30's update
    np.testing.assert_array_equal(bad.states, solo[1].states[:3])
    assert bad.events == [e for e in solo[1].events if e[0] <= 30]
    for i in (0, 2, 3):
        _assert_same_path(stats.trajectories[i], solo[i])
    assert stats.n_aborted == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("u_open, max_halvings", [((-1e9, 0.0), None),
                                                  ((0.0, -1e6), 2)])
def test_batched_ensemble_raises_when_every_row_aborts(net, x0, monkeypatch,
                                                       u_open, max_halvings):
    if max_halvings is not None:
        monkeypatch.setattr(sim, "MAX_HALVINGS", max_halvings)
    cfg = SimConfig(dt=1e-3, t_end=0.1, seed=1, n_traj=4, mode="open_loop",
                    u_open=u_open)
    with pytest.raises(SimulationAbort):
        ensemble(net, None, None, cfg, x0)


@pytest.mark.parametrize("washout", [False, True])
def test_lone_path_steps_on_scalar_states(net, sp, gains, x0, plain_net,
                                          monkeypatch, washout):
    """One trajectory steps on scalar U and T and N of shape (p,), never as
    a one-row batch, also through the floor clamp of a washout."""
    cfg = SimConfig(dt=1e-3, t_end=0.1, seed=3, mode="closed_loop")
    if washout:
        net, sp, gains = plain_net, None, None
        x0 = ThermoState.from_temperature(net, np.array([1.0, 1.0]), 342.0).x
        cfg = replace(cfg, mode="open_loop", u_open=(0.5, 0.0))
    real, shapes = kernel.em_update, []

    def em_update(net, U, N, *args):
        shapes.append((np.shape(U), np.shape(N)))
        return real(net, U, N, *args)

    monkeypatch.setattr(kernel, "em_update", em_update)
    tr = ensemble(net, sp, gains, cfg, x0).trajectories[0]
    codes = {c for _, c in tr.events}
    assert ("floor_B" in codes) == washout and "halve" not in codes
    assert shapes == [((), (2,))] * cfg.n_steps


def test_floored_rows_are_guarded_as_one_batch(plain_net, monkeypatch):
    x0 = ThermoState.from_temperature(plain_net, np.array([1.0, 1.0]), 342.0).x
    real, calls = kernel.temperature, []

    def temperature(net, U, N):
        calls.append(np.shape(U))
        return real(net, U, N)

    monkeypatch.setattr(kernel, "temperature", temperature)
    cfg = SimConfig(dt=1e-3, t_end=0.1, seed=3, n_traj=64, mode="open_loop",
                    u_open=(0.5, 0.0))
    stats = ensemble(plain_net, None, None, cfg, x0)
    floored = [sum(c == "floor_B" for _, c in tr.events)
               for tr in stats.trajectories]
    assert min(floored) > 10
    # the initial state, one call per grid step, and one to derive the
    # records: never one call per floored row
    assert len(calls) <= cfg.n_steps + 2


def test_rows_refined_together_where_one_aborts(net, x0, monkeypatch):
    monkeypatch.setattr(sim, "MAX_HALVINGS", 5)
    cfg = SimConfig(dt=1e-3, t_end=0.1, seed=1, n_traj=4, mode="open_loop",
                    u_open=(0.0, -1e6), record_every=1)
    solo = [simulate(net, None, None, cfg, x0, traj_index=i) for i in (0, 2)]
    real, calls = sim._Stepper.settle, []

    def settle(self, rows, U, N, T, U_new, N_new, t, dt, depth=0):
        calls.append((self.step_no, depth, rows.tolist()))
        return real(self, rows, U, N, T, U_new, N_new, t, dt, depth)

    monkeypatch.setattr(sim._Stepper, "settle", settle)
    stats = ensemble(net, None, None, cfg, x0)
    kept, lost = stats.trajectories[0], stats.trajectories[2]
    # rows 0 and 2 redo grid step 89 as one sub-batch; row 2 exhausts its
    # halvings there, row 0 goes on to the end
    assert (89, 1, [0, 2]) in calls
    assert [c for s, c in kept.events if s == 89] == ["halve"] * 4
    assert [c for s, c in lost.events if s == 89] == ["halve"] * 5
    assert lost.abort_reason == ("temperature stayed nonpositive after 5 "
                                 "step halvings at t=0.0885")
    assert max(s for s, _ in lost.events) == 89 and len(lost.times) == 89
    assert not kept.aborted
    _assert_same_path(kept, solo[0])
    _assert_same_path(lost, solo[1])


def _rows(draw, B, lo, hi, *shape):
    return draw(arrays(float, (B, *shape), elements=st.floats(lo, hi)))


@st.composite
def _kernel_batches(draw):
    B = draw(st.integers(1, 5))
    return (_rows(draw, B, -2e4, 2e4), 10.0 ** _rows(draw, B, -9.0, 1.0, 2),
            _rows(draw, B, 250.0, 500.0), _rows(draw, B, 0.0, 1e-4),
            _rows(draw, B, -10.0, 10.0), _rows(draw, B, -0.1, 0.1, 3))


def _mixing_scale_along(net, N, T, v0, v):
    """theta (v0, v)^T Hess(-S) (v0, v) for a general direction (v0, v)."""
    h, _, _, theta = kernel.closures(net, N, T)
    return kernel.mixing_scale(net, N, h, theta, v0, v)


@settings(max_examples=60, deadline=None)
@given(batch=_kernel_batches())
def test_kernel_batch_rows_equal_single_state_calls(net, sp, batch):
    """Row-safety, B = 1 included: the one-row refinement of a scalar path
    and every batch row keep the bits of the single-state call."""
    calls = {
        "em_update": lambda U, N, T, q, Qdot, dW: kernel.em_update(
            net, U, N, T, q, Qdot, 1e-3, dW),
        "em_update noise-free, shared inputs": lambda U, N, T, *_:
            kernel.em_update(net, U, N, T, 2e-5, -3.0, 1e-3),
        "temperature": lambda U, N, *_: (kernel.temperature(net, U, N),),
        "closures": lambda U, N, T, *_: kernel.closures(net, N, T),
        "feedback_terms": lambda U, N, T, *_: kernel.feedback_terms(
            net, N, T, sp.T_star, sp.mu_star_over_T),
        "mixing_scale along (Qdot, dW[1:])": lambda U, N, T, q, Qdot, dW: (
            _mixing_scale_along(net, N, T, Qdot, dW[..., 1:]),),
    }
    for name, call in calls.items():
        rows = call(*batch)
        for i in range(len(batch[0])):
            for row, single in zip(rows, call(*(a[i] for a in batch))):
                np.testing.assert_array_equal(row[i], single, err_msg=name)


# ------------------------------------------- series derived after stepping

#: name -> (SimConfig fields, lambda = 0 network, MAX_HALVINGS)
_DERIVED_CASES = {
    "B1": (dict(mode="closed_loop", seed=4, q_max=5e-6, n_traj=1), False,
           None),
    "B4": (dict(mode="closed_loop", seed=5, n_traj=4), False, None),
    # rows 0 and 2 abort, leaving unrecorded slots behind their last record
    "rows_abort": (dict(mode="open_loop", seed=0, u_open=(0.0, -1e6),
                        t_end=0.07, n_traj=4), False, 4),
    "lambda0": (dict(mode="closed_loop", seed=6, n_traj=2), True, None),
}


@pytest.mark.parametrize("case", sorted(_DERIVED_CASES))
def test_recorded_series_equal_public_functions(case, net, gains, x0,
                                                monkeypatch):
    fields, no_jacket, max_halvings = _DERIVED_CASES[case]
    if max_halvings is not None:
        monkeypatch.setattr(sim, "MAX_HALVINGS", max_halvings)
    if no_jacket:
        net = parse_network(presets.CONFIG_TEXT.replace("lambda=0.05808",
                                                        "lambda=0"))
    sp = presets.benchmark_setpoint(net)
    records = []
    derive = sim._Records.derive

    def keep(rec, *args):
        derive(rec, *args)
        records.append(rec)

    monkeypatch.setattr(sim._Records, "derive", keep)
    cfg = SimConfig(**{"dt": 1e-3, "t_end": 0.05, "record_every": 1, **fields})
    stats = ensemble(net, sp, gains, cfg, x0)
    [rec] = records
    for i, tr in enumerate(stats.trajectories):
        for j, x in enumerate(tr.states):
            T = thermo.temperature(net, x[0], x[1:])
            assert tr.T[j] == T
            assert tr.S[j] == thermo.entropy(net, x[1:], T)
            assert tr.avail[j] == transform.availability(net, sp, x)
            np.testing.assert_array_equal(
                tr.T_w[j], kernel.jacket_temperature(net, tr.Qdot[j], T))
        if no_jacket:
            assert np.isnan(tr.T_w).all()
        if tr.aborted:
            assert len(tr.times) < len(rec.times)
        for name in sim._Records.FIELDS:
            tail = getattr(rec, name)[i, len(tr.times):]
            assert np.isnan(tail).all(), name
    if case == "rows_abort":
        assert [tr.aborted for tr in stats.trajectories] == [True, False,
                                                              True, False]


# ------------------------------------------------------- physics invariants


def test_isolated_run_conserves_energy_and_grows_entropy(net, x0):
    cfg = SimConfig(dt=1e-3, t_end=1.0, mode="isolated", record_every=1)
    tr = simulate(net, None, None, cfg, x0)
    assert not tr.aborted
    np.testing.assert_array_equal(tr.U, np.full_like(tr.U, x0[0]))
    assert np.all(np.diff(tr.S) > 0)
    assert np.all(tr.q == 0) and np.all(tr.Qdot == 0)
    assert np.all(np.isnan(tr.avail))  # no setpoint given


def test_reaction_noise_alone_conserves_energy_and_total_moles(
        net, x0, monkeypatch):
    # open loop at zero inputs keeps only the reaction noise.  Every U term
    # is a multiple of q or Qdot, so U keeps every bit; A <-> B conserves
    # N_A + N_B, which stays constant to rounding while no floor clamp fires
    monkeypatch.setattr(sim, "NOISE_BLOCK", 8 * 300)  # seven blocks a path
    cfg = SimConfig(dt=1e-3, t_end=2.0, seed=4, n_traj=8, mode="open_loop",
                    u_open=(0.0, 0.0))
    stats = ensemble(net, None, None, cfg, x0)
    assert stats.n_aborted == 0
    for tr in stats.trajectories:
        assert tr.events == []
        np.testing.assert_array_equal(tr.U, np.full_like(tr.U, x0[0]))
        total = tr.N.sum(axis=1)
        assert np.abs(total / x0[1:].sum() - 1).max() <= 1e-13
        assert np.ptp(tr.N[:, 0]) > 1e-3  # while the noise moves N


def test_closed_loop_stays_near_setpoint_started_there(net, sp, gains):
    cfg = SimConfig(dt=1e-3, t_end=2.0, mode="deterministic")
    tr = simulate(net, sp, gains, cfg, sp.x_star)
    assert np.abs(tr.T - sp.T_star).max() < 0.2
    assert float(np.linalg.norm(tr.N[-1] - sp.N_star)) < 0.01
    assert tr.events == []


# ------------------------------------------------------------ guard events


def test_mole_floor_clamp_in_step(plain_net):
    st = ThermoState.from_temperature(plain_net, np.array([2.0, 1e-9]), 320.0)
    x_new = euler_maruyama_step(plain_net, st.x, np.array([0.5, 0.0]), 1e-3,
                                np.zeros(3))
    assert x_new[2] == N_TRAJ_FLOOR


def test_washout_logs_floor_events(plain_net):
    st = ThermoState.from_temperature(plain_net, np.array([1.0, 1.0]), 342.0)
    cfg = SimConfig(dt=1e-3, t_end=0.1, seed=3, mode="open_loop",
                    u_open=(0.5, 0.0))
    tr = simulate(plain_net, None, None, cfg, st.x)
    codes = [c for _, c in tr.events]
    assert codes.count("floor_B") > 10
    assert "floor_A" not in codes
    assert not tr.aborted
    assert tr.N[-1, 1] == N_TRAJ_FLOOR


def test_halving_retry_keeps_temperature_positive(net, x0):
    cfg = SimConfig(dt=1e-3, t_end=1.0, seed=0, mode="open_loop",
                    u_open=(0.0, -1e6))
    tr = simulate(net, None, None, cfg, x0)
    codes = {c for _, c in tr.events}
    assert "halve" in codes
    assert not tr.aborted
    assert np.all(tr.T > 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blowup_aborts_and_keeps_prefix(net, x0):
    cfg = SimConfig(dt=1e-3, t_end=0.1, seed=1, mode="open_loop",
                    u_open=(-1e9, 0.0))
    tr = simulate(net, None, None, cfg, x0)
    assert tr.aborted
    assert tr.abort_reason is not None
    assert len(tr.times) < 11      # stopped before the full grid
    assert len(tr.times) >= 1      # the initial record is always kept


def test_nonfinite_input_aborts_immediately(net, x0):
    # SimConfig rejects a non-finite u_open; forced past validation, it
    # still meets the stepper's guard at the first step
    cfg = SimConfig(dt=1e-3, t_end=0.1, seed=1, mode="open_loop")
    object.__setattr__(cfg, "u_open", (0.0, float("nan")))
    tr = simulate(net, None, None, cfg, x0)
    assert tr.aborted
    assert tr.abort_reason == "non-finite state update"
    assert len(tr.times) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_guards(net, x0):
    with pytest.raises(SimulationAbort):
        euler_maruyama_step(net, x0, np.array([0.0, 0.0]), 1e-3,
                            np.array([np.inf, 0.0, 0.0]))
    with pytest.raises(SimulationAbort):
        euler_maruyama_step(net, x0, np.array([0.0, -1e9]), 1.0, np.zeros(3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ensemble_raises_when_every_trajectory_aborts(net, x0):
    # the update overflows on every row
    cfg = SimConfig(dt=1e-3, t_end=0.1, seed=1, n_traj=2, mode="open_loop",
                    u_open=(-1e9, 0.0))
    with pytest.raises(SimulationAbort) as err:
        ensemble(net, None, None, cfg, x0)
    assert str(err.value) == ("every trajectory aborted (trajectory 0: "
                              "non-finite state update)")


# -------------------------------------------------------------- aggregation


def test_scaled_errors_formula(net, sp, gains, x0):
    cfg = SimConfig(dt=1e-3, t_end=0.05, mode="deterministic")
    tr = simulate(net, sp, gains, cfg, x0)
    err = scaled_errors(tr, sp)
    scale = np.concatenate(([abs(sp.U_star)], sp.N_star))
    want = np.linalg.norm((tr.states[0] - sp.x_star) / scale)
    assert err[0] == pytest.approx(want, rel=1e-14)
    assert err.shape == tr.times.shape


def test_stability_estimate_counts_trajectories_inside_ball(net, sp, gains):
    cfg = SimConfig(dt=1e-3, t_end=0.05, mode="deterministic")
    tr = simulate(net, sp, gains, cfg, sp.x_star)
    assert stability_estimate([tr], sp, eps=1.0) == 1.0
    assert stability_estimate([tr], sp, eps=1e-12) == 0.0
    assert stability_estimate([], sp, eps=1.0) == 0.0


def test_ensemble_statistics(net, sp, gains, x0):
    cfg = SimConfig(dt=1e-3, t_end=0.1, seed=5, n_traj=3, mode="closed_loop",
                    record_every=10)
    stats = ensemble(net, sp, gains, cfg, x0)
    assert stats.n_aborted == 0
    stack = np.stack([tr.T for tr in stats.trajectories])
    np.testing.assert_allclose(stats.mean["T"], stack.mean(axis=0), rtol=1e-15)
    np.testing.assert_allclose(stats.std["T"], stack.std(axis=0), rtol=1e-12,
                               atol=1e-15)
    assert stats.terminal_T_error.shape == (3,)
    assert 0.0 <= stats.stabilization_probability <= 1.0
    np.testing.assert_array_equal(stats.times, stats.trajectories[0].times)


def test_open_loop_until_switches_to_feedback(net, sp, gains, x0):
    cfg = SimConfig(dt=1e-3, t_end=0.1, mode="deterministic",
                    open_loop_until=0.05, u_open=(0.0, 0.0), record_every=10)
    tr = simulate(net, sp, gains, cfg, x0)
    held = tr.times < 0.05
    assert np.all(tr.q[held] == 0.0)
    assert np.all(tr.Qdot[held] == 0.0)
    assert np.all(tr.q[~held] > 0.0)
