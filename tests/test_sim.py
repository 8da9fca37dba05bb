"""Trajectory integration: bit-reproducibility, fused-loop equivalence with
the public step functions, batched-ensemble equivalence with single paths,
guard events, and ensemble aggregation."""

import math
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import networks
from phreactor import control, kernel, presets, sim, thermo
from phreactor.control import ControllerGains, control_law
from phreactor.sim import (
    N_TRAJ_FLOOR,
    SimConfig,
    SimulationAbort,
    ensemble,
    euler_maruyama_step,
    simulate,
    trajectory_rng,
)
from phreactor.network import NoiseSpec, parse_network
from phreactor.thermo import ThermoState
from phreactor.transform import AvailabilityHamiltonian


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
    for bad in ((1e-6,), (1e-6, 0.0, 5.0)):  # not dropped or read past
        with pytest.raises(ValueError, match=r"open-loop inputs \(q, Qdot\) "
                           "must be a pair"):
            SimConfig(mode="open_loop", u_open=bad)
    # counts are integers: a fractional record_every would record the wrong
    # steps, a fractional n_traj or seed would fail only later
    for name in ("record_every", "n_traj", "seed"):
        for bad in (2.5, 1.5, np.float64(2.0)):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SimConfig(t_end=0.01, mode="isolated", **{name: bad})
    cfg = SimConfig(seed=np.int64(3), n_traj=np.int32(2),
                    record_every=np.uint8(5))  # numpy integers are integers
    assert cfg.record_steps.tolist()[:3] == [0, 5, 10]
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="open_loop_until must be finite"):
            SimConfig(open_loop_until=bad)
    # step counts past int64 are named by their flags, not left to np.arange
    for kw, flags in ((dict(dt=1e-300, t_end=0.01, record_every=10 ** 300),
                       r"\(--t-end, --dt\)"),
                      (dict(dt=1e-300, t_end=0.01), r"\(--t-end, --dt\)"),
                      (dict(record_every=2 ** 63), r"\(--record-every\)"),
                      (dict(record_every=10 ** 300), r"\(--record-every\)")):
        with pytest.raises(ValueError, match=flags):
            SimConfig(**kw)
    assert SimConfig(t_end=1.0, record_every=2 ** 63 - 1).record_steps.dtype \
        == np.int64


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
        # the statistics are those of the kept trajectories' series alone
        kept = [tr for tr in stats.trajectories if not tr.aborted]
        assert stats.mean.keys() == stats.std.keys() == set(
            sim._Records.FIELDS)
        for name in sim._Records.FIELDS:
            stack = np.stack([getattr(tr, name) for tr in kept])
            np.testing.assert_array_equal(stats.mean[name],
                                          stack.mean(axis=0), err_msg=name)
            np.testing.assert_array_equal(stats.std[name], stack.std(axis=0),
                                          err_msg=name)


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
    return kernel.mixing_scale(net, N, h, theta, v0, v, N.sum(-1))


def _damping_weights(net, N, T, strict):
    """The log-mean or strict dissipation weights at states (N, T)."""
    forward, backward = kernel.mass_action(net, N / net.reactor.V,
                                           kernel.rate_constants(net, T))
    mu_over_T = kernel.closures(net, N, T)[1]
    return kernel.damping_weights(
        net, forward, backward, T,
        kernel.affinity(net, mu_over_T, T) if strict else None)


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
        # N + dW takes the quotient, midpoint and absent-rate branches
        "log_mean": lambda U, N, T, q, Qdot, dW: (
            kernel.log_mean(N, N + dW[..., :2]),),
        "damping_weights logmean": lambda U, N, T, *_: (
            _damping_weights(net, N, T, strict=False),),
        "damping_weights strict": lambda U, N, T, *_: (
            _damping_weights(net, N, T, strict=True),),
        "damping_apply along dW[1:]": lambda U, N, T, q, Qdot, dW: (
            kernel.damping_apply(
                net, _damping_weights(net, N, T, strict=False), T,
                dW[..., 1:]),),
    }
    for name, call in calls.items():
        rows = call(*batch)
        for i in range(len(batch[0])):
            for row, single in zip(rows, call(*(a[i] for a in batch))):
                np.testing.assert_array_equal(row[i], single, err_msg=name)


@settings(max_examples=60, deadline=None)
@given(batch=_kernel_batches())
def test_one_step_shares_its_quantities_bit_for_bit(net, sp, batch):
    """A closed-loop step computes sum N, N / V and no S, and passes them
    on: em_update on the column of feedback_terms has the bits of em_update
    computing its own, and the S-free potentials given sum N the h, mu/T
    and theta of the closures; for a lone state and a batch."""
    lone = tuple(a[0] for a in batch)
    for U, N, T, q, Qdot, dW in (lone, batch):
        column = kernel.feedback_terms(net, N, T, sp.T_star,
                                       sp.mu_star_over_T)[4:]
        np.testing.assert_array_equal(column[2], N / net.reactor.V)
        for shared, own in zip(
                kernel.em_update(net, U, N, T, q, Qdot, 1e-3, dW, column),
                kernel.em_update(net, U, N, T, q, Qdot, 1e-3, dW)):
            np.testing.assert_array_equal(shared, own)
        h, mu_over_T, _, theta = kernel.closures(net, N, T)
        N_sum = N.sum(-1)
        for shared, own in zip(kernel.potentials(net, N, T, N_sum)[:3],
                               (h, mu_over_T, theta)):
            np.testing.assert_array_equal(shared, own)


def _repeated_product(c, stoich):
    """prod_j c_j ** stoich[j, i] for each column i, multiplied out from 1:
    c_j stoich[j, i] times, in species order."""
    columns = []
    for column in stoich.T.tolist():
        product = np.ones(c.shape[:-1])
        for j, alpha in enumerate(column):
            for _ in range(int(alpha)):
                product = product * c[..., j]
        columns.append(product)
    return np.stack(columns, -1) if columns else np.ones((*c.shape[:-1], 0))


@settings(max_examples=200, deadline=None)
@given(net=networks(max_multiplicity=3), data=st.data())
def test_species_product_is_the_repeated_multiplication(net, data):
    """The rates' species product has the bits of each concentration
    multiplied in as often as its multiplicity, in species order, for one
    state and a batch, and a batch row has the bits of the row alone; with
    multiplicities 0 and 1 only, also the bits of np.multiply.reduce of
    libm's powers over the species axis."""
    B = data.draw(st.integers(1, 4))
    c = data.draw(arrays(float, (B, net.n_species),
                         elements=st.floats(1e-3, 1e3)))
    stoich = np.hstack((net.stoich_reactants, net.stoich_products))
    slots = net.step_constants.slots
    for conc in (c[0], c):
        np.testing.assert_array_equal(kernel._gathered_product(conc, slots),
                                      _repeated_product(conc, stoich))
        if (stoich <= 1.0).all():
            np.testing.assert_array_equal(
                kernel._gathered_product(conc, slots),
                np.multiply.reduce(np.float_power(conc[..., :, None], stoich),
                                   -2))
    for row, alone in zip(kernel._gathered_product(c, slots), c):
        np.testing.assert_array_equal(row,
                                      kernel._gathered_product(alone, slots))


@settings(max_examples=200, deadline=None)
@given(c=arrays(float, 8, elements=st.floats(1e-100, 1e100)))
def test_gathered_squares_are_correctly_rounded(c):
    """A multiplicity of 2, gathered as c * c, is the correctly rounded
    square, and one of 3, c * c * c, is within 2 ulp of the cube; the
    exact powers as fractions, correctly rounded to floats."""
    gather = kernel._gathers(np.array([[2.0, 3.0]]))[0]
    squares, cubes = kernel._gathered_product(c[:, None], gather).T
    exact = np.array([[float(Fraction(v) ** k) for v in c.tolist()]
                      for k in (2, 3)])
    np.testing.assert_array_equal(squares, exact[0])
    assert (np.abs(cubes.view(np.int64) - exact[1].view(np.int64)) <= 2).all()


def _step_by_formulas(net, U, N, T, q, Qdot, dW, T_star, mu_star_over_T):
    """feedback_terms, em_update (dt = 1e-3) and temperature written out
    from potentials, flow_column and mixing_scale, with every other
    constant read from the network's own fields and the rates' species
    products multiplied out by :func:`_repeated_product`."""
    rx, rho, col, dt = net.reactor, net.noise, kernel._col, 1e-3
    N_sum = N.sum(-1)
    h, mu_over_T, theta, _, _ = kernel.potentials(net, N, T, N_sum)
    g00, dc, c = kernel.flow_column(net, N, h)
    M = kernel.mixing_scale(net, N, h, theta, g00, dc, N_sum)
    grad_U, grad_N = 1.0 / T_star - 1.0 / T, mu_over_T - mu_star_over_T
    feedback = (0.5 * rho.rho2 ** 2 * M / theta, 0.5 * rho.rho3 ** 2 / theta,
                g00 * grad_U + np.vecdot(dc, grad_N), grad_U, g00, dc, c)
    RT = col(rx.R_gas * T)
    rate = (net.k0f * np.exp(-net.Ef / RT)
            * _repeated_product(c, net.stoich_reactants)
            - net.k0b * np.exp(-net.Eb / RT)
            * _repeated_product(c, net.stoich_products))
    flux = rx.V * np.vecdot(net.stoich_net, rate[..., None, :])
    q_col = col(q)
    U_new = (U + (g00 * q + Qdot) * dt
             + (rho.rho2 * q * g00 * dW[..., 1] + rho.rho3 * Qdot * dW[..., 2]))
    N_new = (N + (flux + q_col * dc) * dt + rho.rho1 * flux * dW[..., 0, None]
             + rho.rho2 * q_col * dc * dW[..., 1, None])
    T_of = rx.T_ref + ((U + rx.P * rx.V - np.vecdot(N, net.h_ref))
                       / np.vecdot(N, net.cp))
    return feedback, (U_new, N_new), T_of


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_step_equals_the_per_formula_functions(data):
    """The step's feedback_terms, em_update and temperature, which read the
    network's constants record and gather the rates' products, have the
    bits of the same quantities built from the per-formula functions, the
    network's own fields and products multiplied out in species order: on
    networks of 1-5 species and 0-4 reactions, with multiplicities 0-3 or
    0-1, for one state and a batch."""
    net = data.draw(networks(data.draw(st.sampled_from((1, 3)))))
    net = replace(net, noise=NoiseSpec(*data.draw(
        st.tuples(*[st.floats(0.0, 1.0)] * 3))))
    p, B = net.n_species, data.draw(st.integers(1, 4))
    batch = (_rows(data.draw, B, -2e4, 2e4), _rows(data.draw, B, 1e-4, 1.0, p),
             _rows(data.draw, B, 250.0, 500.0), _rows(data.draw, B, 0.0, 1e-4),
             _rows(data.draw, B, -10.0, 10.0), _rows(data.draw, B, -0.1, 0.1, 3))
    T_star = data.draw(st.floats(300.0, 400.0))
    mu_star = data.draw(arrays(float, p, elements=st.floats(-50.0, 50.0)))
    for U, N, T, q, Qdot, dW in (tuple(a[0] for a in batch), batch):
        feedback, update, T_of = _step_by_formulas(net, U, N, T, q, Qdot, dW,
                                                   T_star, mu_star)
        for step, formula in zip(
                (*kernel.feedback_terms(net, N, T, T_star, mu_star),
                 *kernel.em_update(net, U, N, T, q, Qdot, 1e-3, dW),
                 kernel.temperature(net, U, N)),
                (*feedback, *update, T_of)):
            np.testing.assert_array_equal(step, formula)


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
    field = AvailabilityHamiltonian(net, sp)
    for i, tr in enumerate(stats.trajectories):
        for j, x in enumerate(tr.states):
            T = thermo.temperature(net, x[0], x[1:])
            assert tr.T[j] == T
            assert tr.S[j] == thermo.entropy(net, x[1:], T)
            assert tr.avail[j] == field.value(x)
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


@pytest.mark.parametrize("dt", [1e-3, pytest.param(1e-2, marks=pytest.mark.xfail(
    strict=True, reason="ROADMAP item 12: the mole-floor clamp adds moles "
    "(N_A + N_B goes 2.0 -> 2.494, 197 floor_A events) and nothing aborts"))])
def test_closed_reactor_keeps_its_total_moles(cnet, dt):
    """Isolated A <-> B conserves N_A + N_B: from T0 = 340 K and N0 =
    (1.9, 0.1) over 4 s, every record keeps it to 1e-12 relative, with no
    floor event and no abort."""
    x0 = ThermoState.from_temperature(cnet, np.array([1.9, 0.1]), 340.0).x
    cfg = SimConfig(dt=dt, t_end=4.0, mode="isolated", record_every=1)
    tr = simulate(cnet, None, None, cfg, x0)
    assert not tr.aborted and tr.events == []
    assert np.abs(tr.N.sum(axis=1) / 2.0 - 1.0).max() <= 1e-12


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
    """sup_scaled_error is each path's largest scaled distance to x*."""
    cfg = SimConfig(dt=1e-3, t_end=0.05, seed=2, n_traj=2)
    stats = ensemble(net, sp, gains, cfg, x0)
    scale = np.concatenate(([abs(sp.U_star)], sp.N_star))
    for tr, err in zip(stats.trajectories, stats.sup_scaled_error, strict=True):
        want = max(np.linalg.norm((x - sp.x_star) / scale) for x in tr.states)
        assert err == pytest.approx(want, rel=1e-14)


def test_stability_estimate_counts_trajectories_inside_ball(net, sp, gains):
    cfg = SimConfig(dt=1e-3, t_end=0.05, mode="deterministic")

    def probability(eps):
        return ensemble(net, sp, gains, replace(cfg, eps=eps),
                        sp.x_star).stabilization_probability

    assert probability(1.0) == 1.0
    assert probability(1e-12) == 0.0


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5 (the PR 18 finding): "
                   "the mean of 8 equal q values is 2 ulp off and their "
                   "std 2.17e-19, not 0")
def test_statistics_of_a_shared_record_are_exact(net, sp_exact, gains, x0):
    """Eight closed-loop paths share their t = 0 record, so its mean is
    that record and its std 0."""
    cfg = SimConfig(dt=1e-3, t_end=0.5, seed=7, n_traj=8)
    stats = ensemble(net, sp_exact, gains, cfg, x0)
    q0 = [tr.q[0] for tr in stats.trajectories]
    assert q0 == [q0[0]] * 8
    assert stats.mean["q"][0] == q0[0]
    assert stats.std["q"][0] == 0.0


def test_open_loop_until_switches_to_feedback(net, sp, gains, x0):
    cfg = SimConfig(dt=1e-3, t_end=0.1, mode="deterministic",
                    open_loop_until=0.05, u_open=(0.0, 0.0), record_every=10)
    tr = simulate(net, sp, gains, cfg, x0)
    held = tr.times < 0.05
    assert np.all(tr.q[held] == 0.0)
    assert np.all(tr.Qdot[held] == 0.0)
    assert np.all(tr.q[~held] > 0.0)


# ------------------------------------------------------- the flow clamp

#: q_max of the clamp cases, and raw flows below, on, inside and above
#: [0, q_max], both zeros and the non-finite ones.
_Q_MAX = 5e-6
_RAW_FLOWS = (-1e-6, -0.0, 0.0, 3e-6, _Q_MAX, 7e-6, math.nan, -math.inf,
              math.inf)


@pytest.mark.parametrize("clamp", [True, False])
def test_clamp_on_floats_has_the_bits_of_the_array_clamp(net, sp, gains,
                                                         monkeypatch, clamp):
    """A lone state clamps on floats, a batch with np.minimum/np.maximum:
    the same flows, +0.0 for -0.0 included, NaN kept and flagged, a flow
    inside [0, q_max] not flagged; without the clamp q is q_raw and
    nothing is flagged."""
    raw, lone = np.array(_RAW_FLOWS), []
    # the batch gets every raw flow, a lone state the one in ``lone``
    monkeypatch.setattr(control, "solve_feedback", lambda K, d1, *_: (
        raw if np.ndim(d1) else raw[lone[0]], 0.0))
    N, T = np.ones((len(raw), 2)), np.full(len(raw), 342.0)
    q, _, clamped, _, _ = control._clamped_feedback(net, sp, gains.K, N, T,
                                                     clamp, _Q_MAX)
    expected = np.minimum(np.maximum(raw, 0.0), _Q_MAX) if clamp else raw
    np.testing.assert_array_equal(np.signbit(q), np.signbit(expected))
    np.testing.assert_array_equal(q, expected)
    np.testing.assert_array_equal(clamped, clamp & (expected != raw))
    for i in range(len(raw)):
        lone[:] = [i]
        q_i, _, clamped_i, _, _ = control._clamped_feedback(
            net, sp, gains.K, N[i], T[i], clamp, _Q_MAX)
        assert not isinstance(q_i, np.ndarray)
        np.testing.assert_array_equal(q_i, q[i])
        assert math.copysign(1.0, q_i) == math.copysign(1.0, q[i])
        assert clamped_i == (clamp and expected[i] != raw[i])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n_traj", [1, 3])
def test_nan_flow_logs_q_clamp_then_aborts(net, sp, gains, x0, monkeypatch,
                                           n_traj):
    """A NaN raw flow at grid step 5 stays NaN through the clamp, is logged
    as q_clamp and aborts its path with a non-finite update: a lone path,
    and row 1 of a batch, whose other rows keep their own paths."""
    cfg = SimConfig(dt=1e-3, t_end=0.02, seed=3, n_traj=n_traj,
                    record_every=1)
    solo = [simulate(net, sp, gains, cfg, x0, traj_index=i)
            for i in range(n_traj)]
    real, calls, bad = control.solve_feedback, [], n_traj // 2

    def solve_feedback(K, *terms):
        q, Qdot = real(K, *terms)
        calls.append(1)
        if len(calls) == 5:
            q = (np.where(np.arange(n_traj) == bad, math.nan, q)
                 if np.ndim(q) else math.nan)
        return q, Qdot

    monkeypatch.setattr(control, "solve_feedback", solve_feedback)
    paths = ([simulate(net, sp, gains, cfg, x0)] if n_traj == 1 else
             ensemble(net, sp, gains, cfg, x0).trajectories)
    for i, tr in enumerate(paths):
        if i != bad:
            _assert_same_path(tr, solo[i])
            continue
        assert tr.abort_reason == "non-finite state update"
        assert tr.events == [(5, "q_clamp")]
        assert len(tr.times) == 5 and math.isnan(tr.q[-1])
        np.testing.assert_array_equal(tr.states, solo[i].states[:5])


@pytest.mark.parametrize("clamp", [True, False])
@pytest.mark.parametrize("n_traj", [1, 3])
@pytest.mark.parametrize("mode", ["closed_loop", "deterministic"])
def test_recorded_flows_are_the_feedback_at_their_states(net, sp, gains, x0,
                                                         mode, n_traj, clamp):
    """With noise on and off, on a lone path and a batch, each recorded
    flow has the bits of control_law at its recorded state and no q_clamp
    is logged: with the clamp the flow stays inside [0, q_max]; without it
    the flow is q_raw, above q_max = 5e-6 here."""
    cfg = SimConfig(dt=1e-3, t_end=0.05, seed=3, n_traj=n_traj, mode=mode,
                    record_every=5, clamp=clamp,
                    q_max=1e-2 if clamp else _Q_MAX)
    for tr in ensemble(net, sp, gains, cfg, x0).trajectories:
        assert not any(code == "q_clamp" for _, code in tr.events)
        for x, q, Qdot in zip(tr.states, tr.q, tr.Qdot):
            a = control_law(net, sp, gains, x, clamp=clamp, q_max=cfg.q_max)
            assert (q, Qdot) == (a.q, a.Qdot) and not a.saturated
        assert (0.0 <= tr.q.min() and tr.q.max() <= cfg.q_max) == clamp
