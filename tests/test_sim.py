"""Trajectory integration: bit-reproducibility, fused-loop equivalence with
the public step functions, batched-ensemble equivalence with single paths,
guard events, and ensemble aggregation."""

import ast
import math
import sys
import warnings
from operator import mul
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (left_to_right, networks, random_states, rows_first,
                      same_bits_but_nan_sign)
from phreactor import control, kernel, presets, sim, thermo
from phreactor.cli import main
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
from phreactor.transform import (AvailabilityHamiltonian, make_setpoint,
                                 setpoint_from_state)


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
                (U_new if poisoned == "U" else N_new[0])[1] = np.inf
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
    """One trajectory steps on Python floats U, T and N_j, never as a
    one-row batch, on every step, also after the floor clamp of a washout
    has taken it through the guards."""
    cfg = SimConfig(dt=1e-3, t_end=0.1, seed=3, mode="closed_loop")
    if washout:
        net, sp, gains = plain_net, None, None
        x0 = ThermoState.from_temperature(net, np.array([1.0, 1.0]), 342.0).x
        cfg = replace(cfg, mode="open_loop", u_open=(0.5, 0.0))
    real, shapes = kernel.em_update, []

    def em_update(net, U, N, T, *args):
        shapes.append((np.shape(U), np.shape(N), {type(x) for x in (U, T, *N)}))
        return real(net, U, N, T, *args)

    monkeypatch.setattr(kernel, "em_update", em_update)
    tr = ensemble(net, sp, gains, cfg, x0).trajectories[0]
    codes = {c for _, c in tr.events}
    assert ("floor_B" in codes) == washout and "halve" not in codes
    assert shapes == [((), (2,), {float})] * cfg.n_steps


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


def _columns(a):
    """A batch (B, n), or one row (n,), as the kernel takes it: n
    contiguous (B,) columns, or n numpy float64 scalars."""
    return list(np.ascontiguousarray(np.transpose(a)))


def _leaves(result):
    """The values of a kernel result, its nested tuples and lists
    flattened in order."""
    if isinstance(result, (tuple, list)):
        for item in result:
            yield from _leaves(item)
    else:
        yield result


@st.composite
def _kernel_batches(draw):
    B = draw(st.integers(1, 5))
    return (_rows(draw, B, -2e4, 2e4), 10.0 ** _rows(draw, B, -9.0, 1.0, 2),
            _rows(draw, B, 250.0, 500.0), _rows(draw, B, 0.0, 1e-4),
            _rows(draw, B, -10.0, 10.0), _rows(draw, B, -0.1, 0.1, 3))


class _States:
    """Drawn kernel inputs, species- and channel-major: per row U, T, q,
    Qdot; per species N, a direction v and an offset w; three noise
    channels dW; and a setpoint's T*, mu*/T*, S*, pi*, x* and V*, shared
    by every row."""

    def __init__(self, **fields):
        self.__dict__.update(fields)

    def row(self, i):
        """Row i alone, on numpy float64 scalars."""
        return _States(**{name: ([a[i] for a in value] if name in _PER_ROW_LISTS
                                 else value[i] if name in _PER_ROW else value)
                          for name, value in self.__dict__.items()})

    def floats(self, i):
        """Row i alone, on Python floats, as a lone path steps."""
        return _States(**{name: ([float(a[i]) for a in value]
                                 if name in _PER_ROW_LISTS else float(value[i])
                                 if name in _PER_ROW else value)
                          for name, value in self.__dict__.items()})


_PER_ROW, _PER_ROW_LISTS = ("U", "T", "q", "Qdot"), ("N", "v", "w", "dW")


def _draw_states(data):
    """A network of 1-5 species and 0-4 reactions under drawn noise, and a
    batch of B = 1-4 states of it as :class:`_States`, each row's values
    drawn as one array of uniform [0, 1] values scaled into their ranges."""
    net = data.draw(networks())
    net = replace(net, noise=NoiseSpec(*data.draw(
        st.tuples(*[st.floats(0.0, 1.0)] * 3))))
    p, B = net.n_species, data.draw(st.integers(1, 4))
    # U, T, q, Qdot, log10 N, v, w, dW; then T*, S*, V*, mu*, pi*, x*
    lo, hi = (np.array([*ends, *[a] * p, *[b] * p, *[c] * p, *[d] * 3])
              for ends, a, b, c, d in (((-2e4, 250.0, 0.0, -10.0), -4.0,
                                        -1.0, -0.1, -0.1),
                                       ((2e4, 500.0, 1e-4, 10.0), 0.0, 1.0,
                                        0.1, 0.1)))
    lo_star, hi_star = (np.array([*ends, *[a] * p, *[a] * (p + 1),
                                  *[b] * (p + 1)])
                        for ends, a, b in (((300.0, -100.0, 1e-4), -50.0, 1e-2),
                                           ((400.0, 100.0, 1e-2), 50.0, 2.0)))
    unit = data.draw(arrays(float, (B + 1, len(lo) + len(lo_star)),
                            elements=st.floats(0.0, 1.0)))
    rows = lo + unit[:B, :len(lo)] * (hi - lo)
    star = (lo_star + unit[B, len(lo):] * (hi_star - lo_star)).tolist()
    return net, _States(
        U=rows[:, 0].copy(), T=rows[:, 1].copy(), q=rows[:, 2].copy(),
        Qdot=rows[:, 3].copy(), N=_columns(10.0 ** rows[:, 4:4 + p]),
        v=_columns(rows[:, 4 + p:4 + 2 * p]),
        w=_columns(rows[:, 4 + 2 * p:4 + 3 * p]), dW=_columns(rows[:, -3:]),
        T_star=star[0], S_star=star[1], V_star=star[2],
        mu_star=star[3:3 + p], pi_star=star[3 + p:4 + 2 * p],
        x_star=star[4 + 2 * p:])


def _every_kernel_call(net, s):
    """Every kernel function at the states ``s``, by name."""
    U, N, T, q, Qdot = s.U, s.N, s.T, s.q, s.Qdot
    h, mu_over_T, S, theta = kernel.closures(net, N, T)
    N_sum = kernel.total(N)
    column = kernel.flow_column(net, N, h)
    k_T = kernel.rate_constants(net, T)
    forward, backward = kernel.mass_action(net, column[2], k_T)
    affinity = kernel.affinity(net, mu_over_T, T)
    weights = kernel.damping_weights(net, forward, backward, T)
    M = kernel.mixing_scale(net, N, h, theta, *column[:2], N_sum)
    return {
        "total": N_sum, "dot": kernel.dot(N, s.v),
        "enthalpy": kernel.enthalpy(net, T),
        "temperature": kernel.temperature(net, U, N),
        "potentials": kernel.potentials(net, N, T, N_sum),
        "closures": (h, mu_over_T, S, theta), "rate_constants": k_T,
        "mass_action": (forward, backward),
        "mass_action_jacobian": kernel.mass_action_jacobian(net, column[2],
                                                            k_T),
        "reaction_flux": kernel.reaction_flux(
            net, [f - b for f, b in zip(forward, backward)]),
        "affinity": affinity,
        # N + w takes the quotient, midpoint and absent-rate branches
        "log_mean": [kernel.log_mean(net.step_constants, n, n + w)
                     for n, w in zip(N, s.w)],
        "damping_weights logmean": weights,
        "damping_weights strict": kernel.damping_weights(
            net, forward, backward, T, affinity),
        "damping_apply": kernel.damping_apply(net, weights, T, s.v),
        "feed_gap": kernel.feed_gap(net, column[2]), "flow_column": column,
        "mixing_scale": M,
        "mixing_scale along (Qdot, v)": kernel.mixing_scale(
            net, N, h, theta, Qdot, s.v, N_sum),
        "feedthrough": kernel.feedthrough(net, M, theta),
        "margins": kernel.margins(net, N, T, h, mu_over_T, theta, s.v,
                                  s.V_star),
        "availability": kernel.availability(s.S_star, s.pi_star, s.x_star, S,
                                            [U, *N]),
        "availability_gradient": kernel.availability_gradient(
            s.T_star, s.mu_star, T, mu_over_T),
        "feedback_terms": kernel.feedback_terms(net, N, T, s.T_star,
                                                s.mu_star),
        "sde_terms": kernel.sde_terms(net, N, T, q, Qdot),
        "em_update": kernel.em_update(net, U, N, T, q, Qdot, 1e-3, s.dW),
        "em_update on the feedback's column": kernel.em_update(
            net, U, N, T, q, Qdot, 1e-3, s.dW, column),
        "em_update noise-free": kernel.em_update(net, U, N, T, q, Qdot, 1e-3),
        "jacket_temperature": kernel.jacket_temperature(net, Qdot, T),
    }


def _flat(calls, B):
    """Every value of every kernel call, by name in order, as one (B, L)
    array, each broadcast over the B rows."""
    return np.stack([np.broadcast_to(value, B) for result in calls.values()
                     for value in _leaves(result)], -1)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernel_batch_rows_equal_single_state_calls(data):
    """Row-safety, B = 1 included, on networks of 1-5 species and 0-4
    reactions: every kernel function's result on a batch held as (B,)
    columns has, in every row, the bits of the lone call on that row's
    numpy float64 scalars, a NaN's sign excepted (see :mod:`kernel`)."""
    net, batch = _draw_states(data)
    B = len(batch.T)
    with np.errstate(all="ignore"):  # inf * 0 and the like
        rows = _flat(_every_kernel_call(net, batch), B)
        lone = [_every_kernel_call(net, batch.row(i)) for i in range(B)]
    assert all(np.ndim(value) == 0 for calls in lone
               for result in calls.values() for value in _leaves(result))
    same_bits_but_nan_sign(rows, np.concatenate([_flat(calls, 1)
                                                 for calls in lone]))


def _stepping_calls(net, s):
    """The kernel calls of a closed-loop step at the states ``s``."""
    U, N, T, q, Qdot = s.U, s.N, s.T, s.q, s.Qdot
    return {
        "feedback_terms": kernel.feedback_terms(net, N, T, s.T_star,
                                                s.mu_star),
        "sde_terms": kernel.sde_terms(net, N, T, q, Qdot),
        "em_update": kernel.em_update(net, U, N, T, q, Qdot, 1e-3, s.dW),
        "em_update noise-free": kernel.em_update(net, U, N, T, q, Qdot, 1e-3),
        "temperature": kernel.temperature(net, U, N),
    }


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lone_float_calls_equal_batch_rows(data):
    """A lone state on Python floats, stepped on the float view a lone path
    steps on, gets Python floats with the bits of its batch row, stepped on
    the batch view, from every kernel call of a step (no divisor here is
    0.0)."""
    net, batch = _draw_states(data)
    B = len(batch.T)
    with np.errstate(all="ignore"):  # inf * 0 and the like
        rows = _flat(_stepping_calls(kernel.batch_view(net), batch), B)
        lone = [_stepping_calls(net.float_view, batch.floats(i))
                for i in range(B)]
    assert all(type(value) is float for calls in lone
               for result in calls.values() for value in _leaves(result))
    same_bits_but_nan_sign(rows, np.concatenate([_flat(calls, 1)
                                                 for calls in lone]))


def test_float_zero_divisors_take_numpys_inf_and_warning(net):
    """Where a Python float divisor is 0.0 (N^T cp on the float view and
    the feedback's determinant), a formula gives what it gives on numpy
    float64 scalars, numpy's inf or NaN and its warning, not
    ZeroDivisionError; theta and R T are taken through the entry points
    in the next test."""
    f64, K = np.float64, np.eye(2)
    with np.errstate(invalid="ignore"), pytest.warns(
            RuntimeWarning, match="divide by zero encountered in scalar divide"):
        pairs = (
            (kernel.temperature(net.float_view, -4e4, [0.0, 0.0]),
             kernel.temperature(net, f64(-4e4), [0.0, 0.0])),
            (control.solve_feedback(K, -1.0, 0.5, 2.0, 3.0),
             control.solve_feedback(K, *map(f64, (-1.0, 0.5, 2.0, 3.0)))))
    for got, want in pairs:
        same_bits_but_nan_sign(got, want)
    assert pairs[0][0] == -math.inf
    assert pairs[1][0][0] == -math.inf and math.isnan(pairs[1][0][1])


def _bits(result):
    """Every value of a kernel result as its float64 bits, a NaN's sign
    included."""
    values = np.array(list(_leaves(result)), dtype=float)
    return values.view(np.uint64).tolist()


def _untraced(name, view, *args):
    """Entry point ``name`` of the kernel run as its body on the plain
    network of the float view ``view``, on the arguments as given."""
    return kernel._BODIES[name](view.traces[None], *args)


def _on_numpy(name, view, *args):
    """:func:`_untraced` with every float of the arguments a numpy
    float64."""
    def f64(a):
        return (type(a)(map(f64, a)) if isinstance(a, (list, tuple))
                else np.float64(a) if type(a) is float else a)

    return _untraced(name, view, *map(f64, args))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_traced_calls_equal_the_bodies_bit_for_bit(data):
    """On networks of 1-5 species and 0-4 reactions, the straight-line code
    traced for each argument layout of the entry points a lone step calls
    gives Python floats with every bit of the body's float call, a NaN's
    sign included, since both run the same float operations; so does the
    entry point, which runs it."""
    net, batch = _draw_states(data)
    view, s = net.float_view, batch.floats(0)
    column = _untraced("feedback_terms", view, s.N, s.T, s.T_star,
                       s.mu_star)[4:]
    layouts = {("temperature",): (s.U, s.N),
               ("feedback_terms",): (s.N, s.T, s.T_star, s.mu_star)}
    for dW in (s.dW, None):
        for col in (column, None):
            layouts["em_update", dW is None, col is None] = (
                s.U, s.N, s.T, s.q, s.Qdot, 1e-3, dW, col)
    with np.errstate(all="ignore"):  # exp's overflow and the like
        for layout, args in layouts.items():
            want = _bits(_untraced(layout[0], view, *args))
            assert _bits(getattr(kernel, layout[0])(view, *args)) == want
            got = view.traces[layout](*args)
            assert {type(v) for v in _leaves(got)} == {float}
            assert _bits(got) == want
    assert len(view.traces) == 1 + len(layouts)  # and the plain network


def _warned(f, *args):
    """f(*args) and the warnings it raised: text, file and line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = f(*args)
    return result, [(str(w.message), w.filename, w.lineno) for w in caught]


def test_traced_zero_divisors_take_the_bodys_values_and_warnings(net):
    """Where a float divisor of the traced code is 0.0 (theta, R T and
    N^T cp), the entry point runs its body on numpy float64 scalars: the
    values and the warnings, text, file and line, are the body's there; a
    NaN, which takes no fallback, has the bits of the body on floats."""
    tiny_R = replace(net, reactor=replace(net.reactor, R_gas=5e-324))
    N, dW = [1.0, 1.0], [0.1, 0.2, 0.3]
    cases = [  # theta, R T and N^T cp of 0.0, then inf - inf in U
        (net, "feedback_terms", (N, 1e-170, 331.9, [-40.0, -50.0]), _on_numpy),
        (tiny_R, "em_update", (-4e4, N, 0.1, 1e-6, 2.0, 1e-3, dW, None),
         _on_numpy),
        (net, "temperature", (-4e4, [0.0, 0.0]), _on_numpy),
        (net, "em_update", (-4e4, N, 342.0, 1e-6, 2.0, 1e-3,
                            [0.0, math.inf, -math.inf], None), _untraced)]
    for case, name, args, body in cases:
        view = case.float_view
        got, got_warnings = _warned(getattr(kernel, name), view, *args)
        want, want_warnings = _warned(body, name, view, *args)
        assert _bits(got) == _bits(want)
        assert got_warnings == want_warnings
        assert bool(got_warnings) == (body is _on_numpy)
    assert math.isnan(got[0])


def test_float_view_at_zero_kelvin_takes_numpys_values_and_warnings(net):
    """At T = 0.0 the float view's feedback terms are those of the body on
    numpy float64 scalars, values and warnings, text, file and line: the
    traced code's log(T / T_ref) of 0.0 runs the body before it warns, and
    no ZeroDivisionError reaches the caller."""
    args = ([1.0, 1.0], 0.0, 331.9, [-40.0, -50.0])
    got, got_warnings = _warned(kernel.feedback_terms, net.float_view, *args)
    want, want_warnings = _warned(_on_numpy, "feedback_terms",
                                  net.float_view, *args)
    assert _bits(got) == _bits(want)
    assert got_warnings == want_warnings
    assert ("divide by zero encountered in log", kernel.__file__) in {
        (text, file) for text, file, _ in got_warnings}
    assert got[:2] == (math.inf, math.inf)  # theta = 0.0


def _entry_calls(net, s):
    """The traced entry points' calls at the states ``s``, every layout."""
    U, N, T, q, Qdot = s.U, s.N, s.T, s.q, s.Qdot
    terms = kernel.feedback_terms(net, N, T, s.T_star, s.mu_star)
    calls = {"temperature": kernel.temperature(net, U, N),
             "feedback_terms": terms}
    for dW in (s.dW, None):
        for column in (terms[4:], None):
            calls["em_update", dW is None, column is None] = kernel.em_update(
                net, U, N, T, q, Qdot, 1e-3, dW, column)
    return calls


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_float_view_takes_columns_as_the_batch_view(data):
    """Called with (B,) columns, as a lone path's guards call it, the float
    view gives the bits of the batch view in every traced entry point and
    layout, also in a layout it never traced, and traces nothing new."""
    net, batch = _draw_states(data)
    view, B = net.float_view, len(batch.T)
    if data.draw(st.booleans(), label="layouts traced first"):
        _entry_calls(view, batch.floats(0))
    traced = set(view.traces)
    with np.errstate(all="ignore"):  # inf * 0 and the like
        got = _flat(_entry_calls(view, batch), B)
        want = _flat(_entry_calls(kernel.batch_view(net), batch), B)
    assert set(view.traces) == traced
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


#: The bundled network and its 2 A -> B variant.
_VIEW_NETWORKS = (presets.CONFIG_TEXT, presets.CONFIG_TEXT.replace(
    "A -> B k0f=1.2e9", "2 A -> B k0f=1.2e6"))


def _view_states(B=3):
    """The first B of three states of a two-species network as
    :class:`_States`, with and without flow and heat."""
    def columns(*rows):
        return [np.array(row[:B]) for row in rows]

    (U, T, q, Qdot), N, v, dW = (
        columns([-4e4, 1e4, 2e4], [342.0, 331.9, 360.0], [9.15e-6, 0.0, 5e-6],
                [-2e3, 0.0, 1e3]),
        columns([1.0, 0.3, 2.0], [1.0, 1.7, 0.05]),
        columns([-40.0, 3.0, 0.5], [-50.0, -2.0, 7.0]),
        columns([0.01, -0.02, 0.0], [0.03, 0.0, -0.01], [-0.02, 0.01, 0.04]))
    return _States(U=U, T=T, q=q, Qdot=Qdot, N=N, v=v, dW=dW, T_star=331.9,
                   mu_star=[-40.0, -50.0], V_star=1e-3)


def _view_calls(net, s):
    """The traced entry points' calls at the states ``s`` and the calls
    that read a noise intensity, lambda or R: sde_terms, margins, both
    damping weights and jacket_temperature."""
    N, T = s.N, s.T
    h, mu_over_T, _, theta = kernel.closures(net, N, T)
    forward, backward = kernel.mass_action(
        net, kernel.flow_column(net, N, h)[2], kernel.rate_constants(net, T))
    calls = _entry_calls(net, s)
    calls.update({
        "sde_terms": kernel.sde_terms(net, N, T, s.q, s.Qdot),
        "margins": kernel.margins(net, N, T, h, mu_over_T, theta, s.v,
                                  s.V_star),
        "damping_weights logmean": kernel.damping_weights(
            net, forward, backward, T),
        "damping_weights strict": kernel.damping_weights(
            net, forward, backward, T, kernel.affinity(net, mu_over_T, T)),
        "jacket_temperature": kernel.jacket_temperature(net, s.Qdot, T)})
    return calls


@pytest.mark.parametrize("text", _VIEW_NETWORKS, ids=["A -> B", "2 A -> B"])
def test_the_kernel_reads_numbers_only_through_the_view(text):
    """With its constants cached and its species, reactor, inlet and noise
    then None, a network gives every bit of the intact one in every call
    that steps a path or reads a noise intensity, lambda or R: on floats,
    on its float view and on its batch view."""
    net, bare = parse_network(text), parse_network(text)
    bare.step_constants
    bare.__dict__.update(species=None, reactor=None, inlet=None, noise=None)
    s = _view_states()
    for view in (lambda n: n, lambda n: n.float_view):
        for i in range(len(s.T)):
            got, want = (_flat(_view_calls(view(n), s.floats(i)), 1)
                         for n in (bare, net))
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    got, want = (_flat(_view_calls(kernel.batch_view(n), s), len(s.T))
                 for n in (bare, net))
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


#: Kernel functions that build views or switch between them: they may call
#: numpy and math.
_VIEW_BUILDERS = {"step_constants", "float_view", "batch_view", "_floats_as",
                  "on_floats", "_trace", "_traced"}


def _rooted_at_a_module(node):
    """Whether ``node`` is np.<...> or math.<...>."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in ("np", "math")


def test_kernel_formulas_take_their_functions_from_the_view():
    """No kernel formula calls a function of numpy or math or takes one as a
    default: each reads exp, log, where, sqrt, any and all from its network's
    view, so the float, batch and traced views run every formula alike."""
    tree = ast.parse(Path(kernel.__file__).read_text())
    functions = [f for node in tree.body for f in (
        node.body if isinstance(node, ast.ClassDef) else [node])
        if isinstance(f, ast.FunctionDef) and f.name not in _VIEW_BUILDERS]
    leaks = sorted(
        f.name for f in functions
        if any(isinstance(n, ast.Call) and _rooted_at_a_module(n.func)
               for n in ast.walk(f))
        or any(_rooted_at_a_module(n) for d in (
            *f.args.defaults, *filter(None, f.args.kw_defaults))
            for n in ast.walk(d)))
    assert len(functions) > 30  # the parse found the formulas
    assert leaks == []


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, -1.0])
def test_float_view_sqrt_raises_outside_zero_to_inf(net, x):
    """The float view's sqrt raises ZeroDivisionError below 0, at +inf and
    at NaN, as its log does, so a formula that meets one is redone on
    numpy."""
    with pytest.raises(ZeroDivisionError):
        net.float_view.step_constants.sqrt(x)


@pytest.mark.parametrize("x", [0.0, 5e-324, 1.0, sys.float_info.max])
def test_float_view_sqrt_is_maths(net, x):
    """Elsewhere it returns math.sqrt's float."""
    got = net.float_view.step_constants.sqrt(x)
    assert type(got) is float and got.hex() == math.sqrt(x).hex()


def test_margins_and_damping_weights_on_the_float_view_are_python(net):
    """On the float view, margins and both damping weights return Python
    floats and bools only, with the bits of the plain network's call on
    numpy float64, at seeded states and at check's default state."""
    sp = make_setpoint(net, presets.T_STAR, presets.Q_STAR)
    Ts, Ns = random_states(net, 20, np.random.default_rng(42))
    for T, N in [(342.0, [1.0, 1.0]), *zip(Ts, Ns)]:
        st = ThermoState.from_temperature(net, np.array(N), T)
        margins = (st.N, st.T, st.h, st.mu_over_T, st.theta,
                   st.mu_over_T - sp.mu_star_over_T, sp.V_star)
        weights = (*kernel.mass_action(net, st.N / net.reactor.V,
                                       kernel.rate_constants(net, st.T)),
                   st.T, kernel.affinity(net, st.mu_over_T, st.T))
        for formula, args in ((kernel.margins, margins),
                              (kernel.damping_weights, weights[:3]),
                              (kernel.damping_weights, weights)):
            want = list(_leaves(formula(net, *args)))
            got = list(_leaves(formula(net.float_view, *(
                np.asarray(a).tolist() for a in args))))
            assert all(np.ndim(x) == 0 for x in want)
            assert [type(x) for x in got] == [
                bool if np.asarray(x).dtype == bool else float for x in want]
            np.testing.assert_array_equal(
                np.array(got, dtype=float).view(np.uint64),
                np.array(want, dtype=float).view(np.uint64))


def test_a_batch_view_takes_each_rows_noise_from_its_constants(net):
    """A batch view whose noise constants are columns, row i those of
    network i, steps each row with the bits of that network's lone call:
    every noise intensity is read through the view."""
    nets = (net, net.with_noise(net.noise.scaled(2.0, 3.0, 4.0)))
    fields = ("rho1", "rho2", "rho3", "half_rho2_sq", "half_rho3_sq")
    view = kernel.batch_view(net)
    view.__dict__["step_constants"] = view.step_constants._replace(**{
        f: np.array([getattr(n.step_constants, f) for n in nets])
        for f in fields})
    s = _view_states(2)
    rows = _flat(_entry_calls(view, s), 2).view(np.uint64).tolist()
    lone = [[_flat(_entry_calls(n.float_view, s.floats(i)), 1)[0].view(
        np.uint64).tolist() for i in range(2)] for n in nets]
    assert rows == [lone[0][0], lone[1][1]]
    assert lone[0][1] != lone[1][1]  # the noise shows in row 1


def test_species_named_like_the_generated_code_step_as_plain_names(gains):
    """No species name enters the traced code: a network whose species
    are exp, log, v0 and k0 steps with the bits of the same network under
    plain names."""
    text = """\
[species]
{0} cp=75.24 h_ref=0 s_ref=50.6
{1} cp=60.0 h_ref=-4575.0 s_ref=180.2
{2} cp=70.0 h_ref=-1000.0 s_ref=60.0
{3} cp=80.0 h_ref=-2000.0 s_ref=70.0
[reactions]
{0} -> {1} k0f=1.2e9 Ef=72331.8 k0b=1.33e8 Eb=74826.0
{1} + {2} -> 2 {3} k0f=1.2e6 Ef=72331.8 k0b=1.33e5 Eb=74826.0
[reactor]
V=0.001 P=1e5 T_ref=300.0 lambda=0.05808 R_gas=8.314
[inlet]
T_in=310.0 c_{0}=2000.0 c_{2}=500.0
[noise]
rho1=0.1 rho2=5e-7 rho3=0.05
"""
    paths = []
    for names in (("exp", "log", "v0", "k0"), ("A", "B", "C", "D")):
        net = parse_network(text.format(*names))
        sp = setpoint_from_state(net, [0.5, 0.5, 0.5, 0.5], 331.9, 9.15e-6)
        x0 = ThermoState.from_temperature(net, np.ones(4), 342.0).x
        cfg = SimConfig(dt=1e-3, t_end=0.1, seed=3, record_every=1)
        paths.append(simulate(net, sp, gains, cfg, x0))
        assert len(net.float_view.traces) == 4  # the plain network, 3 layouts
    for name in ("states", "T", "q", "Qdot"):
        assert _bits(getattr(paths[0], name)) == _bits(getattr(paths[1], name))


def test_each_layout_is_traced_once_per_network(sp, gains, x0, tmp_path,
                                                monkeypatch):
    """A lone simulate traces each argument layout it calls once per
    network; a batched ensemble, a check and a steady-state scan trace
    nothing."""
    real, traced = kernel._trace, []

    def trace(net, body, args):
        traced.append((id(net), body.__name__, *(a is None for a in args)))
        return real(net, body, args)

    monkeypatch.setattr(kernel, "_trace", trace)
    net, cfg = parse_network(presets.CONFIG_TEXT), SimConfig(
        dt=1e-3, t_end=0.05, seed=3, n_traj=4)
    ensemble(net, sp, gains, cfg, x0)
    (path := tmp_path / "network.cfg").write_text(presets.CONFIG_TEXT)
    assert main(["check", "--network", str(path), "--T", "342", "--N", "1,1",
                 "--setpoint-T", "331.9", "--setpoint-q", "9.15e-6",
                 "--out", str(tmp_path / "check")]) == 0
    assert main(["equilibria", "--network", str(path), "--q", "9.15e-6",
                 "--Tw", "299.4922", "--out", str(tmp_path / "scan")]) == 0
    assert traced == []
    lone = replace(cfg, n_traj=1)
    for _ in range(2):
        simulate(net, sp, gains, lone, x0)
        simulate(net, None, None, replace(lone, mode="open_loop"), x0)
    view = id(net.float_view)
    assert sorted(traced) == [
        (view, "em_update", *[False] * 8),
        (view, "em_update", *[False] * 7, True),  # open loop: no column
        (view, "feedback_terms", False, False, False, False),
        (view, "temperature", False, False)]
    simulate(parse_network(presets.CONFIG_TEXT), sp, gains, lone, x0)
    assert len(traced) == 4 + 3


def test_lone_washout_floors_through_settle(net, monkeypatch):
    """A lone path's floored steps go to settle, one call with one row per
    floored step: settle is the stepping loop's only floor clamp."""
    real, calls = sim._Stepper.settle, []

    def settle(self, rows, *args):
        calls.append((self.step_no, np.size(rows)))
        return real(self, rows, *args)

    monkeypatch.setattr(sim._Stepper, "settle", settle)
    x0 = ThermoState.from_temperature(net, np.array([1.0, 1.0]), 342.0).x
    cfg = SimConfig(dt=1e-3, t_end=0.1, seed=3, mode="open_loop",
                    u_open=(0.5, 0.0))
    tr = simulate(net, None, None, cfg, x0)
    floored = [k for k, c in tr.events if c.startswith("floor_")]
    assert calls == [(k, 1) for k in floored] and len(calls) == 18
    assert {c for _, c in tr.events} == {"floor_B"} and not tr.aborted


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernel_sums_run_left_to_right(data):
    """Every sum over species or reactions in the kernel has the bits of
    the explicit left-to-right Python expression t_0 + t_1 + ..., every
    other operation as the kernel's formulas write it: on networks of 1-5
    species and 0-4 reactions, for a batch and for its first row alone."""
    net, batch = _draw_states(data)
    rx, k, lr = net.reactor, net.step_constants, left_to_right
    nu = net.stoich_net
    for s in (batch, batch.row(0)):
        U, N, T, v = s.U, s.N, s.T, s.v
        h, mu_over_T, S, theta = kernel.closures(net, N, T)
        _, _, _, log_tau, log_x = kernel.potentials(net, N, T, lr(N))
        g00, dc, c = kernel.flow_column(net, N, h)
        forward, backward = kernel.mass_action(
            net, c, kernel.rate_constants(net, T))
        rate = [f - b for f, b in zip(forward, backward)]
        weights = kernel.damping_weights(net, forward, backward, T)
        flux = [rx.V * lr(nu[j, i] * rate[i] for i in range(len(rate)))
                for j in range(len(N))]
        mu = [m * T for m in mu_over_T]
        affinity = [-lr(nu[j, i] * mu[j] for j in range(len(N)))
                    for i in range(len(rate))]
        inner = [weights[i] * lr(nu[l, i] * v[l] for l in range(len(N)))
                 for i in range(len(rate))]
        R_v = [rx.V * T * lr(nu[j, i] * inner[i] for i in range(len(rate)))
               for j in range(len(N))]
        hdc, dc_sum = lr(map(mul, h, dc)), lr(dc)
        M = (hdc * hdc - theta * rx.R_gas / lr(N) * (dc_sum * dc_sum)
             + theta * rx.R_gas * lr(d * (d / n) for d, n in zip(dc, N))
             - 2.0 * g00 * hdc + g00 * g00)
        h_in = lr(map(mul, net.c_in, net.cp * (net.inlet.T_in - rx.T_ref)
                      + net.h_ref))
        m = kernel.margins(net, N, T, h, mu_over_T, theta, v, s.V_star)
        pairs = (
            (kernel.total(N), lr(N)), (kernel.dot(N, v), lr(map(mul, N, v))),
            (kernel.temperature(net, U, N), rx.T_ref + (
                U + rx.P * rx.V - lr(map(mul, N, net.h_ref)))
             / lr(map(mul, N, net.cp))),
            (theta, T * T * lr(map(mul, N, net.cp))),
            (S, lr(n * (cp * log_tau + s_ref - rx.R_gas * lx) for n, cp,
                   s_ref, lx in zip(N, net.cp, net.s_ref, log_x))),
            (k.h_in, h_in), (g00, h_in - lr(map(mul, N, h)) / rx.V),
            (kernel.reaction_flux(net, rate), flux),
            (kernel.affinity(net, mu_over_T, T), affinity),
            (kernel.damping_apply(net, weights, T, v), R_v),
            (kernel.mixing_scale(net, N, h, theta, g00, dc, lr(N)), M),
            (m.trace_rhs, lr(map(mul, v, R_v))),
            (m.reaction_noise_rhs, lr(map(mul, rate, affinity)) / T),
            (m.grad_flux, lr(map(mul, v, flux))),
            (kernel.availability(s.S_star, s.pi_star, s.x_star, S, [U, *N]),
             s.S_star - S + lr(p * (x - x_star) for p, x, x_star
                               in zip(s.pi_star, [U, *N], s.x_star))))
        B = np.size(T)
        np.testing.assert_array_equal(
            *(_flat(dict(enumerate(side)), B) for side in zip(*pairs)))


@settings(max_examples=60, deadline=None)
@given(batch=_kernel_batches())
def test_one_step_shares_its_quantities_bit_for_bit(net, sp, batch):
    """A closed-loop step computes sum N, N / V and no S, and passes them
    on: em_update on the column of feedback_terms has the bits of em_update
    computing its own, and the S-free potentials given sum N the h, mu/T
    and theta of the closures; for a lone state and a batch."""
    lone = tuple(a[0] for a in batch)
    for U, N, T, q, Qdot, dW in (lone, batch):
        N, dW = _columns(N), _columns(dW)
        column = kernel.feedback_terms(net, N, T, sp.T_star,
                                       sp.mu_star_over_T)[4:]
        np.testing.assert_array_equal(column[2], [n / net.reactor.V
                                                  for n in N])
        for shared, own in zip(
                _leaves(kernel.em_update(net, U, N, T, q, Qdot, 1e-3, dW,
                                         column)),
                _leaves(kernel.em_update(net, U, N, T, q, Qdot, 1e-3, dW))):
            np.testing.assert_array_equal(shared, own)
        h, mu_over_T, _, theta = kernel.closures(net, N, T)
        N_sum = left_to_right(N)
        for shared, own in zip(kernel.potentials(net, N, T, N_sum)[:3],
                               (h, mu_over_T, theta)):
            np.testing.assert_array_equal(shared, own)


def _repeated_product(c, stoich):
    """prod_j c_j ** stoich[j, i] for each column i, multiplied out from 1:
    c_j stoich[j, i] times, in species order."""
    columns = []
    for column in stoich.T.tolist():
        product = 1.0
        for j, alpha in enumerate(column):
            for _ in range(int(alpha)):
                product = product * c[j]
        columns.append(product)
    return columns


@settings(max_examples=200, deadline=None)
@given(net=networks(max_multiplicity=3), data=st.data())
def test_species_product_is_the_repeated_multiplication(net, data):
    """The rates' species product (mass_action at k_T = 1, whose product
    times 1.0 is the product) has the bits of each concentration multiplied
    in as often as its multiplicity, in species order, for one state and a
    batch, and a batch row has the bits of the row alone; with
    multiplicities 0 and 1 only, also the bits of np.multiply.reduce of
    libm's powers over the species axis."""
    B, r = data.draw(st.integers(1, 4)), len(net.reactions)
    c = data.draw(arrays(float, (B, net.n_species),
                         elements=st.floats(1e-3, 1e3)))
    stoich = np.hstack((net.stoich_reactants, net.stoich_products))

    def product(conc, rows):
        return rows_first(sum(kernel.mass_action(
            net, conc, [np.ones(rows)[()]] * 2 * r), []), rows)

    for conc in (c[:1], c):
        rows = len(conc)
        gathered = product(_columns(conc if rows > 1 else conc[0]), rows)
        np.testing.assert_array_equal(
            gathered, rows_first(_repeated_product(_columns(conc), stoich),
                                 rows))
        if (stoich <= 1.0).all():
            np.testing.assert_array_equal(
                gathered,
                np.multiply.reduce(np.float_power(conc[..., :, None], stoich),
                                   -2))
    for i, alone in enumerate(c):
        np.testing.assert_array_equal(gathered[i],
                                      product(_columns(alone), 1)[0])


@settings(max_examples=200, deadline=None)
@given(c=arrays(float, 8, elements=st.floats(1e-100, 1e100)))
def test_gathered_squares_are_correctly_rounded(c):
    """A multiplicity of 2, gathered as c * c, is the correctly rounded
    square, and one of 3, c * c * c, is within 2 ulp of the cube; the
    exact powers as fractions, correctly rounded to floats."""
    square, cube = kernel._factors(np.array([[2.0, 3.0]]))[0]
    squares, cubes = (kernel._product([c], f) for f in (square, cube))
    exact = np.array([[float(Fraction(v) ** k) for v in c.tolist()]
                      for k in (2, 3)])
    np.testing.assert_array_equal(squares, exact[0])
    assert (np.abs(cubes.view(np.int64) - exact[1].view(np.int64)) <= 2).all()


def _step_by_formulas(net, U, N, T, q, Qdot, dW, T_star, mu_star_over_T):
    """feedback_terms, em_update (dt = 1e-3) and temperature written out
    from potentials, flow_column and mixing_scale, with every other
    constant read from the network's own fields, every sum over species or
    reactions written out left to right, and the rates' species products
    multiplied out by :func:`_repeated_product`."""
    rx, rho, dt, lr = net.reactor, net.noise, 1e-3, left_to_right
    N_sum = lr(N)
    h, mu_over_T, theta, _, _ = kernel.potentials(net, N, T, N_sum)
    g00, dc, c = kernel.flow_column(net, N, h)
    M = kernel.mixing_scale(net, N, h, theta, g00, dc, N_sum)
    grad_U = 1.0 / T_star - 1.0 / T
    grad_N = [m - m_star for m, m_star in zip(mu_over_T, mu_star_over_T)]
    feedback = (0.5 * rho.rho2 ** 2 * M / theta, 0.5 * rho.rho3 ** 2 / theta,
                g00 * grad_U + lr(map(mul, dc, grad_N)), grad_U, g00, dc, c)
    RT = rx.R_gas * T
    rate = [k0f * np.exp(-Ef / RT) * forward - k0b * np.exp(-Eb / RT) * backward
            for k0f, Ef, forward, k0b, Eb, backward in zip(
                net.k0f, net.Ef, _repeated_product(c, net.stoich_reactants),
                net.k0b, net.Eb, _repeated_product(c, net.stoich_products))]
    flux = [rx.V * lr(map(mul, nu_j, rate)) for nu_j in net.stoich_net]
    U_new = (U + (g00 * q + Qdot) * dt
             + (rho.rho2 * q * g00 * dW[1] + rho.rho3 * Qdot * dW[2]))
    N_new = [n + (f + q * d) * dt + rho.rho1 * f * dW[0]
             + rho.rho2 * q * d * dW[1] for n, f, d in zip(N, flux, dc)]
    T_of = rx.T_ref + ((U + rx.P * rx.V - lr(map(mul, N, net.h_ref)))
                       / lr(map(mul, N, net.cp)))
    return feedback, (U_new, N_new), T_of


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_step_equals_the_per_formula_functions(data):
    """The step's feedback_terms, em_update and temperature, which read the
    network's constants record and gather the rates' products, have the
    bits of the same quantities built from the per-formula functions, the
    network's own fields, sums written out left to right and products
    multiplied out in species order: on networks of 1-5 species and 0-4
    reactions, with multiplicities 0-3 or 0-1, for one state and a
    batch."""
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
        N, dW = _columns(N), _columns(dW)
        feedback, update, T_of = _step_by_formulas(net, U, N, T, q, Qdot, dW,
                                                   T_star, mu_star)
        for step, formula in zip(
                _leaves((kernel.feedback_terms(net, N, T, T_star, mu_star),
                         kernel.em_update(net, U, N, T, q, Qdot, 1e-3, dW),
                         kernel.temperature(net, U, N))),
                _leaves((feedback, update, T_of)), strict=True):
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
    N, T = np.ones((2, len(raw))), np.full(len(raw), 342.0)  # species-major
    q, _, clamped, _, _ = control._clamped_feedback(net, sp, gains.K, N, T,
                                                     clamp, _Q_MAX)
    expected = np.minimum(np.maximum(raw, 0.0), _Q_MAX) if clamp else raw
    np.testing.assert_array_equal(np.signbit(q), np.signbit(expected))
    np.testing.assert_array_equal(q, expected)
    np.testing.assert_array_equal(clamped, clamp & (expected != raw))
    for i in range(len(raw)):
        lone[:] = [i]
        q_i, _, clamped_i, _, _ = control._clamped_feedback(
            net, sp, gains.K, N[:, i], T[i], clamp, _Q_MAX)
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
