import math

import numpy as np
import pytest
from hypothesis import strategies as st

from phreactor import presets
from phreactor.network import (
    InletSpec,
    NoiseSpec,
    Reaction,
    ReactionNetwork,
    ReactorSpec,
    Species,
    parse_network,
)
from phreactor.transform import make_setpoint

_S_GAP = 25.0  # s_ref difference; makes ln(k0f/k0b) = delta s_ref / R exactly
CONSISTENT = f"""\
[species]
A cp=70.0 h_ref=0 s_ref=50.0
B cp=70.0 h_ref=-3000.0 s_ref=75.0
[reactions]
A -> B k0f={1e8 * math.exp(_S_GAP / 8.314)!r} Ef=50000 k0b=1e8 Eb=53000
[reactor]
V=0.001 P=1e5 T_ref=300.0 lambda=0.05 R_gas=8.314
[inlet]
T_in=310.0 c_A=1500.0 c_B=500.0
[noise]
rho1=0.1 rho2=5e-7 rho3=0.05
"""


NO_REACTION = """\
[species]
A cp=75.24 h_ref=0 s_ref=50.6
B cp=60.0 h_ref=-4575.0 s_ref=180.2
[reactions]
[reactor]
V=0.001 P=1e5 T_ref=300.0 lambda=0.05808 R_gas=8.314
[inlet]
T_in=310.0 c_A=2000.0 c_B=0.0
[noise]
rho1=0.1 rho2=5e-7 rho3=0.05
"""


#: The benchmark network with two more reactions after A -> B, 2 A -> 2 B
#: and A + B -> 2 B, each with 1/1000 of A -> B's prefactors.
THREE_REACTIONS = presets.CONFIG_TEXT.replace(
    "Eb=74826.0\n", "Eb=74826.0\n"
    "2 A -> 2 B k0f=1.2e6 Ef=72331.8 k0b=1.33e5 Eb=74826.0\n"
    "A + B -> 2 B k0f=1.2e6 Ef=72331.8 k0b=1.33e5 Eb=74826.0\n")


@pytest.fixture(scope="session")
def cnet():
    """Network whose Arrhenius pairs satisfy detailed balance exactly."""
    return parse_network(CONSISTENT)


@pytest.fixture(scope="session")
def plain_net():
    """Benchmark species and inlet but no reactions (pure mixing)."""
    return parse_network(NO_REACTION)


def equilibrium_composition(cnet, T, N_B=1.0):
    """Composition with zero reaction affinity at temperature T."""
    RT = cnet.reactor.R_gas * T
    kf = cnet.k0f[0] * math.exp(-cnet.Ef[0] / RT)
    kb = cnet.k0b[0] * math.exp(-cnet.Eb[0] / RT)
    return np.array([N_B * kb / kf, N_B])


@pytest.fixture(scope="session")
def net():
    return presets.benchmark_network()


@pytest.fixture(scope="session")
def sp(net):
    """Setpoint built from the rounded benchmark composition."""
    return presets.benchmark_setpoint(net)


@pytest.fixture(scope="session")
def sp_exact(net):
    """Setpoint with the stationary composition re-solved at (T*, q*)."""
    return make_setpoint(net, presets.T_STAR, presets.Q_STAR)


@pytest.fixture(scope="session")
def gains():
    return presets.benchmark_gains()


@pytest.fixture(scope="session")
def x0(net):
    return presets.benchmark_initial_state(net)


def left_to_right(terms):
    """t_0 + t_1 + ..., added by an explicit Python loop; 0.0 for none."""
    terms = list(terms)
    total = terms[0] if terms else 0.0
    for t in terms[1:]:
        total = total + t
    return total


def rows_first(items, B, *tail):
    """A kernel result, nested lists of (B,) columns or scalars, as one
    array with the batch axis first, shape (B, len(items), ...); an empty
    list gives shape (B, 0, *tail)."""
    if not isinstance(items, (list, tuple)):
        return np.broadcast_to(items, (B,))
    if not items:
        return np.empty((B, 0, *tail))
    return np.stack([rows_first(item, B) for item in items], 1)


def same_bits_but_nan_sign(a, b):
    """a and b have the same shape, NaN at the same places and every bit
    the same but a NaN's sign: the kernel's row-safety."""
    a, b = (np.ascontiguousarray(x, dtype=float) for x in (a, b))
    assert a.shape == b.shape
    nan = np.isnan(a)
    np.testing.assert_array_equal(nan, np.isnan(b))
    keep = np.where(nan, np.uint64(2 ** 63 - 1), np.uint64(2 ** 64 - 1))
    np.testing.assert_array_equal(a.view(np.uint64) & keep,
                                  b.view(np.uint64) & keep)


def random_states(net, n, rng, T_range=(280.0, 420.0), logN_range=(-2.0, 0.7)):
    """n random (T, N) draws over the physical domain, moles log-uniform."""
    Ts = rng.uniform(*T_range, size=n)
    Ns = 10.0 ** rng.uniform(*logN_range, size=(n, net.n_species))
    return Ts, Ns


@st.composite
def networks(draw, max_multiplicity=3):
    """A network of 1-5 species and 0-4 reactions, multiplicities 0 to
    ``max_multiplicity`` on either side (zero net stoichiometry included),
    no noise, built without validation."""
    p, r = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    side = st.tuples(*[st.integers(0, max_multiplicity)] * p)
    positive = st.floats(1e-2, 1e2)
    reactions = tuple(
        Reaction(draw(side), draw(side), draw(positive),
                 draw(st.floats(0.0, 5e4)), draw(positive),
                 draw(st.floats(0.0, 5e4)))
        for _ in range(r))
    species = tuple(Species(f"S{j}", 70.0, 0.0, 50.0) for j in range(p))
    c_in = draw(st.tuples(*[st.floats(0.0, 2e3)] * p))
    return ReactionNetwork(species, reactions,
                           ReactorSpec(1e-3, 1e5, 300.0, 0.0),
                           InletSpec(310.0, c_in), NoiseSpec(0.0, 0.0, 0.0))
