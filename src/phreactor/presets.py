"""Bundled benchmark: an exothermic reversible A <-> B stirred tank.

One first-order isomerization in a 1 L vessel, fed with pure A, jacketed,
and noisy on all three channels.  The numbers are a standard non-isothermal
CSTR operating scenario whose target point sits on an open branch (the
target composition is flow-sustained, not at reaction equilibrium), which
exercises every part of the toolkit: multiple steady states under jacket
operation, a nontrivial setpoint shift, and noise bounds that hold with
wide margins at the nominal intensities.

The target composition and energy are given as the conventional rounded
operating values; ``benchmark_setpoint`` builds the setpoint from those
directly (``equilibrium.drift_residual`` there shows the small
mismatch), while ``transform.make_setpoint(net, T_STAR, Q_STAR)``
re-solves the stationary composition at the same (T*, q*).
"""

from __future__ import annotations

import numpy as np

from .control import ControllerGains
from .network import ReactionNetwork, parse_network
from .thermo import ThermoState
from .transform import Setpoint, setpoint_from_state

CONFIG_TEXT = """\
# Reversible first-order A <-> B in a jacketed 1 L stirred tank.
[species]
A cp=75.24 h_ref=0 s_ref=50.6
B cp=60.0 h_ref=-4575.0 s_ref=180.2
[reactions]
A -> B k0f=1.2e9 Ef=72331.8 k0b=1.33e8 Eb=74826.0
[reactor]
V=0.001 P=1e5 T_ref=300.0 lambda=0.05808 R_gas=8.314
[inlet]
T_in=310.0 c_A=2000.0
[noise]
rho1=0.1 rho2=5e-7 rho3=0.05
"""

#: Target operating values (rounded, as conventionally quoted).
T_STAR = 331.9
Q_STAR = 9.15e-6
N_STAR = (1.3, 0.7)
U_STAR = 1157.5

#: Initial condition of the stabilization scenario.
T0 = 342.0
N0 = (1.0, 1.0)

#: Feedback gains of the stabilization scenario.
K_FLOW = 1.64e-7
K_HEAT = 27430.0


def benchmark_network() -> ReactionNetwork:
    """The benchmark network, parsed from :data:`CONFIG_TEXT`."""
    return parse_network(CONFIG_TEXT)


def benchmark_setpoint(net: ReactionNetwork) -> Setpoint:
    """Setpoint built from the rounded operating composition N*."""
    return setpoint_from_state(net, N_STAR, T_STAR, Q_STAR)


def benchmark_gains() -> ControllerGains:
    return ControllerGains.diagonal(K_FLOW, K_HEAT)


def benchmark_initial_state(net: ReactionNetwork) -> np.ndarray:
    """x(0) = (U(N0, T0), N0)."""
    return ThermoState.from_temperature(net, np.array(N0), T0).x
