"""Map the steady states of the benchmark reactor against the jacket
temperature: the classic fold with two stable branches around an unstable
middle branch, which is exactly the branch the feedback stabilizes."""

import numpy as np

from phreactor import jacket_temperature, make_setpoint, steady_states
from phreactor.presets import Q_STAR, T_STAR, benchmark_network

net = benchmark_network()
sp = make_setpoint(net, T_STAR, Q_STAR)
q = sp.q_star

# The jacket temperature that sustains the target operating point
T_w_star = jacket_temperature(net, sp.Qdot_star, sp.T_star)
print(f"target: T* = {sp.T_star} K at jacket T_w = {T_w_star:.4f} K, "
      f"flow q = {q:g} m^3/s")

# Sweep the jacket and list every root in the scan window
print("\n  T_w [K]   roots [K] (s = stable, u = unstable)")
for T_w in np.linspace(280.0, 320.0, 9):
    roots = steady_states(net, q, T_w, T_range=(260.0, 460.0), grid=1200)
    tags = "  ".join(f"{r.T:7.2f}{r.classification[0]}" for r in roots)
    marker = " <- multiplicity" if len(roots) > 1 else ""
    print(f"  {T_w:7.2f}   {tags}{marker}")

# At the design jacket temperature the middle root is the setpoint
roots = steady_states(net, q, T_w_star)
print(f"\nat T_w = {T_w_star:.4f} K:")
for r in roots:
    grow = max(r.eigenvalues.real)
    print(f"  T = {r.T:9.4f} K  N = ({r.N[0]:.5f}, {r.N[1]:.5f}) mol  "
          f"{r.classification:8s} (max Re eig {grow:+.2e} 1/s)")
print("\nthe middle (unstable) root matches the stabilization target; "
      "open-loop operation would fall to one of the outer branches")
