"""Assemble the dissipative structure at the benchmark start state and run
the three conditions that certify the stochastic feedback design: the
input-noise bound, the storage (trace + feedthrough) conditions, and the
reaction-noise bound; then evaluate all three along the noise-free
closed-loop path in one batched call."""

import numpy as np

from phreactor import (
    AvailabilityHamiltonian,
    SimConfig,
    ThermoState,
    check_input_noise_bound,
    check_passivity,
    check_reaction_noise_bound,
    kernel,
    simulate,
    structure_matrices,
)
from phreactor.presets import (
    benchmark_gains,
    benchmark_initial_state,
    benchmark_network,
    benchmark_setpoint,
)

net = benchmark_network()
sp = benchmark_setpoint(net)
x0 = benchmark_initial_state(net)
st = ThermoState.from_vector(net, x0)

# The structure at the start state: damping, ports, noise feedthrough
S = structure_matrices(net, st)
print("damping matrix R (only the composition block is active):")
print(S.R)
print("R eigenvalues:", np.linalg.eigvalsh(S.R))
print("input map g:")
print(S.g)
print("feedthrough delta:", np.diag(S.delta))

# Condition 1: the input-noise magnitude is far below the curvature scale
rep = check_input_noise_bound(net, st)
print(f"\ninput-noise bound: {rep.holds}  "
      f"(lhs {rep.lhs:.3e} vs rhs {rep.rhs:.3e})")

# Condition 2: storage conditions for the availability Hamiltonian
field = AvailabilityHamiltonian(net, sp)
pas = check_passivity(net, st, field)
print(f"storage trace bound: {pas.trace_holds}  "
      f"(lhs {pas.trace_lhs:.3e} vs rhs {pas.trace_rhs:.3e})")
print(f"feedthrough PSD: {pas.feedthrough_holds}  "
      f"(min eig {pas.feedthrough_min_eig:.3e} -- exact cancellation)")

# Condition 3: reaction-noise bound at the operating scale
rxn = check_reaction_noise_bound(net, st, V_star=sp.V_star)
print(f"reaction-noise bound: {rxn.holds}  "
      f"(lhs {rxn.lhs:.3e} vs rhs {rxn.rhs:.3e})")

# Scale the flow-channel noise by 1e6 and the same checks collapse
loud = net.with_noise(net.noise.scaled(f2=1e6))
st_loud = ThermoState.from_vector(loud, x0)
print("\nwith rho2 x 1e6:")
print("  input-noise bound:", check_input_noise_bound(loud, st_loud).holds)
print("  feedthrough PSD:",
      check_passivity(loud, st_loud, AvailabilityHamiltonian(loud, sp))
      .feedthrough_holds)

# The three conditions at every record of the noise-free closed-loop path,
# as one batched kernel call; the slack rhs - lhs is negative where one fails
tr = simulate(net, sp, benchmark_gains(),
              SimConfig(dt=1e-3, t_end=10.0, mode="deterministic",
                        record_every=10), x0)
U, N = tr.states[:, 0], tr.states[:, 1:].T  # the kernel is species-major
T = kernel.temperature(net, U, N)
h, mu_over_T, _, theta = kernel.closures(net, N, T)
m = kernel.margins(net, N, T, h, mu_over_T, theta,
                   np.array(mu_over_T) - sp.mu_star_over_T[:, None], sp.V_star)
print(f"\nalong the deterministic closed-loop path ({len(T)} records):")
for label, name in (("input-noise", "input_noise"), ("storage trace", "trace"),
                    ("reaction-noise", "reaction_noise")):
    slack = getattr(m, f"{name}_rhs") - getattr(m, f"{name}_lhs")
    i = int(np.argmin(slack))
    print(f"  {label + ' bound:':22s}worst rhs - lhs {slack[i]:.6g} at "
          f"t = {tr.times[i]:.2f} s, fails at "
          f"{np.count_nonzero(~getattr(m, f'{name}_holds'))} records")
