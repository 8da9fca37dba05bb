"""Parse the bundled benchmark reactor config, poke at the pieces, and show
that serialize -> parse reproduces the network exactly."""

import numpy as np

from phreactor import NetworkValidationError, parse_network, serialize_network
from phreactor.presets import CONFIG_TEXT

# Parse the benchmark configuration
net = parse_network(CONFIG_TEXT)
print("species:", ", ".join(net.species_names))
def side(mults):
    return " + ".join(f"{c} {s}" if c != 1 else s
                      for s, c in zip(net.species_names, mults) if c)

for rxn in net.reactions:
    print(f"reaction: {side(rxn.reactants)} <-> {side(rxn.products)}  "
          f"(k0f={rxn.k0f:g}, Ef={rxn.Ef:g} J/mol)")
print(f"vessel: V={net.reactor.V} m^3, P={net.reactor.P:g} Pa, "
      f"lambda={net.reactor.lam} W/K")
print(f"inlet: T_in={net.inlet.T_in} K, c_in={net.inlet.c_in} mol/m^3")
print(f"noise: rho1={net.noise.rho1}, rho2={net.noise.rho2}, "
      f"rho3={net.noise.rho3}")

# Stoichiometry comes out as ready-to-use arrays
print("\nnet stoichiometry (species x reactions):")
print(net.stoich_net)

# Round trip: serialize and parse again
text = serialize_network(net)
again = parse_network(text)
print("\nserialize -> parse identity:", again == net)

# with_noise() validates the copy; the error carries validate()'s diagnostics
try:
    net.with_noise(net.noise.scaled(f2=-1.0))
except NetworkValidationError as err:
    print("diagnostics for a negated noise weight:", err.diagnostics)
