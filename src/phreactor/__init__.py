"""Stochastic port-Hamiltonian toolkit for non-isothermal stirred tank reactors.

The package models a CSTR with reversible mass-action kinetics as an
energy/mole-number state system driven by inlet flow and jacket heat, with
multiplicative noise on the reaction flux and on both inputs.  It provides:

* a small line-oriented config format for reaction networks (`network`),
* the balance formulas, species-major, each written once (`kernel`),
* ideal-mixture thermodynamic closures and their derivatives (`thermo`),
* the dissipative structure matrices and noise channels of the balance
  equations, plus passivity / noise-bound checks (`structure`),
* setpoint construction and the shifted availability storage function
  (`transform`),
* the passivity-based feedback law with noise-aware feedthrough correction
  (`control`),
* Euler-Maruyama simulation of single paths and seeded ensembles (`sim`),
* steady-state continuation in temperature and local stability
  classification (`equilibrium`),
* a command line front end (`phreactor check|equilibria|simulate|casestudy`).
"""

from .network import (
    Species,
    Reaction,
    ReactorSpec,
    InletSpec,
    NoiseSpec,
    ReactionNetwork,
    NetworkFormatError,
    NetworkValidationError,
    parse_network,
    serialize_network,
    validate,
)
from .thermo import (
    ThermoDomainError,
    ThermoState,
    temperature,
    internal_energy,
    enthalpy,
    entropy,
    neg_entropy_gradient,
    neg_entropy_hessian,
)
from .structure import (
    StructureMatrices,
    SdeFields,
    PortSystem,
    Interconnection,
    NegEntropy,
    InputNoiseReport,
    PassivityReport,
    ReactionNoiseReport,
    damping_matrix,
    structure_matrices,
    sde_fields,
    mixing_noise_scale,
    check_input_noise_bound,
    ito_generator,
    check_passivity,
    check_reaction_noise_bound,
    feedback_interconnect,
)
from .transform import (
    Setpoint,
    AvailabilityHamiltonian,
    make_setpoint,
    setpoint_from_state,
    transformed_output,
    equivalence_residual,
)
from .control import (
    ControllerGains,
    ControlAction,
    Q_MAX_DEFAULT,
    control_law,
    control_law_diagonal,
    solve_feedback,
    jacket_temperature,
)
from .sim import (
    SimConfig,
    Trajectory,
    EnsembleStats,
    SimulationAbort,
    trajectory_rng,
    euler_maruyama_step,
    simulate,
    ensemble,
)
from .equilibrium import (
    SteadyState,
    ConvergenceError,
    drift_residual,
    mass_balance_steady,
    steady_states,
    classify,
)
from . import presets

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
