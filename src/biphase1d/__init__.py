"""1D compressible two-fluid simulation on the periodic unit interval.

Two schemes share one pseudo-Lagrangian staggered kernel: a
sharp-interface scheme that transports pure-phase cells exactly, and a
homogenized two-phase scheme whose volume fraction relaxes toward
pressure equilibrium.  A diagnostics layer checks the discrete
conservation laws and measures how well the two descriptions agree.
"""

from .diagnostics import (CoarseFields, DiagnosticsRecord, TwoPointReport,
                          coarse_grain, compare_fields, estimate_alpha_meso,
                          snapshot, total_energy, total_mass,
                          two_point_structure, young_moment)
from .errors import ConfigError, SingularSystemError, SolverError, StepFailure
from .macro import MacroState, init_macro_riemann, run_macro, step_macro
from .materials import (WEIGHTING_CROSS, WEIGHTING_OWN, WEIGHTINGS,
                        MaterialPair, PowerLaw, homogenized, mixture_potential,
                        mixture_pressure, mixture_viscosity, mu_eff, p_eff,
                        relaxation_rhs)
from .meso import MesoState, init_meso_riemann, run_meso, step_meso
from .stepping import (StaggeredGrid, StepOutcome, assemble_momentum, choose_dt,
                       lagrangian_step, node_mass)
from .tridiag import solve_cyclic_tridiagonal
from .cli import PRESETS, RunConfig, parse_config, run_experiment, run_sweep

__all__ = [
    "CoarseFields", "DiagnosticsRecord", "TwoPointReport", "coarse_grain",
    "compare_fields", "estimate_alpha_meso", "snapshot", "total_energy",
    "total_mass", "two_point_structure", "young_moment",
    "ConfigError", "SingularSystemError", "SolverError", "StepFailure",
    "MacroState", "init_macro_riemann", "run_macro", "step_macro",
    "WEIGHTING_CROSS", "WEIGHTING_OWN", "WEIGHTINGS", "MaterialPair",
    "PowerLaw", "homogenized", "mixture_potential", "mixture_pressure",
    "mixture_viscosity", "mu_eff", "p_eff", "relaxation_rhs",
    "MesoState", "init_meso_riemann", "run_meso", "step_meso",
    "StaggeredGrid", "StepOutcome", "assemble_momentum",
    "choose_dt", "lagrangian_step", "node_mass",
    "solve_cyclic_tridiagonal",
    "PRESETS", "RunConfig", "parse_config", "run_experiment", "run_sweep",
]

__version__ = "0.1.0"
