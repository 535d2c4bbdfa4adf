"""Market-making impulse/stochastic control solver.

Solves the dynamic programming variational inequality of a market maker who
posts limit quotes (continuous control) and may send market orders (impulse
control) while a mean-reverting signal drives both the midprice drift and
order-flow imbalance.  The backward-in-time solve uses an implicit
finite-difference step with policy iteration; a Monte Carlo module replays
the computed policy on simulated paths to validate the value surface.
"""

from .grid import Grid, GridSpec, StencilSet, build_grid, build_stencils
from .linsolve import SingularSystemError, SolveError, SolveReport, solve
from .model import (
    ModelParams,
    ParameterWarning,
    reconstruct_full_value,
    running_reward,
    stability_bounds,
    terminal_value,
)
from .montecarlo import (
    EstimateReport,
    PathRecord,
    SimulationError,
    estimate_performance,
    simulate_path,
)
from .policy_iteration import (
    PiterConfig,
    PiterTrace,
    PolicyIterationError,
    SystemCache,
    VerificationError,
    VerificationReport,
    improve_policy,
    iterate,
    verify_theorem_conditions,
)
from .presets import default_grid_spec, default_params
from .scheme import Policy, SparseSystem, assemble_system, residual, row_types
from .solver import (
    ExplicitInstabilityError,
    RefinementResult,
    Solution,
    StabilityEnvelopeError,
    ValueSurface,
    explicit_cfl_factor,
    refine_spec,
    refinement_table,
    solve_backward,
    solve_explicit_baseline,
    terminal_vector,
)

__all__ = [
    "EstimateReport",
    "ExplicitInstabilityError",
    "Grid",
    "GridSpec",
    "ModelParams",
    "ParameterWarning",
    "PathRecord",
    "PiterConfig",
    "PiterTrace",
    "Policy",
    "PolicyIterationError",
    "RefinementResult",
    "SimulationError",
    "SingularSystemError",
    "Solution",
    "SolveError",
    "SolveReport",
    "SparseSystem",
    "StabilityEnvelopeError",
    "StencilSet",
    "SystemCache",
    "ValueSurface",
    "VerificationError",
    "VerificationReport",
    "assemble_system",
    "build_grid",
    "build_stencils",
    "default_grid_spec",
    "default_params",
    "estimate_performance",
    "explicit_cfl_factor",
    "improve_policy",
    "iterate",
    "reconstruct_full_value",
    "refine_spec",
    "refinement_table",
    "residual",
    "row_types",
    "running_reward",
    "simulate_path",
    "solve",
    "solve_backward",
    "solve_explicit_baseline",
    "stability_bounds",
    "terminal_value",
    "terminal_vector",
    "verify_theorem_conditions",
]

__version__ = "0.1.0"
