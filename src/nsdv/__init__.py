"""1D compressible Navier-Stokes with degenerate viscosity mu(rho) = rho**alpha:
Eulerian and Lagrangian solvers plus a diagnostics engine for the effective
velocity/flux/pressure quantities and their a priori estimate monitors."""

from .diagnostics import (
    DiagnosticSeries,
    bd_entropy,
    build_series,
    bv_norm,
    energy,
)
from .effective import (
    EffectiveFields,
    compute_effective_fields,
    convective_derivative,
    effective_flux,
    effective_pressure,
    effective_velocity,
    y_residual,
)
from .errors import (
    ConfigError,
    DomainError,
    DomainExitError,
    HomeomorphismError,
    InputError,
    NumericalFailure,
    ShapeError,
    VacuumBlowup,
)
from .eulerian import (
    SolverConfig,
    Trajectory,
    run,
    stable_dt,
    step_effective,
    step_primitive,
)
from .initdata import (
    InitialData,
    ScenarioConfig,
    build_initial,
    manufactured_exact,
    manufactured_source,
    mollify,
    regression_scenarios,
    validate_config,
)
from .lagrangian import (
    FlowMap,
    LagrangianTrajectory,
    integrate_flow,
    lagrangian_density,
    run_lagrangian,
    step_lagrangian,
    to_eulerian,
    to_lagrangian,
    v_lagrangian_decay,
)
from .model import (
    RHO_FLOOR,
    FluidState,
    Grid1D,
    ModelParams,
    f1,
    f1f2,
    f1prime_rho_over_mu,
    f2,
    internal_energy,
    phi,
    pressure,
    viscosity,
)
from .stability import TwinReport, twin_run_stability
from .stencils import ddx, ddx_upwind, solve_tridiagonal

__version__ = "0.1.0"
