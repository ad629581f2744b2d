"""Numerical laboratory for the elliptic random matrix ensemble."""

from .bumps import TestFunction
from .dyson import (
    DysonConvergenceError,
    DysonSolution,
    EllipseRegion,
    EllipticParam,
    SpectralPoint,
    b_from_v,
    elliptic_density,
    m_matrix,
    solve_dyson,
    solve_dyson_grid,
    v_equation_residual,
    v_limit_bulk,
)
from .ensemble import (
    EllipticMatrix,
    EnsembleSpec,
    MomentReport,
    aggregate_moment_test,
    load_matrix,
    moment_self_test,
    rng_policy,
    sample,
    save_matrix,
)
from .harness import (
    ExperimentGrid,
    ExperimentRecord,
    ExperimentReport,
    averaged_local_law,
    delocalisation_test,
    density_map,
    error_matrix_experiment,
    girko_consistency,
    isotropic_local_law,
    linear_statistics,
    monte_carlo_estimate,
    run_experiments,
    small_singular_scan,
)
from .potential import (
    distributional_check,
    log_potential,
    log_potential_derivative_check,
    log_potential_grid,
)
from .spectral import (
    Hermitization,
    ResolventSolver,
    SelfEnergyData,
    SpectralDecomposition,
    decompose,
    error_matrix_norms,
    hermitize,
    log_det_check,
    partial_trace,
    resolvent_trace,
    small_singular_count,
    smallest_singular_value,
)
from .stability import StabilityReport, stability_analysis

__version__ = "0.1.0"
