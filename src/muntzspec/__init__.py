"""Muntz space-time spectral solver for time-fractional convection-diffusion
equations, with a learned tuner for the basis exponent."""

from .assembly import (
    ManufacturedProblem,
    SpatialOperators,
    TemporalOperators,
    assemble_forcing_1d,
    assemble_forcing_2d,
    assemble_spatial,
    assemble_temporal,
    caputo_power,
)
from .basis import (
    MuntzBasis,
    SpatialBasis,
    jacobi_table,
    legendre_table,
    muntz_jacobi_table,
    muntz_norm,
    muntz_project,
    spatial_table,
)
from .errors import (
    NumericalFailure,
    ParameterDomainError,
    StructuralError,
    TrainingFailure,
)
from .mltune import (
    Dataset,
    Network,
    SolverContext,
    SplineModel,
    TrainingConfig,
    TrainResult,
    batch_loss,
    forward,
    forward_batch,
    generate_dataset,
    load_model,
    load_spline,
    save_dataset,
    save_model,
    save_spline,
    spline_fit,
    spline_predict,
    train,
)
from .quadrature import QuadratureRule, gauss_jacobi, gauss_jacobi_unit
from .solver1d import (
    ErrorReport,
    SolverConfig,
    SpectralSolution,
    error_norms,
    evaluate_grid,
    solve_1d,
)
from .solver2d import (
    FourierLikeBasis,
    Solution2D,
    error_norms_2d,
    evaluate_grid_2d,
    fourier_like_basis,
    solve_2d,
)

__version__ = "0.1.0"
