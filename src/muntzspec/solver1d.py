"""Direct space-time solver for the 1D fractional convection-diffusion problem.

The discrete unknown is a coefficient matrix U with temporal index down the
rows and spatial index across the columns.  Galerkin testing yields

    St U Mx + kappa Mt U Sx + rho Mt U Cx^T = F,

where St carries the Caputo pairing scaled by t_end^(-mu) (the solve runs on
the unit reference interval) and Cx^T puts the derivative on the trial side.
The system is solved once as a dense Kronecker matrix with an LU
factorization plus a 1-norm condition estimate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .assembly import (
    ALPHA_DEFAULT,
    LAMBDA_MIN,
    ManufacturedProblem,
    SpatialOperators,
    TemporalOperators,
    assemble_forcing_1d,
    assemble_spatial,
    assemble_temporal,
)
from .basis import MuntzBasis, SpatialBasis, muntz_jacobi_table, spatial_table
from .errors import ConditioningError, NumericalFailure, ParameterDomainError

__all__ = [
    "COND_FAIL",
    "COND_WARN",
    "ErrorReport",
    "RESIDUAL_TOL",
    "SolverConfig",
    "SpectralSolution",
    "error_norms",
    "evaluate_grid",
    "solve_1d",
]

COND_WARN = 1.0e12
COND_FAIL = 1.0e15
RESIDUAL_TOL = 1.0e-10
RESIDUAL_WARNED_TOL = 1.0e-6


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and equation parameters.

    m_space is the Legendre cutoff (M-1 interior modes); n_time is the highest
    temporal index (N+1 members).  Times are physical and live in [0, t_end].
    """

    mu: float
    lam: float
    kappa: float = 1.0
    rho: float = 1.0
    m_space: int = 20
    n_time: int = 10
    t_end: float = 1.0
    alpha: float = ALPHA_DEFAULT
    nhat: int | None = None
    dimension: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.mu < 1.0:
            raise ParameterDomainError(f"fractional order must lie in (0, 1), got {self.mu}")
        if not LAMBDA_MIN <= self.lam <= 1.0:
            raise ParameterDomainError(
                f"exponent scale must lie in [{LAMBDA_MIN}, 1], got {self.lam}"
            )
        if self.kappa <= 0.0:
            raise ParameterDomainError(f"diffusivity must be positive, got {self.kappa}")
        if self.rho < 0.0:
            raise ParameterDomainError(f"convection speed must be nonnegative, got {self.rho}")
        if self.m_space < 3:
            raise ParameterDomainError(f"spatial cutoff must be at least 3, got {self.m_space}")
        if self.n_time < 0:
            raise ParameterDomainError(f"temporal index must be nonnegative, got {self.n_time}")
        if self.t_end <= 0.0:
            raise ParameterDomainError(f"final time must be positive, got {self.t_end}")
        if self.alpha <= -1.0:
            raise ParameterDomainError(f"family parameter must exceed -1, got {self.alpha}")
        if self.dimension not in (1, 2):
            raise ParameterDomainError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.dimension == 2 and self.rho != 0.0:
            raise ParameterDomainError("the 2D solver supports diffusion only (rho = 0)")


@dataclass(frozen=True)
class SpectralSolution:
    """Solved coefficients plus the solve diagnostics."""

    config: SolverConfig
    spatial: SpatialBasis
    temporal: MuntzBasis
    coeffs: np.ndarray
    residual: float
    cond_estimate: float
    cond_warning: bool


SourceTerm = Union[ManufacturedProblem, Callable[..., np.ndarray]]


def _check_source(config: SolverConfig, source: SourceTerm) -> None:
    """A manufactured problem must describe the equation the config solves."""
    if not isinstance(source, ManufacturedProblem):
        return
    for name, want, got in (
        ("mu", config.mu, source.mu),
        ("kappa", config.kappa, source.kappa),
        ("rho", config.rho, source.rho),
        ("t_end", config.t_end, source.t_end),
        ("dimension", config.dimension, source.dim),
    ):
        if got != want:
            raise ParameterDomainError(
                f"manufactured problem has {name} = {got}, but the solver config has {want}"
            )


def _condition_estimate(matrix: np.ndarray, lu: np.ndarray) -> float:
    gecon, = get_lapack_funcs(("gecon",), (matrix,))
    anorm = np.linalg.norm(matrix, 1)
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0:
        raise NumericalFailure(f"condition estimator failed with info={info}")
    return float(1.0 / rcond) if rcond > 0.0 else np.inf


def _check_conditioning(cond: float, shape: str) -> bool:
    """Warn above the first tier; an estimate above the second tier only
    becomes an error if the computed residual confirms the breakdown."""
    if cond > COND_WARN:
        warnings.warn(
            f"{shape} system condition estimate {cond:.3e} exceeds {COND_WARN:.0e}; "
            "accuracy is monitored through the residual",
            RuntimeWarning,
            stacklevel=3,
        )
        return True
    return False


def _check_residual(residual: float, cond: float, warned: bool) -> None:
    tol = RESIDUAL_WARNED_TOL if warned else RESIDUAL_TOL
    if residual <= tol:
        return
    if cond > COND_FAIL:
        raise ConditioningError(
            f"system condition estimate {cond:.3e} with residual {residual:.3e}: "
            "the solve broke down"
        )
    raise NumericalFailure(f"solve residual {residual:.3e} exceeds {tol:.0e}")


def _check_pivots(lu: np.ndarray) -> None:
    diag = np.abs(np.diag(lu))
    if not np.all(np.isfinite(diag)) or diag.min() == 0.0:
        ratio = 0.0 if diag.max() == 0.0 else diag.min() / diag.max()
        raise NumericalFailure(f"singular system: pivot ratio {ratio:.3e}")


def _residual_norm(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = np.linalg.norm(rhs)
    diff = np.linalg.norm(lhs - rhs)
    return float(diff / scale) if scale > 0.0 else float(diff)


def solve_1d(config: SolverConfig, source: SourceTerm) -> SpectralSolution:
    """Assemble and solve the 1D problem for the given source term."""
    if config.dimension != 1:
        raise ParameterDomainError("solve_1d needs a dimension-1 configuration")
    _check_source(config, source)
    ops_x = assemble_spatial(config.m_space)
    ops_t = assemble_temporal(
        config.n_time, config.mu, config.lam, alpha=config.alpha, nhat=config.nhat
    )
    st = ops_t.stiffness * config.t_end ** (-config.mu)
    mt = ops_t.mass
    mx, cx = ops_x.mass, ops_x.convection
    forcing = assemble_forcing_1d(
        source, ops_x.basis, ops_t.basis, t_end=config.t_end
    )
    system = (
        np.kron(mx, st)
        + config.kappa * np.kron(np.eye(mx.shape[0]), mt)
        + config.rho * np.kron(cx, mt)
    )
    lu, piv = lu_factor(system)
    _check_pivots(lu)
    cond = _condition_estimate(system, lu)
    warned = _check_conditioning(cond, "1D")
    vec = lu_solve((lu, piv), forcing.ravel(order="F"))
    coeffs = vec.reshape(forcing.shape, order="F")
    applied = st @ coeffs @ mx + config.kappa * mt @ coeffs + config.rho * mt @ coeffs @ cx.T
    residual = _residual_norm(applied, forcing)
    _check_residual(residual, cond, warned)
    coeffs.flags.writeable = False
    return SpectralSolution(
        config, ops_x.basis, ops_t.basis, coeffs, residual, cond, warned
    )


def evaluate_grid(solution: SpectralSolution, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Evaluate on the tensor grid of spatial points x and physical times t.

    Returns values with shape (len(t), len(x)).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    t_end = solution.config.t_end
    if np.any(t < 0.0) or np.any(t > t_end):
        raise ParameterDomainError(f"times must lie in [0, {t_end}]")
    temporal = muntz_jacobi_table(solution.temporal, t / t_end)
    spatial = spatial_table(solution.spatial, x)
    return temporal.T @ solution.coeffs @ spatial


@dataclass(frozen=True)
class ErrorReport:
    """Discrete error norms on a uniform interior grid at one time."""

    l2: float
    linf: float
    time: float
    n_nodes: int


def error_norms(
    solution: SpectralSolution,
    exact: Callable[[np.ndarray, float], np.ndarray],
    time: float | None = None,
    n_nodes: int = 1000,
) -> ErrorReport:
    """Root-mean-square and max errors against exact(x, t) at one time slice."""
    if n_nodes < 1:
        raise ParameterDomainError(f"node count must be positive, got {n_nodes}")
    t_eval = solution.config.t_end if time is None else float(time)
    nodes = np.linspace(-1.0, 1.0, n_nodes + 2)[1:-1]
    approx = evaluate_grid(solution, nodes, np.array([t_eval]))[0]
    diff = approx - np.asarray(exact(nodes, t_eval), dtype=float)
    l2 = float(np.sqrt(np.mean(diff**2)))
    linf = float(np.max(np.abs(diff)))
    return ErrorReport(l2, linf, t_eval, n_nodes)
