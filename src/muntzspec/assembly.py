"""Galerkin operator assembly for the space-time spectral method.

Spatial operators come in closed form from Legendre orthogonality.  Temporal
operators pair Muntz-Jacobi members (the (alpha, -1) family, whose members all
vanish at t = 0) under the Caputo derivative of order mu.  After substituting
s = t^lam, the derivative of a member reduces by a classical Jacobi identity
to a plain (alpha+1, 0) polynomial, so both operators become weighted
integrals that Gauss-Jacobi rules capture exactly or nearly exactly:

  mass:      one rule with weight s^(1 + 1/lam),
  stiffness: an outer rule with weight s^((1-mu)/lam + 1) over the test
             variable and an inner rule with weight (1-v)^(-mu) over the
             convolution variable, with the smooth remainder
             ((1 - v^(1/lam)) / (1 - v))^(-mu) kept in the summand.

The equation's own parameters (mu, kappa, rho, dimension, t_end) are
validated in one place, `_check_equation`, for both the solver configuration
and the manufactured problems; `SourceTerm` is the one type of a right-hand
side.

Index convention for matrices: [test index, trial index].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .basis import (
    MuntzBasis,
    SpatialBasis,
    jacobi_table,
    spatial_table,
)
from .errors import (
    ConditioningError,
    NumericalFailure,
    ParameterDomainError,
    StructuralError,
)
from .quadrature import gauss_jacobi, gauss_jacobi_unit

__all__ = [
    "ALPHA_DEFAULT",
    "LAMBDA_MIN",
    "ManufacturedProblem",
    "SpatialOperators",
    "TemporalOperators",
    "assemble_forcing_1d",
    "assemble_forcing_2d",
    "assemble_spatial",
    "assemble_temporal",
    "caputo_power",
    "default_inner_points",
]

ALPHA_DEFAULT = 0.5
LAMBDA_MIN = 0.01
_WEIGHT_EXP_MAX = 1.0e4


def _check_equation(mu: float, kappa: float, rho: float, dim: int, t_end: float) -> None:
    """Domain of the equation's parameters; comparisons are written so that
    NaN fails them, and infinite kappa, rho or t_end are rejected too."""
    if not 0.0 < mu < 1.0:
        raise ParameterDomainError(f"fractional order must lie in (0, 1), got {mu}")
    if not 0.0 < kappa < math.inf:
        raise ParameterDomainError(f"diffusivity must be positive and finite, got {kappa}")
    if not 0.0 <= rho < math.inf:
        raise ParameterDomainError(f"convection speed must be nonnegative and finite, got {rho}")
    if dim not in (1, 2):
        raise ParameterDomainError(f"dimension must be 1 or 2, got {dim}")
    if dim == 2 and rho != 0.0:
        raise ParameterDomainError("the 2D problem supports diffusion only (rho = 0)")
    if not 0.0 < t_end < math.inf:
        raise ParameterDomainError(f"final time must be positive and finite, got {t_end}")


def caputo_power(mu: float, nu: float, t):
    """Caputo derivative of order mu of t^nu: Gamma(nu+1)/Gamma(nu+1-mu) t^(nu-mu).

    Requires 0 < mu < 1 and nu > 0.  At t = 0 the value follows the power:
    zero for nu > mu, Gamma(nu+1) for nu = mu, +inf for nu < mu.
    """
    if not 0.0 < mu < 1.0:
        raise ParameterDomainError(f"fractional order must lie in (0, 1), got {mu}")
    if nu <= 0.0:
        raise ParameterDomainError(f"power-rule exponent must be positive, got {nu}")
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise ParameterDomainError("time values must be nonnegative")
    coef = math.exp(math.lgamma(nu + 1.0) - math.lgamma(nu + 1.0 - mu))
    with np.errstate(divide="ignore"):
        out = coef * np.power(arr, nu - mu)
    return out if np.ndim(t) else float(out)


# ---------------------------------------------------------------------------
# Spatial operators


@dataclass(frozen=True)
class SpatialOperators:
    """Stiffness (identity), mass (symmetric pentadiagonal) and convection
    (antisymmetric bidiagonal) matrices of the Legendre-difference basis."""

    basis: SpatialBasis
    stiffness: np.ndarray
    mass: np.ndarray
    convection: np.ndarray  # [j, k] = (phi_k', phi_j)


def assemble_spatial(m_legendre: int) -> SpatialOperators:
    basis = SpatialBasis(m_legendre)
    nm = basis.n_modes
    c = basis.coeffs
    k = np.arange(nm)
    mass = np.zeros((nm, nm))
    mass[k, k] = c * c * (2.0 / (2.0 * k + 1.0) + 2.0 / (2.0 * k + 5.0))
    j = np.arange(nm - 2)
    band = -c[j] * c[j + 2] * 2.0 / (2.0 * j + 5.0)
    mass[j, j + 2] = band
    mass[j + 2, j] = band
    conv = np.zeros((nm, nm))
    j = np.arange(nm - 1)
    conv[j, j + 1] = 2.0 * c[j] * c[j + 1]
    conv[j + 1, j] = -2.0 * c[j] * c[j + 1]
    return SpatialOperators(basis, np.eye(nm), mass, conv)


# ---------------------------------------------------------------------------
# Temporal operators


def default_inner_points(n: int) -> int:
    """Default truncation of the inner (convolution) rule for n+1 members."""
    return 2 * n + 20


def _validate_lambda(lam: float) -> None:
    if not LAMBDA_MIN <= lam <= 1.0:
        raise ParameterDomainError(
            f"exponent scale must lie in [{LAMBDA_MIN}, 1] (conditioning guard), got {lam}"
        )


@dataclass(frozen=True)
class TemporalOperators:
    """Stiffness [q, n] = (Caputo_mu member_n, member_q) and mass
    [q, n] = (member_n, member_q) of the (alpha, -1) Muntz-Jacobi family."""

    basis: MuntzBasis
    mu: float
    nhat: int
    stiffness: np.ndarray
    mass: np.ndarray


def assemble_temporal(
    n: int, mu: float, lam: float, alpha: float = ALPHA_DEFAULT, nhat: int | None = None
) -> TemporalOperators:
    """Assemble the temporal operators for members 0..n."""
    if not 0.0 < mu < 1.0:
        raise ParameterDomainError(f"fractional order must lie in (0, 1), got {mu}")
    _validate_lambda(lam)
    exp_outer = (1.0 - mu) / lam + 1.0
    if exp_outer > _WEIGHT_EXP_MAX or 1.0 / lam > _WEIGHT_EXP_MAX:
        raise ConditioningError(
            f"mapped weight exponent {exp_outer:.3g} too large to assemble reliably"
        )
    if nhat is None:
        nhat = default_inner_points(n)
    if nhat < 1:
        raise ParameterDomainError(f"inner rule size must be positive, got {nhat}")
    basis = MuntzBasis(alpha, -1.0, lam, n)
    idx = np.arange(n + 1, dtype=float)
    pref = (idx + alpha + 1.0) / (idx + 1.0)

    # mass: exact, one rule; both members contribute a factor s and the
    # substitution contributes s^(1/lam - 1) ds
    mass_rule = gauss_jacobi_unit(0.0, 1.0 + 1.0 / lam, n + 1)
    ptab = jacobi_table(alpha, 1.0, n, 2.0 * mass_rule.nodes - 1.0)
    mass = np.outer(pref, pref) * ((ptab * mass_rule.weights) @ ptab.T) / lam
    mass = 0.5 * (mass + mass.T)

    # stiffness: derivative identity lowers the trial member to the
    # (alpha+1, 0) polynomial and cancels the trial prefactor's denominator
    outer_rule = gauss_jacobi_unit(0.0, exp_outer, n + 1)
    zeta, w_out = outer_rule.nodes, outer_rule.weights
    inner_rule = gauss_jacobi_unit(-mu, 0.0, nhat + 1)
    zhat, w_in = inner_rule.nodes, inner_rule.weights
    log_zhat = np.log(zhat)
    # (1 - v^(1/lam)) / (1 - v), evaluated stably near v = 1
    smooth = -np.expm1(log_zhat / lam) / (1.0 - zhat)
    weights_in = w_in * np.power(smooth, -mu)
    args = 2.0 * zeta[:, None] * zhat[None, :] - 1.0
    jt = jacobi_table(alpha + 1.0, 0.0, n, args)  # (trial, outer, inner)
    inner = jt @ weights_in  # (trial, outer)
    qtab = jacobi_table(alpha, 1.0, n, 2.0 * zeta - 1.0)  # (test, outer)
    core = (qtab * w_out) @ inner.T  # [test q, trial n]
    stiffness = (
        np.outer(pref, idx + alpha + 1.0) * core / (lam * math.gamma(1.0 - mu))
    )
    if not (np.all(np.isfinite(stiffness)) and np.all(np.isfinite(mass))):
        raise NumericalFailure("temporal operator assembly produced non-finite entries")
    return TemporalOperators(basis, mu, nhat, stiffness, mass)


# ---------------------------------------------------------------------------
# Manufactured problems and forcing assembly


@dataclass(frozen=True)
class ManufacturedProblem:
    """Exact solution t^nu sin(pi x) (times sin(pi y) in 2D) with the forcing
    that balances  D_t^mu u - kappa Lap u + rho du/dx = f  on the domain
    [-1, 1]^dim x [0, t_end]."""

    mu: float
    nu: float
    kappa: float = 1.0
    rho: float = 1.0
    dim: int = 1
    t_end: float = 1.0

    def __post_init__(self) -> None:
        _check_equation(self.mu, self.kappa, self.rho, self.dim, self.t_end)
        if not 0.0 < self.nu < math.inf:
            raise ParameterDomainError(
                f"temporal exponent must be positive and finite, got {self.nu}"
            )

    def exact(self, x, t, y=None):
        """Exact solution at physical time t."""
        if self.dim == 1:
            return np.power(t, self.nu) * np.sin(np.pi * np.asarray(x))
        if y is None:
            raise StructuralError("2D problems need the y coordinate")
        return (
            np.power(t, self.nu)
            * np.sin(np.pi * np.asarray(x))
            * np.sin(np.pi * np.asarray(y))
        )

    def forcing(self, x, t, y=None):
        """Balancing forcing at physical time t."""
        x = np.asarray(x)
        tp = np.power(t, self.nu)
        if self.dim == 1:
            return (
                (caputo_power(self.mu, self.nu, t) + self.kappa * np.pi**2 * tp)
                * np.sin(np.pi * x)
                + self.rho * np.pi * tp * np.cos(np.pi * x)
            )
        if y is None:
            raise StructuralError("2D problems need the y coordinate")
        shape = np.sin(np.pi * x) * np.sin(np.pi * np.asarray(y))
        return (
            caputo_power(self.mu, self.nu, t) + 2.0 * self.kappa * np.pi**2 * tp
        ) * shape


SourceTerm = Union[ManufacturedProblem, Callable[..., np.ndarray]]


def _forcing_rules(sbasis: SpatialBasis, tbasis: MuntzBasis, t_end: float):
    """Quadrature shared by the forcing assemblers: Gauss-Legendre nodes x,
    weights wx and basis table phi in space; in time the physical nodes and
    the matrix T with T[n, k] = w_k * member_n(s_k-form), so that
    (g, member_n) = sum_k T[n, k] g(tau_k)."""
    if tbasis.beta != -1.0:
        raise StructuralError("temporal quadrature expects the (alpha, -1) family")
    srule = gauss_jacobi(0.0, 0.0, sbasis.m_legendre + 10)
    x = srule.nodes
    phi = spatial_table(sbasis, x)
    lam = tbasis.lam
    rule = gauss_jacobi_unit(0.0, 1.0 / lam, 2 * tbasis.nmax + 20)
    s = rule.nodes
    tau = np.power(s, 1.0 / lam)
    idx = np.arange(tbasis.n_modes, dtype=float)
    pref = (idx + tbasis.alpha + 1.0) / (idx + 1.0)
    ptab = jacobi_table(tbasis.alpha, 1.0, tbasis.nmax, 2.0 * s - 1.0)
    tmat = pref[:, None] * ptab * rule.weights / lam
    return x, srule.weights, phi, tau * t_end, tmat


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0]
        raise NumericalFailure(f"{what} evaluated non-finite at quadrature node index {tuple(bad)}")


def assemble_forcing_1d(
    source: SourceTerm, sbasis: SpatialBasis, tbasis: MuntzBasis, t_end: float = 1.0
) -> np.ndarray:
    """Forcing matrix F[n, m] = (f, phi_m member_n) over [-1, 1] x [0, 1].

    The time axis is the reference interval; physical sources are evaluated at
    t = tau * t_end.  source is a ManufacturedProblem or a callable f(x, t)
    that broadcasts over arrays.
    """
    x, wx, phi, t_phys, tmat = _forcing_rules(sbasis, tbasis, t_end)
    f = source.forcing if isinstance(source, ManufacturedProblem) else source
    fvals = np.asarray(f(x[None, :], t_phys[:, None]), dtype=float)
    if fvals.shape != (t_phys.size, x.size):
        raise StructuralError("forcing must broadcast over (time, space) node arrays")
    _check_finite(fvals, "forcing")
    return tmat @ fvals @ (wx[:, None] * phi.T)


def assemble_forcing_2d(
    source: SourceTerm, sbasis: SpatialBasis, tbasis: MuntzBasis, t_end: float = 1.0
) -> np.ndarray:
    """Forcing tensor F[n, jx * (M-1) + jy] = (f, phi_jx phi_jy member_n).

    Separable manufactured sources use two 1D passes; generic callables
    f(x, y, t) are evaluated on the full tensor grid.
    """
    x, wx, phi, t_phys, tmat = _forcing_rules(sbasis, tbasis, t_end)
    nm = sbasis.n_modes
    if isinstance(source, ManufacturedProblem):
        if source.dim != 2:
            raise StructuralError("2D assembly needs a 2D problem")
        profile = tmat @ (
            caputo_power(source.mu, source.nu, t_phys)
            + 2.0 * source.kappa * np.pi**2 * np.power(t_phys, source.nu)
        )
        sin_proj = phi @ (wx * np.sin(np.pi * x))
        return profile[:, None] * np.outer(sin_proj, sin_proj).reshape(1, nm * nm)
    fvals = np.asarray(
        source(x[None, :, None], x[None, None, :], t_phys[:, None, None]), dtype=float
    )
    if fvals.shape != (t_phys.size, x.size, x.size):
        raise StructuralError("forcing must broadcast over (time, x, y) node arrays")
    _check_finite(fvals, "forcing")
    wphi = wx[:, None] * phi.T  # (x.size, nm)
    spatial = wphi.T @ fvals @ wphi  # (t_phys.size, nm, nm)
    return tmat @ spatial.reshape(-1, nm * nm)
