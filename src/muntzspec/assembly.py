"""Galerkin operator assembly for the space-time spectral method.

Spatial operators come in closed form from Legendre orthogonality.  Temporal
operators pair the members of `basis.MuntzBasis` (which all vanish at t = 0)
under the Caputo derivative of order mu.  After substituting s = t^lam, the
derivative of a member reduces by a classical Jacobi identity to a plain
polynomial (`MuntzBasis.derivative`), so both operators become weighted
integrals that Gauss-Jacobi rules capture exactly or nearly exactly:

  mass:      one rule with weight s^(1 + 1/lam),
  stiffness: an outer rule with weight s^((1-mu)/lam + 1) over the test
             variable and an inner rule with weight (1-v)^(-mu) over the
             convolution variable, with the smooth remainder
             ((1 - v^(1/lam)) / (1 - v))^(-mu) kept in the summand.

`assemble_temporal` takes one (mu, lam) group or a stack of them.  A stack
is assembled in one pass: each group still builds its own three rules, but
each Jacobi table is one `jacobi_table` call over every group's nodes and
the products are batched matmuls with a leading group axis.  Every group's
operators come out bit for bit as that group alone gives them, and a group
that fails leaves the others untouched.  `_forcing_rules` builds the
forcing time matrices of a stack the same way.

The equation's own parameters (mu, kappa, rho, dimension, t_end) are
validated in one place, `_check_equation`, for both the solver configuration
and the manufactured problems; `SourceTerm` is the one type of a right-hand
side.

Index convention for matrices: [test index, trial index].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Union

import numpy as np

from .basis import (
    MuntzBasis,
    SpatialBasis,
    _power_rows,
    jacobi_table,
    spatial_table,
)
from .errors import NumericalFailure, ParameterDomainError, StructuralError
from .quadrature import gauss_jacobi, gauss_jacobi_unit

__all__ = [
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

LAMBDA_MIN = 0.01


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

    Requires 0 < mu < 1 and a finite nu > 0.  At t = 0 the value follows the power:
    zero for nu > mu, Gamma(nu+1) for nu = mu, +inf for nu < mu.
    """
    if not 0.0 < mu < 1.0:
        raise ParameterDomainError(f"fractional order must lie in (0, 1), got {mu}")
    if not 0.0 < nu < math.inf:
        raise ParameterDomainError(f"power-rule exponent must be positive and finite, got {nu}")
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
    """Mass (symmetric pentadiagonal) and convection (antisymmetric
    bidiagonal) matrices of the Legendre-difference basis.  The stiffness is
    the identity, since the basis derivatives are orthonormal, so the solvers
    write kappa I directly and no matrix is stored for it."""

    basis: SpatialBasis
    mass: np.ndarray
    convection: np.ndarray  # [j, k] = (phi_k', phi_j)


@cache
def assemble_spatial(m_legendre: int) -> SpatialOperators:
    """Operators for cutoff m_legendre; cached per cutoff, with read-only
    arrays shared by every caller."""
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
    for arr in (mass, conv):
        arr.flags.writeable = False
    return SpatialOperators(basis, mass, conv)


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
    [q, n] = (member_n, member_q) of the Muntz-Jacobi family."""

    basis: MuntzBasis
    stiffness: np.ndarray
    mass: np.ndarray


def _check_temporal(mu: float, lam: float) -> None:
    """Domain of one (mu, lam) group of the temporal assembly; the lam floor
    also bounds the rule exponents (1 - mu)/lam + 1 and 1/lam by 101."""
    if not 0.0 < mu < 1.0:
        raise ParameterDomainError(f"fractional order must lie in (0, 1), got {mu}")
    _validate_lambda(lam)


def _rule_stack(rules) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of equal-size rules, one row per rule."""
    return np.array([r.nodes for r in rules]), np.array([r.weights for r in rules])


def assemble_temporal(n: int, mu, lam):
    """Assemble the temporal operators for members 0..n; the inner rule has
    `default_inner_points(n) + 1` points.

    mu and lam are scalars for one group, which returns its
    TemporalOperators or raises.  Equal-length 1-d sequences are a stack of
    (mu, lam) groups assembled in one pass; it returns one entry per group,
    its operators or the error that group alone raised.
    """
    if np.ndim(mu) == 0 and np.ndim(lam) == 0:
        (ops,) = _assemble_temporal_stack(n, [mu], [lam])
        if isinstance(ops, Exception):
            raise ops
        return ops
    return _assemble_temporal_stack(n, mu, lam)


def _assemble_temporal_stack(n: int, mus, lams) -> list:
    """The stacked assembly: each group builds its own three rules, and every
    table, product and scale runs once over all groups with a leading group
    axis.  Every entry is computed by the same operations as a group alone
    would be, so a group's operators do not depend on its companions."""
    if len(mus) != len(lams):
        raise StructuralError("one exponent scale per fractional order")
    outcomes: list = []
    for mu, lam in zip(mus, lams):
        try:
            _check_temporal(mu, lam)
            outcomes.append(MuntzBasis(float(lam), n))
        except ParameterDomainError as exc:
            outcomes.append(exc)
    live = [g for g, b in enumerate(outcomes) if isinstance(b, MuntzBasis)]
    if not live:
        return outcomes
    mu = np.array([float(mus[g]) for g in live])
    lam = np.array([outcomes[g].lam for g in live])
    pref = outcomes[live[0]].prefactors
    dscale = outcomes[live[0]].derivative_scales
    exp_outer = (1.0 - mu) / lam + 1.0

    # mass: exact, one rule; both members contribute a factor s and the
    # substitution contributes s^(1/lam - 1) ds.  Stiffness: an outer rule
    # over the test variable and an inner rule over the convolution variable.
    s_mass, w_mass = _rule_stack([gauss_jacobi_unit(0.0, 1.0 + 1.0 / l, n + 1) for l in lam])
    zeta, w_out = _rule_stack([gauss_jacobi_unit(0.0, e, n + 1) for e in exp_outer])
    zhat, w_in = _rule_stack([gauss_jacobi_unit(-m, 0.0, default_inner_points(n) + 1) for m in mu])
    # the mass and outer nodes share the reduced table: (test, rule, group, node)
    tab = jacobi_table(*MuntzBasis.reduced, n, 2.0 * np.array([s_mass, zeta]) - 1.0)
    ptab = tab[:, 0].transpose(1, 0, 2)  # (group, test, node)
    qtab = tab[:, 1].transpose(1, 0, 2)
    mass = np.outer(pref, pref) * (
        (ptab * w_mass[:, None, :]) @ ptab.transpose(0, 2, 1)
    ) / lam[:, None, None]
    mass = 0.5 * (mass + mass.transpose(0, 2, 1))

    # stiffness: the derivative identity lowers the trial member to the
    # derivative table and cancels the trial prefactor's denominator
    log_zhat = np.log(zhat)
    # (1 - v^(1/lam)) / (1 - v), evaluated stably near v = 1
    smooth = -np.expm1(log_zhat / lam[:, None]) / (1.0 - zhat)
    weights_in = w_in * _power_rows(smooth, -mu)
    args = 2.0 * zeta[:, :, None] * zhat[:, None, :] - 1.0
    jt = jacobi_table(*MuntzBasis.derivative, n, args)  # (trial, group, outer, inner)
    inner = (jt @ weights_in[:, :, None])[..., 0].transpose(1, 0, 2)  # (group, trial, outer)
    core = (qtab * w_out[:, None, :]) @ inner.transpose(0, 2, 1)  # [group, test q, trial n]
    denom = np.array([l * math.gamma(1.0 - m) for m, l in zip(mu, lam)])
    stiffness = np.outer(pref, dscale) * core / denom[:, None, None]
    for k, g in enumerate(live):
        if np.all(np.isfinite(stiffness[k])) and np.all(np.isfinite(mass[k])):
            outcomes[g] = TemporalOperators(outcomes[g], stiffness[k], mass[k])
        else:
            outcomes[g] = NumericalFailure("temporal operator assembly produced non-finite entries")
    return outcomes


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


@cache
def _spatial_forcing_rule(m_legendre: int):
    """Gauss-Legendre nodes x and weights wx of the forcing quadrature and
    the basis table phi there; cached per cutoff, read-only."""
    srule = gauss_jacobi(0.0, 0.0, m_legendre + 10)
    phi = spatial_table(SpatialBasis(m_legendre), srule.nodes)
    phi.flags.writeable = False
    return srule.nodes, srule.weights, phi


def _forcing_rules(sbasis: SpatialBasis, tbases: list[MuntzBasis], t_end: float):
    """Quadrature shared by the forcing assemblers: Gauss-Legendre nodes x,
    weights wx and basis table phi in space; in time, for every basis of a
    stack with one highest index, the physical nodes (one row per basis) and
    the matrix T with T[g, n, k] = w_k * member_n(s_k-form) / lam, so that
    (g, member_n) = sum_k T[g, n, k] g(tau_k)."""
    x, wx, phi = _spatial_forcing_rule(sbasis.m_legendre)
    nmax = tbases[0].nmax
    lam = np.array([b.lam for b in tbases])
    s, w = _rule_stack([gauss_jacobi_unit(0.0, 1.0 / l, 2 * nmax + 20) for l in lam])
    tau = _power_rows(s, 1.0 / lam)
    ptab = jacobi_table(*MuntzBasis.reduced, nmax, 2.0 * s - 1.0).transpose(1, 0, 2)
    tmat = tbases[0].prefactors[:, None] * ptab * w[:, None, :] / lam[:, None, None]
    return x, wx, phi, tau * t_end, tmat


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
    x, wx, phi, t_phys, tmat = _forcing_rules(sbasis, [tbasis], t_end)
    return _project_forcing_1d(_forcing_values_1d(source, x, t_phys[0]), tmat[0], wx, phi)


def _forcing_values_1d(source: SourceTerm, x: np.ndarray, t_phys: np.ndarray) -> np.ndarray:
    """The source on the (time, space) node grid, checked to be finite."""
    f = source.forcing if isinstance(source, ManufacturedProblem) else source
    fvals = np.asarray(f(x[None, :], t_phys[:, None]), dtype=float)
    if fvals.shape != (t_phys.size, x.size):
        raise StructuralError("forcing must broadcast over (time, space) node arrays")
    _check_finite(fvals, "forcing")
    return fvals


def _project_forcing_1d(fvals, tmat, wx, phi) -> np.ndarray:
    """Forcing matrices from node values; fvals and tmat may carry a leading
    source axis, which sources of a stacked solve share."""
    return tmat @ fvals @ (wx[:, None] * phi.T)


def assemble_forcing_2d(
    source: SourceTerm, sbasis: SpatialBasis, tbasis: MuntzBasis, t_end: float = 1.0
) -> np.ndarray:
    """Forcing tensor F[n, jx * (M-1) + jy] = (f, phi_jx phi_jy member_n).

    Separable manufactured sources use two 1D passes; generic callables
    f(x, y, t) are evaluated on the full tensor grid.
    """
    x, wx, phi, t_phys, tmat = _forcing_rules(sbasis, [tbasis], t_end)
    t_phys, tmat = t_phys[0], tmat[0]
    nm = sbasis.n_modes
    if isinstance(source, ManufacturedProblem):
        if source.dim != 2:
            raise StructuralError("2D assembly needs a 2D problem")
        fvals = (
            caputo_power(source.mu, source.nu, t_phys)
            + 2.0 * source.kappa * np.pi**2 * np.power(t_phys, source.nu)
        )
        _check_finite(fvals, "forcing")
        profile = tmat @ fvals
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
