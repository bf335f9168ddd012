"""Polynomial bases: Jacobi and Legendre tables, the Muntz-Jacobi temporal
family with fractional argument t^lambda, and the Legendre-difference spatial
basis.

Writing s = t^lambda, the temporal members, which span {t^((k+1) lambda)},
and their s-derivatives are

    member_n = pref_n * s * P_n^(ALPHA, 1)(2s - 1),   pref_n = (n + ALPHA + 1) / (n + 1),
    d/ds member_n = (n + ALPHA + 1) * P_n^(ALPHA + 1, 0)(2s - 1),

with ALPHA = 1/2.  This factored form makes weighted quadrature exact after
the s-substitution; `MuntzBasis` carries its parameters for assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np
from scipy.special import gammaln

from .errors import ParameterDomainError
from .quadrature import gauss_jacobi_unit

__all__ = [
    "MuntzBasis",
    "SpatialBasis",
    "jacobi_table",
    "legendre_table",
    "muntz_jacobi_table",
    "muntz_norm",
    "muntz_project",
    "spatial_table",
]


def jacobi_table(alpha: float, beta: float, nmax: int, x: np.ndarray) -> np.ndarray:
    """Values of the Jacobi polynomials P_0..P_nmax at x, one row per degree.

    Ascending three-term recurrence; stable for the degree range used here
    (tens of modes).  Requires alpha, beta > -1.  The recurrence runs on the
    flattened points with in-place products, which is cheaper for the
    stacked tables and leaves every value as it is.
    """
    if not (alpha > -1.0 and beta > -1.0):
        raise ParameterDomainError(
            f"Jacobi parameters must exceed -1, got alpha={alpha}, beta={beta}"
        )
    if nmax < 0:
        raise ParameterDomainError(f"highest degree must be >= 0, got {nmax}")
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.ravel()
    out = np.empty((nmax + 1, x.size))
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 0.5 * (alpha + beta + 2.0) * x + 0.5 * (alpha - beta)
    ab = alpha + beta
    lead = np.empty(x.size)
    for k in range(2, nmax + 1):
        c1 = 2.0 * k * (k + ab) * (2.0 * k + ab - 2.0)
        c2 = (2.0 * k + ab - 1.0) * (2.0 * k + ab) * (2.0 * k + ab - 2.0)
        c3 = (2.0 * k + ab - 1.0) * (alpha * alpha - beta * beta)
        c4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + ab)
        # out[k] = ((c2 x + c3) out[k-1] - c4 out[k-2]) / c1
        row = out[k]
        np.multiply(x, c2, lead)
        lead += c3
        lead *= out[k - 1]
        np.multiply(out[k - 2], c4, row)
        np.subtract(lead, row, row)
        row /= c1
    return out.reshape((nmax + 1,) + shape)


def legendre_table(nmax: int, x: np.ndarray) -> np.ndarray:
    """Values of the Legendre polynomials L_0..L_nmax at x, one row per degree."""
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = x
    for k in range(2, nmax + 1):
        out[k] = ((2.0 * k - 1.0) * x * out[k - 1] - (k - 1.0) * out[k - 2]) / k
    return out


# ---------------------------------------------------------------------------
# Muntz-Jacobi family

ALPHA = 0.5  # the family's first Jacobi parameter; the second is 1


@dataclass(frozen=True)
class MuntzBasis:
    """Truncated Muntz-Jacobi family with exponent scale lam and members
    indexed n = 0..nmax."""

    lam: float
    nmax: int

    # Jacobi parameters of member_n / (pref_n s) and d/ds member_n / (n + ALPHA + 1)
    reduced: ClassVar[tuple[float, float]] = (ALPHA, 1.0)
    derivative: ClassVar[tuple[float, float]] = (ALPHA + 1.0, 0.0)

    def __post_init__(self) -> None:
        if not (0.0 < self.lam <= 1.0):
            raise ParameterDomainError(f"exponent scale must lie in (0, 1], got {self.lam}")
        if self.nmax < 0:
            raise ParameterDomainError(f"highest index must be >= 0, got {self.nmax}")

    @property
    def n_modes(self) -> int:
        return self.nmax + 1

    @property
    def derivative_scales(self) -> np.ndarray:
        """n + ALPHA + 1, the factor of the derivative table in d/ds member_n."""
        return np.arange(self.n_modes, dtype=float) + ALPHA + 1.0

    @property
    def prefactors(self) -> np.ndarray:
        """pref_n = (n + ALPHA + 1) / (n + 1)."""
        return self.derivative_scales / (np.arange(self.n_modes, dtype=float) + 1.0)


def _power_rows(base: np.ndarray, exponents) -> np.ndarray:
    """np.power(base[g], exponents[g]) for every row g, each with a scalar
    exponent: numpy rounds some scalar powers (x^2, x^0.5, x^-1) by other
    paths than an array of exponents, so a row of a stack gets the bits the
    same call on that row alone gives."""
    return np.array([np.power(row, float(e)) for row, e in zip(base, exponents)])


def muntz_jacobi_table(basis: MuntzBasis, t) -> np.ndarray:
    """Values of all members at points t in [0, 1], one row per index n.

    t = 0 is exact: s = t^lam is computed first and the factor s vanishes
    exactly there.
    """
    t = np.asarray(t, dtype=float)
    return _muntz_table_stack([basis], t[None])[:, 0]


def _muntz_table_stack(bases: list[MuntzBasis], t) -> np.ndarray:
    """Members of bases sharing one highest index, at points t[g] for basis
    g: shape (n, g) + t[g].shape, each entry as `muntz_jacobi_table` gives
    it for its basis alone."""
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise ParameterDomainError("evaluation points must lie in [0, 1]")
    s = _power_rows(t, [b.lam for b in bases])
    table = jacobi_table(*MuntzBasis.reduced, bases[0].nmax, 2.0 * s - 1.0)
    pref = bases[0].prefactors.reshape((bases[0].n_modes,) + (1,) * t.ndim)
    return pref * s * table


def muntz_norm(basis: MuntzBasis, n: int) -> float:
    """Squared weighted norm of member n under the family's own weight
    lam (1-t^lam)^ALPHA / t; it does not depend on lam."""
    if not 0 <= n <= basis.nmax:
        raise ParameterDomainError(f"index must lie in 0..{basis.nmax}, got {n}")
    logval = (
        gammaln(n + ALPHA + 2.0)
        + gammaln(n + 1.0)
        - gammaln(n + 2.0)
        - gammaln(n + ALPHA + 1.0)
    )
    return math.exp(logval) / (2.0 * n + ALPHA + 2.0)


def muntz_project(
    f: Callable[[np.ndarray], np.ndarray], basis: MuntzBasis, n_quad: int
) -> tuple[np.ndarray, float]:
    """Weighted-orthogonal projection of f onto the truncated family.

    f must accept an array of points in [0, 1].  Integrals are evaluated after
    the substitution s = t^lam, where the family's weight becomes
    (1-s)^ALPHA / s and the members' factor s cancels its 1/s, with a
    Gauss-Jacobi rule for (1-s)^ALPHA, so in-span integrands are exact.
    Returns the coefficients and the discrete weighted L2 truncation error at
    the quadrature nodes.
    """
    if n_quad < basis.n_modes:
        raise ParameterDomainError(
            f"need at least {basis.n_modes} quadrature points, got {n_quad}"
        )
    rule = gauss_jacobi_unit(ALPHA, 0.0, n_quad)
    s = rule.nodes
    t_nodes = np.power(s, 1.0 / basis.lam)
    fv = np.asarray(f(t_nodes), dtype=float)
    if fv.shape != s.shape:
        raise ParameterDomainError("f must return one value per evaluation point")
    poly = jacobi_table(*basis.reduced, basis.nmax, 2.0 * s - 1.0)
    norms = np.array([muntz_norm(basis, k) for k in range(basis.n_modes)])
    coeffs = basis.prefactors * (poly @ (rule.weights * fv)) / norms
    resid = fv - coeffs @ muntz_jacobi_table(basis, t_nodes)
    dev = rule.weights * resid * resid / s
    return coeffs, math.sqrt(max(float(np.sum(dev)), 0.0))


# ---------------------------------------------------------------------------
# Spatial basis: differences of Legendre polynomials vanishing at x = +-1


@dataclass(frozen=True)
class SpatialBasis:
    """Basis c_m (L_m - L_{m+2}), m = 0..m_legendre-2, on [-1, 1].

    All members vanish at both endpoints and their derivatives are orthonormal
    in L2, which renders the stiffness matrix the identity.
    """

    m_legendre: int

    def __post_init__(self) -> None:
        if self.m_legendre < 3:
            raise ParameterDomainError(
                f"need at least 3 Legendre modes, got {self.m_legendre}"
            )

    @property
    def n_modes(self) -> int:
        return self.m_legendre - 1

    @property
    def coeffs(self) -> np.ndarray:
        return 1.0 / np.sqrt(4.0 * np.arange(self.n_modes) + 6.0)


def spatial_table(basis: SpatialBasis, x) -> np.ndarray:
    """Values of all members at x, one row per mode.  Exactly zero at x = +-1."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= -1.0) & (x <= 1.0)):
        raise ParameterDomainError("evaluation points must lie in [-1, 1]")
    leg = legendre_table(basis.m_legendre, x)
    nm = basis.n_modes
    return basis.coeffs.reshape((nm,) + (1,) * x.ndim) * (leg[:nm] - leg[2 : nm + 2])
