"""Polynomial bases: Jacobi and Legendre tables, the Muntz-Jacobi family with
fractional argument t^lambda, and the Legendre-difference spatial basis.

The Muntz-Jacobi family generalizes Jacobi polynomials to exponents -1 in
either weight parameter.  Writing s = t^lambda, every member factors as

    prefactor(n) * s^p1 * (1-s)^p2 * P_n^{a,b}(2s - 1)

with (p1, p2, a, b) fixed by which parameters equal -1.  The factored form is
what makes weighted quadrature exact after the s-substitution, and it is used
throughout assembly and projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
    (tens of modes).  Requires alpha, beta > -1.
    """
    if not (alpha > -1.0 and beta > -1.0):
        raise ParameterDomainError(
            f"Jacobi parameters must exceed -1, got alpha={alpha}, beta={beta}"
        )
    if nmax < 0:
        raise ParameterDomainError(f"highest degree must be >= 0, got {nmax}")
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 0.5 * (alpha + beta + 2.0) * x + 0.5 * (alpha - beta)
    ab = alpha + beta
    for k in range(2, nmax + 1):
        c1 = 2.0 * k * (k + ab) * (2.0 * k + ab - 2.0)
        c2 = (2.0 * k + ab - 1.0) * (2.0 * k + ab) * (2.0 * k + ab - 2.0)
        c3 = (2.0 * k + ab - 1.0) * (alpha * alpha - beta * beta)
        c4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + ab)
        out[k] = ((c2 * x + c3) * out[k - 1] - c4 * out[k - 2]) / c1
    return out


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


@dataclass(frozen=True)
class MuntzBasis:
    """Truncated Muntz-Jacobi family with parameters (alpha, beta), exponent
    scale lam, and members indexed n = 0..n_modes-1."""

    alpha: float
    beta: float
    lam: float
    nmax: int

    def __post_init__(self) -> None:
        if self.alpha < -1.0 or self.beta < -1.0:
            raise ParameterDomainError(
                f"parameters must be >= -1, got alpha={self.alpha}, beta={self.beta}"
            )
        if not (0.0 < self.lam <= 1.0):
            raise ParameterDomainError(f"exponent scale must lie in (0, 1], got {self.lam}")
        if self.nmax < 0:
            raise ParameterDomainError(f"highest index must be >= 0, got {self.nmax}")

    @property
    def offset(self) -> int:
        """Index offset of the lowest retained member (0, 1 or 2)."""
        return int(self.alpha == -1.0) + int(self.beta == -1.0)

    @property
    def n_modes(self) -> int:
        return self.nmax + 1


def _branch(basis: MuntzBasis) -> tuple[int, int, float, float]:
    """(p1, p2, inner_alpha, inner_beta) of the factored form in s = t^lam."""
    a, b = basis.alpha, basis.beta
    if a == -1.0 and b == -1.0:
        return 1, 1, 1.0, 1.0
    if b == -1.0:
        return 1, 0, a, 1.0
    if a == -1.0:
        return 0, 1, 1.0, b
    return 0, 0, a, b


def _prefactors(basis: MuntzBasis) -> np.ndarray:
    """Scalar prefactor of each member (includes the sign of the doubly-degenerate branch)."""
    n = np.arange(basis.n_modes, dtype=float)
    a, b = basis.alpha, basis.beta
    if a == -1.0 and b == -1.0:
        return -np.ones(basis.n_modes)
    if b == -1.0:
        return (n + a + 1.0) / (n + 1.0)
    if a == -1.0:
        return (n + b + 1.0) / (n + 1.0)
    return np.ones(basis.n_modes)


def _check_time_domain(t: np.ndarray) -> None:
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise ParameterDomainError("evaluation points must lie in [0, 1]")


def muntz_jacobi_table(basis: MuntzBasis, t) -> np.ndarray:
    """Values of all members at points t in [0, 1], one row per index n.

    t = 0 and t = 1 are exact: s = t^lam is computed first and the boundary
    factors s, 1-s vanish exactly there.
    """
    t = np.asarray(t, dtype=float)
    _check_time_domain(t)
    s = np.power(t, basis.lam)
    p1, p2, a, b = _branch(basis)
    table = jacobi_table(a, b, basis.nmax, 2.0 * s - 1.0)
    factor = np.ones_like(s)
    if p1:
        factor = factor * s
    if p2:
        factor = factor * (1.0 - s)
    pref = _prefactors(basis).reshape((basis.n_modes,) + (1,) * t.ndim)
    return pref * factor * table


def muntz_norm(basis: MuntzBasis, n: int) -> float:
    """Squared weighted norm of member n under the family's own weight.

    The weight is lam (1-t^lam)^alpha t^((beta+1) lam - 1); the norm depends
    only on (alpha, beta) and the absolute index n + offset.
    """
    if not 0 <= n <= basis.nmax:
        raise ParameterDomainError(f"index must lie in 0..{basis.nmax}, got {n}")
    m = n + basis.offset
    a, b = basis.alpha, basis.beta
    logval = (
        gammaln(m + a + 1.0)
        + gammaln(m + b + 1.0)
        - gammaln(m + 1.0)
        - gammaln(m + a + b + 1.0)
    )
    return math.exp(logval) / (2.0 * m + a + b + 1.0)


def muntz_project(
    f: Callable[[np.ndarray], np.ndarray], basis: MuntzBasis, n_quad: int
) -> tuple[np.ndarray, float]:
    """Weighted-orthogonal projection of f onto the truncated family.

    f must accept an array of points in [0, 1].  Integrals are evaluated after
    the substitution s = t^lam with a Gauss-Jacobi rule whose weight absorbs
    the family's boundary factors, so in-span integrands are exact.  Returns
    the coefficients and the discrete weighted L2 truncation error at the
    quadrature nodes.
    """
    if n_quad < basis.n_modes:
        raise ParameterDomainError(
            f"need at least {basis.n_modes} quadrature points, got {n_quad}"
        )
    p1, p2, a, b = _branch(basis)
    rule = gauss_jacobi_unit(basis.alpha + p2, basis.beta + p1, n_quad)
    s = rule.nodes
    t_nodes = np.power(s, 1.0 / basis.lam)
    fv = np.asarray(f(t_nodes), dtype=float)
    if fv.shape != s.shape:
        raise ParameterDomainError("f must return one value per evaluation point")
    poly = jacobi_table(a, b, basis.nmax, 2.0 * s - 1.0)
    norms = np.array([muntz_norm(basis, k) for k in range(basis.n_modes)])
    coeffs = _prefactors(basis) * (poly @ (rule.weights * fv)) / norms
    resid = fv - coeffs @ muntz_jacobi_table(basis, t_nodes)
    dev = rule.weights * resid * resid
    if p1:
        dev = dev / s
    if p2:
        dev = dev / (1.0 - s)
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


def _check_space_domain(x: np.ndarray) -> None:
    if not np.all((x >= -1.0) & (x <= 1.0)):
        raise ParameterDomainError("evaluation points must lie in [-1, 1]")


def spatial_table(basis: SpatialBasis, x) -> np.ndarray:
    """Values of all members at x, one row per mode.  Exactly zero at x = +-1."""
    x = np.asarray(x, dtype=float)
    _check_space_domain(x)
    leg = legendre_table(basis.m_legendre, x)
    nm = basis.n_modes
    return basis.coeffs.reshape((nm,) + (1,) * x.ndim) * (leg[:nm] - leg[2 : nm + 2])
