"""Gauss-Jacobi quadrature rules built with the Golub-Welsch algorithm.

A rule for the weight (1-x)^alpha (1+x)^beta on [-1, 1] is obtained from the
eigendecomposition of the symmetric tridiagonal Jacobi matrix of the weight's
three-term recurrence, by LAPACK's tridiagonal eigensolver stevd called
directly (the routine scipy's eigh_tridiagonal picks, with the same bits).
Rules are cached and immutable.  The [0, 1] rules, where the weight becomes
(1-t)^alpha t^beta, are built and cached on their own, with no [-1, 1] rule
in between: the tuner needs three new lambda-keyed ones for every (mu,
lambda) group it solves, so their build is kept to the recurrence, one
stevd call and the affine map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dstevd
from scipy.special import betaln

from .errors import NumericalFailure, ParameterDomainError, StructuralError

__all__ = ["QuadratureRule", "gauss_jacobi", "gauss_jacobi_unit"]

# keys are rounded so that float noise below this resolution hits the same entry
_KEY_DECIMALS = 14
_CACHE_SIZE = 4096


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gauss-Jacobi rule; the builder that returned it
    fixes its weight and interval."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.nodes.ndim != 1 or self.nodes.shape != self.weights.shape:
            raise StructuralError("nodes and weights must be matching 1-d arrays")


def _recurrence(alpha: float, beta: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the n-point Jacobi matrix for the weight."""
    ab = alpha + beta
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)
    if n > 1:
        k = np.arange(1.0, n)
        diag[1:] = (beta * beta - alpha * alpha) / ((2.0 * k + ab) * (2.0 * k + ab + 2.0))
    off = np.empty(n - 1) if n > 1 else np.empty(0)
    if n > 1:
        # k = 1 written in its cancelled form; the generic formula is 0/0 when ab = -1
        off[0] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0))
    if n > 2:
        k = np.arange(2.0, n)
        s = 2.0 * k + ab
        off[1:] = 4.0 * k * (k + alpha) * (k + beta) * (k + ab) / (s * s * (s * s - 1.0))
    return diag, np.sqrt(off)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _golub_welsch(alpha: float, beta: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point [-1, 1] rule: the eigenvalues of the
    Jacobi matrix and the squared first components of its eigenvectors,
    from LAPACK's divide-and-conquer tridiagonal eigensolver stevd."""
    diag, off = _recurrence(alpha, beta, n)
    if n == 1:
        nodes = diag
        first = np.ones(1)
    else:
        nodes, vecs, info = dstevd(diag, off)
        if info != 0:
            raise NumericalFailure(f"tridiagonal eigensolver stevd failed with info={info}")
        first = vecs[0]
    # zeroth moment 2^(a+b+1) B(a+1, b+1), via logs so large parameters do not overflow
    moment0 = math.exp((alpha + beta + 1.0) * math.log(2.0) + betaln(alpha + 1.0, beta + 1.0))
    return nodes, moment0 * first * first


def _check_parameters(alpha: float, beta: float, n: int) -> tuple[float, float, int]:
    """Validated cache key: exponents rounded at 1e-14 resolution."""
    if not (alpha > -1.0 and beta > -1.0):
        raise ParameterDomainError(
            f"Jacobi weight exponents must exceed -1, got alpha={alpha}, beta={beta}"
        )
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ParameterDomainError("Jacobi weight exponents must be finite")
    if n < 1:
        raise ParameterDomainError(f"rule size must be at least 1, got {n}")
    return round(float(alpha), _KEY_DECIMALS), round(float(beta), _KEY_DECIMALS), int(n)


@lru_cache(maxsize=_CACHE_SIZE)
def _gauss_jacobi_cached(alpha: float, beta: float, n: int) -> QuadratureRule:
    nodes, weights = _golub_welsch(alpha, beta, n)
    return QuadratureRule(_freeze(nodes), _freeze(weights))


def gauss_jacobi(alpha: float, beta: float, n: int) -> QuadratureRule:
    """n-point rule for the weight (1-x)^alpha (1+x)^beta on [-1, 1].

    Exact for polynomials of degree <= 2n - 1.  Rules are cached (keys rounded
    at 1e-14 resolution) and returned with read-only arrays, so repeated calls
    share one object and concurrent use is safe.
    """
    return _gauss_jacobi_cached(*_check_parameters(alpha, beta, n))


@lru_cache(maxsize=_CACHE_SIZE)
def _gauss_jacobi_unit_cached(alpha: float, beta: float, n: int) -> QuadratureRule:
    """The [-1, 1] rule mapped to [0, 1]: nodes t = (x + 1)/2, weights divided
    by 2^(alpha+beta+1)."""
    nodes, weights = _golub_welsch(alpha, beta, n)
    nodes = _freeze(0.5 * (nodes + 1.0))
    weights = _freeze(weights * math.exp(-(alpha + beta + 1.0) * math.log(2.0)))
    return QuadratureRule(nodes, weights)


def gauss_jacobi_unit(alpha: float, beta: float, n: int) -> QuadratureRule:
    """Cached n-point rule for the weight (1-t)^alpha t^beta on [0, 1].

    Built straight from the Jacobi matrix, with a cache of its own: the
    many lambda-keyed rules of training never pass through the [-1, 1] cache.
    """
    return _gauss_jacobi_unit_cached(*_check_parameters(alpha, beta, n))
