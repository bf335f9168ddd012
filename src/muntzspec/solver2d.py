"""Space-time solver for the 2D fractional diffusion problem.

The spatial basis is rotated into its Fourier-like form: the orthonormal
eigenvectors of the (mass, identity-stiffness) pair turn both 2D spatial
forms into diagonal matrices, so each rotated spatial mode (kx, ky) couples
only through time:

    a_c St u_c + kappa b_c Mt u_c = f_c,   a_c = nu_kx nu_ky,  b_c = nu_kx + nu_ky.

All K^2 of these real (N+1) x (N+1) systems share the pencil (St, Mt), so
one real generalized Schur form St = Q S Z^T, Mt = Q T Z^T (QZ, with S
quasi-upper-triangular and T upper triangular) turns every one of them into
the quasi-triangular system (a_c S + kappa b_c T) y_c = Q^T f_c, u_c = Z y_c.
These are solved together by one back-substitution over the rows, vectorized
over the modes (Gardiner, Laub, Amato & Moler, ACM TOMS 18, 1992).  Q and Z
are orthogonal, so the solve is backward stable.  The dense Kronecker system
is solved only by the test oracle in tests/test_solver2d.py.

The solve takes the 1D solver's SolverConfig with dimension = 2 and shares
its residual check, time-domain check and ErrorReport.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np
# lu_factor and lu_solve are unused here; they stay importable as
# solver2d.lu_factor/lu_solve because the benchmark tracer (bench/spans.py)
# wraps them, with eigh and qz, by name.
from scipy.linalg import eigh, lu_factor, lu_solve, qz  # noqa: F401

from .assembly import SourceTerm, assemble_forcing_2d, assemble_spatial, assemble_temporal
from .basis import MuntzBasis, SpatialBasis, muntz_jacobi_table, spatial_table
from .errors import NumericalFailure, ParameterDomainError
from .solver1d import (
    ErrorReport,
    SolverConfig,
    _check_residual,
    _check_source,
    _error_report,
    _residual_norm,
    _unit_times,
)

__all__ = [
    "FourierLikeBasis",
    "Solution2D",
    "error_norms_2d",
    "evaluate_grid_2d",
    "fourier_like_basis",
    "sigma_table",
    "solve_2d",
]

@dataclass(frozen=True)
class FourierLikeBasis:
    """Orthonormal spatial rotation diagonalizing mass and stiffness forms.

    transform holds the eigenvectors columnwise; weights holds the mass
    eigenvalues nu_k, ascending and positive.
    """

    spatial: SpatialBasis
    transform: np.ndarray
    weights: np.ndarray


@cache
def fourier_like_basis(m_legendre: int) -> FourierLikeBasis:
    """Rotation for cutoff m_legendre; cached per cutoff, with read-only
    arrays shared by every caller."""
    ops = assemble_spatial(m_legendre)
    weights, transform = eigh(ops.mass)
    if weights.min() <= 0.0:
        raise NumericalFailure("spatial mass matrix lost positive definiteness")
    transform = np.ascontiguousarray(transform)
    transform.flags.writeable = False
    weights.flags.writeable = False
    return FourierLikeBasis(ops.basis, transform, weights)


def sigma_table(fb: FourierLikeBasis, x: np.ndarray) -> np.ndarray:
    """Values of the rotated modes at x, one row per mode."""
    return fb.transform.T @ spatial_table(fb.spatial, np.asarray(x, dtype=float))


def _rotate(fb: FourierLikeBasis, plain: np.ndarray) -> np.ndarray:
    """Coefficients [n, jx * K + jy] in the Legendre-difference basis to the
    rotated basis: T^T P_n T for every temporal index n."""
    k = fb.weights.size
    t = fb.transform
    return (t.T @ plain.reshape(-1, k, k) @ t).reshape(-1, k * k)


@dataclass(frozen=True)
class Solution2D:
    """Solved rotated-basis coefficients plus the solve residual.

    coeffs[n, kx * K + ky] multiplies member_n(t) sigma_kx(x) sigma_ky(y).
    """

    config: SolverConfig
    fourier: FourierLikeBasis
    temporal: MuntzBasis
    coeffs: np.ndarray
    residual: float


def solve_2d(config: SolverConfig, source: SourceTerm) -> Solution2D:
    """One real QZ of the temporal pencil, then one quasi-triangular
    back-substitution vectorized over every rotated spatial mode."""
    if config.dimension != 2:
        raise ParameterDomainError("solve_2d needs a dimension-2 configuration")
    _check_source(config, source)
    fb = fourier_like_basis(config.m_space)
    ops_t = assemble_temporal(config.n_time, config.mu, config.lam)
    st = ops_t.stiffness * config.t_end ** (-config.mu)
    mt = ops_t.mass
    f_plain = assemble_forcing_2d(source, fb.spatial, ops_t.basis, t_end=config.t_end)
    f_sigma = _rotate(fb, f_plain)
    w = fb.weights
    a_diag = np.multiply.outer(w, w).ravel()
    b_diag = np.add.outer(w, w).ravel()
    s, t, q, z = qz(st, mt, output="real")
    # a singular block gives inf or NaN, which the residual check rejects
    with np.errstate(all="ignore"):
        y = _quasi_triangular_solve(s, t, a_diag, config.kappa * b_diag, q.T @ f_sigma)
        coeffs = z @ y
    applied = (st @ coeffs) * a_diag + config.kappa * (mt @ coeffs) * b_diag
    residual = _residual_norm(applied, f_sigma)
    _check_residual(residual)
    coeffs.flags.writeable = False
    return Solution2D(config, fb, ops_t.basis, coeffs, residual)


def _quasi_triangular_solve(
    s: np.ndarray, t: np.ndarray, a: np.ndarray, b: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Solve (a[c] S + b[c] T) y[:, c] = g[:, c] for every column c, with S
    quasi-upper-triangular and T upper triangular, bottom-up over the 1 x 1
    and 2 x 2 diagonal blocks of S.  A 2 x 2 block is solved by elimination
    with partial pivoting, column by column; Cramer's rule would overflow in
    its determinant for b of about 1e154 and above."""
    y = np.empty_like(g)
    hi = s.shape[0]
    while hi > 0:
        lo = hi - 2 if hi > 1 and s[hi - 1, hi - 2] != 0.0 else hi - 1
        rhs = g[lo:hi] - a * (s[lo:hi, hi:] @ y[hi:]) - b * (t[lo:hi, hi:] @ y[hi:])
        block = a * s[lo:hi, lo:hi, None] + b * t[lo:hi, lo:hi, None]
        if hi - lo == 1:
            y[lo] = rhs[0] / block[0, 0]
        else:
            swap = np.abs(block[1, 0]) > np.abs(block[0, 0])
            pivot, other = np.where(swap, block[1], block[0]), np.where(swap, block[0], block[1])
            pivot_rhs, other_rhs = np.where(swap, rhs[1], rhs[0]), np.where(swap, rhs[0], rhs[1])
            factor = other[0] / pivot[0]
            y[lo + 1] = (other_rhs - factor * pivot_rhs) / (other[1] - factor * pivot[1])
            y[lo] = (pivot_rhs - pivot[1] * y[lo + 1]) / pivot[0]
        hi = lo
    return y


def evaluate_grid_2d(
    solution: Solution2D, x: np.ndarray, y: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """Evaluate on the tensor grid, returning shape (len(t), len(x), len(y))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    temporal = muntz_jacobi_table(solution.temporal, _unit_times(t, solution.config.t_end))
    sx = sigma_table(solution.fourier, x)
    sy = sigma_table(solution.fourier, y)
    k = solution.fourier.weights.size
    slices = np.tensordot(temporal, solution.coeffs.reshape(-1, k, k), axes=(0, 0))
    return sx.T @ slices @ sy


def error_norms_2d(
    solution: Solution2D,
    exact: Callable[..., np.ndarray],
    time: float | None = None,
    n_nodes: int = 101,
) -> ErrorReport:
    """Errors against exact(x, t, y=y) on an n_nodes x n_nodes interior grid."""

    def difference(nodes, t_eval):
        approx = evaluate_grid_2d(solution, nodes, nodes, np.array([t_eval]))[0]
        want = exact(nodes[:, None], t_eval, y=nodes[None, :])
        return approx - np.asarray(want, dtype=float)

    return _error_report(solution.config, time, n_nodes, difference)
