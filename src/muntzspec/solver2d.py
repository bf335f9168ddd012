"""Space-time solver for the 2D fractional diffusion problem.

The spatial basis is rotated into its Fourier-like form: the orthonormal
eigenvectors of the (mass, identity-stiffness) pair turn both 2D spatial
forms into diagonal matrices, so each rotated spatial mode (kx, ky) couples
only through time:

    a_c St u_c + kappa b_c Mt u_c = f_c,   a_c = nu_kx nu_ky,  b_c = nu_kx + nu_ky.

These real (N+1) x (N+1) systems are solved by batched LU; modes (kx, ky)
and (ky, kx) share one matrix, so each unordered pair is one solve with two
right-hand sides.  The dense Kronecker system is solved only by the test
oracle in tests/test_solver2d.py.

The solve takes the 1D solver's SolverConfig with dimension = 2 and shares
its residual check, time-domain check and ErrorReport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
# qz, lu_factor and lu_solve are unused here; they stay importable as
# solver2d.qz/lu_factor/lu_solve because the benchmark tracer (bench/spans.py)
# wraps them, with eigh, by name.
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

# mode pairs per batched solve: bounds the stacked matrices to a few MB
_PAIR_CHUNK = 256


@dataclass(frozen=True)
class FourierLikeBasis:
    """Orthonormal spatial rotation diagonalizing mass and stiffness forms.

    transform holds the eigenvectors columnwise; weights holds the mass
    eigenvalues nu_k, ascending and positive.
    """

    spatial: SpatialBasis
    transform: np.ndarray
    weights: np.ndarray


def fourier_like_basis(m_legendre: int) -> FourierLikeBasis:
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
    """One real LU per unordered pair of rotated spatial modes, batched over
    the pairs."""
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
    k = w.size
    n1 = st.shape[0]
    kx, ky = np.triu_indices(k)
    # block of pair p = scales[p, 0] St + scales[p, 1] Mt, formed by one GEMM
    scales = np.stack([w[kx] * w[ky], config.kappa * (w[kx] + w[ky])], axis=-1)
    pencil = np.stack([st.ravel(), mt.ravel()])
    cols = np.stack([kx * k + ky, ky * k + kx], axis=-1)  # (pairs, 2)
    coeffs = np.empty_like(f_sigma)
    for lo in range(0, kx.size, _PAIR_CHUNK):
        sl = slice(lo, lo + _PAIR_CHUNK)
        blocks = (scales[sl] @ pencil).reshape(-1, n1, n1)
        rhs = f_sigma[:, cols[sl]].transpose(1, 0, 2)  # (pairs, N+1, 2)
        try:
            sol = np.linalg.solve(blocks, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"singular mode block in the 2D solve: {exc}") from exc
        coeffs[:, cols[sl]] = sol.transpose(1, 0, 2)
    a_diag = np.multiply.outer(w, w).ravel()
    b_diag = np.add.outer(w, w).ravel()
    applied = (st @ coeffs) * a_diag + config.kappa * (mt @ coeffs) * b_diag
    residual = _residual_norm(applied, f_sigma)
    _check_residual(residual, 0.0, False)
    coeffs.flags.writeable = False
    return Solution2D(config, fb, ops_t.basis, coeffs, residual)


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
