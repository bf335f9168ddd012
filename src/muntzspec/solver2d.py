"""Space-time solver for the 2D fractional diffusion problem.

The spatial basis is rotated into its Fourier-like form: the orthonormal
eigenvectors of the (mass, identity-stiffness) pair turn both 2D spatial
forms into diagonal matrices, so each rotated spatial mode (kx, ky) couples
only through time:

    a_c St u_c + kappa b_c Mt u_c = f_c,   a_c = nu_kx nu_ky,  b_c = nu_kx + nu_ky.

The fast path solves these real (N+1) x (N+1) systems by batched LU; modes
(kx, ky) and (ky, kx) share one matrix, so each unordered pair is one solve
with two right-hand sides.  The dense path solves the unrotated Kronecker
system as one LU and serves as the independent cross-checking oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
# qz is unused here; it stays importable as solver2d.qz because the benchmark
# tracer (bench/spans.py) wraps it, with eigh, lu_factor and lu_solve, by name.
from scipy.linalg import eigh, lu_factor, lu_solve, qz  # noqa: F401

from .assembly import (
    ManufacturedProblem,
    assemble_forcing_2d,
    assemble_spatial,
    assemble_temporal,
)
from .basis import MuntzBasis, SpatialBasis, muntz_jacobi_table, spatial_table
from .errors import NumericalFailure, ParameterDomainError
from .solver1d import SolverConfig, _check_source, _residual_norm

__all__ = [
    "DENSE_SIZE_LIMIT",
    "ErrorReport2D",
    "FourierLikeBasis",
    "Solution2D",
    "error_norms_2d",
    "evaluate_grid_2d",
    "fourier_like_basis",
    "sigma_table",
    "solve_2d",
    "solve_2d_dense",
]

DENSE_SIZE_LIMIT = 20000
RESIDUAL_TOL = 1.0e-10
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


SourceTerm = Union[ManufacturedProblem, Callable[..., np.ndarray]]


def _assemble_2d(config: SolverConfig, source: SourceTerm):
    if config.dimension != 2:
        raise ParameterDomainError("solve_2d needs a dimension-2 configuration")
    _check_source(config, source)
    fb = fourier_like_basis(config.m_space)
    ops_t = assemble_temporal(
        config.n_time, config.mu, config.lam, alpha=config.alpha, nhat=config.nhat
    )
    st = ops_t.stiffness * config.t_end ** (-config.mu)
    f_plain = assemble_forcing_2d(source, fb.spatial, ops_t.basis, t_end=config.t_end)
    return fb, ops_t, st, ops_t.mass, f_plain


def _check_residual(residual: float) -> None:
    if residual > RESIDUAL_TOL:
        raise NumericalFailure(f"2D solve residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}")


def solve_2d(config: SolverConfig, source: SourceTerm) -> Solution2D:
    """Fast path: one real LU per unordered pair of rotated spatial modes,
    batched over the pairs."""
    fb, ops_t, st, mt, f_plain = _assemble_2d(config, source)
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
    _check_residual(residual)
    coeffs.flags.writeable = False
    return Solution2D(config, fb, ops_t.basis, coeffs, residual)


def solve_2d_dense(config: SolverConfig, source: SourceTerm) -> Solution2D:
    """Oracle path: the unrotated Kronecker system

        St (x) (Mx (x) Mx) + kappa Mt (x) (I (x) Mx + Mx (x) I)

    solved as one dense LU; only the solved coefficients are rotated, so
    that they compare with the fast path's."""
    n_unknowns = (config.n_time + 1) * (config.m_space - 1) ** 2
    if n_unknowns > DENSE_SIZE_LIMIT:
        raise ParameterDomainError(
            f"dense 2D path limited to {DENSE_SIZE_LIMIT} unknowns, got {n_unknowns}"
        )
    fb, ops_t, st, mt, f_plain = _assemble_2d(config, source)
    mx = assemble_spatial(config.m_space).mass
    eye = np.eye(mx.shape[0])
    system = np.kron(st, np.kron(mx, mx)) + config.kappa * np.kron(
        mt, np.kron(eye, mx) + np.kron(mx, eye)
    )
    lu, piv = lu_factor(system)
    diag = np.abs(np.diag(lu))
    if diag.min() == 0.0 or not np.all(np.isfinite(diag)):
        raise NumericalFailure("dense 2D system is singular")
    vec = lu_solve((lu, piv), f_plain.ravel())
    residual = _residual_norm(system @ vec, f_plain.ravel())
    _check_residual(residual)
    coeffs = _rotate(fb, vec.reshape(f_plain.shape))
    coeffs.flags.writeable = False
    return Solution2D(config, fb, ops_t.basis, coeffs, residual)


def evaluate_grid_2d(
    solution: Solution2D, x: np.ndarray, y: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """Evaluate on the tensor grid, returning shape (len(t), len(x), len(y))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    t_end = solution.config.t_end
    if np.any(t < 0.0) or np.any(t > t_end):
        raise ParameterDomainError(f"times must lie in [0, {t_end}]")
    temporal = muntz_jacobi_table(solution.temporal, t / t_end)
    sx = sigma_table(solution.fourier, x)
    sy = sigma_table(solution.fourier, y)
    k = solution.fourier.weights.size
    slices = np.tensordot(temporal, solution.coeffs.reshape(-1, k, k), axes=(0, 0))
    return sx.T @ slices @ sy


@dataclass(frozen=True)
class ErrorReport2D:
    """Pointwise and RMS errors on the uniform interior tensor grid."""

    l2: float
    linf: float
    time: float
    n_nodes: int


def error_norms_2d(
    solution: Solution2D,
    exact: Callable[..., np.ndarray],
    time: float | None = None,
    n_nodes: int = 101,
) -> ErrorReport2D:
    """Errors against exact(x, t, y=y) on an n_nodes x n_nodes interior grid."""
    if n_nodes < 1:
        raise ParameterDomainError(f"node count must be positive, got {n_nodes}")
    t_eval = solution.config.t_end if time is None else float(time)
    nodes = np.linspace(-1.0, 1.0, n_nodes + 2)[1:-1]
    approx = evaluate_grid_2d(solution, nodes, nodes, np.array([t_eval]))[0]
    want = np.asarray(exact(nodes[:, None], t_eval, y=nodes[None, :]), dtype=float)
    diff = approx - want
    l2 = float(np.sqrt(np.mean(diff**2)))
    linf = float(np.max(np.abs(diff)))
    return ErrorReport2D(l2, linf, t_eval, n_nodes)
