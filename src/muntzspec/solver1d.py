"""Direct space-time solver for the 1D fractional convection-diffusion problem.

The discrete unknown is a coefficient matrix U with temporal index down the
rows and spatial index across the columns.  Galerkin testing yields

    St U Mx + kappa Mt U Sx + rho Mt U Cx^T = F,

where St carries the Caputo pairing scaled by t_end^(-mu) (the solve runs on
the unit reference interval) and Cx^T puts the derivative on the trial side.
Ordered space-major (the Fortran-order ravel of U), the system matrix
Mx (x) St + kappa I (x) Mt + rho Cx (x) Mt is block-pentadiagonal: the mass Mx
couples spatial modes k and k +- 2, the convection Cx couples k and k +- 1.
Its blocks are written straight into LAPACK band storage with
kl = ku = 3(N+1) - 1 and solved by one banded partial-pivot LU (gbtrf/gbtrs);
the dense n x n matrix is never formed.

The matrix depends only on the configuration, so sources under equal
configurations share one factorization: every forcing is one more column
of a single gbtrs call.  `solve_1d_batch` takes one configuration per
source (the configurations may differ only in mu and lam), groups the
sources of equal configurations itself and solves every group in one
stacked pass: the temporal operators, the forcing time matrices, the
forcing projections, the band matrices and the residuals are each built
once over the stack with a leading group or source axis; only the banded
LU and its back-substitution run per group, since LAPACK has no batched
band LU.  A failure of a group's shared system (temporal assembly,
factorization) fails every source of that group, and each source keeps its
own cross-check, forcing and residual check.
`solve_1d` is the one-source call of the same pass; every solution is bit
for bit the one its source solved alone gives.

A solve passes when its relative residual ||F - AU|| / ||F|| (Frobenius,
computed with an exact power-of-two scaling so that huge forcings do not
overflow it) is at most RESIDUAL_TOL; otherwise it raises NumericalFailure.
This normwise backward error (Rigal & Gaches, J. ACM 14, 1967) is the one
pass/fail rule of both dimensions.  The solution's condition estimate is
computed when first read, by one more banded LU, and gates nothing.

SolverConfig carries the equation (validated by the same check as the
manufactured problems) and the discretization (lam, M, N); the inner rule
size keeps assembly's default.  The residual check, evaluation and the error
report are shared with the 2D solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import get_lapack_funcs
# lu_factor and lu_solve are unused here; they stay importable as
# solver1d.lu_factor/lu_solve because the benchmark tracer (bench/spans.py)
# wraps them by name.
from scipy.linalg import lu_factor, lu_solve  # noqa: F401

from .assembly import (
    ManufacturedProblem,
    SourceTerm,
    _check_equation,
    _forcing_rules,
    _forcing_values_1d,
    _project_forcing_1d,
    _validate_lambda,
    assemble_spatial,
    assemble_temporal,
)
from .basis import MuntzBasis, SpatialBasis, muntz_jacobi_table, spatial_table
from .errors import NumericalFailure, ParameterDomainError, StructuralError
# assemble_forcing_1d is unused here; it stays importable as
# solver1d.assemble_forcing_1d because the benchmark tracer wraps it by name.
from .assembly import assemble_forcing_1d  # noqa: F401

__all__ = [
    "ErrorReport",
    "RESIDUAL_TOL",
    "SolverConfig",
    "SpectralSolution",
    "error_norms",
    "evaluate_grid",
    "solve_1d",
    "solve_1d_batch",
]

RESIDUAL_TOL = 1.0e-10


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
    dimension: int = 1

    def __post_init__(self) -> None:
        _check_equation(self.mu, self.kappa, self.rho, self.dimension, self.t_end)
        _validate_lambda(self.lam)
        if self.m_space < 3:
            raise ParameterDomainError(f"spatial cutoff must be at least 3, got {self.m_space}")
        if self.n_time < 0:
            raise ParameterDomainError(f"temporal index must be nonnegative, got {self.n_time}")


@dataclass(frozen=True)
class SpectralSolution:
    """Solved coefficients plus the solve diagnostics.

    residual is the relative residual that passed the residual check.
    cond_estimate is gbcon's 1-norm estimate for the band system, computed on
    first read by one more banded LU; it gates nothing.  Identical solves can
    differ in its last digits (1e-16 relative, seen at mu = 0.5, lam = 0.3,
    M = N = 48), so compare it with a tolerance.
    """

    config: SolverConfig
    spatial: SpatialBasis
    temporal: MuntzBasis
    coeffs: np.ndarray
    residual: float

    @cached_property
    def cond_estimate(self) -> float:
        c = self.config
        ops_x, ops_t = assemble_spatial(c.m_space), assemble_temporal(c.n_time, c.mu, c.lam)
        st = ops_t.stiffness * c.t_end ** (-c.mu)  # the solve's scaling, bit for bit
        (ab,), kl = _band_system(st[None], ops_t.mass[None], ops_x.mass, ops_x.convection,
                                 c.kappa, c.rho)
        anorm = float(np.abs(ab[kl:]).sum(axis=0).max())
        gbtrf, gbcon = get_lapack_funcs(("gbtrf", "gbcon"), (ab,))
        lu, piv, info = gbtrf(ab, kl, kl, overwrite_ab=True)
        if info == 0:
            rcond, info = gbcon(kl, kl, lu, piv, anorm, norm="1")
        if info != 0:
            raise NumericalFailure(f"condition estimate failed with info={info}")
        return float(1.0 / rcond) if rcond > 0.0 else np.inf


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


def _check_residual(residual: float) -> None:
    """The one pass/fail rule of every solve, 1D and 2D: raise unless the
    relative residual is at most RESIDUAL_TOL, so that NaN fails too."""
    if not residual <= RESIDUAL_TOL:
        raise NumericalFailure(f"solve residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}")


def _band_system(st, mt, mx, cx, kappa: float, rho: float) -> tuple[np.ndarray, int]:
    """Mx (x) St + kappa I (x) Mt + rho Cx (x) Mt in LAPACK band storage, for
    every group g of the stacks st[g] and mt[g]: ab[g] is its band.

    Entry (i, j) sits at row 2 kl + i - j of column j, with kl = ku = 3(N+1) - 1;
    the top kl rows stay zero for the fill-in of the pivoted LU.  Each band
    is Fortran-ordered, so LAPACK takes it without a copy.
    """
    groups, n1, k = st.shape[0], st.shape[1], mx.shape[0]
    kl = 3 * n1 - 1
    rows = 3 * kl + 1
    ab = np.zeros((groups, k * n1, rows)).transpose(0, 2, 1)
    # view[g, e, n, c, m] is entry (n, m) of block (c + e - 2, c) of group g:
    # column m of block column c holds its five blocks stacked, starting at
    # row 4 n1 - 2 - m.  The last element it reaches is row 8 n1 - 2 of the
    # last column, inside the group's band.
    item = ab.itemsize
    view = as_strided(
        ab[:, 4 * n1 - 2 :],
        shape=(groups, 5, n1, k, n1),
        strides=(k * n1 * rows * item, n1 * item, item, n1 * rows * item, (rows - 1) * item),
    )
    for e in range(5):
        d = 2 - e  # block (j, j + d)
        c = np.arange(max(0, d), min(k, k + d))
        if c.size == 0:
            continue
        j = c - d
        scale_s = mx[j, c][:, None, None]
        scale_m = (rho * cx[j, c] + (kappa if d == 0 else 0.0))[:, None, None]
        blocks = scale_s * st[:, None] + scale_m * mt[:, None]
        view[:, e, :, c[0] : c[-1] + 1, :] = blocks.transpose(0, 2, 1, 3)
    return ab, kl


def _banded_solve(ab: np.ndarray, kl: int, rhs: np.ndarray) -> np.ndarray:
    """Solve the band system by pivoted LU (gbtrf, in place) and gbtrs for
    every column of rhs."""
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    lu, piv, info = gbtrf(ab, kl, kl, overwrite_ab=True)
    if info > 0:
        raise NumericalFailure(f"singular system: zero pivot at row {info}")
    if info < 0:
        raise NumericalFailure(f"banded LU failed with info={info}")
    vec, info = gbtrs(lu, kl, kl, rhs, piv)
    if info != 0:
        raise NumericalFailure(f"banded solve failed with info={info}")
    return vec


def _residual_norm(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """||lhs - rhs|| / ||rhs|| in the Frobenius norm, or ||lhs - rhs|| when
    rhs is zero.  Both are first scaled by 2^-e, e the binary exponent of
    max|rhs|: the scaling is exact, so the ratio is the unscaled one bit for
    bit wherever neither norm overflows, and a forcing whose squares would
    overflow (entries above about 1e154) keeps a meaningful residual.  A
    non-finite forcing gives NaN, which fails the residual check."""
    peak = float(np.abs(rhs).max())
    if not math.isfinite(peak):
        return math.nan
    e = -math.frexp(peak)[1]
    scale = np.linalg.norm(np.ldexp(rhs, e))
    diff = np.linalg.norm(np.ldexp(lhs - rhs, e))
    return float(diff / scale) if scale > 0.0 else float(diff)


def _fortran_stack(mats: list[np.ndarray]) -> np.ndarray:
    """Matrices stacked along a new leading axis, each kept Fortran-ordered
    as a solution's coefficients are: the GEMM rounds a product with a
    C-ordered operand differently at some sizes (seen at N >= 16)."""
    return np.array([m.T for m in mats]).transpose(0, 2, 1)


def solve_1d(config: SolverConfig, source: SourceTerm) -> SpectralSolution:
    """Assemble and solve the 1D problem for the given source term."""
    (outcome,) = solve_1d_batch([config], [source])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def solve_1d_batch(
    configs: list[SolverConfig], sources: list[SourceTerm]
) -> list[SpectralSolution | Exception]:
    """Solve the 1D problem for each source under its configuration, in one
    stacked pass.  The configurations may differ only in mu and lam; the
    sources of equal configurations form a group and share one
    factorization.

    Returns one entry per source: its solution, or its error.  A failure of
    a configuration's shared system (temporal assembly, factorization) is
    the entry of every source under that configuration; a source's own
    failure (cross-check, forcing, residual check) is its alone.  Every
    solution equals the one `solve_1d` returns for that source alone.

    Assembly runs once over the stack: the temporal operators and the
    forcing time matrices with a leading group axis, the forcing
    projections, the band matrices and the residuals batched over every
    group or source.  Only the banded LU (gbtrf) and its back-substitution
    (gbtrs) run per group.
    """
    if len(configs) != len(sources):
        raise StructuralError("one configuration per source")
    members: dict[SolverConfig, list[int]] = {}
    for i, config in enumerate(configs):
        members.setdefault(config, []).append(i)
    groups = list(members)
    if not groups:
        return []
    base = groups[0]
    shared = (base.kappa, base.rho, base.m_space, base.n_time, base.t_end, base.dimension)
    for config in groups:
        if config.dimension != 1:
            raise ParameterDomainError("solve_1d needs a dimension-1 configuration")
        if (config.kappa, config.rho, config.m_space, config.n_time, config.t_end, 1) != shared:
            raise ParameterDomainError("stacked configurations may differ only in mu and lam")
    ops_x = assemble_spatial(base.m_space)
    out: list = [None] * len(sources)
    stack = assemble_temporal(base.n_time, [c.mu for c in groups], [c.lam for c in groups])
    temporal = {}
    for config, ops in zip(groups, stack):
        if isinstance(ops, Exception):
            for i in members[config]:
                out[i] = ops  # the shared system failed: so does every source
        else:
            temporal[config] = ops
    if not temporal:
        return out
    x, wx, phi, t_phys, tmat = _forcing_rules(
        ops_x.basis, [ops.basis for ops in temporal.values()], base.t_end
    )

    # every source's forcing values, group by group: a group's assembled
    # sources are the forcings spans[config] = (lo, hi), and forcing j
    # belongs to source index[j]
    fvals, rows, index, spans = [], [], [], {}
    for k, config in enumerate(temporal):
        lo = len(fvals)
        for i in members[config]:
            try:
                _check_source(config, sources[i])
                fvals.append(_forcing_values_1d(sources[i], x, t_phys[k]))
            except (NumericalFailure, ParameterDomainError, StructuralError) as exc:
                out[i] = exc  # this source's own failure
                continue
            rows.append(k)
            index.append(i)
        if len(fvals) > lo:
            spans[config] = (lo, len(fvals))
    if not fvals:
        return out
    # np.stack keeps the sources' own memory order when they share one,
    # and with it the GEMM's rounding
    forcings = _project_forcing_1d(np.stack(fvals), tmat[rows], wx, phi)

    # one band matrix per group with an assembled source, built in one pass;
    # then per group the LU and one gbtrs call
    st = np.array([temporal[c].stiffness * base.t_end ** (-c.mu) for c in spans])
    mt = np.array([temporal[c].mass for c in spans])
    mx, cx = ops_x.mass, ops_x.convection
    ab, kl = _band_system(st, mt, mx, cx, base.kappa, base.rho)
    solved = []  # (configuration, its band, its first forcing, coefficients)
    for k, (config, (lo, hi)) in enumerate(spans.items()):
        rhs = np.column_stack([f.ravel(order="F") for f in forcings[lo:hi]])
        try:
            vecs = _banded_solve(ab[k], kl, rhs)
        except NumericalFailure as exc:
            for i in members[config]:
                out[i] = exc
            continue
        # column j of vecs as the Fortran-ordered matrix U_j, a view of vecs
        coeffs = vecs.T.reshape(hi - lo, mx.shape[0], -1).transpose(0, 2, 1)
        solved.append((config, k, lo, coeffs))
    if not solved:
        return out

    # the residuals of every solved source, batched
    sol = _fortran_stack([c for *_, coeffs in solved for c in coeffs])
    pick = [k for _, k, *_, coeffs in solved for _ in coeffs]
    st_s, mt_s = st[pick], mt[pick]
    applied = st_s @ sol @ mx + base.kappa * mt_s @ sol + base.rho * mt_s @ sol @ cx.T
    applied = iter(applied)
    for config, _, lo, coeffs in solved:
        for j, c in enumerate(coeffs, start=lo):
            residual = _residual_norm(next(applied), forcings[j])
            try:
                _check_residual(residual)
            except NumericalFailure as exc:
                out[index[j]] = exc
                continue
            c.flags.writeable = False
            out[index[j]] = SpectralSolution(
                configs[index[j]], ops_x.basis, temporal[config].basis, c, residual
            )
    return out


def _unit_times(t, t_end: float) -> np.ndarray:
    """Physical times t, checked to lie in [0, t_end], on the unit interval."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((t >= 0.0) & (t <= t_end)):
        raise ParameterDomainError(f"times must lie in [0, {t_end}]")
    return t / t_end


def evaluate_grid(solution: SpectralSolution, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Evaluate on the tensor grid of spatial points x and physical times t.

    Returns values with shape (len(t), len(x)).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    temporal = muntz_jacobi_table(solution.temporal, _unit_times(t, solution.config.t_end))
    spatial = spatial_table(solution.spatial, x)
    return temporal.T @ solution.coeffs @ spatial


@dataclass(frozen=True)
class ErrorReport:
    """Discrete error norms on a uniform interior grid (1D) or tensor grid
    (2D) at one time."""

    l2: float
    linf: float
    time: float
    n_nodes: int


def _error_report(config: SolverConfig, time, n_nodes: int, difference) -> ErrorReport:
    """RMS and max of difference(nodes, t) over n_nodes uniform interior nodes
    per axis, at time (default t_end)."""
    if n_nodes < 1:
        raise ParameterDomainError(f"node count must be positive, got {n_nodes}")
    t_eval = config.t_end if time is None else float(time)
    nodes = np.linspace(-1.0, 1.0, n_nodes + 2)[1:-1]
    diff = difference(nodes, t_eval)
    l2 = float(np.sqrt(np.mean(diff**2)))
    linf = float(np.max(np.abs(diff)))
    return ErrorReport(l2, linf, t_eval, n_nodes)


def error_norms(
    solution: SpectralSolution,
    exact: Callable[[np.ndarray, float], np.ndarray],
    time: float | None = None,
    n_nodes: int = 1000,
) -> ErrorReport:
    """Root-mean-square and max errors against exact(x, t) at one time slice."""

    def difference(nodes, t_eval):
        approx = evaluate_grid(solution, nodes, np.array([t_eval]))[0]
        return approx - np.asarray(exact(nodes, t_eval), dtype=float)

    return _error_report(solution.config, time, n_nodes, difference)
