"""1D solver tests built on trial-space exactness and a dense oracle.

When the exact solution lies in the discrete tensor space and the forcing is
assembled consistently, the Galerkin solve must reproduce it to solver
precision; the reference solutions below are built from numpy Legendre
polynomials and the closed-form Caputo power rule, independent of the
package's basis tables.  The banded solve is also checked against the dense
Kronecker system, factored by a dense LU.
"""

import dataclasses
import pathlib
import warnings

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

import muntzspec
from muntzspec import mltune, solver1d
from muntzspec.assembly import (
    ManufacturedProblem,
    TemporalOperators,
    assemble_forcing_1d,
    assemble_spatial,
    assemble_temporal,
    caputo_power,
)
from muntzspec.errors import NumericalFailure, ParameterDomainError, StructuralError
from muntzspec.solver1d import (
    ErrorReport,
    SolverConfig,
    error_norms,
    evaluate_grid,
    solve_1d,
    solve_1d_batch,
)

MODELS_DIR = pathlib.Path(muntzspec.__file__).resolve().parent / "models"


def packaged_lambdas(mu):
    """(ANN λ, spline λ) of the packaged tuners at order mu."""
    net, _ = mltune.load_model(str(MODELS_DIR / "reference_ann.json"))
    spline = mltune.load_spline(str(MODELS_DIR / "reference_spline.json"))
    return mltune.forward(net, mu), float(mltune.spline_predict(spline, mu))


def dense_operators(cfg):
    """The space-major Kronecker matrix Mx (x) St + kappa I (x) Mt + rho Cx (x) Mt,
    with the spatial and temporal operators it is built from."""
    ops_x = assemble_spatial(cfg.m_space)
    ops_t = assemble_temporal(cfg.n_time, cfg.mu, cfg.lam)
    st = ops_t.stiffness * cfg.t_end ** (-cfg.mu)
    mt = ops_t.mass
    system = (
        np.kron(ops_x.mass, st)
        + cfg.kappa * np.kron(np.eye(ops_x.mass.shape[0]), mt)
        + cfg.rho * np.kron(ops_x.convection, mt)
    )
    return system, ops_x, ops_t


def dense_solve(cfg, source):
    """Oracle: dense LU of the Kronecker system; returns the coefficient
    matrix and the 1-norm condition estimate of the dense LU (gecon)."""
    system, ops_x, ops_t = dense_operators(cfg)
    forcing = assemble_forcing_1d(source, ops_x.basis, ops_t.basis, t_end=cfg.t_end)
    lu, piv = lu_factor(system)
    gecon, = get_lapack_funcs(("gecon",), (system,))
    rcond, info = gecon(lu, np.linalg.norm(system, 1), norm="1")
    assert info == 0
    vec = lu_solve((lu, piv), forcing.ravel(order="F"))
    return vec.reshape(forcing.shape, order="F"), 1.0 / rcond


def band_to_dense(ab, kl):
    """Expand LAPACK band storage with kl = ku and kl fill-in rows."""
    n = ab.shape[1]
    i, j = np.indices((n, n))
    inside = np.abs(i - j) <= kl
    dense = np.zeros((n, n))
    dense[inside] = ab[2 * kl + i[inside] - j[inside], j[inside]]
    return dense


def legendre_mode(m):
    """Mode m of the boundary-vanishing spatial basis, as a numpy Legendre
    object with derivative access."""
    coef = np.zeros(m + 3)
    c = 1.0 / np.sqrt(4.0 * m + 6.0)
    coef[m] = c
    coef[m + 2] = -c
    return npleg.Legendre(coef)


class TestSolve1D:
    def test_galerkin_reproduces_trial_space_solution(self):
        # u = phi_1(x) t^(3 lam) with mu = lam = 1/2: the temporal factor is
        # s^3, inside the span of the first members, so the discrete solution
        # must match u to solve precision
        mu = lam = 0.5
        nu = 3.0 * lam
        cfg = SolverConfig(mu=mu, lam=lam, kappa=1.3, rho=0.8, m_space=8, n_time=4)
        phi = legendre_mode(1)
        dphi = phi.deriv()
        d2phi = phi.deriv(2)

        def forcing(x, t):
            return (
                phi(x) * caputo_power(mu, nu, t)
                - cfg.kappa * d2phi(x) * np.power(t, nu)
                + cfg.rho * dphi(x) * np.power(t, nu)
            )

        sol = solve_1d(cfg, forcing)
        xs = np.linspace(-1.0, 1.0, 201)
        ts = np.array([0.15, 0.5, 0.85, 1.0])
        got = evaluate_grid(sol, xs, ts)
        want = np.power(ts, nu)[:, None] * phi(xs)[None, :]
        assert np.abs(got - want).max() <= 1e-10
        # only the second spatial column may carry weight
        off = np.delete(sol.coeffs, 1, axis=1)
        assert np.abs(off).max() <= 1e-10

    def test_manufactured_solution_resolved_to_roundoff(self):
        # nu = 3 lam puts the time factor in the span; sin(pi x) converges
        # spectrally, so M = 20 reaches the floor
        prob = ManufacturedProblem(mu=0.5, nu=1.5, kappa=1.0, rho=1.0)
        cfg = SolverConfig(mu=0.5, lam=0.5, m_space=20, n_time=4)
        sol = solve_1d(cfg, prob)
        report = error_norms(sol, prob.exact)
        assert report.linf <= 1e-10
        assert report.l2 <= report.linf

    def test_fractional_exponent_small_lambda(self):
        # u = t^0.6 sin(pi x) with lam = 0.1: the time factor is s^6 exactly
        prob = ManufacturedProblem(mu=0.4, nu=0.6, kappa=1.0, rho=1.0)
        cfg = SolverConfig(mu=0.4, lam=0.1, m_space=20, n_time=5)
        sol = solve_1d(cfg, prob)
        report = error_norms(sol, prob.exact)
        assert report.linf <= 1e-9

    def test_time_interval_scaling(self):
        # t_end = 2 exercises both the stiffness scaling and the forcing nodes
        prob = ManufacturedProblem(mu=0.7, nu=2.0, kappa=1.0, rho=0.5, t_end=2.0)
        cfg = SolverConfig(mu=0.7, lam=1.0, rho=0.5, m_space=20, n_time=3, t_end=2.0)
        sol = solve_1d(cfg, prob)
        for t_eval in (2.0, 1.3, 0.4):
            report = error_norms(sol, prob.exact, time=t_eval)
            assert report.linf <= 5e-9

    def test_refinement_reduces_error(self):
        # non-aligned fractional exponents: finer temporal resolution must pay
        prob = ManufacturedProblem(mu=0.12, nu=0.88, kappa=1.0, rho=1.0)
        err = {}
        for n in (4, 10):
            cfg = SolverConfig(mu=0.12, lam=0.0962, m_space=12, n_time=n)
            err[n] = error_norms(solve_1d(cfg, prob), prob.exact).linf
        assert err[10] < err[4] / 5.0

    def test_zero_forcing_gives_zero_solution(self):
        cfg = SolverConfig(mu=0.5, lam=0.5, m_space=6, n_time=3)
        sol = solve_1d(cfg, lambda x, t: 0.0 * x * t)
        assert np.abs(sol.coeffs).max() == 0.0
        assert sol.residual <= 1e-10

    def test_ill_conditioned_small_lambda_still_accurate(self):
        # near-collinear temporal members push the condition estimate to 6e15;
        # the solve passes on its residual alone, accurately and silently
        prob = ManufacturedProblem(mu=0.12, nu=0.88, kappa=1.0, rho=1.0)
        cfg = SolverConfig(mu=0.12, lam=0.0962, m_space=20, n_time=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_1d(cfg, prob)
        assert sol.residual <= 1e-10
        assert error_norms(sol, prob.exact).linf <= 1e-6

    # solves that once passed under a 1e-6 residual bound, loosened for a high
    # condition estimate; their residuals read 9.3e-7, 8.8e-7 and 6.8e-8, and
    # their Linf errors 5.2e34, 1.1e6 and 7.4e5
    @pytest.mark.parametrize(
        "mu,nu,lam,n", [(0.95, 0.05, 0.01, 48), (0.9, 0.05, 0.02, 32), (0.95, 0.3, 0.01, 40)]
    )
    def test_residual_above_tolerance_fails(self, mu, nu, lam, n):
        prob = ManufacturedProblem(mu=mu, nu=nu, kappa=1.0, rho=1.0)
        cfg = SolverConfig(mu=mu, lam=lam, m_space=20, n_time=n)
        with pytest.raises(NumericalFailure, match="residual"):
            solve_1d(cfg, prob)

    def test_diagnostics_recorded(self):
        prob = ManufacturedProblem(mu=0.5, nu=1.5)
        cfg = SolverConfig(mu=0.5, lam=0.5, m_space=12, n_time=6)
        sol = solve_1d(cfg, prob)
        assert sol.residual <= 1e-10
        assert sol.cond_estimate >= 1.0
        assert sol.coeffs.shape == (7, 11)
        assert not sol.coeffs.flags.writeable


class TestBandedAgainstDenseOracle:
    @pytest.mark.parametrize(
        "m,n,kappa,rho",
        [(8, 4, 1.3, 0.8), (8, 4, 1.0, 0.0), (3, 5, 0.7, 1.2), (3, 0, 1.0, 0.0), (6, 0, 2.0, 0.5)],
    )
    def test_band_storage_is_the_kronecker_matrix(self, m, n, kappa, rho):
        # M = 3 leaves two spatial modes, so no block at offset +-2
        cfg = SolverConfig(mu=0.4, lam=0.6, kappa=kappa, rho=rho, m_space=m, n_time=n, t_end=1.7)
        system, ops_x, ops_t = dense_operators(cfg)
        st = ops_t.stiffness * cfg.t_end ** (-cfg.mu)
        (ab,), kl = solver1d._band_system(
            st[None], ops_t.mass[None], ops_x.mass, ops_x.convection, cfg.kappa, cfg.rho
        )
        assert kl == 3 * (n + 1) - 1
        assert ab.shape == (3 * kl + 1, system.shape[0])
        assert not ab[:kl].any()  # fill-in rows start empty
        i, j = np.indices(system.shape)
        assert not system[np.abs(i - j) > kl].any()  # nothing lies outside the band
        # the blocks are summed as mx st + (rho cx + kappa) mt, so entries may
        # differ from the Kronecker sums in the last bit
        np.testing.assert_allclose(
            band_to_dense(ab, kl), system, rtol=0.0, atol=1e-15 * np.abs(system).max()
        )

    @pytest.mark.parametrize("mu", [0.12, 0.5, 0.85])
    def test_coefficients_match_at_lambda_one_and_spline_lambda(self, mu):
        # two pivot orders may differ by up to cond * eps in the coefficients;
        # at N = 8 the condition estimate stays below 1e7
        prob = ManufacturedProblem(mu=mu, nu=1.0 - mu)
        _, spline_lam = packaged_lambdas(mu)
        for lam in (1.0, spline_lam):
            cfg = SolverConfig(mu=mu, lam=lam, m_space=16, n_time=8)
            got = solve_1d(cfg, prob).coeffs
            want, _ = dense_solve(cfg, prob)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("mu", [0.12, 0.5, 0.85])
    def test_physical_values_match_at_ann_lambda(self, mu):
        # the condition estimate reaches 5e14 here (and 1e19-1e21 at M = N =
        # 32..48), where the pivot order alone moves the raw coefficients; the
        # solutions are compared as functions on a grid instead
        lam, _ = packaged_lambdas(mu)
        cfg = SolverConfig(mu=mu, lam=lam, m_space=16, n_time=16)
        prob = ManufacturedProblem(mu=mu, nu=1.0 - mu)
        banded = solve_1d(cfg, prob)
        dense = dataclasses.replace(banded, coeffs=dense_solve(cfg, prob)[0])
        xs = np.linspace(-0.95, 0.95, 21)
        ts = np.array([0.1, 0.5, 1.0])
        got, want = evaluate_grid(banded, xs, ts), evaluate_grid(dense, xs, ts)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_condition_estimate_matches_dense_gecon(self):
        cfg = SolverConfig(mu=0.2, lam=1.0, m_space=32, n_time=32)
        prob = ManufacturedProblem(mu=0.2, nu=0.8)
        _, want = dense_solve(cfg, prob)
        got = solve_1d(cfg, prob).cond_estimate
        assert got == pytest.approx(want, rel=0.01)

    def test_zero_pivot_raises_numerical_failure(self, monkeypatch):
        zero_temporal_operators(monkeypatch)
        cfg = SolverConfig(mu=0.5, lam=0.5, m_space=6, n_time=3)
        with pytest.raises(NumericalFailure, match="zero pivot"):
            solve_1d(cfg, ManufacturedProblem(mu=0.5, nu=1.5))

    def test_no_dense_factorization(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve_1d fell back to a dense LU")

        monkeypatch.setattr(solver1d, "lu_factor", refuse)
        monkeypatch.setattr(solver1d, "lu_solve", refuse)
        prob = ManufacturedProblem(mu=0.5, nu=1.5)
        sol = solve_1d(SolverConfig(mu=0.5, lam=0.5, m_space=20, n_time=4), prob)
        assert error_norms(sol, prob.exact).linf <= 1e-10


def zero_temporal_operators(monkeypatch):
    """Make solver1d's stacked assembly give every group all-zero temporal
    operators, so that the banded LU meets a zero pivot."""
    original = solver1d.assemble_temporal

    def zero_operators(n, mu, lam, **kwargs):
        zero = np.zeros((n + 1, n + 1))
        return [TemporalOperators(ops.basis, zero, zero) for ops in original(n, mu, lam, **kwargs)]

    monkeypatch.setattr(solver1d, "assemble_temporal", zero_operators)


class TestGroupedSolve:
    @pytest.mark.parametrize("mu", [0.12, 0.5, 0.85])
    def test_one_source_matches_its_column_of_a_group(self, mu):
        # solve_1d is the one-source call of solve_1d_batch; a source's
        # column must not depend on which other sources share the gbtrs call
        ann_lam, spline_lam = packaged_lambdas(mu)
        sources = [ManufacturedProblem(mu=mu, nu=nu) for nu in (0.3, 1.0 - mu, 0.9, 2.0)]
        sources.append(lambda x, t: np.sqrt(t) * np.cos(0.5 * np.pi * x))
        for lam in (1.0, spline_lam, ann_lam):
            cfg = SolverConfig(mu=mu, lam=lam, m_space=16, n_time=12)
            group = solve_1d_batch([cfg] * len(sources), sources)
            for source, grouped in zip(sources, group):
                alone = solve_1d(cfg, source)
                assert np.array_equal(grouped.coeffs, alone.coeffs)
                assert grouped.residual == alone.residual
                # gbcon's estimate is not bit-reproducible between identical calls
                assert grouped.cond_estimate == pytest.approx(alone.cond_estimate, rel=1e-12)
                assert not grouped.coeffs.flags.writeable

    def test_failing_source_fails_alone(self):
        cfg = SolverConfig(mu=0.5, lam=0.5, m_space=10, n_time=6)
        good = ManufacturedProblem(mu=0.5, nu=1.5)
        non_finite = lambda x, t: np.nan * x * t  # noqa: E731
        mismatched = ManufacturedProblem(mu=0.3, nu=1.5)
        group = solve_1d_batch([cfg] * 4, [good, non_finite, mismatched, good])
        assert isinstance(group[1], NumericalFailure)
        assert isinstance(group[2], ParameterDomainError)
        for solved in (group[0], group[3]):
            assert np.array_equal(solved.coeffs, solve_1d(cfg, good).coeffs)
        with pytest.raises(NumericalFailure, match="non-finite"):
            solve_1d(cfg, non_finite)

    def test_residual_failure_belongs_to_its_source(self, monkeypatch):
        real = solver1d._residual_norm
        calls = []

        def second_fails(lhs, rhs):
            calls.append(None)
            return 1.0 if len(calls) == 2 else real(lhs, rhs)

        monkeypatch.setattr(solver1d, "_residual_norm", second_fails)
        cfg = SolverConfig(mu=0.5, lam=0.5, m_space=10, n_time=6)
        sources = [ManufacturedProblem(mu=0.5, nu=nu) for nu in (0.4, 0.6, 0.8)]
        group = solve_1d_batch([cfg] * 3, sources)
        assert isinstance(group[1], NumericalFailure)
        assert "residual" in str(group[1])
        assert group[0].residual <= 1e-10 and group[2].residual <= 1e-10

    def test_shared_system_failure_raises(self, monkeypatch):
        # solve_1d raises it; a batch gives it to every source of the group
        cfg = SolverConfig(mu=0.5, lam=0.5, m_space=6, n_time=3)
        sources = [ManufacturedProblem(mu=0.5, nu=nu) for nu in (0.4, 1.5)]
        zero_temporal_operators(monkeypatch)
        with pytest.raises(NumericalFailure, match="zero pivot"):
            solve_1d(cfg, sources[0])
        for outcome in solve_1d_batch([cfg] * 2, sources):
            assert isinstance(outcome, NumericalFailure) and "zero pivot" in str(outcome)

        def ill_posed(*args, **kwargs):
            raise NumericalFailure("synthetic assembly breakdown")

        monkeypatch.setattr(solver1d, "assemble_temporal", ill_posed)
        with pytest.raises(NumericalFailure, match="synthetic"):
            solve_1d_batch([cfg] * 2, sources)

    def test_cached_spatial_arrays_are_read_only(self):
        ops = assemble_spatial(12)
        assert assemble_spatial(12) is ops
        _, _, phi = muntzspec.assembly._spatial_forcing_rule(12)
        for arr in (ops.mass, ops.convection, phi):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


# (mu, lambda) groups of one stacked solve: lambda = 1, the spline's and the
# packaged ANN's range, and two orders sharing a lambda
STACK = [(0.3, 1.0), (0.3, 0.0801), (0.65, 0.2225), (0.12, 0.0962), (0.85, 0.5), (0.5, 0.5)]


def stack_sources(mu):
    return [ManufacturedProblem(mu=mu, nu=nu) for nu in (0.2, 1.0 - mu, 1.7)]


def solve_groups(configs, sources):
    """solve_1d_batch over groups, each a configuration and its sources,
    flattened into one call; the outcomes come back group by group."""
    flat = solve_1d_batch([c for c, group in zip(configs, sources) for _ in group],
                          [s for group in sources for s in group])
    at = np.cumsum([0] + [len(group) for group in sources])
    return [flat[lo:hi] for lo, hi in zip(at[:-1], at[1:])]


def count_factorizations(monkeypatch, zero_pivot_at=None):
    """Count solver1d's gbtrf calls in the returned list; call number
    zero_pivot_at (counted from 1) reports a zero pivot."""
    real = solver1d.get_lapack_funcs
    calls = []

    def lookup(names, arrays):
        gbtrf, gbtrs, gbcon = real(names, arrays)

        def counted(ab, kl, ku, **kwargs):
            calls.append(None)
            lu, piv, info = gbtrf(ab, kl, ku, **kwargs)
            return lu, piv, (3 if len(calls) == zero_pivot_at else info)

        return counted, gbtrs, gbcon

    monkeypatch.setattr(solver1d, "get_lapack_funcs", lookup)
    return calls


class TestStackedSolve:
    def test_each_group_matches_its_solve_alone(self):
        configs = [SolverConfig(mu=mu, lam=lam, m_space=20, n_time=10) for mu, lam in STACK]
        sources = [stack_sources(mu) for mu, _ in STACK]
        stacked = solve_groups(configs, sources)
        for cfg, group, outcome in zip(configs, sources, stacked):
            alone = solve_1d_batch([cfg] * len(group), group)
            for got, want in zip(outcome, alone):
                assert np.array_equal(got.coeffs, want.coeffs)
                assert got.residual == want.residual
                # gbcon's estimate is not bit-reproducible between identical calls
                assert got.cond_estimate == pytest.approx(want.cond_estimate, rel=1e-12)
                assert got.temporal == want.temporal and got.config == cfg

    def test_failing_group_leaves_the_others_alone(self, monkeypatch):
        configs = [SolverConfig(mu=mu, lam=lam, m_space=12, n_time=6) for mu, lam in STACK]
        sources = [stack_sources(mu) for mu, _ in STACK]
        alone = [solve_1d_batch([c] * len(s), s) for c, s in zip(configs, sources)]
        # a group whose every source is non-finite: its own failures only
        non_finite = lambda x, t: np.nan * x * t  # noqa: E731
        bad = list(sources)
        bad[2] = [non_finite, non_finite]
        stacked = solve_groups(configs, bad)
        assert all(isinstance(out, NumericalFailure) for out in stacked[2])
        # a zero pivot in the third factorization fails that group alone
        count_factorizations(monkeypatch, zero_pivot_at=3)
        pivoted = solve_groups(configs, sources)
        for outcome in pivoted[2]:
            assert isinstance(outcome, NumericalFailure) and "zero pivot" in str(outcome)
        for g, want in enumerate(alone):
            if g == 2:
                continue
            for outcomes in (stacked[g], pivoted[g]):
                for got, ref in zip(outcomes, want):
                    assert np.array_equal(got.coeffs, ref.coeffs)
                    assert got.residual == ref.residual

    def test_configurations_may_differ_only_in_mu_and_lambda(self):
        sources = [ManufacturedProblem(mu=0.5, nu=1.5)] * 2
        base = SolverConfig(mu=0.5, lam=0.5, m_space=8, n_time=4)
        for other in (dataclasses.replace(base, n_time=5), dataclasses.replace(base, kappa=2.0)):
            with pytest.raises(ParameterDomainError):
                solve_1d_batch([base, other], sources)
        assert solve_1d_batch([], []) == []


# interleaved configurations of one batch, [A, B, A, C, B]: A and C share
# an order, B and C lie in the packaged tuners' lambda range
BATCH = [(0.3, 1.0, 0.2), (0.65, 0.2225, 0.35), (0.3, 1.0, 1.7), (0.3, 0.0801, 0.7),
         (0.65, 0.2225, 1.1)]


class TestBatchGrouping:
    def batch(self):
        configs = [SolverConfig(mu=mu, lam=lam, m_space=20, n_time=10) for mu, lam, _ in BATCH]
        sources = [ManufacturedProblem(mu=mu, nu=nu) for mu, _, nu in BATCH]
        return configs, sources

    def test_each_entry_matches_its_solve_alone(self, monkeypatch):
        configs, sources = self.batch()
        alone = [solve_1d(c, s) for c, s in zip(configs, sources)]
        calls = count_factorizations(monkeypatch)
        batch = solve_1d_batch(configs, sources)
        assert len(calls) == 3  # one factorization per distinct configuration
        for cfg, got, want in zip(configs, batch, alone):
            assert np.array_equal(got.coeffs, want.coeffs)
            assert got.residual == want.residual
            # gbcon's estimate is not bit-reproducible between identical calls
            assert got.cond_estimate == pytest.approx(want.cond_estimate, rel=1e-12)
            assert got.config is cfg and got.temporal == want.temporal

    def test_zero_pivot_fails_only_its_configuration(self, monkeypatch):
        configs, sources = self.batch()
        alone = [solve_1d(c, s) for c, s in zip(configs, sources)]
        # B, the second distinct configuration, is factored second
        count_factorizations(monkeypatch, zero_pivot_at=2)
        batch = solve_1d_batch(configs, sources)
        for i, (got, want) in enumerate(zip(batch, alone)):
            if i in (1, 4):
                assert isinstance(got, NumericalFailure) and "zero pivot" in str(got)
            else:
                assert np.array_equal(got.coeffs, want.coeffs)

    def test_one_configuration_per_source(self):
        configs, sources = self.batch()
        with pytest.raises(StructuralError):
            solve_1d_batch(configs, sources[:-1])


class TestResidualScale:
    def perturbed(self, solution):
        coeffs = solution.coeffs.copy()
        coeffs[0, 0] += 1e-6 * np.abs(coeffs).max()
        return coeffs

    # the residual is scaled exactly before its norms are taken, so the
    # squares of a forcing above ~1e154 no longer overflow them
    @pytest.mark.parametrize("kappa", [1e100, 1e150, 1e160, 1e200])
    def test_large_forcing_keeps_a_meaningful_residual(self, kappa):
        prob = ManufacturedProblem(mu=0.5, nu=1.5, kappa=kappa)
        cfg = SolverConfig(mu=0.5, lam=0.5, kappa=kappa, m_space=8, n_time=4)
        sol = solve_1d(cfg, prob)
        assert 0.0 < sol.residual <= solver1d.RESIDUAL_TOL
        ops_t = assemble_temporal(cfg.n_time, cfg.mu, cfg.lam)
        ops_x = assemble_spatial(cfg.m_space)
        forcing = assemble_forcing_1d(prob, ops_x.basis, ops_t.basis)
        coeffs = self.perturbed(sol)
        applied = (
            ops_t.stiffness @ coeffs @ ops_x.mass
            + kappa * ops_t.mass @ coeffs
            + cfg.rho * ops_t.mass @ coeffs @ ops_x.convection.T
        )
        assert solver1d._residual_norm(applied, forcing) > solver1d.RESIDUAL_TOL

    @pytest.mark.parametrize("kappa", [1e308])
    def test_overflowing_forcing_norm_fails_instead_of_passing(self, kappa):
        # a non-finite forcing fails; its residual ratio once read 0.0, which
        # passed any solution (seen at 1e160, before the exact scaling)
        prob = ManufacturedProblem(mu=0.5, nu=1.5, kappa=kappa)
        cfg = SolverConfig(mu=0.5, lam=0.5, kappa=kappa, m_space=8, n_time=4)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalFailure):
            solve_1d(cfg, prob)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu=0.0, lam=0.5),
            dict(mu=1.0, lam=0.5),
            dict(mu=0.5, lam=0.005),
            dict(mu=0.5, lam=1.2),
            dict(mu=0.5, lam=0.5, kappa=0.0),
            dict(mu=0.5, lam=0.5, rho=-0.1),
            dict(mu=0.5, lam=0.5, m_space=2),
            dict(mu=0.5, lam=0.5, n_time=-1),
            dict(mu=0.5, lam=0.5, t_end=0.0),
            dict(mu=0.5, lam=0.5, dimension=3),
            dict(mu=0.5, lam=0.5, dimension=2, rho=1.0),
            # NaN fails no ordered comparison, so each check must be written
            # to reject it; infinite coefficients and final times are out too
            dict(mu=float("nan"), lam=0.5),
            dict(mu=0.5, lam=float("nan")),
            dict(mu=0.5, lam=0.5, kappa=float("nan")),
            dict(mu=0.5, lam=0.5, kappa=float("inf")),
            dict(mu=0.5, lam=0.5, rho=float("nan")),
            dict(mu=0.5, lam=0.5, rho=float("inf")),
            dict(mu=0.5, lam=0.5, t_end=float("nan")),
            dict(mu=0.5, lam=0.5, t_end=float("inf")),
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ParameterDomainError):
            SolverConfig(**kwargs)

    def test_dimension_mismatch_rejected(self):
        cfg = SolverConfig(mu=0.5, lam=0.5, rho=0.0, dimension=2)
        with pytest.raises(ParameterDomainError):
            solve_1d(cfg, lambda x, t: 0.0 * x * t)

    def test_problem_config_mismatch_rejected(self):
        # this pair once solved silently to a Linf error near 1
        cfg = SolverConfig(mu=0.6, lam=0.5, kappa=1.0, m_space=8, n_time=4)
        with pytest.raises(ParameterDomainError, match="mu"):
            solve_1d(cfg, ManufacturedProblem(mu=0.3, nu=1.5, kappa=2.0))
        cfg = SolverConfig(mu=0.6, lam=0.5, rho=0.0, m_space=8, n_time=4)
        for name, field in (
            ("kappa", dict(kappa=2.0)),
            ("rho", dict(rho=0.5)),
            ("t_end", dict(t_end=2.0)),
            ("dimension", dict(dim=2)),
        ):
            prob = ManufacturedProblem(**{**dict(mu=0.6, nu=1.5, rho=0.0), **field})
            with pytest.raises(ParameterDomainError, match=name):
                solve_1d(cfg, prob)


class TestEvaluation:
    def make_solution(self):
        cfg = SolverConfig(mu=0.5, lam=0.5, m_space=8, n_time=3)
        return solve_1d(cfg, ManufacturedProblem(mu=0.5, nu=1.5))

    def test_grid_shape(self):
        sol = self.make_solution()
        out = evaluate_grid(sol, np.linspace(-0.9, 0.9, 7), np.linspace(0.0, 1.0, 5))
        assert out.shape == (5, 7)

    def test_time_domain_checked(self):
        sol = self.make_solution()
        with pytest.raises(ParameterDomainError):
            evaluate_grid(sol, np.array([0.0]), np.array([1.5]))
        with pytest.raises(ParameterDomainError):
            evaluate_grid(sol, np.array([0.0]), np.array([-0.1]))
        with pytest.raises(ParameterDomainError):
            evaluate_grid(sol, np.array([0.0]), np.array([0.5, np.nan]))
        with pytest.raises(ParameterDomainError):
            error_norms(sol, ManufacturedProblem(mu=0.5, nu=1.5).exact, time=float("nan"))

    def test_space_domain_checked(self):
        sol = self.make_solution()
        with pytest.raises(ParameterDomainError):
            evaluate_grid(sol, np.array([1.01]), np.array([0.5]))
        with pytest.raises(ParameterDomainError):
            evaluate_grid(sol, np.array([0.2, np.nan]), np.array([0.5]))

    def test_error_report_fields(self):
        sol = self.make_solution()
        rep = error_norms(sol, ManufacturedProblem(mu=0.5, nu=1.5).exact, n_nodes=500)
        assert isinstance(rep, ErrorReport)
        assert rep.time == 1.0
        assert rep.n_nodes == 500
        assert rep.l2 <= rep.linf

    def test_node_count_validated(self):
        sol = self.make_solution()
        with pytest.raises(ParameterDomainError):
            error_norms(sol, ManufacturedProblem(mu=0.5, nu=1.5).exact, n_nodes=0)
