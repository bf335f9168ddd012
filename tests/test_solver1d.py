"""1D solver tests built on trial-space exactness.

When the exact solution lies in the discrete tensor space and the forcing is
assembled consistently, the Galerkin solve must reproduce it to solver
precision; the reference solutions below are built from numpy Legendre
polynomials and the closed-form Caputo power rule, independent of the
package's basis tables.
"""

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from muntzspec.assembly import ManufacturedProblem, caputo_power
from muntzspec.errors import NumericalFailure, ParameterDomainError
from muntzspec.solver1d import (
    ErrorReport,
    SolverConfig,
    error_norms,
    evaluate_grid,
    solve_1d,
)


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
        # near-collinear temporal members push the condition estimate past the
        # warning tier; the solution must come back tagged yet accurate
        prob = ManufacturedProblem(mu=0.12, nu=0.88, kappa=1.0, rho=1.0)
        cfg = SolverConfig(mu=0.12, lam=0.0962, m_space=20, n_time=20)
        with pytest.warns(RuntimeWarning):
            sol = solve_1d(cfg, prob)
        assert sol.cond_warning is True
        assert sol.residual <= 1e-10
        assert error_norms(sol, prob.exact).linf <= 1e-6

    def test_diagnostics_recorded(self):
        prob = ManufacturedProblem(mu=0.5, nu=1.5)
        cfg = SolverConfig(mu=0.5, lam=0.5, m_space=12, n_time=6)
        sol = solve_1d(cfg, prob)
        assert sol.residual <= 1e-10
        assert sol.cond_estimate >= 1.0
        assert sol.cond_warning is False
        assert sol.coeffs.shape == (7, 11)
        assert not sol.coeffs.flags.writeable


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
            dict(mu=0.5, lam=0.5, alpha=-1.0),
            dict(mu=0.5, lam=0.5, dimension=3),
            dict(mu=0.5, lam=0.5, dimension=2, rho=1.0),
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

    def test_space_domain_checked(self):
        sol = self.make_solution()
        with pytest.raises(ParameterDomainError):
            evaluate_grid(sol, np.array([1.01]), np.array([0.5]))

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
