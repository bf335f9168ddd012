"""2D solver tests: rotated-basis structure, trial-space exactness, and
agreement between the QZ fast path and the unrotated dense oracle,
which lives here (`solve_2d_dense`), next to the 1D one in test_solver1d.py."""

import pathlib

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg
from scipy.linalg import lu_factor, lu_solve, qz

import muntzspec
from muntzspec import mltune, solver2d
from muntzspec.assembly import (
    ManufacturedProblem,
    TemporalOperators,
    assemble_forcing_2d,
    assemble_spatial,
    assemble_temporal,
    caputo_power,
)
from muntzspec.errors import NumericalFailure, ParameterDomainError
from muntzspec.quadrature import gauss_jacobi
from muntzspec.solver1d import (
    ErrorReport,
    SolverConfig,
    _check_residual,
    _check_source,
    _residual_norm,
)
from muntzspec.solver2d import (
    Solution2D,
    error_norms_2d,
    evaluate_grid_2d,
    fourier_like_basis,
    sigma_table,
    solve_2d,
)

MODELS_DIR = pathlib.Path(muntzspec.__file__).resolve().parent / "models"
DENSE_SIZE_LIMIT = 20000


def solve_2d_dense(config, source):
    """Oracle: the unrotated Kronecker system

        St (x) (Mx (x) Mx) + kappa Mt (x) (I (x) Mx + Mx (x) I)

    solved as one dense LU; only the solved coefficients are rotated, so
    that they compare with solve_2d's."""
    n_unknowns = (config.n_time + 1) * (config.m_space - 1) ** 2
    if n_unknowns > DENSE_SIZE_LIMIT:
        raise ParameterDomainError(
            f"dense 2D path limited to {DENSE_SIZE_LIMIT} unknowns, got {n_unknowns}"
        )
    _check_source(config, source)
    fb = fourier_like_basis(config.m_space)
    ops_t = assemble_temporal(config.n_time, config.mu, config.lam)
    st = ops_t.stiffness * config.t_end ** (-config.mu)
    mt = ops_t.mass
    f_plain = assemble_forcing_2d(source, fb.spatial, ops_t.basis, t_end=config.t_end)
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
    _check_residual(residual, 0.0, False)
    coeffs = solver2d._rotate(fb, vec.reshape(f_plain.shape))
    coeffs.flags.writeable = False
    return Solution2D(config, fb, ops_t.basis, coeffs, residual)


def packaged_lambdas(mu):
    """(ANN λ, spline λ) of the packaged tuners at order mu."""
    net, _ = mltune.load_model(str(MODELS_DIR / "reference_ann.json"))
    spline = mltune.load_spline(str(MODELS_DIR / "reference_spline.json"))
    return mltune.forward(net, mu), float(mltune.spline_predict(spline, mu))


def legendre_mode(m):
    coef = np.zeros(m + 3)
    c = 1.0 / np.sqrt(4.0 * m + 6.0)
    coef[m] = c
    coef[m + 2] = -c
    return npleg.Legendre(coef)


def config_2d(**kwargs):
    kwargs.setdefault("rho", 0.0)
    kwargs.setdefault("dimension", 2)
    return SolverConfig(**kwargs)


class TestFourierLikeBasis:
    @pytest.mark.parametrize("m", [6, 12, 20])
    def test_rotation_orthonormal_and_diagonalizing(self, m):
        fb = fourier_like_basis(m)
        e = fb.transform
        np.testing.assert_allclose(e.T @ e, np.eye(m - 1), rtol=0, atol=1e-12)
        from muntzspec.assembly import assemble_spatial

        mass = assemble_spatial(m).mass
        diag = e.T @ mass @ e
        np.testing.assert_allclose(diag, np.diag(fb.weights), rtol=0, atol=1e-12)
        assert np.all(fb.weights > 0.0)
        assert np.all(np.diff(fb.weights) >= 0.0)

    def test_rotated_modes_have_diagonal_gram(self):
        fb = fourier_like_basis(10)
        rule = gauss_jacobi(0.0, 0.0, 14)
        tab = sigma_table(fb, rule.nodes)
        gram = (tab * rule.weights) @ tab.T
        np.testing.assert_allclose(gram, np.diag(fb.weights), rtol=0, atol=1e-12)

    def test_rotated_derivatives_have_identity_gram(self):
        m = 10
        fb = fourier_like_basis(m)
        rule = gauss_jacobi(0.0, 0.0, 14)
        c = fb.spatial.coeffs
        dtab = np.zeros((m - 1, rule.nodes.size))
        for k in range(m - 1):
            dcoef = np.zeros(m + 2)
            dcoef[k + 1] = -c[k] * (2 * k + 3)
            dtab[k] = npleg.legval(rule.nodes, dcoef)
        dsigma = fb.transform.T @ dtab
        gram = (dsigma * rule.weights) @ dsigma.T
        np.testing.assert_allclose(gram, np.eye(m - 1), rtol=0, atol=1e-12)


class TestModeSolve:
    def test_repeated_solves_are_bit_identical(self):
        # the benchmark re-solves each case and requires the same numbers
        prob = ManufacturedProblem(mu=0.4, nu=0.7, kappa=1.3, rho=0.0, dim=2)
        cfg = config_2d(mu=0.4, lam=0.3, kappa=1.3, m_space=9, n_time=6)
        first = solve_2d(cfg, prob).coeffs
        assert np.array_equal(solve_2d(cfg, prob).coeffs, first)

    def test_two_by_two_blocks_do_not_overflow(self):
        # block entries near 1e200: a 2 x 2 determinant (Cramer's rule)
        # would overflow to inf and give NaN; pivoted elimination does not
        ops_t = assemble_temporal(5, 0.5, 0.5)
        s, t, _, _ = qz(ops_t.stiffness, ops_t.mass, output="real")
        assert np.count_nonzero(np.diag(s, -1)) > 0
        a = np.array([1.0, 1e-3])
        b = np.array([1e200, 1e199])
        want = np.random.default_rng(7).standard_normal((s.shape[0], 2))
        g = a * (s @ want) + b * (t @ want)
        got = solver2d._quasi_triangular_solve(s, t, a, b, g)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    def test_singular_block_raises_numerical_failure(self, monkeypatch):
        def zero_operators(n, mu, lam, **kwargs):
            ops = original(n, mu, lam, **kwargs)
            zero = np.zeros_like(ops.mass)
            return TemporalOperators(ops.basis, zero, zero)

        original = solver2d.assemble_temporal
        monkeypatch.setattr(solver2d, "assemble_temporal", zero_operators)
        cfg = config_2d(mu=0.5, lam=0.5, m_space=6, n_time=3)
        with pytest.raises(NumericalFailure):
            solve_2d(cfg, ManufacturedProblem(mu=0.5, nu=1.5, rho=0.0, dim=2))


class TestSolve2D:
    def test_galerkin_reproduces_trial_space_solution(self):
        # u = phi_0(x) phi_0(y) t^(2 lam) with mu = lam = 1/2
        mu = lam = 0.5
        nu = 2.0 * lam
        cfg = config_2d(mu=mu, lam=lam, kappa=1.4, m_space=6, n_time=3)
        phi = legendre_mode(0)
        d2phi = phi.deriv(2)

        def forcing(x, y, t):
            shape = phi(x) * phi(y)
            lap = d2phi(x) * phi(y) + phi(x) * d2phi(y)
            return shape * caputo_power(mu, nu, t) - cfg.kappa * lap * np.power(t, nu)

        sol = solve_2d(cfg, forcing)
        xs = np.linspace(-1.0, 1.0, 41)
        ts = np.array([0.3, 1.0])
        got = evaluate_grid_2d(sol, xs, xs, ts)
        want = (
            np.power(ts, nu)[:, None, None]
            * phi(xs)[None, :, None]
            * phi(xs)[None, None, :]
        )
        assert np.abs(got - want).max() <= 1e-10

    def test_manufactured_solution_resolved_to_roundoff(self):
        prob = ManufacturedProblem(mu=0.5, nu=1.5, kappa=1.0, rho=0.0, dim=2)
        cfg = config_2d(mu=0.5, lam=0.5, m_space=20, n_time=4)
        sol = solve_2d(cfg, prob)
        rep = error_norms_2d(sol, prob.exact)
        assert rep.linf <= 1e-10
        assert rep.l2 <= rep.linf

    def test_time_interval_scaling(self):
        prob = ManufacturedProblem(mu=0.7, nu=2.0, kappa=1.0, rho=0.0, dim=2, t_end=2.0)
        cfg = config_2d(mu=0.7, lam=1.0, m_space=16, n_time=2, t_end=2.0)
        sol = solve_2d(cfg, prob)
        for t_eval in (2.0, 1.1):
            assert error_norms_2d(sol, prob.exact, time=t_eval).linf <= 5e-9

    def test_zero_forcing_gives_zero_solution(self):
        cfg = config_2d(mu=0.5, lam=0.5, m_space=6, n_time=3)
        sol = solve_2d(cfg, lambda x, y, t: 0.0 * x * y * t)
        assert np.abs(sol.coeffs).max() == 0.0
        assert sol.residual <= 1e-10

    def test_diagnostics_recorded(self):
        prob = ManufacturedProblem(mu=0.5, nu=1.5, rho=0.0, dim=2)
        cfg = config_2d(mu=0.5, lam=0.5, m_space=8, n_time=4)
        sol = solve_2d(cfg, prob)
        assert sol.residual <= 1e-10
        assert sol.coeffs.shape == (5, 49)
        assert not sol.coeffs.flags.writeable

    def test_dimension_mismatch_rejected(self):
        cfg = SolverConfig(mu=0.5, lam=0.5, m_space=6, n_time=3)
        with pytest.raises(ParameterDomainError):
            solve_2d(cfg, lambda x, y, t: 0.0 * x * y * t)

    @pytest.mark.parametrize(
        "field", [dict(mu=0.3), dict(kappa=2.0), dict(t_end=2.0), dict(dim=1)]
    )
    def test_problem_config_mismatch_rejected(self, field):
        cfg = config_2d(mu=0.6, lam=0.5, m_space=6, n_time=3)
        prob = ManufacturedProblem(**{**dict(mu=0.6, nu=1.5, rho=0.0, dim=2), **field})
        with pytest.raises(ParameterDomainError):
            solve_2d(cfg, prob)
        with pytest.raises(ParameterDomainError):
            solve_2d_dense(cfg, prob)

    @pytest.mark.parametrize("kappa", [1e300, 1e308])
    def test_overflowing_diffusivity_raises(self, kappa):
        # kappa = 1e300 once returned a solution whose residual was NaN, which
        # passed the residual check; 1e308 one with NaN coefficients, because
        # the separable forcing's infinite time profile went unchecked
        prob = ManufacturedProblem(mu=0.5, nu=1.5, kappa=kappa, rho=0.0, dim=2)
        cfg = config_2d(mu=0.5, lam=0.5, kappa=kappa, m_space=8, n_time=4)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalFailure):
            solve_2d(cfg, prob)

    @pytest.mark.parametrize("kappa", [1e100, 1e150])
    def test_large_forcing_keeps_a_meaningful_residual(self, kappa):
        prob = ManufacturedProblem(mu=0.5, nu=1.5, kappa=kappa, rho=0.0, dim=2)
        cfg = config_2d(mu=0.5, lam=0.5, kappa=kappa, m_space=8, n_time=4)
        sol = solve_2d(cfg, prob)
        assert 0.0 < sol.residual <= 1e-10
        # the solve's own residual, of a perturbed solution
        ops_t = assemble_temporal(cfg.n_time, cfg.mu, cfg.lam)
        fb = sol.fourier
        forcing = solver2d._rotate(fb, assemble_forcing_2d(prob, fb.spatial, ops_t.basis))
        coeffs = sol.coeffs.copy()
        coeffs[0, 0] += 1e-6 * np.abs(coeffs).max()
        w = fb.weights
        applied = (ops_t.stiffness @ coeffs) * np.multiply.outer(w, w).ravel() + kappa * (
            ops_t.mass @ coeffs
        ) * np.add.outer(w, w).ravel()
        assert _residual_norm(applied, forcing) > 1e-10

    @pytest.mark.parametrize("kappa", [1e160, 1e200])
    def test_overflowing_forcing_norm_fails_instead_of_passing(self, kappa):
        prob = ManufacturedProblem(mu=0.5, nu=1.5, kappa=kappa, rho=0.0, dim=2)
        cfg = config_2d(mu=0.5, lam=0.5, kappa=kappa, m_space=8, n_time=4)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalFailure):
            solve_2d(cfg, prob)

    # the orders and sizes at which the packaged ANN's λ once broke the 2D
    # fast path (a complex QZ of the nearly singular temporal pencil left an
    # imaginary residue above 1e-6)
    @pytest.mark.parametrize(
        "mu,n",
        [(0.2, 20), (0.2, 32), (0.2, 48), (0.4, 20), (0.4, 32), (0.4, 48), (0.6, 32), (0.6, 48)],
    )
    def test_packaged_ann_lambda_solves(self, mu, n):
        lam, _ = packaged_lambdas(mu)
        prob = ManufacturedProblem(mu=mu, nu=1.0 - mu, rho=0.0, dim=2)
        sol = solve_2d(config_2d(mu=mu, lam=lam, m_space=n, n_time=n), prob)
        assert error_norms_2d(sol, prob.exact).linf <= 1e-6


class TestFastVsDense:
    def test_paths_agree_on_random_cases(self):
        rng = np.random.default_rng(20240817)
        cfg_sizes = dict(m_space=6, n_time=5)
        worst = 0.0
        for case in range(10):
            mu = float(rng.uniform(0.05, 0.95))
            lam = float(rng.uniform(0.05, 1.0))
            nu = float(rng.uniform(0.3, 2.5))
            kappa = float(rng.uniform(0.3, 3.0))
            prob = ManufacturedProblem(mu=mu, nu=nu, kappa=kappa, rho=0.0, dim=2)
            cfg = config_2d(mu=mu, lam=lam, kappa=kappa, **cfg_sizes)
            fast = solve_2d(cfg, prob)
            dense = solve_2d_dense(cfg, prob)
            scale = np.abs(dense.coeffs).max()
            diff = np.abs(fast.coeffs - dense.coeffs).max() / scale
            worst = max(worst, diff)
        assert worst <= 1e-9

    @pytest.mark.parametrize("mu", [0.12, 0.5, 0.85])
    def test_paths_agree_at_packaged_lambdas(self, mu):
        # near-singular temporal pencils at small λ move the coefficients of
        # both paths, so they are compared as functions on a grid
        xs = np.linspace(-0.95, 0.95, 17)
        ts = np.array([0.25, 1.0])
        prob = ManufacturedProblem(mu=mu, nu=1.0 - mu, rho=0.0, dim=2)
        for lam in packaged_lambdas(mu):
            cfg = config_2d(mu=mu, lam=lam, m_space=10, n_time=12)
            fast = evaluate_grid_2d(solve_2d(cfg, prob), xs, xs, ts)
            dense = evaluate_grid_2d(solve_2d_dense(cfg, prob), xs, xs, ts)
            assert np.abs(fast - dense).max() <= 1e-9 * np.abs(dense).max()

    @staticmethod
    def assert_agree(cfg, prob):
        fast = solve_2d(cfg, prob)
        dense = solve_2d_dense(cfg, prob)
        scale = np.abs(dense.coeffs).max()
        assert np.abs(fast.coeffs - dense.coeffs).max() <= 1e-9 * scale
        assert fast.residual <= 1e-14

    def test_agree_through_two_by_two_schur_blocks(self):
        cfg = config_2d(mu=0.5, lam=0.5, m_space=7, n_time=5)
        ops_t = assemble_temporal(cfg.n_time, cfg.mu, cfg.lam)
        s, _, _, _ = qz(ops_t.stiffness, ops_t.mass, output="real")
        assert np.count_nonzero(np.diag(s, -1)) > 0
        self.assert_agree(cfg, ManufacturedProblem(mu=0.5, nu=1.5, rho=0.0, dim=2))

    @pytest.mark.parametrize("n_time", [0, 1])
    def test_agree_at_the_smallest_temporal_sizes(self, n_time):
        cfg = config_2d(mu=0.6, lam=0.4, m_space=7, n_time=n_time)
        self.assert_agree(cfg, ManufacturedProblem(mu=0.6, nu=0.8, rho=0.0, dim=2))

    def test_agree_at_huge_diffusivity(self):
        kappa = 1e100
        cfg = config_2d(mu=0.5, lam=0.5, kappa=kappa, m_space=7, n_time=5)
        self.assert_agree(cfg, ManufacturedProblem(mu=0.5, nu=1.5, kappa=kappa, rho=0.0, dim=2))

    def test_dense_size_guard(self):
        cfg = config_2d(mu=0.5, lam=0.5, m_space=40, n_time=30)
        with pytest.raises(ParameterDomainError):
            solve_2d_dense(cfg, ManufacturedProblem(mu=0.5, nu=1.0, rho=0.0, dim=2))


class TestEvaluation2D:
    def make_solution(self):
        cfg = config_2d(mu=0.5, lam=0.5, m_space=8, n_time=3)
        return solve_2d(cfg, ManufacturedProblem(mu=0.5, nu=1.5, rho=0.0, dim=2))

    def test_grid_shape(self):
        sol = self.make_solution()
        out = evaluate_grid_2d(
            sol, np.linspace(-0.9, 0.9, 5), np.linspace(-0.8, 0.8, 7), np.array([0.4, 1.0])
        )
        assert out.shape == (2, 5, 7)

    def test_boundary_and_start_vanish(self):
        sol = self.make_solution()
        edge = evaluate_grid_2d(sol, np.array([-1.0, 1.0]), np.linspace(-1, 1, 5), np.array([0.7]))
        assert np.abs(edge).max() <= 1e-12
        start = evaluate_grid_2d(sol, np.array([0.3]), np.array([0.2]), np.array([0.0]))
        assert np.abs(start).max() <= 1e-14

    def test_time_domain_checked(self):
        sol = self.make_solution()
        with pytest.raises(ParameterDomainError):
            evaluate_grid_2d(sol, np.array([0.0]), np.array([0.0]), np.array([1.2]))
        with pytest.raises(ParameterDomainError):
            evaluate_grid_2d(sol, np.array([0.0]), np.array([0.0]), np.array([np.nan]))
        prob = ManufacturedProblem(mu=0.5, nu=1.5, rho=0.0, dim=2)
        with pytest.raises(ParameterDomainError):
            error_norms_2d(sol, prob.exact, time=float("nan"))

    def test_error_report_fields(self):
        sol = self.make_solution()
        prob = ManufacturedProblem(mu=0.5, nu=1.5, rho=0.0, dim=2)
        rep = error_norms_2d(sol, prob.exact, n_nodes=31)
        assert isinstance(rep, ErrorReport)
        assert rep.n_nodes == 31
        assert rep.time == 1.0
        assert rep.l2 <= rep.linf
