"""Assembly tests against closed-form and adaptive-quadrature oracles.

The temporal operators are checked two independent ways: entrywise against an
exact fractional-monomial expansion (each basis member is a finite sum of
powers t^((k+1)lam), whose Caputo derivatives and mutual integrals are known
in closed form through Gamma functions), and against adaptive quadrature of
the defining integrals.  The monomial oracle builds its polynomials with
scipy.special.jacobi, independent of the package's recurrence code.
"""

import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import legval
from scipy.integrate import quad
from scipy.linalg import cholesky
from scipy.special import jacobi as scipy_jacobi

from muntzspec import assembly
from muntzspec.assembly import (
    ManufacturedProblem,
    assemble_forcing_1d,
    assemble_forcing_2d,
    assemble_spatial,
    assemble_temporal,
    caputo_power,
    default_inner_points,
)
from muntzspec.basis import MuntzBasis, SpatialBasis, muntz_jacobi_table, spatial_table
from muntzspec.errors import ParameterDomainError
from muntzspec.quadrature import gauss_jacobi


def member_power_coeffs(n, alpha):
    """Exact coefficients c_k with member_n(t) = sum_k c_k s^(k+1), s = t^lam.

    The member is ((n+alpha+1)/(n+1)) * s * P_n^(alpha,1)(2s-1); the shifted
    Jacobi coefficients are built by the classical three-term recurrence in
    50-digit arithmetic, because the alternating signs cancel nine orders of
    magnitude by degree six and double precision would spoil the oracle.
    """
    a, b = mpmath.mpf(alpha), mpmath.mpf(1)
    polys = [[mpmath.mpf(1)]]
    if n >= 1:
        polys.append([-(b + 1), a + b + 2])
    for k in range(1, n):
        k_ = mpmath.mpf(k)
        c1 = 2 * (k_ + 1) * (k_ + a + b + 1) * (2 * k_ + a + b)
        c2 = (2 * k_ + a + b + 1) * (a * a - b * b)
        c3 = (2 * k_ + a + b) * (2 * k_ + a + b + 1) * (2 * k_ + a + b + 2)
        c4 = 2 * (k_ + a) * (k_ + b) * (2 * k_ + a + b + 2)
        new = [mpmath.mpf(0)] * (k + 2)
        for i, c in enumerate(polys[k]):
            new[i] += (c2 - c3) * c
            new[i + 1] += 2 * c3 * c
        for i, c in enumerate(polys[k - 1]):
            new[i] -= c4 * c
        polys.append([c / c1 for c in new])
    pref = (mpmath.mpf(n) + a + 1) / (mpmath.mpf(n) + 1)
    return [pref * c for c in polys[n]]


def test_member_power_coeffs_match_scipy():
    # sanity of the oracle helper itself against an unrelated construction
    for n in range(4):
        poly = scipy_jacobi(n, 0.5, 1.0)(np.poly1d([2.0, -1.0]))
        ref = (n + 1.5) / (n + 1.0) * poly.coeffs[::-1]
        got = np.array([float(c) for c in member_power_coeffs(n, 0.5)])
        np.testing.assert_allclose(got, ref, rtol=1e-12)


def oracle_temporal(n, mu, lam, alpha):
    """Mass and stiffness matrices from the fractional-monomial expansion,
    accumulated in 50-digit arithmetic and rounded once at the end."""
    with mpmath.workdps(50):
        lam_, mu_ = mpmath.mpf(lam), mpmath.mpf(mu)
        coeffs = [member_power_coeffs(k, alpha) for k in range(n + 1)]
        mass = np.zeros((n + 1, n + 1))
        stiff = np.zeros((n + 1, n + 1))
        for q in range(n + 1):
            for nn in range(n + 1):
                acc_m = mpmath.mpf(0)
                acc_s = mpmath.mpf(0)
                for k, ck in enumerate(coeffs[nn]):
                    drop = mpmath.gamma((k + 1) * lam_ + 1) / mpmath.gamma(
                        (k + 1) * lam_ + 1 - mu_
                    )
                    for j, cj in enumerate(coeffs[q]):
                        joint = (k + j + 2) * lam_
                        acc_m += ck * cj / (joint + 1)
                        acc_s += ck * drop * cj / (joint + 1 - mu_)
                mass[q, nn] = float(acc_m)
                stiff[q, nn] = float(acc_s)
    return mass, stiff


class TestCaputoPower:
    def test_against_convolution_quadrature(self):
        # direct Caputo definition: (1/Gamma(1-mu)) int_0^t (t-s)^(-mu) f'(s) ds
        mu, nu, t = 0.3, 0.9, 0.25
        val, err = quad(
            lambda s: nu / math.gamma(1.0 - mu),
            0.0,
            t,
            weight="alg",
            wvar=(nu - 1.0, -mu),
        )
        assert err < 1e-12
        np.testing.assert_allclose(caputo_power(mu, nu, t), val, rtol=1e-8)

    @pytest.mark.parametrize("mu", [0.12, 0.5, 0.93])
    def test_order_mu_power_gives_constant(self, mu):
        t = np.array([0.2, 0.5, 0.8, 1.0])
        np.testing.assert_allclose(
            caputo_power(mu, mu, t), math.gamma(mu + 1.0) * np.ones(4), rtol=1e-13
        )

    def test_first_power_matches_classic_formula(self):
        # D^mu t = t^(1-mu) / Gamma(2-mu)
        mu, t = 0.4, 0.63
        np.testing.assert_allclose(
            caputo_power(mu, 1.0, t), t ** (1.0 - mu) / math.gamma(2.0 - mu), rtol=1e-14
        )

    @pytest.mark.parametrize(
        "mu,nu",
        [
            (0.0, 0.5),
            (1.0, 0.5),
            (1.3, 0.5),
            (0.5, 0.0),
            (0.5, -1.0),
            (0.5, float("nan")),
            (0.5, float("inf")),
        ],
    )
    def test_domain_validation(self, mu, nu):
        with pytest.raises(ParameterDomainError):
            caputo_power(mu, nu, 0.5)

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterDomainError):
            caputo_power(0.5, 0.5, -0.1)


class TestSpatialOperators:
    @pytest.mark.parametrize("m", [4, 7, 12])
    def test_mass_matches_quadrature_gram(self, m):
        ops = assemble_spatial(m)
        rule = gauss_jacobi(0.0, 0.0, m + 4)
        tab = spatial_table(ops.basis, rule.nodes)
        gram = (tab * rule.weights) @ tab.T
        np.testing.assert_allclose(ops.mass, gram, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("m", [4, 7, 12])
    def test_convection_matches_quadrature_pairing(self, m):
        # entry [j, k] pairs the derivative of mode k against mode j
        ops = assemble_spatial(m)
        rule = gauss_jacobi(0.0, 0.0, m + 4)
        tab = spatial_table(ops.basis, rule.nodes)
        c = ops.basis.coeffs
        dtab = np.zeros_like(tab)
        for k in range(m - 1):
            dcoef = np.zeros(m + 2)
            dcoef[k + 1] = -c[k] * (2 * k + 3)
            dtab[k] = legval(rule.nodes, dcoef)
        pairing = (tab * rule.weights) @ dtab.T
        np.testing.assert_allclose(ops.convection, pairing, rtol=0, atol=1e-13)

    def test_known_entries(self):
        # (phi_0, phi_0) = (2/1 + 2/5) / 6 = 2/5 and (phi_1', phi_0) = 2/sqrt(60)
        ops = assemble_spatial(6)
        np.testing.assert_allclose(ops.mass[0, 0], 0.4, rtol=1e-15)
        np.testing.assert_allclose(ops.convection[0, 1], 2.0 / math.sqrt(60.0), rtol=1e-15)
        np.testing.assert_allclose(ops.convection[1, 0], -2.0 / math.sqrt(60.0), rtol=1e-15)

    def test_mass_structure_and_spd(self):
        ops = assemble_spatial(11)
        mass = ops.mass
        np.testing.assert_allclose(mass, mass.T, rtol=0, atol=0)
        for j in range(10):
            for k in range(10):
                if abs(j - k) in (1, 3) or abs(j - k) > 3:
                    assert mass[j, k] == 0.0
        cholesky(mass)  # raises if not positive definite

    def test_convection_antisymmetric_bidiagonal(self):
        ops = assemble_spatial(11)
        conv = ops.convection
        np.testing.assert_allclose(conv, -conv.T, rtol=0, atol=0)
        assert np.all(np.diag(conv) == 0.0)
        for j in range(10):
            for k in range(10):
                if abs(j - k) != 1:
                    assert conv[j, k] == 0.0


class TestTemporalOperators:
    @pytest.mark.parametrize("lam", [1.0, 0.5])
    @pytest.mark.parametrize("mu", [0.3, 0.7])
    def test_against_monomial_oracle(self, lam, mu):
        n, alpha = 6, 0.5
        ops = assemble_temporal(n, mu, lam)
        mass_o, stiff_o = oracle_temporal(n, mu, lam, alpha)
        np.testing.assert_allclose(
            ops.mass, mass_o, rtol=1e-8, atol=1e-10 * np.abs(mass_o).max()
        )
        np.testing.assert_allclose(
            ops.stiffness, stiff_o, rtol=1e-8, atol=1e-10 * np.abs(stiff_o).max()
        )

    def test_small_lambda_against_monomial_oracle(self):
        n, mu, lam, alpha = 4, 0.6, 0.0962, 0.5
        ops = assemble_temporal(n, mu, lam)
        mass_o, stiff_o = oracle_temporal(n, mu, lam, alpha)
        np.testing.assert_allclose(
            ops.mass, mass_o, rtol=1e-8, atol=1e-10 * np.abs(mass_o).max()
        )
        np.testing.assert_allclose(
            ops.stiffness, stiff_o, rtol=1e-8, atol=1e-10 * np.abs(stiff_o).max()
        )

    def test_lowest_entries_closed_form(self):
        # lowest member at alpha = 1/2, lam = 1 is 1.5 t, so the mass entry is
        # 0.75 and the mu = 1/2 stiffness entry is 0.9 / Gamma(3/2)
        ops = assemble_temporal(0, 0.5, 1.0)
        np.testing.assert_allclose(ops.mass[0, 0], 0.75, rtol=1e-13)
        np.testing.assert_allclose(
            ops.stiffness[0, 0], 0.9 / math.gamma(1.5), rtol=1e-13
        )

    def test_mass_against_adaptive_quadrature(self):
        n, lam = 3, 0.3
        ops = assemble_temporal(n, 0.5, lam)
        basis = MuntzBasis(lam, n)
        # substitute s = t^lam: the power-law factor s^(1/lam - 1) becomes an
        # exact algebraic weight and the rest of the integrand is polynomial
        for q in range(n + 1):
            for nn in range(q, n + 1):
                val, err = quad(
                    lambda s: muntz_jacobi_table(basis, s ** (1.0 / lam))[nn]
                    * muntz_jacobi_table(basis, s ** (1.0 / lam))[q]
                    / lam,
                    0.0,
                    1.0,
                    weight="alg",
                    wvar=(1.0 / lam - 1.0, 0.0),
                )
                assert err < 1e-10
                np.testing.assert_allclose(ops.mass[q, nn], val, rtol=1e-10)

    def test_stiffness_column_against_convolution_quadrature(self):
        # direct route: Caputo derivative of the trial member by adaptive
        # convolution quadrature at sample points, then an outer quadrature
        # against the test member
        n, mu, lam, alpha = 2, 0.4, 0.5, 0.5
        ops = assemble_temporal(n, mu, lam)
        basis = MuntzBasis(lam, n)
        coeffs = [float(c) for c in member_power_coeffs(1, alpha)]

        def caputo_member(t):
            return sum(
                ck * caputo_power(mu, (k + 1) * lam, t) for k, ck in enumerate(coeffs)
            )

        for q in range(n + 1):
            val, err = quad(
                lambda t: caputo_member(t) * muntz_jacobi_table(basis, t)[q],
                0.0,
                1.0,
                epsabs=1e-12,
                limit=200,
            )
            assert err < 1e-8
            np.testing.assert_allclose(ops.stiffness[q, 1], val, rtol=1e-7)

    @pytest.mark.parametrize("lam", [1.0, 0.5, 0.2, 0.0899])
    @pytest.mark.parametrize("mu", [0.3, 0.7])
    def test_inner_rule_saturated(self, lam, mu, monkeypatch):
        n = 10
        base = assemble_temporal(n, mu, lam)
        refined_points = 2 * default_inner_points(n)
        monkeypatch.setattr(assembly, "default_inner_points", lambda _: refined_points)
        refined = assemble_temporal(n, mu, lam)
        scale = np.abs(base.stiffness).max()
        assert np.abs(refined.stiffness - base.stiffness).max() <= 1e-10 * scale

    @pytest.mark.parametrize("lam", [1.0, 0.5, 0.0962])
    def test_mass_spd_and_stiffness_diagonal_positive(self, lam):
        ops = assemble_temporal(10, 0.65, lam)
        np.testing.assert_allclose(ops.mass, ops.mass.T, rtol=0, atol=0)
        cholesky(ops.mass)
        assert np.all(np.diag(ops.stiffness) > 0.0)

    @pytest.mark.parametrize("mu", [1e-6, 0.999999])
    def test_extreme_orders_stay_finite(self, mu):
        ops = assemble_temporal(6, mu, 0.0899)
        assert np.all(np.isfinite(ops.stiffness))
        assert np.all(np.isfinite(ops.mass))

    @pytest.mark.parametrize("lam", [0.009, 0.0, -0.5, 1.5])
    def test_lambda_guard(self, lam):
        with pytest.raises(ParameterDomainError):
            assemble_temporal(4, 0.5, lam)

    @pytest.mark.parametrize("mu", [0.0, 1.0, -0.2])
    def test_order_guard(self, mu):
        with pytest.raises(ParameterDomainError):
            assemble_temporal(4, mu, 0.5)


class TestManufacturedProblem:
    def test_forcing_balances_equation(self):
        # independent route: Caputo term by adaptive convolution quadrature,
        # spatial derivatives by central differences
        prob = ManufacturedProblem(mu=0.4, nu=1.3, kappa=0.7, rho=0.9)
        x0, t0, h = 0.37, 0.6, 1e-4
        cap, err = quad(
            lambda s: prob.nu / math.gamma(1.0 - prob.mu),
            0.0,
            t0,
            weight="alg",
            wvar=(prob.nu - 1.0, -prob.mu),
        )
        assert err < 1e-12
        cap *= math.sin(math.pi * x0)
        u = lambda x: prob.exact(x, t0)
        uxx = (u(x0 + h) - 2.0 * u(x0) + u(x0 - h)) / h**2
        ux = (u(x0 + h) - u(x0 - h)) / (2.0 * h)
        oracle = cap - prob.kappa * uxx + prob.rho * ux
        np.testing.assert_allclose(prob.forcing(x0, t0), oracle, rtol=1e-6)

    def test_forcing_balances_equation_2d(self):
        prob = ManufacturedProblem(mu=0.55, nu=1.2, kappa=1.3, rho=0.0, dim=2)
        x0, y0, t0, h = 0.41, -0.23, 0.7, 1e-4
        cap, err = quad(
            lambda s: prob.nu / math.gamma(1.0 - prob.mu),
            0.0,
            t0,
            weight="alg",
            wvar=(prob.nu - 1.0, -prob.mu),
        )
        assert err < 1e-12
        cap *= math.sin(math.pi * x0) * math.sin(math.pi * y0)
        u = lambda x, y: prob.exact(x, t0, y=y)
        lap = (
            u(x0 + h, y0)
            + u(x0 - h, y0)
            + u(x0, y0 + h)
            + u(x0, y0 - h)
            - 4.0 * u(x0, y0)
        ) / h**2
        oracle = cap - prob.kappa * lap
        np.testing.assert_allclose(prob.forcing(x0, t0, y=y0), oracle, rtol=1e-6)

    def test_exact_vanishes_on_boundary_and_start(self):
        prob = ManufacturedProblem(mu=0.5, nu=0.8)
        np.testing.assert_allclose(prob.exact(np.array([-1.0, 1.0]), 0.7), 0.0, atol=1e-15)
        assert prob.exact(0.3, 0.0) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu=0.0, nu=1.0),
            dict(mu=0.5, nu=0.0),
            dict(mu=0.5, nu=1.0, kappa=0.0),
            dict(mu=0.5, nu=1.0, rho=-1.0),
            dict(mu=0.5, nu=1.0, dim=3),
            dict(mu=0.5, nu=1.0, dim=2, rho=1.0),
            dict(mu=0.5, nu=1.0, t_end=0.0),
            # NaN fails no ordered comparison, so each check must be written
            # to reject it; infinite parameters are out too
            dict(mu=float("nan"), nu=1.0),
            dict(mu=0.5, nu=float("nan")),
            dict(mu=0.5, nu=float("inf")),
            dict(mu=0.5, nu=1.0, kappa=float("nan")),
            dict(mu=0.5, nu=1.0, kappa=float("inf")),
            dict(mu=0.5, nu=1.0, rho=float("nan")),
            dict(mu=0.5, nu=1.0, rho=float("inf")),
            dict(mu=0.5, nu=1.0, t_end=float("nan")),
            dict(mu=0.5, nu=1.0, t_end=float("inf")),
        ],
    )
    def test_domain_validation(self, kwargs):
        with pytest.raises(ParameterDomainError):
            ManufacturedProblem(**kwargs)


class TestForcingAssembly:
    def test_gram_pairing_1d(self):
        # f equal to a product of basis members turns the forcing matrix into
        # a product of mass-matrix columns
        lam = 0.5
        sb = SpatialBasis(8)
        tb = MuntzBasis(lam, 5)
        ops_x = assemble_spatial(8)
        ops_t = assemble_temporal(5, 0.5, lam)

        def f(x, t):
            return spatial_table(sb, np.asarray(x))[2] * muntz_jacobi_table(tb, t)[2]

        F = assemble_forcing_1d(f, sb, tb)
        expected = np.outer(ops_t.mass[:, 2], ops_x.mass[2, :])
        np.testing.assert_allclose(F, expected, rtol=1e-10, atol=1e-14)

    def test_gram_pairing_2d(self):
        lam = 0.5
        sb = SpatialBasis(6)
        tb = MuntzBasis(lam, 4)
        ops_x = assemble_spatial(6)
        ops_t = assemble_temporal(4, 0.5, lam)

        def f(x, y, t):
            return (
                spatial_table(sb, np.asarray(x))[1]
                * spatial_table(sb, np.asarray(y))[0]
                * muntz_jacobi_table(tb, t)[2]
            )

        F = assemble_forcing_2d(f, sb, tb)
        expected = np.outer(ops_t.mass[:, 2], np.kron(ops_x.mass[1, :], ops_x.mass[0, :]))
        np.testing.assert_allclose(F, expected, rtol=1e-10, atol=1e-14)

    def test_manufactured_matches_generic_callable_1d(self):
        prob = ManufacturedProblem(mu=0.4, nu=0.9, kappa=1.2, rho=0.7, t_end=2.0)
        sb = SpatialBasis(10)
        tb = MuntzBasis(0.3, 6)
        F_fast = assemble_forcing_1d(prob, sb, tb, t_end=2.0)
        F_generic = assemble_forcing_1d(lambda x, t: prob.forcing(x, t), sb, tb, t_end=2.0)
        np.testing.assert_allclose(F_fast, F_generic, rtol=1e-13, atol=1e-16)

    def test_manufactured_matches_generic_callable_2d(self):
        prob = ManufacturedProblem(mu=0.6, nu=1.6, kappa=0.8, rho=0.0, dim=2, t_end=2.0)
        sb = SpatialBasis(6)
        tb = MuntzBasis(0.25, 4)
        F_fast = assemble_forcing_2d(prob, sb, tb, t_end=2.0)
        F_generic = assemble_forcing_2d(
            lambda x, y, t: prob.forcing(x, t, y=y), sb, tb, t_end=2.0
        )
        np.testing.assert_allclose(F_fast, F_generic, rtol=1e-12, atol=1e-15)

    def test_time_scaling_of_forcing_nodes(self):
        # with t_end = 2 the source must be sampled at twice the reference times
        prob = ManufacturedProblem(mu=0.4, nu=0.9, t_end=2.0)
        sb = SpatialBasis(8)
        tb = MuntzBasis(0.5, 5)
        F_scaled = assemble_forcing_1d(prob, sb, tb, t_end=2.0)
        F_manual = assemble_forcing_1d(lambda x, t: prob.forcing(x, 2.0 * t), sb, tb, t_end=1.0)
        np.testing.assert_allclose(F_scaled, F_manual, rtol=1e-13)

    def test_nonfinite_forcing_rejected(self):
        from muntzspec.errors import NumericalFailure

        sb = SpatialBasis(6)
        tb = MuntzBasis(0.5, 4)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure):
                assemble_forcing_1d(lambda x, t: x / (t - t), sb, tb)
