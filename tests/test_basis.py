"""Basis tests against independent oracles.

Oracles used here: scipy.special.eval_jacobi and numpy.polynomial.legendre for
polynomial values, Beta/Gamma closed forms for norms, Gauss quadrature for
Gram matrices, and modified Gram-Schmidt on raw fractional monomials for the
temporal family.  The derivative tables below are test oracles:
they are checked against numpy's Legendre derivatives and then show that the
spatial basis has orthonormal derivatives (identity stiffness).
"""

import math

import numpy as np
import pytest
from scipy.special import binom, eval_jacobi

from muntzspec import ParameterDomainError
from muntzspec.basis import (
    MuntzBasis,
    SpatialBasis,
    jacobi_table,
    legendre_table,
    muntz_jacobi_table,
    muntz_norm,
    muntz_project,
    spatial_table,
)
from muntzspec.quadrature import gauss_jacobi, gauss_jacobi_unit


def legendre_deriv_table(nmax, x):
    """First derivatives of L_0..L_nmax at x via L'_k = L'_{k-2} + (2k-1) L_{k-1}."""
    x = np.asarray(x, dtype=float)
    vals = legendre_table(max(nmax - 1, 0), x)
    out = np.zeros((nmax + 1,) + x.shape)
    if nmax >= 1:
        out[1] = 1.0
    for k in range(2, nmax + 1):
        out[k] = out[k - 2] + (2.0 * k - 1.0) * vals[k - 1]
    return out


def spatial_deriv_table(basis, x):
    """First derivatives; the Legendre difference telescopes to -c_m (2m+3) L_{m+1}."""
    x = np.asarray(x, dtype=float)
    leg = legendre_table(basis.m_legendre - 1, x)
    nm = basis.n_modes
    scale = -basis.coeffs * (2.0 * np.arange(nm) + 3.0)
    return scale.reshape((nm,) + (1,) * x.ndim) * leg[1 : nm + 1]


def spatial_second_deriv_table(basis, x):
    """Second derivatives, from the derivative table of the Legendre family."""
    x = np.asarray(x, dtype=float)
    dleg = legendre_deriv_table(basis.m_legendre - 1, x)
    nm = basis.n_modes
    scale = -basis.coeffs * (2.0 * np.arange(nm) + 3.0)
    return scale.reshape((nm,) + (1,) * x.ndim) * dleg[1 : nm + 1]


class TestJacobiTable:
    @pytest.mark.parametrize(("alpha", "beta"), [(0.5, 1.0), (1.5, 0.0), (-0.7, 0.0), (0.5, -0.5)])
    def test_matches_scipy_eval_jacobi(self, alpha, beta):
        x = np.linspace(-1.0, 1.0, 13)
        table = jacobi_table(alpha, beta, 9, x)
        for n in range(10):
            np.testing.assert_allclose(table[n], eval_jacobi(n, alpha, beta, x), rtol=1e-12, atol=1e-12)

    def test_legendre_special_case_matches_numpy(self):
        x = np.linspace(-1.0, 1.0, 11)
        table = jacobi_table(0.0, 0.0, 6, x)
        for n in range(7):
            ref = np.polynomial.legendre.legval(x, np.eye(7)[n])
            np.testing.assert_allclose(table[n], ref, rtol=1e-13, atol=1e-14)

    def test_endpoint_value_is_binomial(self):
        for n in range(8):
            value = jacobi_table(0.4, 1.3, n, 1.0)[n]
            assert value == pytest.approx(binom(n + 0.4, n), rel=1e-12)

    def test_degree_one_closed_form(self):
        x = 0.37
        want = 0.5 * (0.2 + 0.9 + 2) * x + 0.5 * (0.2 - 0.9)
        assert jacobi_table(0.2, 0.9, 1, x)[1] == pytest.approx(want)

    def test_legendre_value_at_half(self):
        assert legendre_table(2, np.array(0.5))[2] == pytest.approx(-0.125)

    def test_parameters_at_or_below_minus_one_rejected(self):
        with pytest.raises(ParameterDomainError):
            jacobi_table(-1.0, 0.0, 3, np.array([0.0]))

    def test_legendre_derivative_matches_numpy(self):
        x = np.linspace(-1.0, 1.0, 9)
        table = legendre_deriv_table(6, x)
        for n in range(7):
            ref = np.polynomial.legendre.Legendre(np.eye(7)[n]).deriv()(x)
            np.testing.assert_allclose(table[n], ref, rtol=1e-12, atol=1e-12)


class TestMuntzJacobi:
    def test_degenerate_second_parameter_lowest_member(self):
        basis = MuntzBasis(0.5, 3)
        t = np.array([0.04, 0.25, 0.81])
        np.testing.assert_allclose(muntz_jacobi_table(basis, t)[0], 1.5 * np.sqrt(t), rtol=1e-14)

    def test_exponent_scale_only_rescales_argument(self):
        lam = 0.37
        scaled = MuntzBasis(lam, 4)
        plain = MuntzBasis(1.0, 4)
        t = np.array([0.1, 0.4, 0.9])
        np.testing.assert_allclose(
            muntz_jacobi_table(scaled, t), muntz_jacobi_table(plain, t**lam), rtol=1e-13
        )

    def test_members_vanish_exactly_at_zero(self):
        basis = MuntzBasis(0.3, 4)
        assert np.all(muntz_jacobi_table(basis, np.array([0.0])) == 0.0)

    @pytest.mark.parametrize("lam", [1.0, 0.5, 0.3])
    def test_weighted_gram_is_diagonal_with_closed_form_norms(self, lam):
        nmax = 6
        basis = MuntzBasis(lam, nmax)
        # absorb the pair's squared factor s into the rule's weight
        rule = gauss_jacobi_unit(0.5, 1.0, 64)
        s = rule.nodes
        table = muntz_jacobi_table(basis, np.power(s, 1.0 / lam))
        scaled = table / s
        gram = (scaled * rule.weights) @ scaled.T
        norms = np.array([muntz_norm(basis, k) for k in range(nmax + 1)])
        np.testing.assert_allclose(np.diag(gram), norms, rtol=1e-12)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-10 * np.max(norms)

    def test_lowest_degenerate_norm_value(self):
        # Gamma(2.5) / (2.5 * Gamma(1.5)) = 0.6, independent of the exponent scale
        assert muntz_norm(MuntzBasis(0.5, 2), 0) == pytest.approx(0.6, rel=1e-14)
        assert muntz_norm(MuntzBasis(0.13, 2), 0) == pytest.approx(0.6, rel=1e-14)

    def test_degenerate_branch_matches_gram_schmidt_of_monomials(self):
        lam, alpha, nmax = 0.4, 0.5, 5
        rule = gauss_jacobi_unit(alpha, 1.0, 96)
        s, w = rule.nodes, rule.weights
        wchi = w / (s * s)  # discrete inner product with the family's own weight
        monomials = np.vstack([s ** (k + 1.0) for k in range(nmax + 1)])
        ortho = []
        for v in monomials:
            v = v.copy()
            for q in ortho:  # two passes of modified Gram-Schmidt
                v -= np.sum(wchi * q * v) * q
            for q in ortho:
                v -= np.sum(wchi * q * v) * q
            ortho.append(v / math.sqrt(np.sum(wchi * v * v)))
        basis = MuntzBasis(lam, nmax)
        table = muntz_jacobi_table(basis, np.power(s, 1.0 / lam))
        for k in range(nmax + 1):
            got = table[k] / math.sqrt(muntz_norm(basis, k))
            sign = 1.0 if np.sum(wchi * ortho[k] * got) > 0 else -1.0
            np.testing.assert_allclose(
                got, sign * ortho[k], rtol=1e-8, atol=1e-8 * np.max(np.abs(ortho[k]))
            )

    def test_domain_validation(self):
        with pytest.raises(ParameterDomainError):
            MuntzBasis(0.0, 3)
        with pytest.raises(ParameterDomainError):
            MuntzBasis(1.2, 3)
        basis = MuntzBasis(0.5, 3)
        with pytest.raises(ParameterDomainError):
            muntz_jacobi_table(basis, np.array([-0.1]))
        with pytest.raises(ParameterDomainError):
            muntz_jacobi_table(basis, np.array([0.5, np.nan]))


class TestMuntzProjection:
    def test_lowest_monomial_is_in_span(self):
        lam = 0.5
        basis = MuntzBasis(lam, 3)
        coeffs, err = muntz_project(lambda t: t**lam, basis, 48)
        assert err < 1e-12
        np.testing.assert_allclose(coeffs, [1.0 / 1.5, 0.0, 0.0, 0.0], atol=1e-13)

    def test_fractional_power_in_span_converges_to_machine_precision(self):
        basis = MuntzBasis(0.2, 5)
        coeffs, err = muntz_project(lambda t: t ** (3.0 / 5.0), basis, 64)
        assert err < 1e-12
        t = np.linspace(0.05, 0.95, 11)
        recon = coeffs @ muntz_jacobi_table(basis, t)
        np.testing.assert_allclose(recon, t ** (3.0 / 5.0), atol=1e-12)

    def test_fractional_power_with_unit_scale_decays_algebraically(self):
        errs = {}
        for nmax in (16, 32):
            basis = MuntzBasis(1.0, nmax)
            _, errs[nmax] = muntz_project(lambda t: t ** (3.0 / 5.0), basis, 400)
        assert errs[32] < errs[16]
        assert errs[32] / errs[16] > 0.05

    def test_member_projects_to_unit_coefficient(self):
        basis = MuntzBasis(0.6, 4)
        coeffs, err = muntz_project(lambda t: muntz_jacobi_table(basis, t)[2], basis, 48)
        expected = np.zeros(5)
        expected[2] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-12)
        assert err < 1e-12


class TestSpatialBasis:
    def test_members_vanish_exactly_at_endpoints(self):
        basis = SpatialBasis(8)
        assert np.all(spatial_table(basis, np.array([-1.0, 1.0])) == 0.0)

    def test_values_match_direct_legendre_difference(self):
        basis = SpatialBasis(8)
        x = np.linspace(-1.0, 1.0, 9)
        table = spatial_table(basis, x)
        for m in range(7):
            c = 1.0 / math.sqrt(4.0 * m + 6.0)
            lm = np.polynomial.legendre.legval(x, np.eye(10)[m])
            lm2 = np.polynomial.legendre.legval(x, np.eye(10)[m + 2])
            np.testing.assert_allclose(table[m], c * (lm - lm2), rtol=1e-12, atol=1e-13)

    def test_derivatives_match_numpy_legendre_derivatives(self):
        basis = SpatialBasis(7)
        x = np.linspace(-0.95, 0.95, 7)
        dt = spatial_deriv_table(basis, x)
        d2t = spatial_second_deriv_table(basis, x)
        for m in range(6):
            c = 1.0 / math.sqrt(4.0 * m + 6.0)
            poly = np.polynomial.legendre.Legendre(np.eye(9)[m] - np.eye(9)[m + 2])
            np.testing.assert_allclose(dt[m], c * poly.deriv()(x), rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(d2t[m], c * poly.deriv(2)(x), rtol=1e-12, atol=1e-12)

    def test_derivative_gram_is_identity(self):
        basis = SpatialBasis(9)
        rule = gauss_jacobi(0.0, 0.0, 12)
        deriv = spatial_deriv_table(basis, rule.nodes)
        gram = (deriv * rule.weights) @ deriv.T
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-12)

    def test_too_few_modes_rejected(self):
        with pytest.raises(ParameterDomainError):
            SpatialBasis(2)
