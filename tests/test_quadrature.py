"""Gauss-Jacobi rule tests against Beta-function moment oracles.

Oracle: int_0^1 (1-t)^a t^(b+k) dt = B(a+1, b+k+1), evaluated with
scipy.special.beta, which never touches the Golub-Welsch path under test.
"""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import beta as beta_fn, betaln

from muntzspec import ParameterDomainError, gauss_jacobi, gauss_jacobi_unit, quadrature


def unit_moments_oracle(alpha, beta, kmax):
    return np.array([beta_fn(alpha + 1.0, beta + k + 1.0) for k in range(kmax + 1)])


class TestGaussJacobi:
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 20, 64])
    def test_legendre_moments_exact_through_degree(self, n):
        rule = gauss_jacobi(0.0, 0.0, n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            approx = np.sum(rule.weights * rule.nodes**k)
            assert approx == pytest.approx(exact, abs=2e-14 * 2 ** min(k, 8))

    @pytest.mark.parametrize(
        ("alpha", "beta", "n"),
        [(0.5, -0.5, 8), (0.0, 3.2, 6), (-0.7, 0.0, 10), (2.0, 1.0, 12), (0.5, -0.5, 1)],
    )
    def test_unit_interval_moments_match_beta_oracle(self, alpha, beta, n):
        rule = gauss_jacobi_unit(alpha, beta, n)
        exact = unit_moments_oracle(alpha, beta, 2 * n - 1)
        for k in range(2 * n):
            approx = np.sum(rule.weights * rule.nodes**k)
            assert approx == pytest.approx(exact[k], rel=1e-11)

    def test_large_second_exponent_regime(self):
        # the mapped forcing rules use beta = 1/lambda, up to 100
        rule = gauss_jacobi_unit(0.0, 100.0, 40)
        exact = unit_moments_oracle(0.0, 100.0, 6)
        for k in range(7):
            approx = np.sum(rule.weights * rule.nodes**k)
            assert approx == pytest.approx(exact[k], rel=1e-10)

    def test_single_point_rule_is_weight_mean(self):
        rule = gauss_jacobi(0.3, 1.1, 1)
        # one Gauss node sits at the first moment of the normalized weight;
        # on [0, 1] that mean is B(a+1, b+2)/B(a+1, b+1), mapped back to [-1, 1]
        node_oracle = 2.0 * beta_fn(1.3, 3.1) / beta_fn(1.3, 2.1) - 1.0
        assert rule.nodes[0] == pytest.approx(node_oracle, rel=1e-12)
        mass = 2.0 ** (0.3 + 1.1 + 1.0) * beta_fn(1.3, 2.1)
        assert rule.weights[0] == pytest.approx(mass, rel=1e-13)

    def test_nodes_sorted_strictly_interior(self):
        rule = gauss_jacobi(0.5, -0.5, 16)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0

    def test_weights_positive_and_sum_to_weight_mass(self):
        rule = gauss_jacobi(0.7, 0.2, 9)
        assert np.all(rule.weights > 0)
        mass = 2.0 ** (0.7 + 0.2 + 1.0) * beta_fn(1.7, 1.2)
        assert np.sum(rule.weights) == pytest.approx(mass, rel=1e-13)

    def test_symmetric_weight_gives_symmetric_nodes(self):
        rule = gauss_jacobi(0.7, 0.7, 11)
        assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) < 1e-13

    @pytest.mark.parametrize(("alpha", "beta", "n"), [(-1.0, 0.0, 4), (0.0, -1.5, 4), (0.0, 0.0, 0)])
    def test_domain_errors(self, alpha, beta, n):
        with pytest.raises(ParameterDomainError):
            gauss_jacobi(alpha, beta, n)


class TestShiftToUnit:
    def test_affine_node_image_and_weight_scale(self):
        # the [0, 1] rule is the affine image of the [-1, 1] one
        base = gauss_jacobi(0.5, -0.5, 7)
        unit = gauss_jacobi_unit(0.5, -0.5, 7)
        np.testing.assert_allclose(unit.nodes, 0.5 * (base.nodes + 1.0), rtol=0, atol=0)
        np.testing.assert_allclose(unit.weights, base.weights / 2.0, rtol=1e-15)


class TestDirectEigensolver:
    @pytest.mark.parametrize("n", [1, 11, 41])
    @pytest.mark.parametrize(("alpha", "beta"), [(0.0, 1.0 + 1.0 / 0.085), (-0.4, 0.0), (0.0, 7.3)])
    def test_rule_matches_the_eigh_tridiagonal_build(self, alpha, beta, n):
        # the rule calls LAPACK stevd itself; scipy's eigh_tridiagonal picks
        # the same routine, so the bits agree with a build through it (from
        # the cache key, the exponents rounded at 1e-14)
        alpha, beta = round(alpha, 14), round(beta, 14)
        diag, off = quadrature._recurrence(alpha, beta, n)
        if n == 1:
            nodes, first = diag, np.ones(1)
        else:
            nodes, vecs = eigh_tridiagonal(diag, off)
            first = vecs[0]
        moment0 = math.exp((alpha + beta + 1.0) * math.log(2.0) + betaln(alpha + 1.0, beta + 1.0))
        weights = moment0 * first * first
        rule = gauss_jacobi_unit(alpha, beta, n)
        assert np.array_equal(rule.nodes, 0.5 * (nodes + 1.0))
        assert np.array_equal(
            rule.weights, weights * math.exp(-(alpha + beta + 1.0) * math.log(2.0))
        )
        assert np.array_equal(gauss_jacobi(alpha, beta, n).nodes, nodes)


class TestCache:
    def test_repeat_call_shares_object(self):
        assert gauss_jacobi(0.25, 0.5, 6) is gauss_jacobi(0.25, 0.5, 6)

    def test_key_resolution_absorbs_float_noise(self):
        assert gauss_jacobi(0.25, 0.5, 6) is gauss_jacobi(0.25 + 1e-16, 0.5, 6)

    def test_rules_are_immutable(self):
        rule = gauss_jacobi(0.25, 0.5, 6)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
