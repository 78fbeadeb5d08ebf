import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import roots_jacobi

from eulernerve.simplex import _gauss_jacobi_01, monomial_integral, quadrature_rule


def test_known_values():
    assert monomial_integral((1, 1)) == Fraction(1, 6)
    assert monomial_integral((2, 2)) == Fraction(1, 30)
    for n in range(1, 7):
        assert monomial_integral((0,) * (n + 1)) == Fraction(1, math.factorial(n))


def test_edge_integral_closed_form():
    # int_0^1 (t0 t1)^{p-1} dt1 = 1 / (C(2p-1, p-1) * p)
    for p in range(1, 7):
        val = monomial_integral((p - 1, p - 1))
        assert val == Fraction(1, math.comb(2 * p - 1, p - 1) * p)


def test_pair_product_values():
    assert monomial_integral((2, 2)) == Fraction(1, math.comb(5, 2) * 3)
    assert monomial_integral((0, 1, 1, 1)) == Fraction(1, 720)


@given(st.lists(st.integers(0, 4), min_size=2, max_size=5))
def test_permutation_symmetry(exponents):
    base = monomial_integral(exponents)
    for perm in itertools.permutations(exponents):
        assert monomial_integral(perm) == base


def test_weights_sum_to_simplex_volume():
    for q in (1, 2, 3):
        rule = quadrature_rule(q, 8)
        assert abs(rule.weights.sum() - 1.0 / math.factorial(q)) < 1e-14


def test_quadrature_line_linear():
    rule = quadrature_rule(1, 1)
    val = rule.integrate(lambda t: t[1])
    assert abs(val - 0.5) < 1e-14
    assert monomial_integral((0, 1)) == Fraction(1, 2)


def test_quadrature_triangle_t0_t1():
    rule = quadrature_rule(2, 4)
    val = rule.integrate(lambda t: t[0] * t[1])
    assert abs(val - float(monomial_integral((1, 1, 0)))) < 1e-14


def test_quadrature_tetrahedron_t1_t2_t3():
    rule = quadrature_rule(3, 6)
    val = rule.integrate(lambda t: t[1] * t[2] * t[3])
    assert abs(val - float(monomial_integral((0, 1, 1, 1)))) < 1e-13


@pytest.mark.parametrize("q", [1, 2, 3])
def test_quadrature_exactness_degree_sweep(q):
    order = 5
    max_deg = 2 * order - 1
    rng = np.random.default_rng(q)
    exps = [tuple(rng.integers(0, max_deg // (q + 1) + 2, q + 1)) for _ in range(20)]
    exps = [e for e in exps if sum(e) <= max_deg]
    rule = quadrature_rule(q, order)
    for e in exps:
        val = rule.integrate(lambda t: float(np.prod([t[i] ** e[i] for i in range(q + 1)])))
        assert abs(val - float(monomial_integral(e))) < 1e-13


def test_monomial_integral_rejects_bad_input():
    with pytest.raises(ValueError):
        monomial_integral((-1, 0))
    with pytest.raises(ValueError):
        monomial_integral(())


def test_big_exponents_exact():
    # big-integer rationals: no overflow
    val = monomial_integral((25, 30, 40))
    assert val == Fraction(
        math.factorial(25) * math.factorial(30) * math.factorial(40),
        math.factorial(2 + 95),
    )
    assert val.denominator > 10**40


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
def test_gauss_jacobi_matches_scipy_roots_jacobi(alpha):
    # the numpy Golub-Welsch rule against scipy's, and against the exact
    # moments int_0^1 u^k (1-u)^alpha du = k! alpha! / (k + alpha + 1)!
    for order in range(1, 17):
        u, w = _gauss_jacobi_01(order, alpha)
        x, ws = roots_jacobi(order, alpha, 0.0)
        assert np.max(np.abs(u - 0.5 * (x + 1.0))) < 1e-14
        assert np.max(np.abs(w - ws / 2.0 ** (alpha + 1))) < 1e-14
        for k in range(2 * order):
            exact = math.factorial(k) * math.factorial(alpha) / math.factorial(k + alpha + 1)
            assert abs(float(np.sum(w * u**k)) - exact) < 1e-15
