import numpy as np
import pytest
from test_checks import LOOP, run_entry

from eulernerve import loopcocycle
from eulernerve.checks import loop_cocycle_residual, pairing_ad_invariance, worked_example
from eulernerve.euler import pfaffian_contraction
from eulernerve.forms import FormEvaluator, perm_table
from eulernerve.loopcocycle import (
    LEVEL1_LOOP_SCALE,
    LEVEL2_LOOP_SCALE,
    TANGENT_STEP,
    antisymmetrized_mixed_partial,
    closed_form_mixed_partial,
    cocycle_residual,
    level1_loop_functional,
    level2_loop_functional,
    loop_bracket,
    loop_cocycle,
    loop_element,
    mixed_partial,
    pf_pairing,
    random_loop,
)
from eulernerve.euler import builtin_cocycle
from eulernerve.matgroup import (
    exp_alg,
    nerve_point,
    random_skew,
    skew_project,
    tangent_frame,
    trivialized_difference,
)
from eulernerve.nerve import Cochain
from eulernerve.simplex import quadrature_rule

ZERO = np.zeros((4, 4))


def value_at(xi, theta):
    """xi at one theta, through the stacked ``values``."""
    return xi.values(np.array([theta]))[0]


def unit_pair():
    x = np.zeros((4, 4))
    x[0, 1], x[1, 0], x[2, 3], x[3, 2] = 1.0, -1.0, 1.0, -1.0
    return x


# ---------------------------------------------------------------------------
# pairing


def test_pairing_e12_plus_e34():
    x = unit_pair()
    assert pf_pairing(x, x) == 8.0


def test_pairing_e12_alone():
    x = np.zeros((4, 4))
    x[0, 1], x[1, 0] = 1.0, -1.0
    assert pf_pairing(x, x) == 0.0


def test_pairing_symmetric_exact(rng):
    for _ in range(10):
        a, b = random_skew(4, rng), random_skew(4, rng)
        assert pf_pairing(a, b) == pf_pairing(b, a)


@pytest.mark.parametrize("skew", [True, False], ids=["skew", "non-skew"])
def test_pairing_matches_s4_sum(rng, skew):
    # The closed form must be the S_4 sum itself, for any 4 x 4 input.  The
    # error is measured relative to the sum of the 24 |terms|, since the value
    # itself can cancel to far below them.
    table, _ = perm_table(4)
    for _ in range(200):
        if skew:
            a, b = random_skew(4, rng), random_skew(4, rng)
        else:
            a, b = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        terms = a[table[:, 0], table[:, 1]] * b[table[:, 2], table[:, 3]]
        err = abs(pf_pairing(a, b) - pfaffian_contraction([a, b]))
        assert err <= 1e-14 * np.abs(terms).sum()


def test_pairing_ad_invariance(rng):
    assert run_entry(pairing_ad_invariance, LOOP, rng)["pairing ad-invariance"].passed


def test_pairing_dimension_check():
    with pytest.raises(ValueError):
        pf_pairing(np.zeros((6, 6)), np.zeros((6, 6)))


# ---------------------------------------------------------------------------
# the cocycle


def test_alpha_vanishes_on_equal_arguments(rng):
    xi = random_loop(4, 2, rng)
    assert abs(loop_cocycle(xi, xi)) < 1e-15


def test_alpha_vanishes_on_constants(rng):
    a = loop_element(random_skew(4, rng))
    b = loop_element(random_skew(4, rng))
    assert loop_cocycle(a, b) == 0.0


def test_alpha_worked_example(rng):
    assert run_entry(worked_example, LOOP, rng)["worked example = 1/(8 pi)"].passed


def test_alpha_antisymmetric_and_bilinear(rng):
    a, b, c = (random_loop(4, 2, rng) for _ in range(3))
    assert loop_cocycle(a, b) == pytest.approx(-loop_cocycle(b, a), rel=1e-12)
    two_a = loop_element(
        2 * a.c0, [2 * m for m in a.cos_coeffs], [2 * m for m in a.sin_coeffs]
    )
    assert loop_cocycle(two_a, b) == pytest.approx(2 * loop_cocycle(a, b), rel=1e-12)


def test_trapezoid_node_doubling_drift(rng):
    a, b = random_loop(4, 3, rng), random_loop(4, 2, rng)
    v1 = loop_cocycle(a, b)
    v2 = oracle_cocycle(a, b, nodes=2 * (4 * 5 + 8))
    assert abs(v1 - v2) < 1e-13


def test_cocycle_residual_constants():
    rng = np.random.default_rng(0)
    triple = [loop_element(random_skew(4, rng)) for _ in range(3)]
    assert cocycle_residual(*triple) == 0.0


def test_cocycle_residual_zero_argument(rng):
    a, b = random_loop(4, 2, rng), random_loop(4, 2, rng)
    z = loop_element(ZERO)
    assert abs(cocycle_residual(a, b, z)) < 1e-15


def test_cocycle_residual_random_triples(rng):
    assert run_entry(loop_cocycle_residual, LOOP, rng)["cocycle residual"].passed


def test_bracket_matches_pointwise(rng):
    x, y = random_loop(4, 2, rng), random_loop(4, 3, rng)
    br = loop_bracket(x, y)
    for theta in rng.uniform(0, 1, 10):
        a, b = value_at(x, theta), value_at(y, theta)
        assert np.max(np.abs(value_at(br, theta) - (a @ b - b @ a))) < 1e-13


def test_derivative_coefficients():
    x = unit_pair()
    xi = loop_element(ZERO, [x], [ZERO])
    d = xi.derivative()
    for theta in (0.1, 0.37):
        expect = -2 * np.pi * np.sin(2 * np.pi * theta) * x
        assert np.max(np.abs(value_at(d, theta) - expect)) < 1e-14


# ---------------------------------------------------------------------------
# loop functionals


def test_level2_functional_vanishes_when_either_scale_is_zero(rng):
    a, b = random_loop(4, 1, rng), random_loop(4, 1, rng)
    assert level2_loop_functional(0.0, a, 0.4, b, theta_nodes=16, t_order=3) == pytest.approx(0.0, abs=1e-30)
    assert level2_loop_functional(0.4, a, 0.0, b, theta_nodes=16, t_order=3) == pytest.approx(0.0, abs=1e-30)


def per_node_level2(y1, xi1, y2, xi2, *, theta_nodes, t_order):
    """Reference: the level-2 functional, one point and frame per node."""
    e22 = builtin_cocycle(4).components[(2, 2)]
    rule = quadrature_rule(1, t_order)

    def tangent(h_of, theta):
        return trivialized_difference(
            h_of(theta), h_of(theta + TANGENT_STEP), h_of(theta - TANGENT_STEP), TANGENT_STEP
        )

    total = 0.0
    for i in range(theta_nodes):
        theta = i / theta_nodes
        z_of = lambda th: y2 * value_at(xi2, th)
        h1_of = lambda th: exp_alg(y1 * value_at(xi1, th))
        for node, w in zip(rule.nodes, rule.weights):
            t1 = node[1]
            h2_of = lambda th: exp_alg(t1 * z_of(th))
            point = nerve_point([h1_of(theta), h2_of(theta)])
            v_theta = tangent_frame([tangent(h1_of, theta), tangent(h2_of, theta)])
            v_t = tangent_frame([np.zeros((4, 4)), z_of(theta)])
            total += w * e22.fn(point, (v_theta, v_t)) / theta_nodes
    return float(LEVEL2_LOOP_SCALE * total)


def per_node_level1(y1, xi1, y2, xi2, *, theta_nodes, t_order):
    """Reference: the level-1 functional, one point and frame per node."""
    e13 = builtin_cocycle(4).components[(1, 3)]
    rule = quadrature_rule(2, t_order)
    step = TANGENT_STEP

    def factors(t_vec, th):
        return (exp_alg((1.0 - t_vec[0]) * y1 * value_at(xi1, th)),
                exp_alg(t_vec[2] * y2 * value_at(xi2, th)))

    def point_at(t_vec, th):
        f, s = factors(t_vec, th)
        return f @ s

    total = 0.0
    for i in range(theta_nodes):
        theta = i / theta_nodes
        for node, w in zip(rule.nodes, rule.weights):
            f, s = factors(node, theta)
            base = f @ s
            d1 = skew_project(s.T @ (y1 * value_at(xi1, theta)) @ s)
            d2 = d1 + y2 * value_at(xi2, theta)
            d_theta = trivialized_difference(
                base, point_at(node, theta + step), point_at(node, theta - step), step
            )
            tangents = tuple(tangent_frame([d]) for d in (d1, d2, d_theta))
            total += w * e13.fn(nerve_point([base]), tangents) / theta_nodes
    return float(LEVEL1_LOOP_SCALE * total)


def test_level1_exact_tangents_match_central_differences(monkeypatch):
    # the frames that level1_loop_functional hands to E_{1,3}, captured by a
    # stand-in component, against central differences of the path
    # exp((t_1 + t_2) y1 xi1) exp(t_2 y2 xi2) along t_1 and t_2 (t_0 compensating)
    captured = []

    def spy(point, frames):
        captured.append(frames)
        return np.zeros(point.components[0].shape[:-2])

    stand_in = Cochain(n=4, components={(1, 3): FormEvaluator(1, 3, spy)})
    monkeypatch.setattr(loopcocycle, "builtin_cocycle", lambda n: stand_in)
    rng = np.random.default_rng(17)
    theta_nodes, t_order, step = 3, 2, TANGENT_STEP
    nodes = quadrature_rule(2, t_order).nodes
    for _ in range(8):
        y1, y2 = rng.uniform(-2.0, 2.0, size=2)
        xi1, xi2 = random_loop(4, 1, rng, norm=0.8), random_loop(4, 1, rng, norm=0.8)
        level1_loop_functional(y1, xi1, y2, xi2, theta_nodes=theta_nodes, t_order=t_order)
        d1, d2 = (frame.components[0] for frame in captured.pop()[:2])
        for i in range(theta_nodes):
            x1, x2 = value_at(xi1, i / theta_nodes), value_at(xi2, i / theta_nodes)

            def path(t1, t2):
                return exp_alg((t1 + t2) * y1 * x1) @ exp_alg(t2 * y2 * x2)

            for j, (_, t1, t2) in enumerate(nodes):
                base = path(t1, t2)
                fd1 = trivialized_difference(base, path(t1 + step, t2), path(t1 - step, t2), step)
                fd2 = trivialized_difference(base, path(t1, t2 + step), path(t1, t2 - step), step)
                assert np.max(np.abs(d1[i, j] - fd1)) < 1e-8
                assert np.max(np.abs(d2[i, j] - fd2)) < 1e-8


@pytest.mark.parametrize("y1, y2", [(1e-3, -1e-3), (-1e-3, 1e-3)])
def test_stacked_functionals_equal_per_node_reference(y1, y2):
    # one stacked evaluation on the (theta, node) grid only regroups the same
    # matrix operations, and the weighted sum keeps the node-by-node order,
    # so both functionals reproduce the per-node loops exactly
    rng = np.random.default_rng(8)
    a = random_loop(4, 1, rng, norm=0.8)
    b = random_loop(4, 1, rng, norm=0.8)
    for stacked, reference in ((level1_loop_functional, per_node_level1),
                               (level2_loop_functional, per_node_level2)):
        value = stacked(y1, a, y2, b, theta_nodes=4, t_order=2)
        assert value != 0.0
        assert value == reference(y1, a, y2, b, theta_nodes=4, t_order=2)


def test_level2_mixed_partial_matches_closed_form(rng):
    a = random_loop(4, 1, rng, norm=0.8)
    b = random_loop(4, 1, rng, norm=0.8)
    mixed = mixed_partial(
        lambda ya, yb: level2_loop_functional(ya, a, yb, b, theta_nodes=32, t_order=4)
    )
    assert abs(mixed - closed_form_mixed_partial(a, b)) < 1e-4


def test_phi_of_level1_functional_vanishes(rng):
    a = random_loop(4, 1, rng, norm=0.8)
    b = random_loop(4, 1, rng, norm=0.8)
    val = antisymmetrized_mixed_partial(
        lambda ya, xia, yb, xib: level1_loop_functional(
            ya, xia, yb, xib, theta_nodes=16, t_order=3
        ),
        a,
        b,
    )
    assert abs(val) < 1e-4


def test_phi_of_sum_matches_alpha(rng):
    a = random_loop(4, 1, rng, norm=0.8)
    b = random_loop(4, 1, rng, norm=0.8)
    phi_a = antisymmetrized_mixed_partial(
        lambda ya, xia, yb, xib: level1_loop_functional(
            ya, xia, yb, xib, theta_nodes=16, t_order=3
        ),
        a,
        b,
    )
    phi_b = antisymmetrized_mixed_partial(
        lambda ya, xia, yb, xib: level2_loop_functional(
            ya, xia, yb, xib, theta_nodes=32, t_order=4
        ),
        a,
        b,
    )
    assert abs(phi_a + phi_b - loop_cocycle(a, b)) < 1e-4


def test_level2_kernel_normalization_against_pair_form(rng):
    # the loop functional evaluates the level-2 component with the
    # normalized-alternation single-word convention: exactly 1/4 of the
    # shuffle-convention pair form used by the cocycle checks
    from eulernerve.euler import builtin_cocycle
    from eulernerve.matgroup import nerve_point, random_frame, sample_near_identity

    e22 = builtin_cocycle(4).components[(2, 2)]
    p = nerve_point([sample_near_identity(4, 0.2, rng) for _ in range(2)])
    v, w = random_frame(2, 4, rng), random_frame(2, 4, rng)
    full = e22.fn(p, (v, w))
    # kernel evaluated through pf_pairing with the printed -1/(128 pi^2)
    a_v = v.components[0]
    a_w = w.components[0]
    h2 = p.components[1]
    b_v = h2 @ v.components[1] @ h2.T
    b_w = h2 @ w.components[1] @ h2.T
    kernel = (-1.0 / (128 * np.pi**2)) * (pf_pairing(a_v, b_w) - pf_pairing(a_w, b_v))
    assert kernel == pytest.approx(LEVEL2_LOOP_SCALE * full, rel=1e-12)


def test_phi_of_group_coboundary_is_algebra_differential(rng):
    # for a one-argument functional c, phi(delta c)(x1, x2) = -phi(c)([x1, x2]);
    # checked for c(h) = trace(h) and the twisted c(h) = trace(M h)
    m = rng.standard_normal((4, 4))

    def make_cases():
        yield lambda h: float(np.trace(h)), lambda xi: float(np.trace(xi))
        yield lambda h: float(np.trace(m @ h)), lambda xi: float(np.trace(m @ xi))

    x1, x2 = random_skew(4, rng), random_skew(4, rng)
    from scipy.linalg import expm

    for c, dc in make_cases():
        def delta_c(y_first, xi_first, y_second, xi_second):
            g1 = expm(y_first * xi_first)
            g2 = expm(y_second * xi_second)
            return c(g2) - c(g1 @ g2) + c(g1)

        lhs = antisymmetrized_mixed_partial(delta_c, x1, x2)
        rhs = -dc(x1 @ x2 - x2 @ x1)
        assert abs(lhs - rhs) < 1e-5


# ---------------------------------------------------------------------------
# the theta-grid evaluation against the per-theta code it replaced
#
# The oracle below is the per-node code that loopcocycle ran before loops
# were evaluated on the whole theta grid: one 4 x 4 value, bracket term and
# pairing at a time.  The stacked code does the same elementwise operations in
# the same order, so every pin is ==.


def oracle_value(xi, theta):
    out = np.array(xi.c0)
    for k, (a, b) in enumerate(zip(xi.cos_coeffs, xi.sin_coeffs), start=1):
        w = 2.0 * np.pi * k * theta
        out = out + a * np.cos(w) + b * np.sin(w)
    return out


def oracle_bracket(x, y):
    kout = x.max_frequency + y.max_frequency
    n = x.n
    c0 = np.zeros((n, n))
    cos_c = [np.zeros((n, n)) for _ in range(kout)]
    sin_c = [np.zeros((n, n)) for _ in range(kout)]

    def terms(elem):
        yield 0, "c", elem.c0
        for k, (a, b) in enumerate(zip(elem.cos_coeffs, elem.sin_coeffs), start=1):
            yield k, "c", a
            yield k, "s", b

    def add(freq, kind, mat):
        nonlocal c0
        if freq == 0:
            if kind == "c":
                c0 = c0 + mat
            return
        if kind == "c":
            cos_c[freq - 1] += mat
        else:
            sin_c[freq - 1] += mat

    for ka, kind_a, ma in terms(x):
        for kb, kind_b, mb in terms(y):
            com = ma @ mb - mb @ ma
            s, d = ka + kb, ka - kb
            if kind_a == "c" and kind_b == "c":
                add(abs(d), "c", 0.5 * com)
                add(s, "c", 0.5 * com)
            elif kind_a == "s" and kind_b == "s":
                add(abs(d), "c", 0.5 * com)
                add(s, "c", -0.5 * com)
            elif kind_a == "s" and kind_b == "c":
                add(s, "s", 0.5 * com)
                sign = 1.0 if d >= 0 else -1.0
                add(abs(d), "s", sign * 0.5 * com)
            else:
                add(s, "s", 0.5 * com)
                sign = 1.0 if d >= 0 else -1.0
                add(abs(d), "s", -sign * 0.5 * com)
    return c0, cos_c, sin_c


def oracle_pairing_sum(d1, x2, d2=None, x1=None, *, nodes):
    total = 0.0
    for i in range(nodes):
        theta = i / nodes
        total += pf_pairing(oracle_value(d1, theta), oracle_value(x2, theta))
        if d2 is not None:
            total -= pf_pairing(oracle_value(d2, theta), oracle_value(x1, theta))
    return total


def oracle_cocycle(xi1, xi2, nodes=None):
    if nodes is None:
        nodes = 4 * (xi1.max_frequency + xi2.max_frequency) + 8
    total = oracle_pairing_sum(xi1.derivative(), xi2, xi2.derivative(), xi1, nodes=nodes)
    return float(-(total / nodes) / (128.0 * np.pi**2))


def oracle_closed_form(xi1, xi2):
    nodes = 4 * (xi1.max_frequency + xi2.max_frequency) + 8
    total = oracle_pairing_sum(xi1.derivative(), xi2, nodes=nodes)
    return float(-(total / nodes) / (128.0 * np.pi**2))


def oracle_residual(x1, x2, x3):
    def bracket(x, y):
        c0, cos_c, sin_c = oracle_bracket(x, y)
        return loop_element(c0, cos_c, sin_c)

    return (oracle_cocycle(bracket(x1, x2), x3)
            + oracle_cocycle(bracket(x2, x3), x1)
            + oracle_cocycle(bracket(x3, x1), x2))


FREQS = [(kx, ky) for kx in range(4) for ky in range(4)]


@pytest.mark.parametrize("k", range(4))
def test_values_equal_per_theta_value(k):
    rng = np.random.default_rng(100 + k)
    for _ in range(5):
        xi = random_loop(4, k, rng)
        for theta in (rng.uniform(-1.0, 2.0, 7), np.arange(13) / 13 + TANGENT_STEP):
            stack = xi.values(theta)
            assert stack.shape == (len(theta), 4, 4)
            for i, th in enumerate(theta.tolist()):
                assert np.array_equal(stack[i], oracle_value(xi, th))
                assert np.array_equal(value_at(xi, th), oracle_value(xi, th))


@pytest.mark.parametrize("kx, ky", FREQS)
def test_bracket_equals_per_term_oracle(kx, ky):
    rng = np.random.default_rng(10 * kx + ky)
    for _ in range(5):
        x, y = random_loop(4, kx, rng), random_loop(4, ky, rng)
        br = loop_bracket(x, y)
        c0, cos_c, sin_c = oracle_bracket(x, y)
        assert br.max_frequency == kx + ky
        assert np.array_equal(br.c0, c0)
        for got, want in zip(br.cos_coeffs + br.sin_coeffs, cos_c + sin_c):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("kx, ky", FREQS)
def test_cocycle_and_closed_form_equal_per_theta_oracle(kx, ky):
    rng = np.random.default_rng(1000 + 10 * kx + ky)
    for _ in range(5):
        x, y = random_loop(4, kx, rng), random_loop(4, ky, rng)
        assert loop_cocycle(x, y) == oracle_cocycle(x, y)
        assert closed_form_mixed_partial(x, y) == oracle_closed_form(x, y)


@pytest.mark.parametrize("k", range(4))
def test_cocycle_residual_equals_per_theta_oracle(k):
    rng = np.random.default_rng(2000 + k)
    for _ in range(4):
        triple = [random_loop(4, k, rng),
                  *(random_loop(4, int(kk), rng) for kk in rng.integers(0, k + 1, 2))]
        assert cocycle_residual(*triple) == oracle_residual(*triple)


def test_stacked_pairing_equals_per_matrix_calls(rng):
    x = rng.standard_normal((3, 5, 4, 4))
    y = rng.standard_normal((5, 4, 4))
    pf = pf_pairing(x, y)
    assert pf.shape == (3, 5)
    assert np.array_equal(pf, pf_pairing(y, x))
    for i in range(3):
        for j in range(5):
            assert pf[i, j] == pf_pairing(x[i, j], y[j])
    assert isinstance(pf_pairing(x[0, 0], y[0]), float)


def test_stacked_pairing_dimension_check():
    with pytest.raises(ValueError):
        pf_pairing(np.zeros((3, 6, 6)), np.zeros((3, 6, 6)))
    with pytest.raises(ValueError):
        pf_pairing(np.zeros((3, 4, 4)), np.zeros((3, 6, 6)))
