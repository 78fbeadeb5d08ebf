import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm

from eulernerve.matgroup import (
    DomainError,
    adjoint,
    bracket,
    exp_alg,
    log_grp,
    random_skew,
    sample_haar,
    sample_near_identity,
    skew_project,
)

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def eig_exp(xi):
    # independent oracle: exponential through the eigendecomposition of a
    # normal matrix
    lam, v = np.linalg.eig(xi)
    return np.real(v @ (np.exp(lam)[:, None] * np.conj(v.T)))


def test_exp_identity():
    assert np.allclose(exp_alg(np.zeros((4, 4))), np.eye(4), atol=0)


def test_exp_planar_rotation_by_pi():
    assert np.allclose(exp_alg(np.pi * J), -np.eye(2), atol=1e-14)


@given(st.integers(0, 500))
def test_exp_orthogonal_and_matches_eig_oracle(seed):
    rng = np.random.default_rng(seed)
    n = rng.choice([2, 4, 6])
    xi = random_skew(n, rng, norm=rng.uniform(0.01, 1.0))
    g = exp_alg(xi)
    assert np.max(np.abs(g.T @ g - np.eye(n))) < 1e-12
    assert np.linalg.det(g) > 0
    assert np.max(np.abs(g - eig_exp(xi))) < 1e-12


def test_log_identity():
    assert np.allclose(log_grp(np.eye(4)), 0.0, atol=0)


def test_log_planar_rotation():
    g = exp_alg(0.3 * J)
    assert np.allclose(log_grp(g), 0.3 * J, atol=1e-12)


@given(st.integers(0, 500))
def test_log_exp_roundtrip(seed):
    rng = np.random.default_rng(seed)
    n = rng.choice([2, 4, 6])
    xi = random_skew(n, rng, norm=rng.uniform(0.01, 0.99))
    assert np.max(np.abs(log_grp(exp_alg(xi)) - xi)) < 1e-10


def test_log_domain_error_near_pi():
    g = exp_alg((np.pi - 1e-9) * J)
    with pytest.raises(DomainError):
        log_grp(g)


# ---------------------------------------------------------------------------
# n = 4: the quaternion closed forms against scipy's expm and an eig log

NORMS = (1e-8, 1e-4, 0.05, 0.3, 1.0, 2.0, 3.0, np.pi - 1e-3)


def hamilton(p, q):
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return np.array([
        p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
        p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
        p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
        p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
    ])


def left(a):
    # matrix of q -> a q, column by column
    return np.stack([hamilton(a, e) for e in np.eye(4)], axis=1)


def right(b):
    return np.stack([hamilton(e, b) for e in np.eye(4)], axis=1)


def unit(angle, axis):
    axis = np.asarray(axis, dtype=float)
    return np.concatenate([[np.cos(angle)], np.sin(angle) * axis / np.linalg.norm(axis)])


def eig_log(g):
    # independent oracle: the principal log through the eigendecomposition;
    # v^{-1}, not v^H, since eig returns no orthonormal basis of a repeated
    # eigenvalue's eigenspace
    lam, v = np.linalg.eig(g)
    return np.real(v @ (np.log(lam)[:, None] * np.linalg.inv(v)))


def planar(theta1, theta2):
    # rotation by theta1 in the (e0, e1) plane and theta2 in the (e2, e3) plane
    g = np.zeros((4, 4))
    for k, theta in ((0, theta1), (2, theta2)):
        c, s = np.cos(theta), np.sin(theta)
        g[k:k + 2, k:k + 2] = [[c, -s], [s, c]]
    return g


def so4_draws():
    """Seeded (name, stack of skew 4 x 4) cases: generic draws at every norm of
    NORMS, and pure left (sum u_r L_{e_r}) and pure right draws, the two su(2)
    ideals."""
    rng = np.random.default_rng(404)
    cases = []
    for norm in NORMS:
        cases.append((f"generic-{norm:.3g}", np.stack([random_skew(4, rng, norm=norm)
                                                       for _ in range(32)])))
        for name, mult in (("left", left), ("right", right)):
            u = rng.standard_normal((32, 3))
            u *= norm / np.linalg.norm(u, axis=1)[:, None]
            cases.append((f"{name}-{norm:.3g}",
                          np.stack([mult(np.concatenate([[0.0], w])) for w in u])))
    return cases


SO4_DRAWS = so4_draws()


@pytest.mark.parametrize("name, xs", SO4_DRAWS, ids=[name for name, _ in SO4_DRAWS])
def test_so4_exp_matches_scipy_expm(name, xs):
    g = exp_alg(xs)
    assert np.max(np.abs(g - np.stack([expm(x) for x in xs]))) < 1e-14


@pytest.mark.parametrize("name, xs", SO4_DRAWS, ids=[name for name, _ in SO4_DRAWS])
def test_so4_log_matches_eig_log(name, xs):
    g = np.stack([expm(x) for x in xs])
    logs = log_grp(g)
    assert np.all(logs + logs.swapaxes(-1, -2) == 0.0)
    # the log's condition number grows like 1 / (pi - largest angle)
    tol = 5e-14 / (np.pi - np.linalg.norm(xs[0], 2))
    assert np.max(np.abs(logs - np.stack([eig_log(h) for h in g]))) < tol
    assert np.max(np.abs(logs - xs)) < tol


def test_so4_exp_is_a_product_of_left_and_right_rodrigues_factors():
    rng = np.random.default_rng(5)
    for _ in range(8):
        alpha, beta = rng.uniform(0.0, 1.5, 2)
        a_axis, b_axis = rng.standard_normal((2, 3))
        xi = (left(np.concatenate([[0.0], alpha * a_axis / np.linalg.norm(a_axis)]))
              + right(np.concatenate([[0.0], beta * b_axis / np.linalg.norm(b_axis)])))
        expected = left(unit(alpha, a_axis)) @ right(unit(beta, b_axis))
        assert np.max(np.abs(exp_alg(xi) - expected)) < 1e-15


def test_so4_identity():
    assert np.array_equal(exp_alg(np.zeros((4, 4))), np.eye(4))
    assert np.array_equal(log_grp(np.eye(4)), np.zeros((4, 4)))


def test_so4_log_flips_the_sign_of_the_quaternion_pair():
    # g = L_a R_b with angles alpha + beta > pi; the pair (-a, -b) gives the
    # same g with angles pi - alpha and pi - beta, whose log is principal
    rng = np.random.default_rng(17)
    for _ in range(16):
        alpha, beta = rng.uniform(1.7, np.pi - 0.05, 2)
        a_axis, b_axis = rng.standard_normal((2, 3))
        g = left(unit(alpha, a_axis)) @ right(unit(beta, b_axis))
        xi = log_grp(g)
        assert np.max(np.abs(xi - eig_log(g))) < 1e-13
        assert np.max(np.abs(exp_alg(xi) - g)) < 1e-14


@pytest.mark.parametrize("g", [
    planar(np.pi - 1e-9, 0.3),  # alpha + beta: L_{e^{alpha i}} and R_{e^{beta i}} turn together
    planar(0.3, np.pi - 1e-9),  # |alpha - beta|: they turn against each other
    -np.eye(4),
], ids=["alpha-plus-beta", "alpha-minus-beta", "minus-identity"])
def test_so4_log_domain_error_near_pi(g):
    with pytest.raises(DomainError, match="within 1e-06 of pi"):
        log_grp(g)


def test_so4_log_inside_the_margin():
    for g in (planar(np.pi - 1e-5, 0.3), planar(0.3, np.pi - 1e-5)):
        assert np.max(np.abs(log_grp(g) - eig_log(g))) < 1e-10


def test_so4_log_domain_error_anywhere_in_stack(rng):
    g = np.stack([sample_near_identity(4, 0.5, rng) for _ in range(5)])
    g[2] = planar(0.3, np.pi - 1e-9)
    with pytest.raises(DomainError, match="within 1e-06 of pi"):
        log_grp(g)


def test_stacked_calls_equal_per_matrix_calls():
    rng = np.random.default_rng(31)
    g = np.stack([sample_near_identity(4, 2.0, rng) for _ in range(64)])
    logs = log_grp(g)
    assert np.array_equal(logs, np.stack([log_grp(x) for x in g]))
    assert np.array_equal(exp_alg(logs), np.stack([exp_alg(x) for x in logs]))
    m = rng.standard_normal((3, 5, 4, 4))
    assert np.array_equal(
        skew_project(m), np.stack([[skew_project(x) for x in row] for row in m])
    )
    xi = rng.standard_normal(g.shape)
    assert np.array_equal(adjoint(g, xi), np.stack([adjoint(a, b) for a, b in zip(g, xi)]))


def test_log_domain_error_anywhere_in_stack(rng):
    g = np.stack([sample_near_identity(2, 0.5, rng) for _ in range(5)])
    g[3] = exp_alg((np.pi - 1e-9) * J)
    with pytest.raises(DomainError, match="within 1e-06 of pi"):
        log_grp(g)


def test_log_result_is_exactly_skew(rng):
    xi = log_grp(sample_haar(4, rng))
    assert np.all(xi + xi.T == 0.0)


def test_adjoint_identity(rng):
    xi = random_skew(4, rng)
    assert np.allclose(adjoint(np.eye(4), xi), xi, atol=0)


def test_adjoint_is_bracket_homomorphism(rng):
    g = sample_haar(6, rng)
    xi, eta = random_skew(6, rng), random_skew(6, rng)
    lhs = adjoint(g, bracket(xi, eta))
    rhs = bracket(adjoint(g, xi), adjoint(g, eta))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_adjoint_abelian_so2(rng):
    g = sample_haar(2, rng)
    xi = random_skew(2, rng)
    assert np.max(np.abs(adjoint(g, xi) - xi)) < 1e-14


def test_adjoint_preserves_frobenius_norm(rng):
    g = sample_haar(4, rng)
    xi = random_skew(4, rng)
    assert abs(np.linalg.norm(adjoint(g, xi)) - np.linalg.norm(xi)) < 1e-12


def test_bracket_self_is_zero(rng):
    xi = random_skew(4, rng)
    assert np.all(bracket(xi, xi) == 0.0)


def test_bracket_matrix_units():
    def unit(i, j, n=4):
        e = np.zeros((n, n))
        e[i, j], e[j, i] = 1.0, -1.0
        return e

    # [E12, E23] = E13 by direct expansion of e_i e_j^T - e_j e_i^T
    assert np.allclose(bracket(unit(0, 1), unit(1, 2)), unit(0, 2), atol=0)


def test_jacobi_identity(rng):
    x, y, z = (random_skew(6, rng) for _ in range(3))
    s = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
    assert np.max(np.abs(s)) < 1e-13


def test_haar_deterministic():
    a = sample_haar(4, np.random.default_rng(7))
    b = sample_haar(4, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_haar_group_membership(rng):
    for _ in range(20):
        g = sample_haar(4, rng)
        assert np.max(np.abs(g.T @ g - np.eye(4))) < 1e-12
        assert np.linalg.det(g) > 0


def test_haar_mean_trace_vanishes():
    # character orthogonality: the Haar average of the trace is zero
    rng = np.random.default_rng(2024)
    total = sum(np.trace(sample_haar(4, rng)) for _ in range(10_000))
    assert abs(total / 10_000) < 0.05


def test_near_identity_radius_zero(rng):
    assert np.array_equal(sample_near_identity(4, 0.0, rng), np.eye(4))


def test_near_identity_in_log_domain(rng):
    for _ in range(10):
        g = sample_near_identity(4, 0.1, rng)
        log_grp(g)  # must not raise


def test_near_identity_triple_product_in_log_domain(rng):
    # spectral-norm subadditivity keeps a triple product of radius-0.1
    # factors well inside the domain
    for _ in range(10):
        g = np.eye(4)
        for _ in range(3):
            g = g @ sample_near_identity(4, 0.1, rng)
        xi = log_grp(g)
        assert np.linalg.norm(xi, 2) < 0.31


def test_skew_project_exact():
    m = np.random.default_rng(0).standard_normal((5, 5))
    s = skew_project(m)
    assert np.all(s + s.T == 0.0)
