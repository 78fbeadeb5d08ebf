import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm

from eulernerve import matgroup
from eulernerve.euler import builtin_cocycle
from eulernerve.matgroup import (
    SAMPLE_CHUNK,
    DomainError,
    adjoint,
    bracket,
    exp_alg,
    iter_samples,
    log_grp,
    move_point,
    nerve_point,
    pair_power,
    pair_product,
    random_frame,
    random_skew,
    sample_blocks,
    sample_haar,
    sample_near_identity,
    skew_from_gaussian,
    skew_project,
    so4_matrices,
    so4_pairs,
    tangent_frame,
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
# n = 4: the quaternion closed-form exp against scipy's expm, and log_grp
# on the same draws

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


# ---------------------------------------------------------------------------
# n = 4: unit-quaternion pairs (4, 2, B)


def pairs_of(a, b):
    """The (4, 2, B) stack of the pairs (a[r], b[r])."""
    return np.stack([np.asarray(a).T, np.asarray(b).T], axis=1)


def haar_stack(n_rows, seed):
    rng = np.random.default_rng(seed)
    return np.stack([sample_haar(4, rng) for _ in range(n_rows)])


def test_pairs_round_trip():
    g = haar_stack(64, 41)
    q = so4_pairs(g)
    assert q.shape == (4, 2, 64)
    assert np.max(np.abs(np.sum(q * q, axis=0) - 1.0)) < 1e-15
    assert np.max(np.abs(so4_matrices(q) - g)) < 1e-15
    # the pair of L_a R_b is (a, b) up to the sign they share
    rng = np.random.default_rng(42)
    a, b = (x / np.linalg.norm(x, axis=1)[:, None] for x in rng.standard_normal((2, 16, 4)))
    expected = np.stack([left(x) @ right(y) for x, y in zip(a, b)])
    assert np.max(np.abs(so4_matrices(pairs_of(a, b)) - expected)) < 1e-15
    q = so4_pairs(expected)
    shared = np.sign(np.sum(q[:, 0] * a.T, axis=0))
    assert np.max(np.abs(q * shared - pairs_of(a, b))) < 1e-15


def test_pair_product_is_the_matrix_product():
    g, h = haar_stack(64, 43), haar_stack(64, 44)
    product = so4_matrices(pair_product(so4_pairs(g), so4_pairs(h)))
    assert np.max(np.abs(product - g @ h)) < 1e-14


@pytest.mark.parametrize("name, xs", SO4_DRAWS, ids=[name for name, _ in SO4_DRAWS])
def test_pair_power_matches_exp_of_scaled_log(name, xs):
    g = np.stack([expm(x) for x in xs])
    s = np.random.default_rng(45).uniform(0.0, 1.0, len(g))
    power = so4_matrices(pair_power(so4_pairs(g), s))
    # the power is as well conditioned as the log it replaces
    tol = 5e-14 / (np.pi - np.linalg.norm(xs[0], 2))
    assert np.max(np.abs(power - exp_alg(s[:, None, None] * log_grp(g)))) < tol
    assert np.max(np.abs(power - np.stack([expm(r * x) for r, x in zip(s, xs)]))) < tol


def test_pair_power_flips_the_sign_of_the_pair():
    # alpha + beta > pi: the principal power is the one of (-a, -b), whose
    # angles are pi - alpha and pi - beta
    rng = np.random.default_rng(46)
    alpha, beta = rng.uniform(1.7, np.pi - 0.05, (2, 32))
    a = np.stack([unit(x, w) for x, w in zip(alpha, rng.standard_normal((32, 3)))])
    b = np.stack([unit(x, w) for x, w in zip(beta, rng.standard_normal((32, 3)))])
    g = so4_matrices(pairs_of(a, b))
    s = rng.uniform(0.0, 1.0, 32)
    power = so4_matrices(pair_power(pairs_of(a, b), s))
    assert np.max(np.abs(power - np.stack([expm(r * eig_log(x)) for r, x in zip(s, g)]))) < 1e-13
    assert np.max(np.abs(so4_matrices(pair_power(pairs_of(a, b), np.ones(32))) - g)) < 1e-14


@pytest.mark.parametrize("g", [
    planar(np.pi - 1e-9, 0.3),
    planar(0.3, np.pi - 1e-9),
    -np.eye(4),
], ids=["alpha-plus-beta", "alpha-minus-beta", "minus-identity"])
def test_pair_power_domain_error_near_pi(g):
    with pytest.raises(DomainError, match="within 1e-06 of pi"):
        pair_power(so4_pairs(g[None]), np.array([0.5]))


def test_pair_power_domain_error_anywhere_in_stack(rng):
    g = np.stack([sample_near_identity(4, 0.5, rng) for _ in range(5)])
    g[3] = planar(np.pi - 1e-9, 0.3)
    with pytest.raises(DomainError, match="within 1e-06 of pi"):
        pair_power(so4_pairs(g), np.full(5, 0.5))


def test_pair_kernels_stacked_equal_one_row_calls():
    # Haar rotations: about a third of the pairs, and half of their products,
    # take the alpha + beta > pi flip
    g = haar_stack(64, 47)
    s = np.random.default_rng(49).uniform(0.0, 1.0, 64)
    q = so4_pairs(g)
    assert np.array_equal(q, np.concatenate([so4_pairs(x[None]) for x in g], axis=-1))
    assert np.array_equal(so4_matrices(q), np.stack([so4_matrices(q[..., r:r + 1])[0]
                                                     for r in range(64)]))
    p = q[..., ::-1].copy()
    product = pair_product(p, q)
    assert np.array_equal(product, np.concatenate(
        [pair_product(p[..., r:r + 1], q[..., r:r + 1]) for r in range(64)], axis=-1))
    rows = [pair_power(product[..., r:r + 1].copy(), s[r:r + 1]) for r in range(64)]
    assert np.array_equal(pair_power(product, s), np.concatenate(rows, axis=-1))


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


@pytest.mark.parametrize("n", [2, 6])
def test_eig_path_stacks_equal_per_matrix_calls(n):
    rng = np.random.default_rng(31)
    g = np.stack([sample_near_identity(n, 2.0, rng) for _ in range(64)])
    logs = log_grp(g)
    assert np.array_equal(logs, np.stack([log_grp(x) for x in g]))
    assert np.array_equal(exp_alg(logs), np.stack([exp_alg(x) for x in logs]))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_move_point_equals_per_component_flow(n):
    # one exp_alg call on all times x frames gives each component's bits
    rng = np.random.default_rng(8)
    times = (1e-5, -1e-5, 0.7)
    p = nerve_point([sample_haar(n, rng) for _ in range(3)])
    frames = [random_frame(3, n, rng) for _ in range(2)]
    moved = move_point(p, frames, times)
    assert len(moved) == len(frames)
    for v, q in zip(frames, moved):
        for h, xi, m in zip(p.components, v.components, q.components):
            assert m.shape == (len(times), n, n)
            for t, mt in zip(times, m):
                assert np.array_equal(mt, h @ exp_alg(t * xi))
    assert move_point(p, [], times) == []
    # stacked points broadcast against one-matrix frame components
    hs = np.stack([sample_haar(n, rng) for _ in range(4)])
    v = random_frame(2, n, rng)
    [q] = move_point(nerve_point([hs, hs[::-1]]), [v], (0.3,))
    assert q.components[0].shape == (1, 4, n, n)
    for k in range(4):
        assert np.array_equal(q.components[0][0, k], hs[k] @ exp_alg(0.3 * v.components[0]))
        assert np.array_equal(q.components[1][0, k], hs[3 - k] @ exp_alg(0.3 * v.components[1]))


@pytest.mark.parametrize("stacked_frame", [False, True], ids=["one-frame", "stacked-frame"])
@pytest.mark.parametrize("n", [4, 6])
def test_move_point_puts_the_times_in_front_of_the_batch(n, stacked_frame):
    # a point stacked with as many rows as there are times (as the outer d of
    # d o d hands the inner one): every time flows every row, and no time is
    # paired with one row
    rng = np.random.default_rng(9)
    times = (1e-4, -1e-4, 5e-5, -5e-5)
    hs = np.stack([sample_haar(n, rng) for _ in range(len(times))])
    xi = np.stack([random_skew(n, rng) for _ in hs]) if stacked_frame else random_skew(n, rng)
    [q] = move_point(nerve_point([hs]), [tangent_frame([xi])], times)
    assert q.components[0].shape == (len(times), len(hs), n, n)
    for k, t in enumerate(times):
        for r, h in enumerate(hs):
            step = exp_alg(t * (xi[r] if stacked_frame else xi))
            assert np.array_equal(q.components[0][k, r], h @ step)


# ---------------------------------------------------------------------------
# n != 4: the spectral exponential against scipy's expm


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [2, 6, 8])
@pytest.mark.parametrize("norm", [1e-4, 1.0, 3.0])
def test_spectral_exp_matches_scipy_expm(n, norm):
    rng = np.random.default_rng(600 + n)
    xs = np.stack([random_skew(n, rng, norm=norm) for _ in range(37)])
    g = exp_alg(xs)
    ref = np.stack([expm(x) for x in xs])
    # exp xi - I keeps its relative accuracy at move_point's small steps
    assert np.max(np.abs((g - np.eye(n)) - (ref - np.eye(n)))) < 1e-14 * norm
    assert np.max(np.abs(g.swapaxes(-1, -2) @ g - np.eye(n))) < 1e-14
    assert np.array_equal(g, np.stack([exp_alg(x) for x in xs]))


def test_random_skew_norm_is_the_spectral_norm():
    # the largest singular value: the same bits as np.linalg.norm(s, 2)
    rng = np.random.default_rng(77)
    for n in (2, 4, 6, 8):
        for norm in (1e-4, 1.0, 3.0):
            state = rng.bit_generator.state
            s = random_skew(n, rng, norm=norm)
            rng.bit_generator.state = state
            raw = skew_project(rng.standard_normal((n, n)))
            assert np.array_equal(s, raw * (norm / np.linalg.norm(raw, 2)))


# ---------------------------------------------------------------------------
# n = 6: the eig log


def planar6(angles):
    # skew 6 x 6 turning the planes (e0, e1), (e2, e3), (e4, e5) by angles
    x = np.zeros((6, 6))
    for k, theta in zip((0, 2, 4), angles):
        x[k, k + 1], x[k + 1, k] = -theta, theta
    return x


@pytest.mark.parametrize(
    "angles",
    [(0.7, 0.7, 0.3), (1.2, 1.2, 1.2), (2.5, 0.4, 2.5), (0.0, 0.0, 0.9)],
    ids=["two", "three", "two-apart", "zero-pair"],
)
def test_so6_log_of_repeated_angles(angles):
    # a repeated angle gives eig a repeated eigenvalue, whose eigenvectors it
    # does not return orthonormal: inverting them by V^H missed x by 0.15 to 1.2
    rng = np.random.default_rng(66)
    q = sample_haar(6, rng)
    x = q @ planar6(angles) @ q.T
    assert np.max(np.abs(log_grp(expm(x)) - x)) < 1e-13


def test_so6_log_of_isoclinic_so4_block():
    # 0.3 L_i + 0.2 L_j turns two planes by the same angle
    x = np.zeros((6, 6))
    x[:4, :4] = 0.3 * left([0.0, 1.0, 0.0, 0.0]) + 0.2 * left([0.0, 0.0, 1.0, 0.0])
    assert np.max(np.abs(log_grp(expm(x)) - x)) < 1e-14


@pytest.mark.parametrize("norm", [1e-8, 0.05, 1.0, 3.0, np.pi - 1e-3])
def test_so6_log_exp_roundtrip(norm):
    rng = np.random.default_rng(606)
    xs = np.stack([random_skew(6, rng, norm=norm) for _ in range(32)])
    logs = log_grp(expm(xs))
    assert np.all(logs + logs.swapaxes(-1, -2) == 0.0)
    # the log's condition number grows like 1 / (pi - largest angle)
    assert np.max(np.abs(logs - xs)) < 5e-14 / (np.pi - norm)


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


def haar_reference(n, rng):
    # QR of one Gaussian matrix, the sign fix on R's diagonal, then the last
    # column negated if det < 0, one matrix at a time
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    q = q * d
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


@pytest.mark.parametrize("n", [2, 4, 6])
def test_sample_haar_equals_reference(n):
    a, b = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(20):
        assert np.array_equal(sample_haar(n, a), haar_reference(n, b))


def skew_reference(n, rng, norm=1.0):
    # the skew part of one Gaussian matrix, rescaled by its largest singular
    # value unless that is 0, one matrix at a time
    s = skew_project(rng.standard_normal((n, n)))
    cur = np.linalg.svd(s, compute_uv=False)[0]
    if cur > 0:
        s = s * (norm / cur)
    return s


@pytest.mark.parametrize("n", [2, 4, 6])
def test_random_skew_equals_reference(n):
    a, b = np.random.default_rng(8), np.random.default_rng(8)
    for norm in (1.0, 2.5) * 10:
        assert np.array_equal(random_skew(n, a, norm=norm), skew_reference(n, b, norm=norm))


def test_random_frame_equals_lone_random_skew():
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    for level in (0, 1, 3):
        frame = random_frame(level, 6, a)
        lone = [random_skew(6, b) for _ in range(level)]
        assert len(frame.components) == level
        assert all(np.array_equal(x, y) for x, y in zip(frame.components, lone))


def euler_blocks(n):
    # verify-euler's blocks: the image bidegrees of the built-in cochain
    comps = builtin_cocycle(n).components
    return sorted({(r + 1, s) for r, s in comps} | {(r, s + 1) for r, s in comps})


SAMPLE_BLOCKS = {
    "euler-2": (2, euler_blocks(2)),
    "euler-4": (4, euler_blocks(4)),
    "euler-6": (6, euler_blocks(6)),
    "degree-0-block": (4, [(3, 0), (2, 2)]),
}


@pytest.mark.parametrize("case", sorted(SAMPLE_BLOCKS))
def test_sample_blocks_equal_lone_draws(case):
    # one Gaussian draw for the whole run gives, matrix for matrix, what the
    # lone draws give one sample and one block after another
    n, blocks = SAMPLE_BLOCKS[case]
    samples = 3
    a, b = np.random.default_rng(10), np.random.default_rng(10)
    drawn = sample_blocks(n, blocks, samples, a)
    assert len(drawn) == len(blocks)
    for i in range(samples):
        for (point, frames), (level, degree) in zip(drawn, blocks):
            lone_point = [sample_haar(n, b) for _ in range(level)]
            lone_frames = [random_frame(level, n, b) for _ in range(degree)]
            assert point.level == level and len(frames) == degree
            for h, lone in zip(point.components, lone_point):
                assert h.shape == (samples, n, n)
                assert np.array_equal(h[i], lone)
            for v, lone in zip(frames, lone_frames):
                assert v.level == level
                for x, y in zip(v.components, lone.components):
                    assert x.shape == (samples, n, n)
                    assert np.array_equal(x[i], y)
    # both generators stand at the same place in the stream
    assert a.standard_normal() == b.standard_normal()


def test_iter_samples_streams_one_draw_in_bounded_chunks(monkeypatch):
    # a run of more than two chunks yields, sample for sample, the matrices
    # of one whole-run draw, and no draw holds more than SAMPLE_CHUNK samples
    n, blocks = SAMPLE_BLOCKS["euler-4"]
    samples = 2 * SAMPLE_CHUNK + 3
    a, b = np.random.default_rng(12), np.random.default_rng(12)
    whole = sample_blocks(n, blocks, samples, b)
    sizes = []

    def recording(n, blocks, size, rng):
        sizes.append(size)
        return sample_blocks(n, blocks, size, rng)

    monkeypatch.setattr(matgroup, "sample_blocks", recording)
    streamed = list(iter_samples(n, blocks, samples, a))
    assert sizes == [SAMPLE_CHUNK, SAMPLE_CHUNK, 3]
    assert len(streamed) == samples
    for i, draws in enumerate(streamed):
        assert len(draws) == len(blocks)
        for (point, frames), (w_point, w_frames) in zip(draws, whole):
            assert len(frames) == len(w_frames)
            for x, w in zip((point, *frames), (w_point, *w_frames)):
                assert len(x.components) == len(w.components)
                for c, wc in zip(x.components, w.components):
                    assert c.shape == (n, n)
                    assert np.array_equal(c, wc[i])
    assert a.standard_normal() == b.standard_normal()


def test_skew_from_gaussian_leaves_a_zero_matrix_unscaled():
    z = np.random.default_rng(11).standard_normal((3, 4, 4))
    z[1] = 0.0
    z[1, 0, 1] = -0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = skew_from_gaussian(z, norm=2.0)
    assert np.array_equal(s[1], skew_project(z[1]))
    assert np.array_equal(np.signbit(s[1]), np.signbit(skew_project(z[1])))
    for k in (0, 2):
        assert np.array_equal(s[k], skew_from_gaussian(z[k], norm=2.0))
        assert abs(np.linalg.norm(s[k], 2) - 2.0) < 1e-14
    assert np.array_equal(skew_from_gaussian(np.zeros((4, 4))), np.zeros((4, 4)))


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
