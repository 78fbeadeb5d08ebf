from functools import partial

import numpy as np
import pytest
from test_checks import run_entry

from eulernerve import checks
from eulernerve.checks import order_doubling_drift, truncated_cocycle
from eulernerve.euler import builtin_cocycle
from eulernerve.forms import add_forms, scale_form
from eulernerve.matgroup import (
    DomainError,
    exp_alg,
    log_grp,
    nerve_point,
    pair_power,
    pair_product,
    random_frame,
    sample_near_identity,
    skew_project,
    so4_matrices,
    so4_pairs,
    tangent_frame,
)
from eulernerve.simplex import quadrature_rule
from eulernerve.transgression import (
    LocalCochain,
    _contract,
    _group,
    level_map,
    local_cochain,
    transgression_form,
)


def near(rng, radius=0.1, n=4):
    return sample_near_identity(n, radius, rng)


def identity_point(n, level):
    return nerve_point([np.eye(n)] * level, n=n)


def contract(t, hs, rows=None):
    """The library's cone on a batch, as (B, n, n) matrices."""
    return _group(hs.shape[-1]).matrices(_contract(t, hs, rows))


def sigma(t, hs):
    """The library's sigma_l at one point: ``_contract`` on a batch of one."""
    return contract(np.asarray(t, dtype=float)[None], np.stack(hs)[None])[0]


def sigma_reference(t, hs, n=4):
    """sigma_l by its per-point recursion on n x n matrices, sharing no code
    with ``_contract``: exp((1 - t_0) log(h_1 sigma_{l-1}(t_1.. / (1 - t_0);
    h_2..))), the identity at the apex and for l = 0."""
    rest = 1.0 - t[0]
    if len(hs) == 0 or rest <= 1e-13:
        return np.eye(n)
    return exp_alg(rest * log_grp(hs[0] @ sigma_reference(t[1:] / rest, hs[1:], n)))


def sigma_pair_reference(t, hs):
    """sigma_l for n = 4 by the same per-point recursion on unit-quaternion
    pairs, through the matgroup pair kernels on batches of one (pinned in
    ``test_matgroup.py``): pair_power(pair(h_1) sigma_{l-1}, 1 - t_0), and
    one matrix at the end."""

    def recurse(t, hs):
        rest = 1.0 - t[0]
        if len(hs) == 0 or rest <= 1e-13:
            one = np.zeros((4, 2, 1))
            one[0] = 1.0
            return one
        inner = recurse(t[1:] / rest, hs[1:])
        return pair_power(pair_product(so4_pairs(hs[0][None]), inner), np.array([rest]))

    return so4_matrices(recurse(np.asarray(t, dtype=float), hs))[0]


def level_map_reference(m, q, t, hs):
    """f_{m,q} on ``sigma_pair_reference``."""
    return nerve_point(list(hs[: m - 1]) + [sigma_pair_reference(np.asarray(t), hs[m - 1 :])])


# ---------------------------------------------------------------------------
# contraction maps


def test_sigma1_cone_equals_explicit(rng):
    h = near(rng, 0.3)
    t = rng.dirichlet(np.ones(2))
    a = sigma(t, [h])
    assert np.max(np.abs(a - exp_alg(t[1] * log_grp(h)))) < 1e-13


def test_cone_apex_is_identity(rng):
    h1, h2 = near(rng), near(rng)
    val = sigma([1.0, 0.0, 0.0], [h1, h2])
    assert np.array_equal(val, np.eye(4))


def test_batched_cone_rows_match_single_rows(rng):
    # rows at the apex, at the apex of an inner level, and inside the simplex
    # share one batch; each row equals the per-point recursion bit for bit:
    # on quaternion pairs for n = 4, on matrices for n = 6
    for n, reference in ((4, sigma_pair_reference), (6, partial(sigma_reference, n=6))):
        for l in (1, 2, 3):
            hs = np.stack([[near(rng, n=n) for _ in range(l)] for _ in range(16)])
            t = rng.dirichlet(np.ones(l + 1), size=16)
            t[1] = np.eye(l + 1)[0]
            t[3] = np.r_[0.25, 0.75, np.zeros(l - 1)]
            out = contract(t, hs)
            for row in range(16):
                assert np.array_equal(out[row], reference(t[row], hs[row]))
            assert np.array_equal(out[1], np.eye(n))


def test_contracted_rows_pick_their_arguments(rng):
    # a row -> argument index gives each row the value of a batch of one
    for n in (4, 6):
        hs = np.stack([[near(rng, n=n) for _ in range(2)] for _ in range(3)])
        t = rng.dirichlet(np.ones(3), size=8)
        rows = rng.integers(0, 3, size=8)
        out = contract(t, hs, rows)
        for row in range(8):
            assert np.array_equal(out[row], sigma(t[row], list(hs[rows[row]])))


@pytest.mark.parametrize("radius", [0.1, 0.5, 1.0, 2.0])
def test_pair_cone_matches_matrix_recursion(radius):
    # the n = 4 pair cone and exp((1 - t_0) log(h_1 sigma_{l-1})) on matrices
    # agree to rounding
    rng = np.random.default_rng(int(10 * radius))
    worst = 0.0
    for l in (1, 2, 3):
        hs = np.stack([[near(rng, radius) for _ in range(l)] for _ in range(32)])
        t = rng.dirichlet(np.ones(l + 1), size=32)
        out = contract(t, hs)
        for row in range(32):
            worst = max(worst, np.max(np.abs(out[row] - sigma_reference(t[row], hs[row]))))
    assert worst < 1e-15


@pytest.mark.parametrize("l", [2, 3])
def test_cone_face_compatibility_all_faces(l, rng):
    # restricting to the j-th face of the simplex matches the contraction of
    # the j-th nerve face (j >= 1) or left translation by h_1 (j = 0)
    worst = 0.0
    for _ in range(5):
        hs = [near(rng) for _ in range(l)]
        t = rng.dirichlet(np.ones(l))
        for j in range(l + 1):
            te = np.insert(t, j, 0.0)
            lhs = sigma(te, hs)
            if j == 0:
                rhs = hs[0] @ (sigma(t, hs[1:]) if l > 1 else np.eye(4))
            elif j < l:
                merged = hs[: j - 1] + [hs[j - 1] @ hs[j]] + hs[j + 1 :]
                rhs = sigma(t, merged)
            else:
                rhs = sigma(t, hs[:-1])
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-10


def test_contraction_domain_error():
    g = exp_alg((np.pi - 1e-9) * np.array([[0.0, -1.0], [1.0, 0.0]]))
    g4 = np.eye(4)
    g4[:2, :2] = g
    with pytest.raises(DomainError):
        sigma([0.5, 0.5], [g4])


# ---------------------------------------------------------------------------
# level maps


def test_level_map_passthrough(rng):
    h1, h2 = near(rng), near(rng)
    t = rng.dirichlet(np.ones(2))
    point = level_map(2, 1, t, [h1, h2])
    assert np.array_equal(point.components[0], h1)
    assert np.max(np.abs(point.components[1] - sigma(t, [h2]))) == 0.0


def test_level_map_full_contraction(rng):
    h1, h2 = near(rng), near(rng)
    t = rng.dirichlet(np.ones(3))
    point = level_map(1, 2, t, [h1, h2])
    assert point.level == 1
    assert np.max(np.abs(point.components[0] - sigma(t, [h1, h2]))) == 0.0


# ---------------------------------------------------------------------------
# fiber-integrated forms


def test_beta_degree_bookkeeping():
    comps = builtin_cocycle(4).components
    mu1, mu2 = comps[(1, 3)], comps[(2, 2)]
    b21 = transgression_form(mu2, 2, 1, quad_order=4)
    b12 = transgression_form(mu1, 1, 2, quad_order=4)
    b22 = transgression_form(mu2, 2, 2, quad_order=4)
    b13 = transgression_form(mu1, 1, 3, quad_order=4)
    assert (b21.level, b21.degree) == (2, 1)
    assert (b12.level, b12.degree) == (2, 1)
    assert (b22.level, b22.degree) == (3, 0)
    assert (b13.level, b13.degree) == (3, 0)


def test_beta_vanishes_on_identity_inputs(rng):
    comps = builtin_cocycle(4).components
    b21 = transgression_form(comps[(2, 2)], 2, 1, quad_order=4)
    val = b21.fn(identity_point(4, 2), (random_frame(2, 4, rng),))
    assert val == 0.0
    b13 = transgression_form(comps[(1, 3)], 1, 3, quad_order=4)
    assert b13.fn(identity_point(4, 3), ()) == 0.0


def per_node_transgression_form(mu, m, q, quad_order, fd_step=1e-4):
    """Reference: the level map and the central difference of its contracted
    slot, node by node, on ``level_map_reference``, so no library contraction
    is involved.  The passed-through slots take their exact tangents: zero
    along a simplex direction, the frame's own components along a frame."""
    rule = quadrature_rule(q, quad_order)
    sign = -1.0 if m % 2 else 1.0

    def fd(still, base, plus, minus):
        b, pl, mi = (x.components[-1] for x in (base, plus, minus))
        return tangent_frame([*still, skew_project(b.T @ ((pl - mi) / (2.0 * fd_step)))])

    def f(t, hs):
        return level_map_reference(m, q, t, hs)

    def fn(p, frames):
        hs = list(p.components)
        total = 0.0
        for node, weight in zip(rule.nodes, rule.weights):
            base = f(node, hs)
            tangents = []
            for a in range(1, q + 1):
                tp = np.array(node)
                tm = np.array(node)
                tp[a] += fd_step
                tp[0] -= fd_step
                tm[a] -= fd_step
                tm[0] += fd_step
                tangents.append(fd([np.zeros((4, 4))] * (m - 1), base, f(tp, hs), f(tm, hs)))
            for v in frames:
                hp = [hh @ exp_alg(fd_step * xi) for hh, xi in zip(hs, v.components)]
                hm = [hh @ exp_alg(-fd_step * xi) for hh, xi in zip(hs, v.components)]
                tangents.append(fd(v.components[: m - 1], base, f(node, hp), f(node, hm)))
            total += weight * mu.fn(base, tuple(tangents))
        return sign * total

    return fn


@pytest.mark.parametrize("m, q", [(2, 1), (1, 2), (2, 2), (1, 3)])
def test_batched_form_equals_per_node_reference(m, q):
    # the batched evaluation only regroups the same matrix operations, so it
    # reproduces the per-node evaluation exactly
    rng = np.random.default_rng(100 * m + q)
    mu = builtin_cocycle(4).components[(m, 4 - m)]
    batched = transgression_form(mu, m, q, quad_order=3)
    reference = per_node_transgression_form(mu, m, q, quad_order=3)
    for _ in range(2):
        p = nerve_point([near(rng, 0.3) for _ in range(m + q - 1)])
        frames = tuple(random_frame(m + q - 1, 4, rng) for _ in range(batched.degree))
        assert batched.fn(p, frames) == reference(p, frames)


@pytest.mark.parametrize("radius", [0.1, 0.5, 1.0, 2.0])
def test_beta22_is_exactly_zero(radius):
    # f_{2,2} passes slot 1 through, so both simplex tangents have a zero
    # slot-1 component, and every word of E_{2,2} has a factor lmc(1)
    rng = np.random.default_rng(int(10 * radius))
    beta22 = transgression_form(builtin_cocycle(4).components[(2, 2)], 2, 2)
    for _ in range(3):
        assert beta22.fn(nerve_point([near(rng, radius) for _ in range(3)]), ()) == 0.0


def test_eta0_is_beta13_bit_for_bit():
    # dropping the zero beta_{2,2} from eta_0 moves no bit
    rng = np.random.default_rng(13)
    mu = builtin_cocycle(4).components
    beta13 = transgression_form(mu[(1, 3)], 1, 3)
    beta22 = transgression_form(mu[(2, 2)], 2, 2)
    eta0 = local_cochain().eta0
    for radius in (0.1, 0.5, 1.0):
        p = nerve_point([near(rng, radius) for _ in range(3)])
        value = eta0.fn(p, ())
        assert value == beta13.fn(p, ())
        assert value == add_forms(beta22, beta13).fn(p, ())


def test_beta_quadrature_order_doubling(rng):
    comps = builtin_cocycle(4).components
    lo = transgression_form(comps[(2, 2)], 2, 1, quad_order=8)
    hi = transgression_form(comps[(2, 2)], 2, 1, quad_order=16)
    p = nerve_point([near(rng), near(rng)])
    v = (random_frame(2, 4, rng),)
    assert abs(lo.fn(p, v) - hi.fn(p, v)) < 1e-9


# ---------------------------------------------------------------------------
# the truncated cocycle


DEGREE_1 = "degree-1 residual (d' eta1 + d'' eta0)"


def test_truncated_cocycle_residuals(rng):
    argv = ["transgress", "--samples", "3"]
    residuals = run_entry(truncated_cocycle, argv, rng)
    assert residuals["degree-0 residual (d' eta0)"].max_residual < 1e-3
    assert residuals[DEGREE_1].max_residual < 1e-3
    drift = run_entry(order_doubling_drift, argv, rng)
    assert drift["quadrature order-doubling drift"].max_residual < 1e-6


def test_truncated_cocycle_identity_sample(rng):
    lc = local_cochain()
    assert lc.eta0.fn(identity_point(4, 3), ()) == 0.0
    assert lc.eta1.fn(identity_point(4, 2), (random_frame(2, 4, rng),)) == 0.0


def test_perturbed_component_detected(monkeypatch):
    # a 1% perturbation of one fiber-integrated component must grow the
    # degree-1 residual by far more than 10x (the balance is exact; the clean
    # residual is pure finite-difference noise).  The transgress gate is
    # absolute at 1e-3, so the perturbed cochain still passes it.
    lc = local_cochain()
    mu = builtin_cocycle(4).components
    beta21 = transgression_form(mu[(2, 2)], 2, 1)
    beta12 = transgression_form(mu[(1, 3)], 1, 2)
    perturbed = LocalCochain(lc.eta0, add_forms(scale_form(1.01, beta21), beta12))
    argv = ["transgress", "--samples", "3"]

    def degree_1(eta):
        monkeypatch.setattr(checks, "local_cochain", lambda *, quad_order: eta)
        return run_entry(truncated_cocycle, argv, np.random.default_rng(7))[DEGREE_1].max_residual

    baseline = degree_1(lc)
    tampered = degree_1(perturbed)
    assert tampered > 10 * max(baseline, 1e-12)
    assert tampered > 1e3 * baseline
