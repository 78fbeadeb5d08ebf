import math
from fractions import Fraction

import numpy as np
import pytest

from eulernerve.euler import (
    builtin_cocycle,
    bundle_projection,
    bundle_projection_pushforward,
    clutching_euler_number,
    euler_component,
    euler_component_words,
    euler_pfaffian,
    generated_cocycle,
    pfaffian_contraction,
    phi_pullback_variants,
    words_to_json,
)
from eulernerve.matgroup import (
    adjoint,
    nerve_point,
    random_frame,
    random_skew,
    sample_haar,
    tangent_frame,
)

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def pfaffian_cofactor(a: np.ndarray) -> float:
    """Independent oracle: recursive cofactor expansion of the standard
    Pfaffian along the first row."""
    n = a.shape[0]
    if n == 0:
        return 1.0
    if n % 2:
        return 0.0
    if n == 2:
        return float(a[0, 1])
    total = 0.0
    for j in range(1, n):
        keep = [k for k in range(n) if k not in (0, j)]
        minor = a[np.ix_(keep, keep)]
        total += (-1.0) ** (j + 1) * a[0, j] * pfaffian_cofactor(minor)
    return total


# ---------------------------------------------------------------------------
# Pfaffian


def test_pfaffian_p1_expansion():
    a = np.array([[0.0, -2.3], [2.3, 0.0]])
    # direct S_2 expansion: (a_12 - a_21) / (4 pi) = -2a/(4 pi)
    assert euler_pfaffian(a) == pytest.approx(-2.3 / (2 * np.pi), rel=1e-15)


def test_pfaffian_block_diagonal():
    a, b = 1.3, -0.7
    m = np.zeros((4, 4))
    m[:2, :2] = a * J
    m[2:, 2:] = b * J
    # standard Pf of block-diag(aJ, bJ) is ab
    assert euler_pfaffian(m) == pytest.approx(a * b / (2 * np.pi) ** 2, rel=1e-14)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_pfaffian_squared_is_determinant(n, rng):
    p = n // 2
    for _ in range(25):
        a = random_skew(n, rng)
        lhs = ((2 * np.pi) ** p * euler_pfaffian(a)) ** 2
        rhs = np.linalg.det(a)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(rhs), 1e-12)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_pfaffian_matches_cofactor_oracle(n, rng):
    p = n // 2
    for _ in range(10):
        a = random_skew(n, rng)
        expect = pfaffian_cofactor(a) / (2 * np.pi) ** p
        assert euler_pfaffian(a) == pytest.approx(expect, rel=1e-12)


def test_pfaffian_conjugation_invariance(rng):
    for n in (2, 4, 6):
        a = random_skew(n, rng)
        g = sample_haar(n, rng)
        assert euler_pfaffian(adjoint(g, a)) == pytest.approx(
            euler_pfaffian(a), rel=1e-10
        )


def test_pfaffian_rejects_odd_dimension():
    with pytest.raises(ValueError):
        euler_pfaffian(np.zeros((3, 3)))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_pfaffian_contraction_on_stacks(p, rng):
    mats = [rng.standard_normal((5, 2 * p, 2 * p)) for _ in range(p)]
    stacked = pfaffian_contraction(mats)
    assert stacked.shape == (5,)
    single = [pfaffian_contraction([m[r] for m in mats]) for r in range(5)]
    np.testing.assert_allclose(stacked, single, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        pfaffian_contraction([np.zeros((5, 2 * p + 1, 2 * p + 1))] * p)


# ---------------------------------------------------------------------------
# generated components: coefficients


def test_component_rationals_match_printed_values():
    printed = {
        (2, 1): Fraction(1, 192),
        (2, 0): Fraction(1, 64),
        (3, 2): Fraction(1, 2**6 * 180),
        (3, 1): Fraction(1, 2**6 * 6 * 24),
        (3, 0): Fraction(1, 2**6 * 36),
    }
    for (p, q), expect in printed.items():
        words = euler_component_words(p, q)
        assert words.rationals() == {expect}, (p, q)


def test_component_word_counts():
    assert len(euler_component_words(2, 1).words) == 2
    assert len(euler_component_words(2, 0).words) == 2
    assert len(euler_component_words(3, 2).words) == 3
    assert len(euler_component_words(3, 1).words) == 18
    assert len(euler_component_words(3, 0).words) == 6


@pytest.mark.parametrize(
    "p,q,key",
    [(1, 0, (1, 1)), (2, 0, (2, 2)), (2, 1, (1, 3)),
     (3, 0, (3, 3)), (3, 1, (2, 4)), (3, 2, (1, 5))],
)
def test_generated_equals_builtin(p, q, key, rng):
    n = 2 * p
    gen = euler_component(p, q)
    built = builtin_cocycle(n).components[key]
    for _ in range(10):
        point = nerve_point([sample_haar(n, rng) for _ in range(key[0])], n=n)
        frames = tuple(random_frame(key[0], n, rng) for _ in range(key[1]))
        a = gen.fn(point, frames)
        b = built.fn(point, frames)
        assert abs(a - b) <= 1e-10 * max(abs(b), 1e-300)


def test_edge_and_diagonal_are_special_cases():
    # q = p-1 gives the level-1 (edge) words, each carrying
    # (-1)^p / (2^{2p} p! C(2p-1, p-1) p); q = 0 gives the level-p (diagonal)
    # words, sgn(sigma) (-1)^{p(p+1)/2} / (2^{2p} p!^2) for the letter order sigma
    for p in range(1, 6):
        edge = Fraction(
            (-1) ** p, 2 ** (2 * p) * math.factorial(p) * math.comb(2 * p - 1, p - 1) * p
        )
        words = euler_component_words(p, p - 1).words
        assert len(words) == p
        assert all(w.rational == edge for w in words), p

        diagonal = Fraction((-1) ** (p * (p + 1) // 2), 2 ** (2 * p) * math.factorial(p) ** 2)
        words = euler_component_words(p, 0).words
        assert len(words) == math.factorial(p)
        for w in words:
            order = [f.a.slot - 1 for f in w.factors]
            sign = round(np.linalg.det(np.eye(p)[order]))
            assert w.rational == sign * diagonal, (p, order)


def test_builtin_unsupported_n():
    with pytest.raises(ValueError):
        builtin_cocycle(8)


# ---------------------------------------------------------------------------
# clutching loops


def test_clutching_zero():
    assert abs(clutching_euler_number(0)) < 1e-12


@pytest.mark.parametrize("k", [-3, -2, -1, 1, 2, 3])
def test_clutching_winding(k):
    assert abs(clutching_euler_number(k) - k) < 1e-10


def test_clutching_requires_min_steps():
    with pytest.raises(ValueError):
        clutching_euler_number(1, steps=32)


# ---------------------------------------------------------------------------
# bundle projection pullback


def test_projection_pullback_identity_case():
    n = 4
    xis = [random_skew(n, np.random.default_rng(3)) for _ in range(3)]
    gs = [np.eye(n)] * 3
    frame = bundle_projection_pushforward(gs, xis)
    for m in range(1, 3):
        assert np.allclose(frame.components[m - 1], xis[m - 1] - xis[m], atol=0)


@pytest.mark.parametrize("s,q", [(1, 1), (2, 2), (1, 2)])
def test_projection_pullback_first_coordinate_wins(s, q, rng):
    res = phi_pullback_variants(s, q, samples=5, rng=rng)
    assert res["pushforward_fd"] < 1e-8
    assert res["conj_g0"] < 1e-8


def test_projection_point(rng):
    gs = [sample_haar(4, rng) for _ in range(3)]
    point = bundle_projection(gs)
    assert np.allclose(point.components[0], gs[0] @ gs[1].T, atol=0)
    assert np.allclose(point.components[1], gs[1] @ gs[2].T, atol=0)


# ---------------------------------------------------------------------------
# term export


def test_words_to_json_counts():
    words = euler_component_words(2, 1).words
    terms = words_to_json(4, list(words))
    # 2 words x |S_4| expanded terms
    assert len(terms) == 2 * 24
    sample = terms[0]
    assert set(sample) == {"coefficient", "factors"}
    assert sample["factors"][0]["entry"][0] in range(1, 5)


def test_generated_cocycle_is_total_cocycle(rng):
    from eulernerve.matgroup import nerve_point as npoint
    from eulernerve.nerve import verify_total_cocycle

    def sampler(level, rng):
        return npoint([sample_haar(4, rng) for _ in range(level)], n=4)

    report = verify_total_cocycle(
        generated_cocycle(2), samples=5, tol=1e-5, rng=rng, point_sampler=sampler
    )
    assert report.passed
