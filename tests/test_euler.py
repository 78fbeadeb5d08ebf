import math
from fractions import Fraction

import numpy as np
import pytest
from test_checks import run_entry

from eulernerve import checks
from eulernerve.checks import clutching_winding, generator_vs_transcription, pfaffian
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
)
from eulernerve.forms import generator_value, phi
from eulernerve.matgroup import (
    adjoint,
    exp_alg,
    random_skew,
    sample_haar,
    tangent_frame,
    trivialized_difference,
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
    result = run_entry(pfaffian, ["pfaffian", "--n", str(n), "--trials", "25"], rng)
    assert result["pfaffian^2 = det (relative)"].passed


@pytest.mark.parametrize("n", [2, 4, 6])
def test_pfaffian_matches_cofactor_oracle(n, rng):
    p = n // 2
    for _ in range(10):
        a = random_skew(n, rng)
        expect = pfaffian_cofactor(a) / (2 * np.pi) ** p
        assert euler_pfaffian(a) == pytest.approx(expect, rel=1e-12)


def test_pfaffian_conjugation_invariance(rng):
    for n in (2, 4, 6):
        result = run_entry(pfaffian, ["pfaffian", "--n", str(n), "--trials", "25"], rng)
        assert result["conjugation invariance (relative)"].passed


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
        rationals = {abs(w.rational) for w in euler_component_words(p, q)}
        assert rationals == {expect}, (p, q)


def test_component_word_counts():
    assert len(euler_component_words(2, 1)) == 2
    assert len(euler_component_words(2, 0)) == 2
    assert len(euler_component_words(3, 2)) == 3
    assert len(euler_component_words(3, 1)) == 18
    assert len(euler_component_words(3, 0)) == 6


@pytest.mark.parametrize(
    "p,q,key",
    [(1, 0, (1, 1)), (2, 0, (2, 2)), (2, 1, (1, 3)),
     (3, 0, (3, 3)), (3, 1, (2, 4)), (3, 2, (1, 5))],
)
def test_generated_equals_builtin(p, q, key, rng):
    # euler_component(p, q) is the component of bidegree key
    assert key == (p - q, p + q)
    argv = ["verify-generator", "--p", str(p), "--samples", "10"]
    result = run_entry(generator_vs_transcription, argv, rng)
    assert result[f"generator vs transcription (p={p}, q={q})"].passed


@pytest.mark.parametrize("seed", [13556049, 2161542497])
def test_generator_gate_where_one_transcribed_value_cancels(seed):
    # at these seeds one sample's transcribed value cancels to about 1e-6 of
    # the component's size (|b| = 5.4e-10 at p = 3, q = 0 for the first), so
    # |a - b| / |b| read 2.06e-10 and 1.03e-10 against the 1e-10 gate while
    # |a - b| was about 1e-19; relative to the largest |b| over the samples
    # those orders read 3.0e-16 and 2.3e-16, and every order stays below 1e-14
    argv = ["verify-generator", "--p", "3", "--samples", "10"]
    result = run_entry(generator_vs_transcription, argv, np.random.default_rng(seed))
    assert [c.name for c in result.values() if not c.passed] == []
    assert max(c.max_residual for c in result.values()) < 1e-14


def test_cochains_are_built_once():
    assert builtin_cocycle(6) is builtin_cocycle(6)
    assert euler_component(3, 0) is euler_component(3, 0)


def test_edge_and_diagonal_are_special_cases():
    # q = p-1 gives the level-1 (edge) words, each carrying
    # (-1)^p / (2^{2p} p! C(2p-1, p-1) p); q = 0 gives the level-p (diagonal)
    # words, sgn(sigma) (-1)^{p(p+1)/2} / (2^{2p} p!^2) for the letter order sigma
    for p in range(1, 6):
        edge = Fraction(
            (-1) ** p, 2 ** (2 * p) * math.factorial(p) * math.comb(2 * p - 1, p - 1) * p
        )
        words = euler_component_words(p, p - 1)
        assert len(words) == p
        assert all(w.rational == edge for w in words), p

        diagonal = Fraction((-1) ** (p * (p + 1) // 2), 2 ** (2 * p) * math.factorial(p) ** 2)
        words = euler_component_words(p, 0)
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
def test_clutching_winding(k, rng):
    assert run_entry(clutching_winding, ["euler-number", "--winding", str(k)], rng)[
        f"winding {k}"].passed


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
    # gamma^* phi_s = Ad(g_0)(theta_{s-1} - theta_s), and the exact pushforward
    # through gamma agrees with central differences, at one (s, q)
    n, step = 4, 1e-5
    for _ in range(5):
        gs = [sample_haar(n, rng) for _ in range(q + 1)]
        xis = [random_skew(n, rng) for _ in range(q + 1)]
        point = bundle_projection(gs)
        frame = bundle_projection_pushforward(gs, xis)
        lhs = generator_value(phi(s), point, frame)
        assert np.max(np.abs(lhs - adjoint(gs[0], xis[s - 1] - xis[s]))) < 1e-8
        moved_p = bundle_projection([g @ exp_alg(step * x) for g, x in zip(gs, xis)])
        moved_m = bundle_projection([g @ exp_alg(-step * x) for g, x in zip(gs, xis)])
        for m in range(q):
            fd = trivialized_difference(
                point.components[m], moved_p.components[m], moved_m.components[m], step
            )
            assert np.max(np.abs(fd - frame.components[m])) < 1e-8


def test_projection_point(rng):
    gs = [sample_haar(4, rng) for _ in range(3)]
    point = bundle_projection(gs)
    assert np.allclose(point.components[0], gs[0] @ gs[1].T, atol=0)
    assert np.allclose(point.components[1], gs[1] @ gs[2].T, atol=0)


def test_projection_on_stacks(rng):
    # stacks of group elements project, and push forward, one stack entry at
    # a time, bit for bit
    draws = [([sample_haar(4, rng) for _ in range(3)], [random_skew(4, rng) for _ in range(3)])
             for _ in range(2)]
    gs = [np.stack(c) for c in zip(*(d[0] for d in draws))]
    xis = [np.stack(c) for c in zip(*(d[1] for d in draws))]
    point = bundle_projection(gs)
    frame = bundle_projection_pushforward(gs, xis)
    assert point.n == frame.n == 4
    for k, (g, x) in enumerate(draws):
        for got, want in zip(point.components, bundle_projection(g).components):
            assert np.array_equal(got[k], want)
        for got, want in zip(frame.components, bundle_projection_pushforward(g, x).components):
            assert np.array_equal(got[k], want)


def test_generated_cocycle_is_total_cocycle(rng, monkeypatch):
    monkeypatch.setattr(checks, "builtin_cocycle", lambda n: generated_cocycle(2))
    result = run_entry(checks.total_cocycle,
                       ["verify-euler", "--n", "4", "--samples", "5", "--tol", "1e-5"], rng)
    residuals = [c for name, c in result.items() if name.startswith("total-cocycle residual")]
    assert len(residuals) == 3
    assert all(c.passed for c in residuals)
