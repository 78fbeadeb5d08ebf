import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm
from test_checks import run_entry

from eulernerve.checks import _matrix_form, maurer_cartan
from eulernerve.euler import builtin_cocycle, euler_component
from eulernerve.forms import (
    EXTERIOR_STEP,
    FormEvaluator,
    WordSumEvaluator,
    _directional,
    _skew_pairs,
    exterior_derivative,
    generator_value,
    lin,
    lmc,
    matching_table,
    perm_table,
    pfaffian_contraction,
    phi,
    rmc,
    shuffle_table,
    square,
    sumphi,
    wedge2,
    word,
    word_sum_form,
)
from eulernerve.matgroup import (
    exp_alg,
    frame_bracket,
    nerve_point,
    random_frame,
    random_skew,
    sample_haar,
    sample_near_identity,
    tangent_frame,
)
from eulernerve.nerve import d_prime
from eulernerve.transgression import transgression_form


def _stacked(xs):
    """One point (or frame) whose components stack those of ``xs``: lone
    draws in a batch, to compare a stacked call with the lone calls."""
    return replace(xs[0], components=tuple(np.stack(c) for c in zip(*(x.components for x in xs))))


# ---------------------------------------------------------------------------
# generator values


def test_lmc_is_left_trivialization(rng):
    p = nerve_point([sample_haar(4, rng), sample_haar(4, rng)])
    v = random_frame(2, 4, rng)
    assert np.array_equal(generator_value(lmc(1), p, v), v.components[0])
    assert np.array_equal(generator_value(lmc(2), p, v), v.components[1])


def test_rmc_at_identity(rng):
    p = nerve_point([np.eye(4), np.eye(4)])
    v = random_frame(2, 4, rng)
    assert np.allclose(generator_value(rmc(2), p, v), v.components[1], atol=0)


def test_phi_matches_fd_of_defining_word(rng):
    # phi_s is the derivative at t = 0 of the conjugation curve
    # c(t) = h_1 .. h_{s-1} (h_s e^{t xi}) h_s^{-1} .. h_1^{-1}
    hs = [sample_haar(4, rng) for _ in range(3)]
    xi = random_skew(4, rng)
    step = 1e-6
    prefix = hs[0] @ hs[1]

    def curve(t):
        moved = hs[2] @ expm(t * xi)
        return prefix @ moved @ np.linalg.inv(hs[2]) @ np.linalg.inv(prefix)

    fd = (curve(step) - curve(-step)) / (2 * step)
    p = nerve_point(hs)
    v = tangent_frame([np.zeros((4, 4)), np.zeros((4, 4)), xi])
    val = generator_value(phi(3), p, v)
    assert np.max(np.abs(fd - val)) < 1e-8


def test_phi_conjugation_formula(rng):
    # Ad(h_1 h_2) xi_2, the value of the defining word in left trivialization
    h1, h2 = sample_haar(4, rng), sample_haar(4, rng)
    xi = random_skew(4, rng)
    p = nerve_point([h1, h2])
    v = tangent_frame([np.zeros((4, 4)), xi])
    got = generator_value(phi(2), p, v)
    expect = h1 @ h2 @ xi @ h2.T @ h1.T
    assert np.max(np.abs(got - expect)) < 1e-13


def test_sumphi_is_sum(rng):
    p = nerve_point([sample_haar(4, rng) for _ in range(3)])
    v = random_frame(3, 4, rng)
    total = generator_value(sumphi(1, 4), p, v)
    parts = sum(generator_value(phi(s), p, v) for s in (1, 2, 3))
    assert np.max(np.abs(total - parts)) < 1e-13


# ---------------------------------------------------------------------------
# word evaluation


def test_single_factor_entry(rng):
    w = word(1.0, [lin(lmc(1))])
    p = nerve_point([sample_haar(2, rng)])
    xi = random_skew(2, rng)
    # the S_2 sum gives xi_12 - xi_21
    val = word_sum_form(1, 2, [w])(p, (tangent_frame([xi]),))
    assert abs(val - (xi[0, 1] - xi[1, 0])) < 1e-15


def test_so2_level1_form_normalization(rng):
    # the normalized SO(2) 1-form sends the frame c*J to c/(2 pi)
    w = word(-1.0 / (4 * np.pi), [lin(lmc(1))])
    form = word_sum_form(1, 2, [w])
    theta0 = 0.3
    h = np.array([[np.cos(theta0), -np.sin(theta0)], [np.sin(theta0), np.cos(theta0)]])
    c = 1.7
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    val = form.fn(nerve_point([h]), (tangent_frame([c * j]),))
    assert abs(val - c / (2 * np.pi)) < 1e-14


def test_swap_frames_negates(rng):
    w = word(0.7, [lin(lmc(1)), lin(rmc(2))])
    form = word_sum_form(2, 4, [w])
    p = nerve_point([sample_haar(4, rng), sample_haar(4, rng)])
    v1, v2 = random_frame(2, 4, rng), random_frame(2, 4, rng)
    a = form.fn(p, (v1, v2))
    b = form.fn(p, (v2, v1))
    assert abs(a + b) <= 1e-14 * max(1.0, abs(a))


def test_swap_frames_negates_with_square(rng):
    w = word(1.0, [lin(lmc(1)), square(lmc(1))])
    form = word_sum_form(1, 4, [w])
    p = nerve_point([sample_haar(4, rng)])
    frames = [random_frame(1, 4, rng) for _ in range(3)]
    base = form.fn(p, tuple(frames))
    swapped = form.fn(p, (frames[1], frames[0], frames[2]))
    assert abs(base + swapped) <= 1e-14 * max(1.0, abs(base))


def test_multilinearity_exact(rng):
    w = word(1.0, [lin(lmc(1)), square(rmc(1))])
    form = word_sum_form(1, 4, [w])
    p = nerve_point([sample_haar(4, rng)])
    frames = [random_frame(1, 4, rng) for _ in range(3)]
    base = form.fn(p, tuple(frames))
    scaled = form.fn(p, (tangent_frame([2.0 * frames[0].components[0]]),) + tuple(frames[1:]))
    assert scaled == pytest.approx(2.0 * base, rel=1e-15)


@given(st.integers(0, 100))
def test_alternating_random_words_degree_5_so6(seed):
    rng = np.random.default_rng(seed)
    n = 6
    gens = [lmc(1), lmc(2), rmc(1), rmc(2), phi(2)]
    factors = [
        lin(gens[rng.integers(len(gens))]),
        square(gens[rng.integers(len(gens))]),
        square(gens[rng.integers(len(gens))]),
    ]
    w = word(float(rng.normal()), factors)
    form = word_sum_form(2, n, [w])
    p = nerve_point([sample_haar(n, rng), sample_haar(n, rng)])
    frames = [random_frame(2, n, rng) for _ in range(5)]
    base = form.fn(p, tuple(frames))
    i, j = sorted(rng.choice(5, size=2, replace=False))
    swapped = list(frames)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    val = form.fn(p, tuple(swapped))
    assert abs(base + val) <= 1e-12 * max(1.0, abs(base))


def test_wedge2_against_manual_shuffle_sum(rng):
    # degree-(1,2) word: compare the evaluator against the hand-written
    # shuffle formula sum_{first} (-1)^first c(v_first) * w2(rest)
    p = nerve_point([sample_haar(4, rng), sample_haar(4, rng)])
    x, y, z = (random_frame(2, 4, rng) for _ in range(3))
    w = word(1.0, [lin(lmc(2)), wedge2(lmc(1), rmc(2))])
    form = word_sum_form(2, 4, [w])
    val = form.fn(p, (x, y, z))

    def c_of(v):
        return generator_value(lmc(2), p, v)

    def w2(u, v):
        au, av = generator_value(lmc(1), p, u), generator_value(lmc(1), p, v)
        bu, bv = generator_value(rmc(2), p, u), generator_value(rmc(2), p, v)
        return au @ bv - av @ bu

    table, signs = perm_table(4)
    total = 0.0
    for row, sgn in zip(table, signs):
        a, b, c, d = row
        term = (
            c_of(x)[a, b] * w2(y, z)[c, d]
            - c_of(y)[a, b] * w2(x, z)[c, d]
            + c_of(z)[a, b] * w2(x, y)[c, d]
        )
        total += sgn * term
    assert val == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3], ids=lambda p: f"p={p}")
def test_pfaffian_contraction_matches_s2p_sum(p):
    # The perfect-matching contraction must be the S_{2p} sum itself, for any
    # square input: seeded non-skew stacks whose batch shapes broadcast.  The
    # error is measured relative to the sum of the (2p)! |terms|, since the
    # value itself can cancel to far below them.
    rng = np.random.default_rng(70 + p)
    n = 2 * p
    mats = [rng.standard_normal(((7, 1) if i % 2 == 0 else (3,)) + (n, n)) for i in range(p)]
    table, signs = perm_table(n)
    terms = np.ones(np.broadcast_shapes(*(m.shape[:-2] for m in mats)) + signs.shape)
    for i, m in enumerate(mats):
        terms = terms * m[..., table[:, 2 * i], table[:, 2 * i + 1]]
    values = pfaffian_contraction(mats)
    assert values.shape == terms.shape[:-1]
    assert np.all(np.abs(values - terms @ signs) <= 1e-14 * np.abs(terms).sum(axis=-1))


def _row_loop(ev, p, frames):
    """The word sum built one (word, shuffle) row at a time, every factor
    evaluated from its generators, then contracted as the evaluator does."""
    rows = []
    coeffs = []
    for w in ev.words:
        for sign, blocks in shuffle_table(tuple(f.degree for f in w.factors)):
            row = []
            for f, block in zip(w.factors, blocks):
                a_i = generator_value(f.a, p, frames[block[0]])
                if f.b is None:
                    row.append(a_i)
                else:
                    i, j = block
                    row.append(
                        a_i @ generator_value(f.b, p, frames[j])
                        - generator_value(f.a, p, frames[j]) @ generator_value(f.b, p, frames[i])
                    )
            rows.append(row)
            coeffs.append(w.coefficient * sign)
    mats = np.array(rows)
    return float(np.array(coeffs) @ pfaffian_contraction([mats[:, k] for k in range(ev.n // 2)]))


def _components(source):
    kind, size = source.split("-")
    if kind == "builtin":
        return list(builtin_cocycle(int(size)).components.values())
    return [euler_component(int(size), q) for q in range(int(size))]


SOURCES = ["builtin-2", "builtin-4", "builtin-6", "generated-1", "generated-2", "generated-3"]


def _term_magnitude(ev, p, frames):
    """sum_r |c_r| sum_matchings prod_i |pair value| over the evaluator's
    merged rows: the running error bound of its value (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 3)."""
    vals = [generator_value(gen, p, frames[j]) for gen, j in ev._letters]
    mats = [vals[e[0]] if len(e) == 1 else vals[e[0]] @ vals[e[1]] - vals[e[2]] @ vals[e[3]]
            for e in ev._entries]
    pairs = np.abs(_skew_pairs(np.array(mats)))[ev._index]
    table, _ = matching_table(ev.n // 2)
    prod = np.ones((len(ev._index), len(table)))
    for i in range(ev.n // 2):
        prod *= pairs[:, i, table[:, i]]
    return float(np.abs(ev._coeffs) @ prod.sum(axis=1))


@pytest.mark.parametrize("source", SOURCES)
def test_factor_table_matches_row_loop(source):
    # the merged factor table must agree with building every (word, shuffle)
    # row on its own to within the rounding of its own sum, 8 eps times the
    # term magnitude, and a stack of points must give each point's own value
    # bit for bit
    rng = np.random.default_rng(5)
    for form in _components(source):
        ev = form.fn
        assert isinstance(ev, WordSumEvaluator)
        draws = []
        for _ in range(2):
            point = nerve_point([sample_haar(ev.n, rng) for _ in range(ev.level)])
            frames = tuple(random_frame(ev.level, ev.n, rng) for _ in range(ev.degree))
            value = ev(point, frames)
            assert value != 0.0
            bound = 8 * np.finfo(float).eps * _term_magnitude(ev, point, frames)
            assert abs(value - _row_loop(ev, point, frames)) <= bound
            draws.append((point, frames, value))
        points, frame_draws, values = zip(*draws)
        stacked = ev(
            _stacked(points),
            tuple(_stacked(fs) for fs in zip(*frame_draws)),
        )
        assert stacked.shape == (2,)
        assert list(stacked) == list(values)


@pytest.mark.parametrize("source", SOURCES)
def test_merged_rows_are_distinct_sorted_multisets(source):
    # one row per multiset of factor entries, stored as its sorted entry ids
    for form in _components(source):
        rows = [tuple(r) for r in form.fn._index.tolist()]
        assert all(list(r) == sorted(r) for r in rows)
        assert len(set(rows)) == len(rows) == len(form.fn._coeffs)


def test_merged_row_counts_so6():
    counts = {key: len(form.fn._index) for key, form in builtin_cocycle(6).components.items()}
    assert counts == {(1, 5): 15, (2, 4): 48, (3, 3): 6}


@pytest.mark.parametrize("p", [2, 3, 4], ids=lambda p: f"p={p}")
def test_pfaffian_contraction_symmetric_in_factors(p):
    # the matching sum does not depend on the order of its factors, which is
    # what lets a word sum merge its rows; the error is measured against the
    # sum of the (2p)! |terms|
    rng = np.random.default_rng(90 + p)
    n = 2 * p
    mats = [rng.standard_normal((3, n, n)) for _ in range(p)]
    table, _ = perm_table(n)
    terms = np.ones((3, len(table)))
    for i, m in enumerate(mats):
        terms = terms * m[:, table[:, 2 * i], table[:, 2 * i + 1]]
    scale = np.abs(terms).sum(axis=-1)
    base = pfaffian_contraction(mats)
    for order in itertools.permutations(range(p)):
        moved = pfaffian_contraction([mats[i] for i in order])
        assert np.all(np.abs(moved - base) <= 1e-14 * scale)


# ---------------------------------------------------------------------------
# exterior derivative


def test_d_of_constant_vanishes(rng):
    # the constant 3.25 on every sample of the batch
    const = FormEvaluator(1, 0, lambda p, v: np.full(p.components[0].shape[:-2], 3.25))
    d = exterior_derivative(const)
    p = nerve_point([sample_haar(4, rng)])
    assert abs(d.fn(p, (random_frame(1, 4, rng),))) < 1e-10


def _per_move_derivative(omega, p, frames, step=EXTERIOR_STEP):
    """Cartan's formula with one h @ exp_alg(t * xi) per component and
    stencil time, without the library's ``move_point``."""

    def moved(v, t):
        return nerve_point([h @ exp_alg(t * xi) for h, xi in zip(p.components, v.components)])

    s = omega.degree
    total = 0.0
    for i in range(s + 1):
        rest = frames[:i] + frames[i + 1 :]
        values = [omega.fn(moved(frames[i], t), rest)
                  for t in (step, -step, 0.5 * step, -0.5 * step)]
        term = _directional(values, step)
        total += term if i % 2 == 0 else -term
    for i in range(s + 1):
        for j in range(i + 1, s + 1):
            merged = (frame_bracket(frames[i], frames[j]),) + tuple(
                frames[k] for k in range(s + 1) if k != i and k != j
            )
            term = omega.fn(p, merged)
            total += -term if (i + j) % 2 else term
    return total


@pytest.mark.parametrize("case", ["E_2,4", "rmc(1)"])
def test_stencil_matches_per_move_reference(case, rng):
    # one exp_alg call on the whole stencil gives the bits of one exp_alg
    # per component and stencil time, on a scalar word sum and on a
    # matrix-valued form
    if case == "E_2,4":
        omega, n = builtin_cocycle(6).components[(2, 4)], 6
    else:
        omega, n = FormEvaluator(1, 1, lambda p, v: generator_value(rmc(1), p, v[0])), 4
    for _ in range(2):
        p = nerve_point([sample_haar(n, rng) for _ in range(omega.level)])
        frames = tuple(random_frame(omega.level, n, rng) for _ in range(omega.degree + 1))
        got = exterior_derivative(omega).fn(p, frames)
        assert np.array_equal(got, _per_move_derivative(omega, p, frames))


def test_maurer_cartan_left(rng):
    # d theta + theta ^ theta = 0, all entries
    assert run_entry(maurer_cartan, ["structure-tests", "--n", "4"], rng)[
        "Maurer-Cartan (left)"].passed


def test_maurer_cartan_right(rng):
    # d kappa - kappa ^ kappa = 0 for the right-translation form
    assert run_entry(maurer_cartan, ["structure-tests", "--n", "4"], rng)[
        "Maurer-Cartan (right)"].passed


def test_d_squared_small(rng):
    n = 4
    w = word(1.0, [lin(rmc(1)), lin(phi(2))])
    form = word_sum_form(2, n, [w])
    dd = exterior_derivative(exterior_derivative(form))
    p = nerve_point([sample_near_identity(n, 0.2, rng) for _ in range(2)])
    frames = tuple(random_frame(2, n, rng) for _ in range(4))
    assert abs(dd.fn(p, frames)) < 1e-5


def test_word_arity_mismatch(rng):
    w = word(1.0, [lin(lmc(1)), lin(rmc(2))])
    p = nerve_point([sample_haar(4, rng), sample_haar(4, rng)])
    with pytest.raises(ValueError):
        word_sum_form(2, 4, [w])(p, (random_frame(2, 4, rng),))


# ---------------------------------------------------------------------------
# the batch contract: a stacked call equals its lone calls bit for bit

SO4 = builtin_cocycle(4).components
BATCH_FORMS = {
    "word-sum E_2,4": lambda: builtin_cocycle(6).components[(2, 4)],
    "matrix-form lmc(1)": lambda: _matrix_form(lmc(1)),
    "beta_2,1": lambda: transgression_form(SO4[(2, 2)], 2, 1, quad_order=3),
    "beta_1,3": lambda: transgression_form(SO4[(1, 3)], 1, 3, quad_order=3),
    "d' E_1,3": lambda: d_prime(SO4[(1, 3)]),
    "d E_1,3": lambda: exterior_derivative(SO4[(1, 3)]),
    "d beta_1,3": lambda: exterior_derivative(transgression_form(SO4[(1, 3)], 1, 3, quad_order=3)),
    "d o d rmc(1)": lambda: exterior_derivative(exterior_derivative(_matrix_form(rmc(1)))),
}


@pytest.mark.parametrize("case", sorted(BATCH_FORMS))
def test_stacked_call_equals_lone_calls(case):
    form = BATCH_FORMS[case]()
    n = 6 if case == "word-sum E_2,4" else 4
    rng = np.random.default_rng(3)
    points = [nerve_point([sample_near_identity(n, 0.3, rng) for _ in range(form.level)])
              for _ in range(3)]
    frames = [[random_frame(form.level, n, rng) for _ in range(form.degree)] for _ in range(3)]
    stacked = form.fn(_stacked(points), tuple(_stacked(v) for v in zip(*frames)))
    lone = np.stack([form.fn(p, tuple(v)) for p, v in zip(points, frames)])
    assert stacked.shape == lone.shape
    assert np.array_equal(stacked, lone)
