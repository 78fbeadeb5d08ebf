from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm
from test_checks import run_entry

from eulernerve import checks, nerve
from eulernerve.checks import d_prime_squared, simplicial_identities, total_cocycle
from eulernerve.euler import builtin_cocycle
from eulernerve.forms import (
    FormEvaluator,
    lin,
    rmc,
    scale_form,
    square,
    word,
    word_sum_form,
)
from eulernerve.matgroup import (
    iter_samples,
    nerve_point,
    random_frame,
    sample_haar,
    skew_project,
    tangent_frame,
)
from eulernerve.nerve import (
    Cochain,
    d_prime,
    d_second,
    face_point,
    face_pushforward,
)


# ---------------------------------------------------------------------------
# face maps


def test_face_point_cases(rng):
    h1, h2 = sample_haar(4, rng), sample_haar(4, rng)
    p = nerve_point([h1, h2])
    assert np.array_equal(face_point(0, 2, p).components[0], h2)
    assert np.allclose(face_point(1, 2, p).components[0], h1 @ h2, atol=0)
    assert np.array_equal(face_point(2, 2, p).components[0], h1)


def test_face_point_index_error(rng):
    p = nerve_point([sample_haar(4, rng)])
    with pytest.raises(IndexError):
        face_point(2, 1, p)


def test_pushforward_identity_merge(rng):
    # h2 = I makes the merged tangent xi1 + xi2
    h1 = sample_haar(4, rng)
    p = nerve_point([h1, np.eye(4)])
    v = random_frame(2, 4, rng)
    out = face_pushforward(1, 2, p, v)
    assert np.allclose(out.components[0], v.components[0] + v.components[1], atol=1e-15)


def test_pushforward_abelian_so2(rng):
    p = nerve_point([sample_haar(2, rng), sample_haar(2, rng)])
    v = random_frame(2, 2, rng)
    out = face_pushforward(1, 2, p, v)
    assert np.max(np.abs(out.components[0] - (v.components[0] + v.components[1]))) < 1e-15


def test_pushforward_matches_finite_differences(rng):
    q, n = 3, 4
    p = nerve_point([sample_haar(n, rng) for _ in range(q)])
    v = random_frame(q, n, rng)
    step = 1e-5
    for i in range(q + 1):
        exact = face_pushforward(i, q, p, v)
        plus = face_point(i, q, nerve_point(
            [h @ expm(step * xi) for h, xi in zip(p.components, v.components)], n=n))
        minus = face_point(i, q, nerve_point(
            [h @ expm(-step * xi) for h, xi in zip(p.components, v.components)], n=n))
        base = face_point(i, q, p)
        for k in range(q - 1):
            fd = skew_project(
                base.components[k].T @ (plus.components[k] - minus.components[k]) / (2 * step)
            )
            assert np.max(np.abs(fd - exact.components[k])) < 1e-8


def test_simplicial_identities(rng):
    # eps_i o eps_j = eps_{j-1} o eps_i for i < j, points and pushforwards
    result = run_entry(simplicial_identities, ["structure-tests", "--n", "4"], rng)
    assert all(c.passed for c in result.values())


# ---------------------------------------------------------------------------
# differentials


def test_d_prime_zero_form_expansion(rng):
    # (d'f)(h1, h2) = f(h2) - f(h1 h2) + f(h1), checked with a trace
    f = FormEvaluator(1, 0, lambda p, v: float(np.trace(p.components[0])))
    df = d_prime(f)
    h1, h2 = sample_haar(4, rng), sample_haar(4, rng)
    val = df.fn(nerve_point([h1, h2]), ())
    expect = np.trace(h2) - np.trace(h1 @ h2) + np.trace(h1)
    assert abs(val - expect) < 1e-13


def test_d_prime_squared_zero_forms(rng):
    # the registry check covers trace(M h) and a generator-entry 1-form
    assert run_entry(d_prime_squared, ["structure-tests", "--n", "4"], rng)["d' o d'"].passed


def test_d_prime_squared_one_forms(rng):
    omega = word_sum_form(1, 4, [word(1.0, [lin(rmc(1)), square(rmc(1))])])
    dd = d_prime(d_prime(omega))
    for _ in range(3):
        p = nerve_point([sample_haar(4, rng) for _ in range(3)])
        frames = tuple(random_frame(3, 4, rng) for _ in range(3))
        assert abs(dd.fn(p, frames)) < 1e-9


@pytest.mark.parametrize("key", [(1, 5), (2, 4)], ids=lambda key: "E_%d,%d" % key)
def test_d_prime_on_stacked_points(key, rng):
    # points and frames may hold stacks (see matgroup): d' of an SO(6)
    # component on a stack equals its per-point calls bit for bit
    omega = builtin_cocycle(6).components[key]
    dp = d_prime(omega)
    points = [nerve_point([sample_haar(6, rng) for _ in range(dp.level)]) for _ in range(3)]
    frames = [tuple(random_frame(dp.level, 6, rng) for _ in range(dp.degree)) for _ in range(3)]
    stacked = dp.fn(
        nerve_point([np.stack(c) for c in zip(*(p.components for p in points))]),
        tuple(tangent_frame([np.stack(c) for c in zip(*(f[j].components for f in frames))])
              for j in range(dp.degree)),
    )
    assert stacked.shape == (3,)
    assert list(stacked) == [dp.fn(p, f) for p, f in zip(points, frames)]


def test_d_second_sign():
    # even level: d'' = +d; odd level: d'' = -d

    def fn(p, v):
        return np.trace(p.components[0], axis1=-2, axis2=-1)

    f1 = FormEvaluator(1, 0, fn)
    f2 = FormEvaluator(2, 0, fn)
    rng = np.random.default_rng(0)
    p1 = nerve_point([sample_haar(4, rng)])
    v1 = (random_frame(1, 4, rng),)
    from eulernerve.forms import exterior_derivative

    assert d_second(f1).fn(p1, v1) == pytest.approx(-exterior_derivative(f1).fn(p1, v1))
    p2 = nerve_point([sample_haar(4, rng), sample_haar(4, rng)])
    v2 = (random_frame(2, 4, rng),)
    assert d_second(f2).fn(p2, v2) == pytest.approx(exterior_derivative(f2).fn(p2, v2))


def test_anticommutation(rng):
    omega = word_sum_form(1, 4, [word(0.5, [lin(rmc(1)), lin(rmc(1))])])
    # degree-2 word of two linear factors
    anti = d_second(d_prime(omega))
    comm = d_prime(d_second(omega))
    for _ in range(3):
        p = nerve_point([sample_haar(4, rng) for _ in range(2)])
        frames = tuple(random_frame(2, 4, rng) for _ in range(3))
        assert abs(anti.fn(p, frames) + comm.fn(p, frames)) < 1e-5


# ---------------------------------------------------------------------------
# total-cocycle verification


def test_verify_so4_cochain(rng):
    result = run_entry(total_cocycle, ["verify-euler", "--n", "4", "--samples", "5"], rng)
    assert all(c.passed for c in result.values())
    assert result["unique sign assignment"].extra["sign_assignment"] == {"1,3": 1, "2,2": 1}


def test_verify_so2_cochain(rng):
    result = run_entry(total_cocycle, ["verify-euler", "--n", "2", "--tol", "1e-9"], rng)
    assert all(c.passed for c in result.values())


def test_verify_detects_perturbation(rng, monkeypatch):
    base = builtin_cocycle(4)
    tampered = Cochain(
        n=4,
        components={
            (1, 3): scale_form(1.01, base.components[(1, 3)]),
            (2, 2): base.components[(2, 2)],
        },
    )
    # frames of norm 2.5, from the same draws as at norm 1: at norm 1 the
    # tampered residual reads only about 1.6e-4
    def sample_at_norm_2_5(n, blocks, samples, rng):
        for draws in iter_samples(n, blocks, samples, rng):
            yield [(point, tuple(replace(v, components=tuple(2.5 * x for x in v.components))
                                 for v in frames))
                   for point, frames in draws]

    monkeypatch.setattr(nerve, "iter_samples", sample_at_norm_2_5)
    argv = ["verify-euler", "--n", "4", "--samples", "5", "--tol", "1e-5"]

    def run(cochain, rng):
        monkeypatch.setattr(checks, "builtin_cocycle", lambda n: cochain)
        result = run_entry(total_cocycle, argv, rng)
        residual = max(c.max_residual for name, c in result.items()
                       if name.startswith("total-cocycle residual"))
        return residual, result

    residual, result = run(tampered, rng)
    assert not all(c.passed for c in result.values())
    assert residual > 100 * 1e-5
    # and no sign flip can repair a scaled component
    assert result["unique sign assignment"].extra["consistent_assignments"] == 0
    # the unperturbed cochain stays far below tolerance on the same frames
    clean, _ = run(base, np.random.default_rng(99))
    assert clean < 1e-8


def test_cochain_validates_bidegrees():
    bad = builtin_cocycle(4).components[(1, 3)]
    with pytest.raises(ValueError):
        Cochain(n=4, components={(2, 2): bad})


def test_cochain_components_are_read_only():
    shared = builtin_cocycle(4)
    with pytest.raises(TypeError):
        shared.components[(1, 3)] = shared.components[(2, 2)]
    # a cochain keeps its own copy of the mapping it was given
    components = dict(shared.components)
    cochain = Cochain(n=4, components=components)
    components.pop((1, 3))
    assert set(cochain.components) == {(1, 3), (2, 2)}
