"""Microbenchmarks of the nerve's face maps and of d' and d'' on every component
of the SO(6) cocycle, and of the generator-vs-transcription comparison:

    PYTHONPATH=<tree>/src python -m pytest tests/bench_nerve.py

``faces`` takes every face point and face pushforward of one point and frame
set of the image level of d'; ``d_prime`` and ``d_second`` are one call each of
the differentials as ``verify_total_cocycle`` builds them (d'' evaluates each
stencil direction in one form call).  ``generator_vs_transcription`` is the
``verify-generator --p 3 --samples 10`` entry at seed 0, as the ``cocycle-so6``
benchmark certificate runs it: both paths of every component, each on its
stacked samples.  The file has no ``test_`` prefix, so the Tier-1 run does not
collect it.  The inputs are drawn with numpy and the package's public
samplers, so pointing ``PYTHONPATH`` at another tree times that tree's code on
the same inputs.
"""

import numpy as np
import pytest

from eulernerve.checks import generator_vs_transcription
from eulernerve.cli import build_parser
from eulernerve.euler import builtin_cocycle
from eulernerve.matgroup import nerve_point, random_frame, sample_haar
from eulernerve.nerve import d_prime, d_second, face_point, face_pushforward

SO6 = builtin_cocycle(6).components
KEYS = sorted(SO6)


def draw(level: int, degree: int):
    """A Haar point of NG(level) and ``degree`` random frames, seed 0."""
    rng = np.random.default_rng(0)
    point = nerve_point([sample_haar(6, rng) for _ in range(level)])
    frames = tuple(random_frame(level, 6, rng) for _ in range(degree))
    return point, frames


def faces(q, point, frames):
    return [
        (face_point(i, q, point), [face_pushforward(i, q, point, v) for v in frames])
        for i in range(q + 1)
    ]


@pytest.mark.parametrize("key", KEYS, ids=lambda key: "E_%d,%d" % key)
def test_faces_so6(benchmark, key):
    q, s = key[0] + 1, key[1]
    benchmark(faces, q, *draw(q, s))


@pytest.mark.parametrize("key", KEYS, ids=lambda key: "E_%d,%d" % key)
def test_d_prime_so6(benchmark, key):
    form = d_prime(SO6[key])
    benchmark(form.fn, *draw(form.level, form.degree))


@pytest.mark.parametrize("key", KEYS, ids=lambda key: "E_%d,%d" % key)
def test_d_second_so6(benchmark, key):
    form = d_second(SO6[key])
    benchmark(form.fn, *draw(form.level, form.degree))


def test_generator_vs_transcription(benchmark):
    args = build_parser().parse_args(["verify-generator", "--p", "3", "--samples", "10"])
    benchmark(lambda: generator_vs_transcription(args, np.random.default_rng(0)))
