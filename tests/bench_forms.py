"""Microbenchmarks of the word contraction: ``pfaffian_contraction`` on seeded
stacks, and one ``WordSumEvaluator`` call per component of the SO(6) cocycle:

    PYTHONPATH=<tree>/src python -m pytest tests/bench_forms.py

The file has no ``test_`` prefix, so the Tier-1 run does not collect it.  The
inputs are drawn with numpy and the package's public samplers, so pointing
``PYTHONPATH`` at another tree times that tree's kernels on the same inputs.
"""

import numpy as np
import pytest

from eulernerve.euler import builtin_cocycle
from eulernerve.forms import pfaffian_contraction
from eulernerve.matgroup import nerve_point, random_frame, sample_haar

# rows of the largest word sum that verify-euler --n 6 evaluates, E_{2,4}
SO6_ROWS = 288


def stack(p: int, batch: tuple[int, ...]) -> list[np.ndarray]:
    """p standard-normal (non-skew) stacks of (2p, 2p) matrices, seed 0."""
    rng = np.random.default_rng(0)
    return [rng.standard_normal(batch + (2 * p, 2 * p)) for _ in range(p)]


def test_contraction_p2(benchmark):
    benchmark(pfaffian_contraction, stack(2, (512, 6)))


def test_contraction_p3(benchmark):
    benchmark(pfaffian_contraction, stack(3, (SO6_ROWS,)))


SO6 = builtin_cocycle(6).components


@pytest.mark.parametrize("key", sorted(SO6), ids=lambda key: "E_%d,%d" % key)
def test_word_sum_so6(benchmark, key):
    ev = SO6[key].fn
    rng = np.random.default_rng(0)
    point = nerve_point([sample_haar(6, rng) for _ in range(ev.level)])
    frames = tuple(random_frame(ev.level, 6, rng) for _ in range(ev.degree))
    benchmark(ev, point, frames)
