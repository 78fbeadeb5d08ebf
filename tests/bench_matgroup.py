"""Microbenchmarks of ``exp_alg`` and ``log_grp`` on seeded stacks of 512
matrices, n = 4 (the quaternion closed forms) and n = 6 (the spectral
exponential through ``eigh`` and the eig log), and of the sampling:

- lone ``sample_haar`` and ``random_skew`` draws, n = 4 and 6;
- the one draw of a ``verify-euler --n 6 --samples 4`` run
  (``sample_blocks``: 40 Haar components and 160 frame components).

    PYTHONPATH=<tree>/src python -m pytest tests/bench_matgroup.py

The file has no ``test_`` prefix, so the Tier-1 run does not collect it.  The
inputs are built with scipy alone, so pointing ``PYTHONPATH`` at another tree
times that tree's kernels on the same matrices; ``-k "not sample_blocks"``
times a tree that has no ``sample_blocks``.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from eulernerve import matgroup
from eulernerve.matgroup import exp_alg, log_grp, random_skew, sample_haar

STACK = 512


def skew_stack(n: int) -> np.ndarray:
    """STACK skew matrices of spectral norm between 0.05 and 2, seed 0."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((STACK, n, n))
    s = 0.5 * (m - m.swapaxes(-1, -2))
    norms = np.linalg.norm(s, 2, axis=(-2, -1))
    return s * (rng.uniform(0.05, 2.0, STACK) / norms)[:, None, None]


@pytest.mark.parametrize("n", [4, 6])
def test_exp_alg(benchmark, n):
    benchmark(exp_alg, skew_stack(n))


@pytest.mark.parametrize("n", [4, 6])
def test_log_grp(benchmark, n):
    benchmark(log_grp, expm(skew_stack(n)))


@pytest.mark.parametrize("n", [4, 6])
def test_sample_haar(benchmark, n):
    benchmark(sample_haar, n, np.random.default_rng(0))


@pytest.mark.parametrize("n", [4, 6])
def test_random_skew(benchmark, n):
    benchmark(random_skew, n, np.random.default_rng(0))


def test_sample_blocks_verify_euler_so6(benchmark):
    # the image bidegrees of the SO(6) cocycle, 4 samples
    blocks = [(1, 6), (2, 5), (3, 4), (4, 3)]
    benchmark(matgroup.sample_blocks, 6, blocks, 4, np.random.default_rng(0))
