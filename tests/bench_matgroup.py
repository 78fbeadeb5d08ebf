"""Microbenchmarks of ``exp_alg`` and ``log_grp`` on seeded stacks of 512
matrices, n = 4 (the quaternion closed forms) and n = 6 (the spectral
exponential through ``eigh`` and the eig log):

    PYTHONPATH=<tree>/src python -m pytest tests/bench_matgroup.py

The file has no ``test_`` prefix, so the Tier-1 run does not collect it.  The
inputs are built with scipy alone, so pointing ``PYTHONPATH`` at another tree
times that tree's kernels on the same matrices.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from eulernerve.matgroup import exp_alg, log_grp

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
