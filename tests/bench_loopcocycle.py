"""Microbenchmarks of the loop-algebra layer: the cocycle residual on the
loop-so4 certificate's 20 triples of max-frequency-3 loops, one bracket, one
cocycle and one level-1 loop functional at 8 theta nodes x order 4:

    PYTHONPATH=<tree>/src python -m pytest tests/bench_loopcocycle.py

The file has no ``test_`` prefix, so the Tier-1 run does not collect it.  The
inputs come from the package's public ``random_loop`` on fixed seeds, so
pointing ``PYTHONPATH`` at another tree times that tree's code on the same
loops.
"""

import numpy as np

from eulernerve.loopcocycle import (
    cocycle_residual,
    level1_loop_functional,
    loop_bracket,
    loop_cocycle,
    random_loop,
)

TRIPLES = 20
MAX_FREQ = 3


def loops(count: int, max_freq: int = MAX_FREQ, norm: float = 1.0):
    rng = np.random.default_rng(0)
    return [random_loop(4, max_freq, rng, norm=norm) for _ in range(count)]


def test_cocycle_residual_20_triples(benchmark):
    xs = loops(3 * TRIPLES)
    triples = [xs[3 * i:3 * i + 3] for i in range(TRIPLES)]
    benchmark(lambda: [cocycle_residual(*t) for t in triples])


def test_loop_bracket(benchmark):
    x, y = loops(2)
    benchmark(loop_bracket, x, y)


def test_loop_cocycle(benchmark):
    # a bracket (frequency 6) against a loop, as inside the residual
    x, y, z = loops(3)
    benchmark(loop_cocycle, loop_bracket(x, y), z)


def test_level1_loop_functional(benchmark):
    a, b = loops(2, max_freq=1, norm=0.8)
    benchmark(lambda: level1_loop_functional(1e-3, a, -1e-3, b, theta_nodes=8, t_order=4))
