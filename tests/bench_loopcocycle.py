"""Microbenchmarks of the loop-algebra layer: the cocycle residual on the
loop-so4 certificate's 20 triples of max-frequency-3 loops, one pointwise
bracket on the residual's theta grid, one cocycle of a frequency-6 loop
against a frequency-3 loop and one level-1 loop functional at 8 theta nodes
x order 4:

    PYTHONPATH=<tree>/src python -m pytest tests/bench_loopcocycle.py

The file has no ``test_`` prefix, so the Tier-1 run does not collect it.  The
inputs come from the package's public ``random_loop`` on fixed seeds, so
pointing ``PYTHONPATH`` at another tree times that tree's code on the same
loops (``test_loop_bracket`` needs a tree whose ``loop_bracket`` takes
sampled loops).
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
    # two of a triple's loops, sampled on the residual's grid of 4 * 9 + 8 nodes
    theta = np.arange(4 * 3 * MAX_FREQ + 8) / (4 * 3 * MAX_FREQ + 8)
    x, y = ((xi.values(theta), xi.derivative().values(theta)) for xi in loops(2))
    benchmark(loop_bracket, x, y)


def test_loop_cocycle(benchmark):
    # frequency 6 against 3, the frequencies of a bracket and a loop
    x = random_loop(4, 2 * MAX_FREQ, np.random.default_rng(0))
    (y,) = loops(1)
    benchmark(loop_cocycle, x, y)


def test_level1_loop_functional(benchmark):
    a, b = loops(2, max_freq=1, norm=0.8)
    benchmark(lambda: level1_loop_functional(1e-3, a, -1e-3, b, theta_nodes=8, t_order=4))
