"""Microbenchmarks of the transgression layer: the cone ``_contract`` on the
stacked batch of one beta_{1,3} evaluation at order 8 (7 direction blocks of
512 nodes: the base nodes and +-FD_STEP along each simplex direction), one
evaluation of each of beta_{2,1}, beta_{1,2} and beta_{1,3}, and one of each
of eta_0 and eta_1 of ``local_cochain``, all at order 8 on seeded points of
radius 0.1:

    PYTHONPATH=<tree>/src python -m pytest tests/bench_transgression.py

The file has no ``test_`` prefix, so the Tier-1 run does not collect it.  The
inputs come from ``sample_near_identity`` and ``quadrature_rule`` on fixed
seeds, so pointing ``PYTHONPATH`` at another tree times that tree's code on
the same inputs.  A tree whose ``_contract`` takes no row -> argument index
gets the batch as broadcast rows.
"""

import inspect

import numpy as np
import pytest

from eulernerve.euler import builtin_cocycle
from eulernerve.matgroup import nerve_point, random_frame, sample_near_identity
from eulernerve.simplex import quadrature_rule
from eulernerve.transgression import FD_STEP, _contract, local_cochain, transgression_form

ORDER = 8
RADIUS = 0.1


def cone_batch():
    """The times and arguments of one beta_{1,3} evaluation's cone call."""
    rng = np.random.default_rng(0)
    hs = np.stack([sample_near_identity(4, RADIUS, rng) for _ in range(3)])
    nodes = quadrature_rule(3, ORDER).nodes
    blocks = [nodes]
    for a in range(1, 4):
        step = np.zeros(4)
        step[[0, a]] = -FD_STEP, FD_STEP
        blocks += [nodes + step, nodes - step]
    times = np.concatenate(blocks)
    if "rows" in inspect.signature(_contract).parameters:
        return times, hs[None], np.zeros(len(times), dtype=int)
    return times, np.broadcast_to(hs, (len(times),) + hs.shape)


def test_contract_beta13_batch(benchmark):
    benchmark(_contract, *cone_batch())


def bench_form(benchmark, form, seed):
    rng = np.random.default_rng(seed)
    p = nerve_point([sample_near_identity(4, RADIUS, rng) for _ in range(form.level)])
    frames = tuple(random_frame(form.level, 4, rng) for _ in range(form.degree))
    benchmark(form.fn, p, frames)


@pytest.mark.parametrize("m, q", [(2, 1), (1, 2), (1, 3)])
def test_beta(benchmark, m, q):
    mu = builtin_cocycle(4).components[(m, 4 - m)]
    bench_form(benchmark, transgression_form(mu, m, q, quad_order=ORDER), m * 10 + q)


# eta_0 at beta_{1,3}'s point, eta_1 at beta_{2,1}'s
@pytest.mark.parametrize("name, seed", [("eta0", 13), ("eta1", 21)])
def test_eta(benchmark, name, seed):
    bench_form(benchmark, getattr(local_cochain(quad_order=ORDER), name), seed)
