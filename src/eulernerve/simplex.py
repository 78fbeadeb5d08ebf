"""Integration over the standard simplex.

Exact rational values for barycentric monomials (Dirichlet's formula) and
Gauss-Jacobi tensor rules mapped onto the simplex for everything else.  The
one-dimensional Gauss-Jacobi rules come from the eigenvalues of the Jacobi
matrix (Golub & Welsch, Math. Comp. 23, 1969), in numpy alone.
Barycentric coordinates are (t_0, ..., t_q) with t_0 = 1 - sum(t_i, i >= 1);
the measure is dt_1 ... dt_q on {t_i >= 0, sum <= 1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np


def monomial_integral(exponents: Sequence[int]) -> Fraction:
    """Exact integral of prod_i t_i^{a_i} over the q-simplex, q = len(a) - 1.

    Dirichlet's formula: (prod a_i!) / (q + sum a_i)!.
    """
    a = list(exponents)
    if not a:
        raise ValueError("need at least one exponent (the t_0 exponent)")
    if any(int(x) != x or x < 0 for x in a):
        raise ValueError("exponents must be non-negative integers")
    q = len(a) - 1
    num = math.prod(math.factorial(int(x)) for x in a)
    den = math.factorial(q + int(sum(a)))
    return Fraction(num, den)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes (barycentric, shape (m, q+1)) and weights for the q-simplex."""

    dimension: int
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f) -> float:
        return float(sum(w * f(t) for t, w in zip(self.nodes, self.weights)))


def _jacobi(order: int, alpha: int, x: np.ndarray):
    """P_n, P_{n-1} and P_n' of the Jacobi polynomials P^(alpha, 0) at x,
    n = order, by the three-term recurrence (DLMF 18.9.2) and its derivative."""
    a = alpha
    p_prev, p = np.ones_like(x), 0.5 * ((a + 2) * x + a)
    d_prev, d = np.zeros_like(x), np.full_like(x, 0.5 * (a + 2))
    for k in range(2, order + 1):
        # c P_k = (slope x + shift) P_{k-1} - r P_{k-2}
        m = 2 * k + a
        c = 2 * k * (k + a) * (m - 2)
        slope, shift = (m - 1) * m * (m - 2), (m - 1) * a * a
        r = 2 * (k + a - 1) * (k - 1) * m
        line = slope * x + shift
        p_prev, p, d_prev, d = (
            p, (line * p - r * p_prev) / c, d, (line * d + slope * p - r * d_prev) / c
        )
    return p, p_prev, d


@lru_cache(maxsize=None)
def _gauss_jacobi_01(order: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss rule for the weight (1-u)^alpha on [0,1].

    The nodes x on [-1, 1] are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of P^(alpha, 0), refined by one Newton step on P_n, and
    u = (x + 1) / 2.  The weights are proportional to 1 / (P_{n-1}(x) P_n'(x))
    and sum to 1 / (alpha+1), the integral of (1-u)^alpha over [0, 1].
    """
    a = alpha
    k = np.arange(1, order, dtype=float)
    m = 2 * k + a
    diag = np.empty(order)
    # the k >= 1 formula at k = 0 reads 0/0 when alpha = 0
    diag[0] = -a / (a + 2.0)
    diag[1:] = -a * a / (m * (m + 2))
    off = 2 * k * (k + a) / (m * np.sqrt(m * m - 1))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    p, _, d = _jacobi(order, a, x)
    x = x - p / d
    _, p_prev, d = _jacobi(order, a, x)
    w = 1.0 / (p_prev * d)
    return 0.5 * (x + 1.0), w * (1.0 / (a + 1) / w.sum())


@lru_cache(maxsize=None)
def quadrature_rule(q: int, order: int) -> QuadratureRule:
    """Tensor Gauss-Jacobi rule on the q-simplex via the Duffy-type map
    t_i = u_i * prod_{j<i}(1-u_j).

    Exact for barycentric polynomials of total degree <= 2*order - 1.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    axes = [_gauss_jacobi_01(order, q - i) for i in range(1, q + 1)]
    nodes = []
    weights = []

    def build(i: int, prefix_t: list[float], w: float, remaining: float):
        if i == q:
            t = np.empty(q + 1)
            t[1:] = prefix_t
            t[0] = max(remaining, 0.0)
            nodes.append(t)
            weights.append(w)
            return
        us, ws = axes[i]
        for u, wu in zip(us, ws):
            ti = u * remaining if i > 0 else u
            build(i + 1, prefix_t + [ti], w * wu, remaining * (1.0 - u))

    build(0, [], 1.0, 1.0)
    nodes_arr = np.array(nodes)
    weights_arr = np.array(weights)
    return QuadratureRule(dimension=q, nodes=nodes_arr, weights=weights_arr)
