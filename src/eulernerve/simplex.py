"""Integration over the standard simplex.

Exact rational values for barycentric monomials (Dirichlet's formula) and
Gauss-Jacobi tensor rules mapped onto the simplex for everything else.  The
one-dimensional Gauss-Jacobi rules come from the eigenvalues of the Jacobi
matrix (Golub & Welsch, Math. Comp. 23, 1969), in numpy alone.
Barycentric coordinates are (t_0, ..., t_q) with t_0 = 1 - sum(t_i, i >= 1);
the measure is dt_1 ... dt_q on {t_i >= 0, sum <= 1}.

Every quadrature of the package (the fiber integrals of the transgression,
the loop functionals and the loop cocycle, the clutching integral) adds its
weighted node values with ``ordered_sum``.
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


def ordered_sum(terms) -> float:
    """The sum of ``terms`` added one at a time, left to right in C order.

    A dot product or a pairwise ``np.sum`` groups the terms differently and
    rounds differently, so every quadrature sums its terms here, and its
    value does not depend on how numpy blocks a reduction.
    """
    return float(np.add.accumulate(np.ravel(terms))[-1])


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes (barycentric, shape (m, q+1)) and weights for the q-simplex."""

    nodes: np.ndarray
    weights: np.ndarray


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
    # one row per node, axis 0 outermost
    index = np.indices((order,) * q).reshape(q, -1)
    u = np.stack([us[k] for (us, _), k in zip(axes, index)], -1)
    w = np.stack([ws[k] for (_, ws), k in zip(axes, index)], -1)
    # the mass left after each coordinate, multiplied left to right
    remaining = np.cumprod(1.0 - u, axis=1)
    nodes = np.empty((len(u), q + 1))
    nodes[:, 0] = np.maximum(remaining[:, -1], 0.0)
    nodes[:, 1] = u[:, 0]
    nodes[:, 2:] = u[:, 1:] * remaining[:, :-1]
    return QuadratureRule(nodes=nodes, weights=np.cumprod(w, axis=1)[:, -1])
