"""A 2-cocycle on the loop algebra of so(4) from the Euler cochain.

Loops are trigonometric polynomials theta -> so(4) of period 1.  The cocycle

    alpha(xi1, xi2) = (-1/(128 pi^2)) int_0^1 ( pf(xi1', xi2) - pf(xi2', xi1) ) dtheta

pairs the derivative of one loop against the other through the polarized
Pfaffian contraction pf(X, Y) = sum_{tau in S_4} sgn(tau) X_{tau(1)tau(2)}
Y_{tau(3)tau(4)}, a symmetric bilinear form evaluated by perfect matchings so
that it is exactly symmetric in floating point too (see pf_pairing).  The same
value is recovered by antisymmetrized mixed partials of functionals obtained
by contracting the level-1 and level-2 Euler components over loop-group paths
exp(y xi(theta)).

Normalization note: the loop functionals evaluate the level-2 component in
the normalized-alternation convention on the single canonical word, which is
1/4 of the shuffle-convention pair form used by the cocycle verification
(1/2 from the wedge normalization, 1/2 from the word pair); the level-1
functional analogously carries 1/6.  The relation is pinned by a unit test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .euler import builtin_cocycle
from .matgroup import exp_alg, nerve_point, skew_project, tangent_frame, trivialized_difference
from .simplex import quadrature_rule

LEVEL2_LOOP_SCALE = 0.25
LEVEL1_LOOP_SCALE = 1.0 / 6.0
# central-difference steps: the fourth-order stencil of the mixed partials,
# and the tangents of the loop-group paths inside the functionals
STENCIL_STEP = 1e-3
TANGENT_STEP = 1e-5


# ---------------------------------------------------------------------------
# loop algebra elements


@dataclass(frozen=True)
class LoopElement:
    """xi(theta) = c0 + sum_k (a_k cos(2 pi k theta) + b_k sin(2 pi k theta)),
    with skew matrix coefficients."""

    c0: np.ndarray
    cos_coeffs: tuple[np.ndarray, ...] = ()
    sin_coeffs: tuple[np.ndarray, ...] = ()

    @property
    def max_frequency(self) -> int:
        return len(self.cos_coeffs)

    @property
    def n(self) -> int:
        return self.c0.shape[0]

    def value(self, theta: float) -> np.ndarray:
        out = np.array(self.c0)
        for k, (a, b) in enumerate(zip(self.cos_coeffs, self.sin_coeffs), start=1):
            w = 2.0 * np.pi * k * theta
            out = out + a * np.cos(w) + b * np.sin(w)
        return out

    def derivative(self) -> "LoopElement":
        cos_c = []
        sin_c = []
        for k, (a, b) in enumerate(zip(self.cos_coeffs, self.sin_coeffs), start=1):
            w = 2.0 * np.pi * k
            cos_c.append(w * b)
            sin_c.append(-w * a)
        return LoopElement(np.zeros_like(self.c0), tuple(cos_c), tuple(sin_c))


def loop_element(c0, cos_coeffs=(), sin_coeffs=()) -> LoopElement:
    c0 = skew_project(np.asarray(c0, dtype=float))
    cos_t = tuple(skew_project(np.asarray(a, dtype=float)) for a in cos_coeffs)
    sin_t = tuple(skew_project(np.asarray(b, dtype=float)) for b in sin_coeffs)
    if len(cos_t) != len(sin_t):
        raise ValueError("cos and sin coefficient lists must have equal length")
    return LoopElement(c0, cos_t, sin_t)


def random_loop(
    n: int, max_freq: int, rng: np.random.Generator, norm: float = 1.0
) -> LoopElement:
    from .matgroup import random_skew

    return LoopElement(
        random_skew(n, rng, norm=norm),
        tuple(random_skew(n, rng, norm=norm) for _ in range(max_freq)),
        tuple(random_skew(n, rng, norm=norm) for _ in range(max_freq)),
    )


def loop_bracket(x: LoopElement, y: LoopElement) -> LoopElement:
    """Pointwise bracket, computed exactly on Fourier coefficients via
    product-to-sum identities."""
    kx, ky = x.max_frequency, y.max_frequency
    kout = kx + ky
    n = x.n
    c0 = np.zeros((n, n))
    cos_c = [np.zeros((n, n)) for _ in range(kout)]
    sin_c = [np.zeros((n, n)) for _ in range(kout)]

    def terms(elem: LoopElement):
        yield 0, "c", elem.c0
        for k, (a, b) in enumerate(zip(elem.cos_coeffs, elem.sin_coeffs), start=1):
            yield k, "c", a
            yield k, "s", b

    def add(freq: int, kind: str, mat: np.ndarray):
        nonlocal c0
        if freq == 0:
            if kind == "c":
                c0 = c0 + mat
            # sin(0) == 0: drop
            return
        if kind == "c":
            cos_c[freq - 1] += mat
        else:
            sin_c[freq - 1] += mat

    for ka, kind_a, ma in terms(x):
        for kb, kind_b, mb in terms(y):
            com = ma @ mb - mb @ ma
            s, d = ka + kb, ka - kb
            if kind_a == "c" and kind_b == "c":
                # cos cos = (cos(d) + cos(s)) / 2
                add(abs(d), "c", 0.5 * com)
                add(s, "c", 0.5 * com)
            elif kind_a == "s" and kind_b == "s":
                # sin sin = (cos(d) - cos(s)) / 2
                add(abs(d), "c", 0.5 * com)
                add(s, "c", -0.5 * com)
            elif kind_a == "s" and kind_b == "c":
                # sin cos = (sin(s) + sin(d)) / 2
                add(s, "s", 0.5 * com)
                sign = 1.0 if d >= 0 else -1.0
                add(abs(d), "s", sign * 0.5 * com)
            else:
                # cos sin = (sin(s) - sin(d)) / 2
                add(s, "s", 0.5 * com)
                sign = 1.0 if d >= 0 else -1.0
                add(abs(d), "s", -sign * 0.5 * com)
    return LoopElement(c0, tuple(cos_c), tuple(sin_c))


# ---------------------------------------------------------------------------
# the cocycle


def pf_pairing(x: np.ndarray, y: np.ndarray) -> float:
    """Polarized Pfaffian pairing on so(4):
    pf(x, y) = sum_{tau in S_4} sgn(tau) x_{tau(1)tau(2)} y_{tau(3)tau(4)}.

    The sum is evaluated by perfect matchings of {1, 2, 3, 4}, each paired with
    its mirror.  With X = x - x^T and Y = y - y^T,

        pf(x, y) = (X12 Y34 + X34 Y12) - (X13 Y24 + X24 Y13) + (X14 Y23 + X23 Y14),

    which equals the S_4 sum for any 4 x 4 input, skew or not.  Swapping x and
    y only commutes the two summands inside each bracket, so the result is
    exactly symmetric in floating point: pf_pairing(x, y) == pf_pairing(y, x).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (4, 4) or y.shape != (4, 4):
        raise ValueError("pf_pairing expects 4 x 4 matrices")
    a = x - x.T
    b = y - y.T
    return float(
        (a[0, 1] * b[2, 3] + a[2, 3] * b[0, 1])
        - (a[0, 2] * b[1, 3] + a[1, 3] * b[0, 2])
        + (a[0, 3] * b[1, 2] + a[1, 2] * b[0, 3])
    )


def loop_cocycle(xi1: LoopElement, xi2: LoopElement, nodes: int | None = None) -> float:
    """alpha(xi1, xi2); trapezoid quadrature exact for trig polynomials."""
    if nodes is None:
        nodes = 4 * (xi1.max_frequency + xi2.max_frequency) + 8
    d1 = xi1.derivative()
    d2 = xi2.derivative()
    total = 0.0
    for i in range(nodes):
        theta = i / nodes
        total += pf_pairing(d1.value(theta), xi2.value(theta))
        total -= pf_pairing(d2.value(theta), xi1.value(theta))
    integral = total / nodes
    return float(-integral / (128.0 * np.pi**2))


def cocycle_residual(x1: LoopElement, x2: LoopElement, x3: LoopElement) -> float:
    """Cyclic sum alpha([x1,x2], x3) + alpha([x2,x3], x1) + alpha([x3,x1], x2)."""
    return (
        loop_cocycle(loop_bracket(x1, x2), x3)
        + loop_cocycle(loop_bracket(x2, x3), x1)
        + loop_cocycle(loop_bracket(x3, x1), x2)
    )


# ---------------------------------------------------------------------------
# loop functionals from the Euler components


def _theta_stack(xi: LoopElement, theta_nodes: int) -> np.ndarray:
    """xi at theta = i / theta_nodes and at theta +- TANGENT_STEP: (3, theta_nodes, n, n)."""
    return np.stack([[xi.value(i / theta_nodes + d) for i in range(theta_nodes)]
                     for d in (0.0, TANGENT_STEP, -TANGENT_STEP)])


def _theta_sum(values: np.ndarray, weights: np.ndarray, theta_nodes: int) -> float:
    """Sum of w * value / theta_nodes over a (theta, node) grid of values, one
    term at a time, theta-major: a dot product would round differently."""
    total = 0.0
    for row in values:
        for w, val in zip(weights, row):
            total += w * val / theta_nodes
    return total


def level2_loop_functional(
    y1: float,
    xi1: LoopElement,
    y2: float,
    xi2: LoopElement,
    *,
    theta_nodes: int = 64,
    t_order: int = 8,
) -> float:
    """Integral over S^1 x Delta^1 of the pulled-back level-2 component along
    (theta, t) -> (exp(y1 xi1(theta)), exp(t y2 xi2(theta))).

    The t-direction tangent is exact ((0, y2 xi2(theta)) in left
    trivialization); the theta tangents use central differences.  The component is
    evaluated once on the grid, in the loop normalization (see module docstring).
    """
    e22 = builtin_cocycle(4).components[(2, 2)]
    rule = quadrature_rule(1, t_order)
    # axes: (theta, theta + step, theta - step), theta node, t node
    z = y2 * _theta_stack(xi2, theta_nodes)
    h1 = exp_alg(y1 * _theta_stack(xi1, theta_nodes))[:, :, None]
    h2 = exp_alg(rule.nodes[:, 1, None, None] * z[:, :, None])
    point = nerve_point([h1[0], h2[0]])
    v_theta = tangent_frame([trivialized_difference(*h, TANGENT_STEP) for h in (h1, h2)])
    v_t = tangent_frame([np.zeros((4, 4)), z[0, :, None]])
    values = e22.fn(point, (v_theta, v_t))
    return float(LEVEL2_LOOP_SCALE * _theta_sum(values, rule.weights, theta_nodes))


def level1_loop_functional(
    y1: float,
    xi1: LoopElement,
    y2: float,
    xi2: LoopElement,
    *,
    theta_nodes: int = 64,
    t_order: int = 8,
) -> float:
    """Integral over S^1 x Delta^2 of the level-1 component pulled back along
    (theta, t) -> exp((1-t_0) y1 xi1(theta)) exp(t_2 y2 xi2(theta)).

    This is sigma_2(t; exp(y1 xi1), exp(y2 xi2)) for the first-order
    exp-interpolation sigma_2(t; h_1, h_2) = exp((1-t_0) log h_1) exp(t_2 log h_2),
    with the log of each exponential path written as the path's argument.
    The component is evaluated once on the (theta, node) grid.
    """
    e13 = builtin_cocycle(4).components[(1, 3)]
    rule = quadrature_rule(2, t_order)
    step = TANGENT_STEP
    x1 = _theta_stack(xi1, theta_nodes)[:, :, None]
    x2 = _theta_stack(xi2, theta_nodes)[:, :, None]

    # the path's two factors at the nodes t (node, 3), on theta grid k of _theta_stack
    def first(t: np.ndarray, k: int) -> np.ndarray:
        return exp_alg(((1.0 - t[:, 0]) * y1)[:, None, None] * x1[k])

    def second(t: np.ndarray, k: int) -> np.ndarray:
        return exp_alg((t[:, 2] * y2)[:, None, None] * x2[k])

    def path(t: np.ndarray, k: int) -> np.ndarray:
        return first(t, k) @ second(t, k)

    nodes = rule.nodes
    d1, d2 = np.array([-step, step, 0.0]), np.array([-step, 0.0, step])
    # d/dt_1 leaves t_2, so the base point's second factor, unchanged
    fixed = second(nodes, 0)
    base = first(nodes, 0) @ fixed
    # d/dt_1 and d/dt_2 (t_0 compensating), then d/dtheta
    moves = [(first(nodes + d1, 0) @ fixed, first(nodes - d1, 0) @ fixed),
             (path(nodes + d2, 0), path(nodes - d2, 0)),
             (path(nodes, 1), path(nodes, 2))]
    frames = tuple(tangent_frame([trivialized_difference(base, *m, step)]) for m in moves)
    values = e13.fn(nerve_point([base]), frames)
    return float(LEVEL1_LOOP_SCALE * _theta_sum(values, rule.weights, theta_nodes))


# ---------------------------------------------------------------------------
# the antisymmetrized mixed-partial map (group cochains -> algebra cochains)


def mixed_partial(f: Callable[[float, float], float]) -> float:
    """[d^2 f / da db]_(0, 0) by the fourth-order central stencil of step
    ``STENCIL_STEP`` in each variable."""
    step = STENCIL_STEP
    offsets = (-2.0 * step, -step, step, 2.0 * step)
    weights = (1.0, -8.0, 8.0, -1.0)
    total = 0.0
    for oa, wa in zip(offsets, weights):
        for ob, wb in zip(offsets, weights):
            total += wa * wb * f(oa, ob)
    return float(total / (12.0 * step) ** 2)


def antisymmetrized_mixed_partial(
    c: Callable[[float, object, float, object], float],
    xi1,
    xi2,
) -> float:
    """[d^2/dy1 dy2 (c(e^{y1 xi1}, e^{y2 xi2}) - c(e^{y2 xi2}, e^{y1 xi1}))]_0.

    ``c`` receives (y_first, xi_first, y_second, xi_second) and is expected to
    evaluate the underlying two-argument functional on the scaled exponential
    paths.
    """
    return mixed_partial(lambda a, b: c(a, xi1, b, xi2) - c(b, xi2, a, xi1))


def closed_form_mixed_partial(xi1: LoopElement, xi2: LoopElement) -> float:
    """(-1/(128 pi^2)) sum_tau sgn(tau) int_0^1 (xi1')_{tau(1)tau(2)}
    (xi2)_{tau(3)tau(4)} dtheta: the expected mixed partial of the level-2
    loop functional."""
    nodes = 4 * (xi1.max_frequency + xi2.max_frequency) + 8
    d1 = xi1.derivative()
    total = 0.0
    for i in range(nodes):
        theta = i / nodes
        total += pf_pairing(d1.value(theta), xi2.value(theta))
    return float(-(total / nodes) / (128.0 * np.pi**2))
