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

The loop bracket is pointwise, [xi, eta](theta) = [xi(theta), eta(theta)]
(Pressley and Segal, Loop Groups, 4.2), so ``cocycle_residual`` brackets its
loops on a theta grid and differentiates by the Leibniz rule.  Its gate sees
a wrong loop derivative or too coarse a grid, but not the [x, y'] term: with
S = sum_cyc int pf(x_i', [x_j, x_k]) = int d/dtheta pf(x_1, [x_2, x_3]) = 0,
ad-invariance makes the residual's halves 2S and S whatever weight [x, y']
gets.  A unit test against the Fourier product-to-sum bracket pins it.

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
from .matgroup import (
    bracket,
    exp_alg,
    nerve_point,
    skew_from_gaussian,
    skew_project,
    tangent_frame,
    trivialized_difference,
)
from .simplex import ordered_sum, quadrature_rule

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

    def values(self, thetas: np.ndarray) -> np.ndarray:
        """xi at every theta of a 1-d grid: the (nodes, n, n) stack."""
        thetas = np.asarray(thetas, dtype=float)
        out = np.broadcast_to(self.c0, thetas.shape + self.c0.shape)
        for k, (a, b) in enumerate(zip(self.cos_coeffs, self.sin_coeffs), start=1):
            w = (2.0 * np.pi * k * thetas)[:, None, None]
            out = out + a * np.cos(w) + b * np.sin(w)
        return np.array(out)

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
    """c0, then the cos and then the sin coefficients, each of spectral norm
    ``norm``, from one Gaussian draw."""
    c = skew_from_gaussian(rng.standard_normal((2 * max_freq + 1, n, n)), norm)
    return LoopElement(c[0], tuple(c[1 : max_freq + 1]), tuple(c[max_freq + 1 :]))


# ---------------------------------------------------------------------------
# the cocycle


def pf_pairing(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Polarized Pfaffian pairing on so(4):
    pf(x, y) = sum_{tau in S_4} sgn(tau) x_{tau(1)tau(2)} y_{tau(3)tau(4)}.

    The sum is evaluated by perfect matchings of {1, 2, 3, 4}, each paired with
    its mirror.  With X = x - x^T and Y = y - y^T,

        pf(x, y) = (X12 Y34 + X34 Y12) - (X13 Y24 + X24 Y13) + (X14 Y23 + X23 Y14),

    which equals the S_4 sum for any 4 x 4 input, skew or not.  Swapping x and
    y only commutes the two summands inside each bracket, so the result is
    exactly symmetric in floating point: pf_pairing(x, y) == pf_pairing(y, x).

    Stacks (..., 4, 4) broadcast against each other and give an array of the
    batch shape, each entry equal to the pairing of its two matrices; two
    4 x 4 matrices give a float.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-2:] != (4, 4) or y.shape[-2:] != (4, 4):
        raise ValueError("pf_pairing expects 4 x 4 matrices")
    a = x - x.swapaxes(-1, -2)
    b = y - y.swapaxes(-1, -2)
    pf = (
        (a[..., 0, 1] * b[..., 2, 3] + a[..., 2, 3] * b[..., 0, 1])
        - (a[..., 0, 2] * b[..., 1, 3] + a[..., 1, 3] * b[..., 0, 2])
        + (a[..., 0, 3] * b[..., 1, 2] + a[..., 1, 2] * b[..., 0, 3])
    )
    return float(pf) if pf.ndim == 0 else pf


def _trapezoid_nodes(*loops: LoopElement) -> int:
    """Trapezoid nodes on [0, 1) above the loops' summed frequencies, so the
    rule is exact for any product of them and their derivatives."""
    return 4 * sum(xi.max_frequency for xi in loops) + 8


def _theta_grid(nodes: int) -> np.ndarray:
    return np.arange(nodes) / nodes


def _sampled(xi: LoopElement, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """xi and xi' on the grid theta: the (values, derivative values) pair."""
    return xi.values(theta), xi.derivative().values(theta)


def loop_bracket(x, y) -> tuple[np.ndarray, np.ndarray]:
    """[x, y] of two (values, derivative values) pairs on one grid: pointwise,
    with the Leibniz derivative [x, y]' = [x', y] + [x, y']."""
    (xv, xd), (yv, yd) = x, y
    return bracket(xv, yv), bracket(xd, yv) + bracket(xv, yd)


def _grid_alpha(xi1, xi2) -> float:
    """alpha of two (values, derivative values) pairs on the trapezoid grid;
    ``ordered_sum`` adds p - q node by node in theta order."""
    (v1, d1), (v2, d2) = xi1, xi2
    integral = ordered_sum(np.stack([pf_pairing(d1, v2), -pf_pairing(d2, v1)], -1)) / len(v1)
    return -integral / (128.0 * np.pi**2)


def loop_cocycle(xi1: LoopElement, xi2: LoopElement) -> float:
    """alpha(xi1, xi2); trapezoid quadrature exact for trig polynomials."""
    theta = _theta_grid(_trapezoid_nodes(xi1, xi2))
    return _grid_alpha(_sampled(xi1, theta), _sampled(xi2, theta))


def cocycle_residual(x1: LoopElement, x2: LoopElement, x3: LoopElement) -> float:
    """Cyclic sum alpha([x1,x2], x3) + alpha([x2,x3], x1) + alpha([x3,x1], x2),
    from the three loops sampled once on a grid exact for every integrand."""
    theta = _theta_grid(_trapezoid_nodes(x1, x2, x3))
    s1, s2, s3 = (_sampled(x, theta) for x in (x1, x2, x3))
    return (
        _grid_alpha(loop_bracket(s1, s2), s3)
        + _grid_alpha(loop_bracket(s2, s3), s1)
        + _grid_alpha(loop_bracket(s3, s1), s2)
    )


# ---------------------------------------------------------------------------
# loop functionals from the Euler components


def _theta_stack(xi: LoopElement, theta_nodes: int) -> np.ndarray:
    """xi at theta = i / theta_nodes and at theta +- TANGENT_STEP: (3, theta_nodes, n, n)."""
    theta = _theta_grid(theta_nodes)
    return np.stack([xi.values(theta + d) for d in (0.0, TANGENT_STEP, -TANGENT_STEP)])


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
    return LEVEL2_LOOP_SCALE * ordered_sum(rule.weights * values / theta_nodes)


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
    (theta, t) -> F S, F = exp((1-t_0) y1 xi1(theta)), S = exp(t_2 y2 xi2(theta)).

    This is sigma_2(t; exp(y1 xi1), exp(y2 xi2)) for the first-order
    exp-interpolation sigma_2(t; h_1, h_2) = exp((1-t_0) log h_1) exp(t_2 log h_2),
    with the log of each exponential path written as the path's argument.
    The t-direction tangents are exact in left trivialization (t_0
    compensating): d/dt_1 gives S^T (y1 xi1) S and d/dt_2 gives that plus
    y2 xi2.  The theta tangent uses a central difference.  The component is
    evaluated once on the (theta, node) grid.
    """
    e13 = builtin_cocycle(4).components[(1, 3)]
    rule = quadrature_rule(2, t_order)
    nodes = rule.nodes
    # axes: (theta, theta + step, theta - step), theta node, t node
    x1 = _theta_stack(xi1, theta_nodes)[:, :, None]
    x2 = _theta_stack(xi2, theta_nodes)[:, :, None]
    first = exp_alg(((1.0 - nodes[:, 0]) * y1)[:, None, None] * x1)
    second = exp_alg((nodes[:, 2] * y2)[:, None, None] * x2)
    path = first @ second
    base, s = path[0], second[0]
    d1 = skew_project(s.swapaxes(-1, -2) @ (y1 * x1[0]) @ s)
    d2 = d1 + y2 * x2[0]
    d_theta = trivialized_difference(base, path[1], path[2], TANGENT_STEP)
    frames = tuple(tangent_frame([d]) for d in (d1, d2, d_theta))
    values = e13.fn(nerve_point([base]), frames)
    return LEVEL1_LOOP_SCALE * ordered_sum(rule.weights * values / theta_nodes)


# ---------------------------------------------------------------------------
# the antisymmetrized mixed-partial map (group cochains -> algebra cochains)


def mixed_partial(f: Callable[[float, float], float]) -> float:
    """[d^2 f / da db]_(0, 0) by the fourth-order central stencil of step
    ``STENCIL_STEP`` in each variable."""
    step = STENCIL_STEP
    offsets = (-2.0 * step, -step, step, 2.0 * step)
    weights = (1.0, -8.0, 8.0, -1.0)
    total = ordered_sum([wa * wb * f(oa, ob)
                         for oa, wa in zip(offsets, weights)
                         for ob, wb in zip(offsets, weights)])
    return total / (12.0 * step) ** 2


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
    nodes = _trapezoid_nodes(xi1, xi2)
    theta = _theta_grid(nodes)
    total = ordered_sum(pf_pairing(xi1.derivative().values(theta), xi2.values(theta)))
    return -(total / nodes) / (128.0 * np.pi**2)
