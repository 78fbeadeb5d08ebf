"""Euler-class cochains on the nerve of SO(2p).

Two independent code paths construct the same cochains:

* ``euler_component`` generates every component of the degree-2p Euler
  cocycle from the combinatorial description (words in the conjugated
  right-translation forms phi_s, square insertions
  R_ij = (phi_i + ... + phi_{j-1})^2, exact Dirichlet coefficients);
* ``builtin_cocycle`` transcribes the explicit low-rank cochains for
  n in {2, 4, 6} letter by letter.

Cross-agreement of the two paths and the vanishing of the total differential
are what the test suites certify.

The normalized Pfaffian used throughout is

    pf(A) = (1 / (2^{2p} pi^p p!)) sum_{tau in S_{2p}} sgn(tau)
            a_{tau(1)tau(2)} ... a_{tau(2p-1)tau(2p)},

i.e. the standard Pfaffian divided by (2 pi)^p.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations, product
from typing import Sequence

import numpy as np

from .forms import (
    Factor,
    FormEvaluator,
    WordForm,
    conj_rmc,
    lin,
    lmc,
    parity,
    pfaffian_contraction,
    phi,
    rmc,
    square,
    sumphi,
    wedge2,
    word,
    word_sum_form,
)
from .matgroup import (
    NervePoint,
    TangentFrame,
    adjoint,
    nerve_point,
    tangent_frame,
)
from .nerve import Cochain
from .simplex import monomial_integral, ordered_sum


# ---------------------------------------------------------------------------
# Pfaffian


def euler_pfaffian(a: np.ndarray) -> float:
    """Pfaffian normalized by (2 pi)^{-p}; represents the Euler class."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n or n % 2:
        raise ValueError("need an even-dimensional square matrix")
    p = n // 2
    coeff = 1.0 / (2.0 ** (2 * p) * np.pi**p * math.factorial(p))
    return coeff * pfaffian_contraction([a] * p)


# ---------------------------------------------------------------------------
# generated cochain components


def euler_component_words(p: int, q: int) -> tuple[WordForm, ...]:
    """The words of the level-(p-q) component of the Euler cocycle, with their
    exact coefficients, 0 <= q <= p-1.

    Words consist of the p-q letters phi_{sigma(1)}, ..., phi_{sigma(p-q)}
    interleaved with q square insertions R_ij (i < j labels into the p-q+1
    gaps, overlaps allowed); the coefficient carries sgn(sigma), the parity
    (-1)^{p + (p-q)(p-q-1)/2}, the Pfaffian normalization and the exact
    simplex integral of prod (t_{i-1} t_{j-1})^{r_ij}.
    """
    if not 0 <= q <= p - 1:
        raise ValueError("need 0 <= q <= p-1")
    m = p - q  # number of phi letters; level of the component
    sign = -1 if (p + m * (m - 1) // 2) % 2 else 1
    base = Fraction(sign, 2 ** (2 * p) * math.factorial(p))
    labels = list(combinations(range(1, m + 2), 2))
    gaps = range(m + 1)
    words = []
    for sigma in permutations(range(1, m + 1)):
        sgn = parity(sigma)
        for placement in combinations_with_replacement(product(labels, gaps), q):
            exponents = [0] * (m + 1)
            per_gap: dict[int, list[tuple[int, int]]] = {g: [] for g in gaps}
            for (i, j), g in placement:
                exponents[i - 1] += 1
                exponents[j - 1] += 1
                per_gap[g].append((i, j))
            integral = monomial_integral(exponents)
            factors: list[Factor] = []
            for g in gaps:
                for (i, j) in sorted(per_gap[g]):
                    factors.append(square(phi(i) if j == i + 1 else sumphi(i, j)))
                if g < m:
                    factors.append(lin(phi(sigma[g])))
            words.append(word(None, factors, rational=sgn * base * integral, pi_power=p))
    return tuple(words)


@cache
def euler_component(p: int, q: int) -> FormEvaluator:
    """The generated component of bidegree (p-q, p+q), built once per (p, q)."""
    return word_sum_form(p - q, 2 * p, euler_component_words(p, q))


def generated_cocycle(p: int):
    """All components of the generated Euler cocycle for SO(2p)."""
    comps = {}
    for q in range(p - 1, -1, -1):
        ev = euler_component(p, q)
        comps[(p - q, p + q)] = ev
    return Cochain(n=2 * p, components=comps)


# ---------------------------------------------------------------------------
# hard-coded low-rank cochains


@cache
def builtin_cocycle(n: int):
    """The explicit Euler cochains for n in {2, 4, 6}, transcribed letter by
    letter (independent of the generator path); each is built once and shared,
    its components read-only."""
    if n == 2:
        w = word(None, [lin(lmc(1))], rational=Fraction(-1, 4), pi_power=1)
        return Cochain(n=2, components={(1, 1): word_sum_form(1, 2, [w])})

    if n == 4:
        c13 = Fraction(1, 192)
        e13 = word_sum_form(
            1,
            4,
            [
                word(None, [lin(lmc(1)), square(lmc(1))], rational=c13, pi_power=2),
                word(None, [square(lmc(1)), lin(lmc(1))], rational=c13, pi_power=2),
            ],
        )
        c22 = Fraction(-1, 64)
        e22 = word_sum_form(
            2,
            4,
            [
                word(None, [lin(lmc(1)), lin(rmc(2))], rational=c22, pi_power=2),
                word(None, [lin(rmc(2)), lin(lmc(1))], rational=-c22, pi_power=2),
            ],
        )
        return Cochain(n=4, components={(1, 3): e13, (2, 2): e22})

    if n == 6:
        c15 = Fraction(-1, 2**6 * 180)
        e15_words = []
        for k in range(3):
            factors = [square(lmc(1))] * 3
            factors[k] = lin(lmc(1))
            e15_words.append(word(None, factors, rational=c15, pi_power=3))
        e15 = word_sum_form(1, 6, e15_words)

        # bracket insertion: 2 A^2 + 2 B^2 + A^B + B^A with A = h1^{-1}dh1,
        # B = dh2 h2^{-1}
        a, b = lmc(1), rmc(2)
        bracket_parts = [
            (Fraction(2), square(a)),
            (Fraction(2), square(b)),
            (Fraction(1), wedge2(a, b)),
            (Fraction(1), wedge2(b, a)),
        ]
        c24 = Fraction(1, 2**6 * 6 * 24)
        e24_words = []
        for sigma in ((1, 2), (2, 1)):
            sgn = parity(sigma)
            letters = [lin(a) if s == 1 else lin(b) for s in sigma]
            for gap in range(3):
                for mult, part in bracket_parts:
                    factors = letters[:gap] + [part] + letters[gap:]
                    e24_words.append(
                        word(None, factors, rational=sgn * mult * c24, pi_power=3)
                    )
        e24 = word_sum_form(2, 6, e24_words)

        c33 = Fraction(1, 2**6 * 36)
        letters33 = {1: lmc(1), 2: rmc(2), 3: conj_rmc(3, 2)}
        e33_words = []
        for sigma in permutations((1, 2, 3)):
            sgn = parity(sigma)
            factors = [lin(letters33[s]) for s in sigma]
            e33_words.append(word(None, factors, rational=sgn * c33, pi_power=3))
        e33 = word_sum_form(3, 6, e33_words)

        return Cochain(n=6, components={(1, 5): e15, (2, 4): e24, (3, 3): e33})

    raise ValueError(f"no built-in cochain for n = {n} (supported: 2, 4, 6)")


# ---------------------------------------------------------------------------
# clutching-loop Euler number (SO(2))


# E_{1,1} is one lmc(1) word, so the integrand reads only the constant
# left-trivialized derivative 2 pi k J and the step count moves only rounding
CLUTCHING_STEPS = 256


def clutching_euler_number(k: int) -> float:
    """Integrate the level-1 SO(2) component along theta -> R(2 pi k theta).

    The pullback of the normalized angle form along a winding-k clutching
    loop integrates to the Euler number k of the associated rank-2 bundle
    over S^2.  One call evaluates the component on every step.
    """
    e11 = builtin_cocycle(2).components[(1, 1)]
    ang = 2.0 * np.pi * k * ((np.arange(CLUTCHING_STEPS) + 0.5) / CLUTCHING_STEPS)
    h = np.stack([np.cos(ang), -np.sin(ang), np.sin(ang), np.cos(ang)], -1).reshape(-1, 2, 2)
    # left-trivialized loop derivative: h^{-1} h' = 2 pi k J
    xi = 2.0 * np.pi * k * np.array([[0.0, -1.0], [1.0, 0.0]])
    return ordered_sum(e11.fn(nerve_point([h]), (tangent_frame([xi]),)) / CLUTCHING_STEPS)


# ---------------------------------------------------------------------------
# the simplicial bundle projection gamma: (g_0, ..., g_q) -> (g_0 g_1^{-1}, ...)


def bundle_projection(gs: Sequence[np.ndarray]) -> NervePoint:
    comps = [gs[i] @ gs[i + 1].swapaxes(-1, -2) for i in range(len(gs) - 1)]
    return nerve_point(comps, n=gs[0].shape[-1])


def bundle_projection_pushforward(
    gs: list[np.ndarray], xis: list[np.ndarray]
) -> TangentFrame:
    """Exact differential in left trivialization: slot m receives
    Ad(g_m)(xi_{m-1} - xi_m)."""
    comps = [adjoint(gs[m], xis[m - 1] - xis[m]) for m in range(1, len(gs))]
    return tangent_frame(comps, n=gs[0].shape[-1])

