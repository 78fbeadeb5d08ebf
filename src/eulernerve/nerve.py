"""Simplicial structure of the nerve NG and the total-complex differential.

Face operators on NG(q) = G^q:

    eps_0(h_1, ..., h_q) = (h_2, ..., h_q)
    eps_i(h_1, ..., h_q) = (h_1, ..., h_i h_{i+1}, ..., h_q)   1 <= i <= q-1
    eps_q(h_1, ..., h_q) = (h_1, ..., h_{q-1})

The simplicial differential d' is the alternating sum of face pullbacks; the
form differential d'' is (-1)^level times the exterior derivative.  Their sum
is the total differential; ``verify_total_cocycle`` samples its two
contributions on a cochain, and ``checks.total_cocycle`` gates their sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .forms import EXTERIOR_STEP, FormEvaluator, exterior_derivative, scale_form
from .matgroup import NervePoint, TangentFrame, adjoint, iter_samples


def face_point(i: int, q: int, p: NervePoint) -> NervePoint:
    if p.level != q:
        raise ValueError(f"point has level {p.level}, expected {q}")
    if not 0 <= i <= q:
        raise IndexError(f"face index {i} out of range 0..{q}")
    hs = p.components
    if i == 0:
        comps = hs[1:]
    elif i == q:
        comps = hs[:-1]
    else:
        comps = hs[: i - 1] + (hs[i - 1] @ hs[i],) + hs[i + 1 :]
    return NervePoint(n=p.n, components=comps)


def face_pushforward(i: int, q: int, p: NervePoint, v: TangentFrame) -> TangentFrame:
    """Exact differential of eps_i in left trivialization.

    The merged slot receives Ad(h_{i+1}^{-1}) xi_i + xi_{i+1}; dropped slots
    drop their vector.
    """
    if p.level != q or v.level != q:
        raise ValueError("point/frame level mismatch")
    if not 0 <= i <= q:
        raise IndexError(f"face index {i} out of range 0..{q}")
    xs = v.components
    if i == 0:
        comps = xs[1:]
    elif i == q:
        comps = xs[:-1]
    else:
        h_next = p.components[i]
        merged = adjoint(h_next.swapaxes(-1, -2), xs[i - 1]) + xs[i]
        comps = xs[: i - 1] + (merged,) + xs[i + 1 :]
    return TangentFrame(n=v.n, components=comps)


def d_prime(omega: FormEvaluator) -> FormEvaluator:
    """Simplicial differential: alternating sum over faces, exact pushforwards."""
    q = omega.level + 1

    def fn(p: NervePoint, frames: Sequence[TangentFrame]) -> float:
        total = 0.0
        for i in range(q + 1):
            fp = face_point(i, q, p)
            fv = tuple(face_pushforward(i, q, p, w) for w in frames)
            term = omega.fn(fp, fv)
            total += -term if i % 2 else term
        return total

    return FormEvaluator(q, omega.degree, fn)


def d_second(omega: FormEvaluator, step: float = EXTERIOR_STEP) -> FormEvaluator:
    """(-1)^level times the exterior derivative."""
    d = exterior_derivative(omega, step=step)
    return scale_form(-1.0, d) if omega.level % 2 else d


@dataclass(frozen=True)
class Cochain:
    """Element of the total complex: bidegree (level, degree) -> form.

    ``components`` is a read-only view of a copy of the mapping passed in, so
    a cochain can be shared without one caller changing it for another.
    """

    n: int
    components: Mapping[tuple[int, int], FormEvaluator]

    @property
    def total_degree(self) -> int:
        degs = {r + s for (r, s) in self.components}
        if len(degs) != 1:
            raise ValueError(f"mixed total degrees {sorted(degs)}")
        return degs.pop()

    def __post_init__(self):
        object.__setattr__(self, "components", MappingProxyType(dict(self.components)))
        for (r, s), form in self.components.items():
            if form.level != r or form.degree != s:
                raise ValueError(f"component at {(r, s)} has shape "
                                 f"({form.level}, {form.degree})")
        self.total_degree  # validates homogeneity


def verify_total_cocycle(
    cochain: Cochain, *, samples: int, rng: np.random.Generator
) -> dict[tuple[int, int], list[dict[tuple[int, int], float]]]:
    """Sample the components of (d' + d'') applied to the cochain at Haar
    points of SO(n) with unit-norm frames.

    For every bidegree (R, S) of the image, the contributions (d' of the
    component one level below, d'' of the component one degree below) are
    evaluated separately on shared sample points.  Returns, per (R, S), one
    ``{source bidegree: contribution}`` per sample; their sum is the
    residual, and a sign-flip audit reweights the sources.

    The samples are drawn in stacks, one (R, S) block per image bidegree in
    sorted order (``iter_samples``), and the contributions are evaluated
    sample by sample.
    """
    comps = cochain.components
    images = {(r + 1, s) for r, s in comps} | {(r, s + 1) for r, s in comps}
    # contributions[(R, S)] = list of (source bidegree, evaluator)
    contributions: dict[tuple[int, int], list[tuple[tuple[int, int], FormEvaluator]]] = {}
    for R, S in sorted(images):
        parts = []
        if (R - 1, S) in comps:
            parts.append(((R - 1, S), d_prime(comps[(R - 1, S)])))
        if (R, S - 1) in comps:
            parts.append(((R, S - 1), d_second(comps[(R, S - 1)])))
        contributions[(R, S)] = parts

    values: dict[tuple[int, int], list[dict[tuple[int, int], float]]] = {
        bd: [] for bd in contributions
    }
    for draws in iter_samples(cochain.n, list(contributions), samples, rng):
        for (bd, parts), (point, frames) in zip(contributions.items(), draws):
            values[bd].append({src: ev.fn(point, frames) for src, ev in parts})
    return values
