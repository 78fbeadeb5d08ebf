"""Transgression of the SO(4) Euler cocycle into the truncated local complex.

The cone contractions sigma_l : Delta^l x U^l -> U (U a small neighborhood of
the identity) are combined with the level maps

    f_{m,q}(t; h_1, ..., h_{m+q-1}) = (h_1, ..., h_{m-1},
                                       sigma_q(t; h_m, ..., h_{m+q-1}))

to fiber-integrate the Euler components mu_m into forms

    beta_{m,q} = (-1)^m  int_{Delta^q} f_{m,q}^* mu_m

on U^{m+q-1}.  For p = 2 the sums eta_0 = beta_{2,2} + beta_{1,3} (functions
on U^3) and eta_1 = beta_{2,1} + beta_{1,2} (1-forms on U^2) form a cocycle of
the total complex truncated to form degrees < 2: the two surviving
components of its total differential, d' eta_0 and d' eta_1 + d'' eta_0,
vanish (``checks.truncated_cocycle`` samples them).

Fiber integration slots the simplex directions first:
(int_{Delta^q} alpha)(X_1, ..., X_s) = int alpha(dt_1, ..., dt_q, X_1, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .euler import builtin_cocycle
from .forms import FormEvaluator, add_forms
from .matgroup import (
    NervePoint,
    TangentFrame,
    exp_alg,
    log_grp,
    nerve_point,
    tangent_frame,
    trivialized_difference,
)
from .simplex import ordered_sum, quadrature_rule

_APEX_EPS = 1e-13
# central-difference step of the tangents of the level maps
FD_STEP = 1e-4


def _contract(t: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """sigma_l(t_0, ..., t_l; h_1, ..., h_l) for near-identity h's: the cone

        sigma_l(t; h) = rho_{1-t_0}(h_1 sigma_{l-1}((t_1..t_l)/(1-t_0); h_2..)),
        rho_s(u) = exp(s log u),

    with value 1 at the apex t_0 = 1.  It satisfies the simplicial
    compatibility with the nerve faces exactly; sigma_1(t; h) = exp(t_1 log h).
    On a batch, t (B, l+1) and hs (B, l, n, n) give (B, n, n); every matrix
    gets the same operations as in a batch of one, so a row's value does not
    depend on the other rows."""
    batch, l, n = hs.shape[0], hs.shape[1], hs.shape[-1]
    # recursion over the depth; rows at the apex keep the identity
    out = np.broadcast_to(np.eye(n), (batch, n, n)).copy()
    if l == 0:
        return out
    rest = 1.0 - t[:, 0]
    live = rest > _APEX_EPS
    if live.any():
        rest = rest[live][:, None]
        inner = _contract(t[live, 1:] / rest, hs[live, 1:])
        u = hs[live, 0] @ inner
        out[live] = exp_alg(rest[:, None] * log_grp(u))
    return out


def level_map(m: int, q: int, t: Sequence[float], hs: Sequence[np.ndarray]) -> NervePoint:
    """f_{m,q}: the first m-1 arguments pass through, the rest contract.
    Kept, beside the batched ``_contract``, as a span ``certbench/layers.py`` traces."""
    hs = list(hs)
    if len(hs) != m + q - 1:
        raise ValueError(f"expected {m + q - 1} group arguments, got {len(hs)}")
    sigma = _contract(np.asarray(t, dtype=float)[None], np.stack(hs[m - 1 :])[None])[0]
    return nerve_point(hs[: m - 1] + [sigma])


def transgression_form(
    mu: FormEvaluator,
    m: int,
    q: int,
    *,
    quad_order: int = 8,
) -> FormEvaluator:
    """beta_{m,q} = (-1)^m int_{Delta^q} f_{m,q}^* mu on U^{m+q-1}.

    Simplex-direction and U-direction tangents of the level map are pushed
    through sigma by central finite differences of step ``FD_STEP`` and
    left-trivialized.  One evaluation contracts all quadrature nodes of the
    rule in one batched call per perturbation direction (the base point,
    +-FD_STEP along each simplex direction, +-FD_STEP along each frame), and
    evaluates mu, a word sum, once on all nodes; ``ordered_sum`` adds the
    weighted values.  The result equals the node-by-node reference of
    ``test_batched_form_equals_per_node_reference`` bit for bit.
    """
    if mu.level != m:
        raise ValueError(f"mu has level {mu.level}, expected {m}")
    degree = mu.degree - q
    if degree < 0:
        raise ValueError("fiber dimension exceeds form degree")
    level = m + q - 1
    rule = quadrature_rule(q, quad_order)
    sign = -1.0 if m % 2 else 1.0
    nodes = rule.nodes
    n_nodes = len(nodes)
    # simplex directions d/dt_a, a = 1..q (t_0 compensates)
    shifted = []
    for a in range(1, q + 1):
        step = np.zeros(q + 1)
        step[[0, a]] = -FD_STEP, FD_STEP
        shifted.append((nodes + step, nodes - step))

    def contract_nodes(t: np.ndarray, hs: np.ndarray) -> np.ndarray:
        # the last q arguments, repeated for every node
        return _contract(t, np.broadcast_to(hs[m - 1 :], (n_nodes, q) + hs.shape[1:]))

    def fn(p: NervePoint, frames: Sequence[TangentFrame]) -> float:
        if p.level != level:
            raise ValueError(f"expected {level} group arguments, got {p.level}")
        hs = np.stack(p.components)
        kept = hs[: m - 1]
        base = contract_nodes(nodes, hs)
        # per direction: tangents of the passed-through slots (the same at
        # every node) and of the contracted slot (one per node)
        still = np.zeros_like(kept)
        directions = [
            (still, trivialized_difference(base, contract_nodes(tp, hs),
                                           contract_nodes(tm, hs), FD_STEP))
            for tp, tm in shifted
        ]
        for v in frames:
            xi = np.stack(v.components)
            hp = hs @ exp_alg(FD_STEP * xi)
            hm = hs @ exp_alg(-FD_STEP * xi)
            directions.append((
                trivialized_difference(kept, hp[: m - 1], hm[: m - 1], FD_STEP),
                trivialized_difference(
                    base, contract_nodes(nodes, hp), contract_nodes(nodes, hm), FD_STEP
                ),
            ))
        tangents = tuple(tangent_frame([*pushed, contracted]) for pushed, contracted in directions)
        values = mu.fn(nerve_point([*kept, base]), tangents)
        return sign * ordered_sum(rule.weights * values)

    return FormEvaluator(level, degree, fn)


@dataclass(frozen=True)
class LocalCochain:
    """eta_0 (function on U^3) and eta_1 (1-form on U^2) for p = 2."""

    eta0: FormEvaluator
    eta1: FormEvaluator


def local_cochain(*, quad_order: int = 8) -> LocalCochain:
    comps = builtin_cocycle(4).components
    mu1 = comps[(1, 3)]
    mu2 = comps[(2, 2)]
    beta22 = transgression_form(mu2, 2, 2, quad_order=quad_order)
    beta13 = transgression_form(mu1, 1, 3, quad_order=quad_order)
    beta21 = transgression_form(mu2, 2, 1, quad_order=quad_order)
    beta12 = transgression_form(mu1, 1, 2, quad_order=quad_order)
    return LocalCochain(eta0=add_forms(beta22, beta13), eta1=add_forms(beta21, beta12))
