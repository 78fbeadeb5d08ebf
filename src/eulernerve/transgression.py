"""Transgression of the SO(4) Euler cocycle into the truncated local complex.

The cone contractions sigma_l : Delta^l x U^l -> U (U a small neighborhood of
the identity) are combined with the level maps

    f_{m,q}(t; h_1, ..., h_{m+q-1}) = (h_1, ..., h_{m-1},
                                       sigma_q(t; h_m, ..., h_{m+q-1}))

to fiber-integrate the Euler components mu_m into forms

    beta_{m,q} = (-1)^m  int_{Delta^q} f_{m,q}^* mu_m

on U^{m+q-1}.  For p = 2, eta_0 = beta_{2,2} + beta_{1,3} (a function on
U^3) and eta_1 = beta_{2,1} + beta_{1,2} (a 1-form on U^2) form a cocycle of
the total complex truncated to form degrees < 2: the two surviving
components of its total differential, d' eta_0 and d' eta_1 + d'' eta_0,
vanish (``checks.truncated_cocycle`` samples them).

beta_{2,2} is identically zero, so eta_0 = beta_{1,3}: f_{2,2} passes slot 1
through, so both simplex directions have a zero slot-1 tangent, and every
word of mu_2 = E_{2,2} has a factor lmc(1), which reads that tangent.

Fiber integration slots the simplex directions first:
(int_{Delta^q} alpha)(X_1, ..., X_s) = int alpha(dt_1, ..., dt_q, X_1, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .euler import builtin_cocycle
from .forms import FormEvaluator, add_forms
from .matgroup import (
    NervePoint,
    TangentFrame,
    exp_alg,
    log_grp,
    move_point,
    nerve_point,
    pair_power,
    pair_product,
    so4_matrices,
    so4_pairs,
    tangent_frame,
    trivialized_difference,
)
from .simplex import ordered_sum, quadrature_rule

_APEX_EPS = 1e-13
# central-difference step of the tangents of the level maps
FD_STEP = 1e-4


class _Group(NamedTuple):
    """A representation of stacks of SO(n) elements for the cone."""

    # (D, n, n) matrices -> D elements
    convert: Callable[[np.ndarray], np.ndarray]
    # B elements -> (B, n, n) matrices
    matrices: Callable[[np.ndarray], np.ndarray]
    # (B, n) -> B identities
    identity: Callable[[int, int], np.ndarray]
    # index of rows (a mask or integers) on the batch axis
    at: Callable[[np.ndarray], object]
    product: Callable[[np.ndarray, np.ndarray], np.ndarray]
    # (u, s) -> exp(s log u) per row, s (B,); may overwrite u
    power: Callable[[np.ndarray, np.ndarray], np.ndarray]


_MATRICES = _Group(
    convert=lambda h: h,
    matrices=lambda g: g,
    identity=lambda batch, n: np.broadcast_to(np.eye(n), (batch, n, n)).copy(),
    at=lambda rows: rows,
    product=np.matmul,
    power=lambda u, s: exp_alg(s[:, None, None] * log_grp(u)),
)
# n = 4: unit-quaternion pairs (4, 2, B), batch on the last axis
_PAIRS = _Group(
    convert=so4_pairs,
    matrices=so4_matrices,
    identity=lambda batch, n: np.broadcast_to(np.eye(4, 1)[..., None], (4, 2, batch)).copy(),
    at=lambda rows: (..., rows),
    product=pair_product,
    power=pair_power,
)


def _group(n: int) -> _Group:
    return _PAIRS if n == 4 else _MATRICES


def _contract(t: np.ndarray, hs: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """sigma_l(t_0, ..., t_l; h_1, ..., h_l) for near-identity h's: the cone

        sigma_l(t; h) = rho_{1-t_0}(h_1 sigma_{l-1}((t_1..t_l)/(1-t_0); h_2..)),
        rho_s(u) = exp(s log u),

    with value 1 at the apex t_0 = 1.  It satisfies the simplicial
    compatibility with the nerve faces exactly; sigma_1(t; h) = exp(t_1 log h).

    On a batch, t (B, l+1) and hs (D, l, n, n) give the B values in the
    representation ``_group(n)``: quaternion pairs (4, 2, B) for n = 4,
    (B, n, n) matrices otherwise.  Row r contracts hs[rows[r]] (rows defaults
    to range(B), with D = B); each of the D argument tuples is converted to
    the representation once.  Every row gets the same operations as in a
    batch of one, so its value does not depend on the other rows.
    """
    n = hs.shape[-1]
    group = _group(n)
    args = [group.convert(h) for h in hs.swapaxes(0, 1)]

    def cone(t, depth, rows):
        # the recursion over the depth; rows at the apex get the identity
        if depth == len(args):
            return group.identity(len(t), n)
        rest = 1.0 - t[:, 0]
        live = rest > _APEX_EPS
        if not live.any():
            return group.identity(len(t), n)
        rest, inner_rows = rest[live], rows[live]
        inner = cone(t[live, 1:] / rest[:, None], depth + 1, inner_rows)
        value = group.power(group.product(args[depth][group.at(inner_rows)], inner), rest)
        if live.all():
            return value
        out = group.identity(len(t), n)
        out[group.at(live)] = value
        return out

    return cone(t, 0, np.arange(len(t)) if rows is None else rows)


def level_map(m: int, q: int, t: Sequence[float], hs: Sequence[np.ndarray]) -> NervePoint:
    """f_{m,q}: the first m-1 arguments pass through, the rest contract.
    Kept, beside the batched ``_contract``, as a span ``certbench/layers.py`` traces."""
    hs = list(hs)
    if len(hs) != m + q - 1:
        raise ValueError(f"expected {m + q - 1} group arguments, got {len(hs)}")
    contracted = np.stack(hs[m - 1 :])[None]
    cone = _contract(np.asarray(t, dtype=float)[None], contracted)
    sigma = _group(contracted.shape[-1]).matrices(cone)[0]
    return nerve_point(hs[: m - 1] + [sigma])


def transgression_form(
    mu: FormEvaluator,
    m: int,
    q: int,
    *,
    quad_order: int = 8,
) -> FormEvaluator:
    """beta_{m,q} = (-1)^m int_{Delta^q} f_{m,q}^* mu on U^{m+q-1}.

    The first m-1 slots pass through the level map, so their tangents are
    exact: zero along a simplex direction and the frame's own components
    along a frame.  The contracted slot's tangent is pushed through sigma by
    central finite differences of step ``FD_STEP`` and left-trivialized.
    Each sample makes one ``_contract`` call: its rows are the quadrature
    nodes, then the nodes shifted by +-FD_STEP along each simplex direction,
    then the nodes again for the point pushed by +-FD_STEP along each frame
    (one ``move_point`` call), and a row -> argument index picks, per row,
    the point or its push.  For n = 4 the cone stays in quaternion pairs, and
    4 x 4 matrices are formed one direction at a time for the differences.
    mu, a word sum, is evaluated once on all nodes; ``ordered_sum`` adds the
    weighted values.  The result equals the node-by-node reference of
    ``test_batched_form_equals_per_node_reference`` bit for bit.

    A stacked point and frames (see ``FormEvaluator``) are evaluated one
    sample at a time, and each sample's cone and temporaries are freed before
    the next: a cone over the whole batch would hold every sample's stencil
    at once.
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
    # direction blocks of nodes: the base, +-FD_STEP along each simplex
    # direction d/dt_a, a = 1..q (t_0 compensates), then +-FD_STEP along
    # each frame at the unshifted nodes
    blocks = [nodes]
    for a in range(1, q + 1):
        step = np.zeros(q + 1)
        step[[0, a]] = -FD_STEP, FD_STEP
        blocks += [nodes + step, nodes - step]
    times = np.concatenate(blocks + [nodes] * (2 * degree))
    # argument index per row: 0 the point, 2k + 1 and 2k + 2 its pushes
    # along frame k
    rows = np.repeat(np.r_[[0] * (2 * q + 1), 1 + np.arange(2 * degree)], n_nodes)

    def one(p: NervePoint, frames: Sequence[TangentFrame]) -> float:
        hs = np.stack(p.components)
        kept = hs[: m - 1]
        # tangents of the passed-through slots, the same at every node: zero
        # along a simplex direction, the frame's own components along a frame
        passed = [np.zeros_like(kept)] * q + [v.components[: m - 1] for v in frames]
        # the argument tuples: the point, then its pushes (+, -) along each frame
        contracted = [hs[m - 1 :][None]] + [
            np.stack(moved.components[m - 1 :], axis=1)
            for moved in move_point(p, frames, (FD_STEP, -FD_STEP))
        ]
        group = _group(p.n)
        cone = _contract(times, np.concatenate(contracted), rows)

        def block(k: int) -> np.ndarray:
            return group.matrices(cone[group.at(slice(k * n_nodes, (k + 1) * n_nodes))])

        base = block(0)
        # per direction: the passed-through tangents and the contracted
        # slot's tangent (one per node)
        tangents = tuple(
            tangent_frame([*still, trivialized_difference(base, block(2 * k + 1),
                                                          block(2 * k + 2), FD_STEP)])
            for k, still in enumerate(passed)
        )
        del cone  # free the cone's values before mu runs
        values = mu.fn(nerve_point([*kept, base]), tangents)
        return sign * ordered_sum(rule.weights * values)

    def fn(p: NervePoint, frames: Sequence[TangentFrame]) -> float | np.ndarray:
        if p.level != level:
            raise ValueError(f"expected {level} group arguments, got {p.level}")
        batch = np.broadcast_shapes(*(c.shape for v in (p, *frames) for c in v.components))[:-2]
        if not batch:
            return one(p, frames)

        def at(v, idx):
            return replace(v, components=tuple(
                np.broadcast_to(c, batch + c.shape[-2:])[idx] for c in v.components))

        values = [one(at(p, idx), [at(v, idx) for v in frames]) for idx in np.ndindex(batch)]
        return np.reshape(values, batch)

    return FormEvaluator(level, degree, fn)


@dataclass(frozen=True)
class LocalCochain:
    """eta_0 (function on U^3) and eta_1 (1-form on U^2) for p = 2."""

    eta0: FormEvaluator
    eta1: FormEvaluator


def local_cochain(*, quad_order: int = 8) -> LocalCochain:
    """eta_0 = beta_{1,3} (beta_{2,2} vanishes, see the module docstring) and
    eta_1 = beta_{2,1} + beta_{1,2}."""
    comps = builtin_cocycle(4).components
    mu1 = comps[(1, 3)]
    mu2 = comps[(2, 2)]
    beta13 = transgression_form(mu1, 1, 3, quad_order=quad_order)
    beta21 = transgression_form(mu2, 2, 1, quad_order=quad_order)
    beta12 = transgression_form(mu1, 1, 2, quad_order=quad_order)
    return LocalCochain(eta0=beta13, eta1=add_forms(beta21, beta12))
