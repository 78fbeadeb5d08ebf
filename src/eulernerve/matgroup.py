"""Numerics for the special orthogonal group SO(n) and its Lie algebra so(n).

Group elements and algebra elements are plain float64 ndarrays.  Tangent
vectors on a product G^r are kept in left trivialization throughout: a frame
stores the algebra elements (xi_1, ..., xi_r) and the actual tangent vector
at (h_1, ..., h_r) is (h_1 xi_1, ..., h_r xi_r).

``exp_alg``, ``log_grp``, ``skew_project``, ``trivialized_difference`` and
``adjoint`` take (n, n) matrices or stacks (..., n, n) and map a stack matrix
by matrix, bit-identically to the call on that matrix alone.  Points and
frames may hold such stacks: their broadcast leading axes index a batch.

For n = 4, ``exp_alg`` and ``log_grp`` use the closed forms of
so(4) = su(2) + su(2) (Iserles, Munthe-Kaas, Norsett & Zanna, Acta Numerica 9,
2000): R^4 is the quaternions, every rotation is q -> a q b for unit
quaternions a and b, and exp and log reduce to one Rodrigues factor and one
``atan2`` angle per side.  Other n go through eigendecompositions: exp
through the Hermitian matrix -i xi (Gallier & Xu, Int. J. Robotics and
Automation 17, 2002), log through eig.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

LOG_ANGLE_MARGIN = 1e-6


class DomainError(ValueError):
    """Raised when an input leaves the principal-logarithm domain."""


# ---------------------------------------------------------------------------
# projection and left-trivialized differences


def skew_project(m: np.ndarray) -> np.ndarray:
    """Project onto skew-symmetric matrices; the result satisfies s + s.T == 0
    exactly (entrywise IEEE negation)."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m - m.swapaxes(-1, -2))


def trivialized_difference(
    base: np.ndarray, plus: np.ndarray, minus: np.ndarray, step: float
) -> np.ndarray:
    """Left-trivialized central difference of a group-valued curve through
    ``base``, from its values ``plus`` and ``minus`` at +-``step``:
    skew_project(base^T (plus - minus) / (2 step))."""
    return skew_project(base.swapaxes(-1, -2) @ ((plus - minus) / (2.0 * step)))


# ---------------------------------------------------------------------------
# exponential / logarithm / conjugation


def exp_alg(xi: np.ndarray) -> np.ndarray:
    """Matrix exponential so(n) -> SO(n).

    n = 4: the product of the two commuting Rodrigues factors of the left and
    right parts (see ``_exp_so4``).  Other n: spectral, see ``_exp_skew``.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] == 4:
        return _exp_so4(xi.reshape(-1, 4, 4)).reshape(xi.shape)
    return _exp_skew(xi)


def _exp_skew(xi: np.ndarray) -> np.ndarray:
    """exp of skew matrices (..., n, n) through the eigendecomposition of the
    Hermitian H = -i xi = U diag(lam) U^H.

    exp xi = U diag(e^{i lam}) U^H is formed as I + Re(U diag(e^{i lam} - 1)
    U^H) with e^{i lam} - 1 = -2 sin^2(lam/2) + i sin(lam), so a small xi
    keeps its full relative accuracy in exp xi - I.
    """
    lam, u = np.linalg.eigh(-1j * xi)
    half = np.sin(0.5 * lam)
    shift = -2.0 * half * half + 1j * np.sin(lam)
    corr = (u * shift[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return np.eye(xi.shape[-1]) + corr.real


def log_grp(g: np.ndarray) -> np.ndarray:
    """Principal logarithm SO(n) -> so(n); the result is exactly skew.

    Requires every rotation angle, of every matrix in a stack, to stay at
    least ``LOG_ANGLE_MARGIN`` away from pi; otherwise the principal branch is
    ill-conditioned and a DomainError is raised.  n = 4: two ``atan2`` angles
    of the quaternion pair g = L_a R_b (see ``_log_so4``).  Other n: through
    the eigendecomposition g = V diag(lambda) V^{-1}.  V is inverted, not
    conjugate-transposed: eig returns no orthonormal basis of the eigenspace
    of a repeated angle.
    """
    g = np.asarray(g, dtype=float)
    if g.shape[-1] == 4:
        return _log_so4(g.reshape(-1, 4, 4)).reshape(g.shape)
    lam, vec = np.linalg.eig(g)
    _check_log_domain(np.abs(np.angle(lam)))
    w = np.log(lam)
    xi = vec @ (w[..., :, None] * np.linalg.inv(vec))
    return skew_project(np.real(xi))


def _check_log_domain(angles: np.ndarray) -> None:
    worst = float(angles.max(initial=0.0))
    if worst > np.pi - LOG_ANGLE_MARGIN:
        raise DomainError(
            f"rotation angle {worst:.8f} is within {LOG_ANGLE_MARGIN:g} of pi; "
            "outside the principal-logarithm domain"
        )


# ---------------------------------------------------------------------------
# so(4) = su(2) + su(2) through quaternions
#
# R^4 is the quaternions H with basis e_0 = 1, e_1 = i, e_2 = j, e_3 = k.  Left
# and right multiplication, L_a q = a q and R_b q = q b, commute; every element
# of SO(4) is L_a R_b with unit a and b, unique up to a common sign, and so(4)
# is the direct sum of the L_{e_r} and R_{e_r} spans, r = 1, 2, 3.  Entry
# (i, j) of L_a is _LEFT_SIGN[i, j] * a[i ^ j] (bitwise xor), and likewise for
# R_b.  The kernels below hold the batch on the last axis and use entrywise
# operations and sums over the first axis, in a fixed order, only; so a matrix
# gives the same bits in any stack.

_XOR = np.bitwise_xor.outer(np.arange(4), np.arange(4))
_LEFT_SIGN = np.array(
    [[1, -1, -1, -1], [1, 1, -1, 1], [1, 1, 1, -1], [1, -1, 1, 1]], dtype=float
)
_RIGHT_SIGN = np.array(
    [[1, -1, -1, -1], [1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]], dtype=float
)
_SIGNS = np.stack([_LEFT_SIGN, _RIGHT_SIGN], axis=-1)
# index tables on the axes (k, i, j)
_K, _I, _J = np.arange(4)[:, None, None], np.arange(4)[:, None], np.arange(4)
_IK, _JK = _I ^ _K, _J ^ _K
# u_r = 1/4 tr(L_{e_r}^T x) sums, over i, the entry x[i, i ^ r] with sign
# _LEFT_SIGN[i, i ^ r] (v_r alike); axes (i, r, left/right)
_VEC_COLS = _XOR[:, 1:]
_VEC_SIGN = 0.25 * _SIGNS[_I, _VEC_COLS, :, None]
# (L_a R_b)_ij sums, over k, a[i ^ k] b[j ^ k] with sign
# _LEFT_SIGN[i, k] * _RIGHT_SIGN[k, j]
_PRODUCT_SIGN = (_LEFT_SIGN[_I, _K] * _RIGHT_SIGN[_K, _J])[..., None]
# the associate matrix M_ij = 1/4 tr(L_{e_i}^T g R_{e_j}^T) sums, over k, the
# entry g[i ^ k, j ^ k] with sign _LEFT_SIGN[i ^ k, k] * _RIGHT_SIGN[k, j ^ k]
_ASSOC_SIGN = 0.25 * (_LEFT_SIGN[_IK, _K] * _RIGHT_SIGN[_K, _JK])[..., None]


def _sum4(t: np.ndarray) -> np.ndarray:
    """t[0] + t[1] + t[2] + t[3], left to right."""
    return ((t[0] + t[1]) + t[2]) + t[3]


def _norm3(w: np.ndarray) -> np.ndarray:
    """|w| over the first axis (length 3), squares summed left to right."""
    return np.sqrt((w[0] * w[0] + w[1] * w[1]) + w[2] * w[2])


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, and 1 where den is 0 (the limit of sin t / t and t / sin t)."""
    return np.divide(num, den, out=np.ones_like(den), where=den > 0)


def _exp_so4(x: np.ndarray) -> np.ndarray:
    """exp of a (B, 4, 4) stack of skew matrices.

    x = U + V with U = sum_r u_r L_{e_r} and V = sum_r v_r R_{e_r}; U and V
    commute and U^2 = -|u|^2 I, so exp x = (cos|u| I + sinc|u| U)(cos|v| I +
    sinc|v| V) = L_a R_b with a = (cos|u|, sinc|u| u), b = (cos|v|, sinc|v| v).
    """
    # w[r, side, batch]: u for side 0, v for side 1
    w = _sum4(_VEC_SIGN * x.transpose(1, 2, 0)[_I, _VEC_COLS, None])
    angle = _norm3(w)
    q = np.empty((4,) + angle.shape)
    q[0] = np.cos(angle)
    q[1:] = _ratio(np.sin(angle), angle) * w
    g = _sum4(_PRODUCT_SIGN * q[_IK, 0] * q[_JK, 1])
    return np.ascontiguousarray(g.transpose(2, 0, 1))


def _log_so4(g: np.ndarray) -> np.ndarray:
    """Principal log of a (B, 4, 4) stack of rotations g = L_a R_b.

    The associate matrix M = a b^T is linear in g.  a is M's column of largest
    norm, normalized, and b = M^T a.  With alpha and beta the angles of a and
    b, g rotates by alpha + beta and |alpha - beta|; the sign shared by a and b
    is chosen so that alpha + beta <= pi, which makes alpha + beta the larger
    angle.  Then log g = (alpha / sin alpha) L_{vec a} + (beta / sin beta)
    R_{vec b}, with sin alpha read as |vec a|.  The result is exactly skew:
    L_{vec a} and R_{vec b} have a zero diagonal and opposite signs at (i, j)
    and (j, i).
    """
    m = _sum4(_ASSOC_SIGN * g.transpose(1, 2, 0)[_IK, _JK])
    col = np.argmax(_sum4(m * m), axis=0)
    # q[:, side, batch]: a for side 0, b for side 1
    q = np.empty((4, 2, len(col)))
    a = m[:, col, np.arange(len(col))]
    q[:, 0] = a = a / np.sqrt(_sum4(a * a))
    q[:, 1] = _sum4(m * a[:, None])
    sin = _norm3(q[1:])
    angle = np.arctan2(sin, q[0])
    q *= np.where(angle[0] + angle[1] > np.pi, -1.0, 1.0)
    angle = np.arctan2(sin, q[0])
    _check_log_domain(angle[0] + angle[1])
    q[0] = 0.0
    q[1:] *= _ratio(angle, sin)
    t = _SIGNS[..., None] * q[_XOR]
    return np.ascontiguousarray((t[:, :, 0] + t[:, :, 1]).transpose(2, 0, 1))


def adjoint(g: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Adjoint action g xi g^{-1} (= g xi g^T on SO(n))."""
    return g @ xi @ g.swapaxes(-1, -2)


def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix commutator [x, y] = xy - yx."""
    return x @ y - y @ x


# ---------------------------------------------------------------------------
# sampling


def random_skew(n: int, rng: np.random.Generator, norm: float = 1.0) -> np.ndarray:
    """Random skew matrix rescaled to spectral norm ``norm``.

    The spectral norm is the largest singular value, read from ``svd``
    directly: the same bits as ``np.linalg.norm(s, 2)`` without its axis
    handling.
    """
    s = skew_project(rng.standard_normal((n, n)))
    cur = np.linalg.svd(s, compute_uv=False)[0]
    if cur > 0:
        s = s * (norm / cur)
    return s


def sample_haar(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed element of SO(n).

    QR of a Gaussian matrix with the R-diagonal sign fix gives Haar measure on
    O(n); a final column flip conditions on determinant +1.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be even and >= 2")
    z = rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    q = q * d
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def sample_near_identity(n: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """exp of a random skew matrix with spectral norm <= radius (< pi)."""
    if not 0 <= radius < np.pi:
        raise ValueError("radius must lie in [0, pi)")
    if radius == 0:
        return np.eye(n)
    u = rng.uniform(0.0, 1.0)
    return exp_alg(random_skew(n, rng, norm=radius * u))


# ---------------------------------------------------------------------------
# points of the nerve NG(r) = G^r and left-trivialized tangent frames


@dataclass(frozen=True)
class NervePoint:
    """Point of NG(r): an ordered tuple of r elements (or stacks) of SO(n)."""

    n: int
    components: tuple[np.ndarray, ...]

    @property
    def level(self) -> int:
        return len(self.components)

    def __post_init__(self):
        for h in self.components:
            if h.shape[-2:] != (self.n, self.n):
                raise ValueError("all components must be n x n or stacks of n x n")


@dataclass(frozen=True)
class TangentFrame:
    """Left-trivialized tangent vector on G^r: algebra elements per slot."""

    n: int
    components: tuple[np.ndarray, ...]

    @property
    def level(self) -> int:
        return len(self.components)


def nerve_point(components: Sequence[np.ndarray], n: int | None = None) -> NervePoint:
    comps = tuple(np.asarray(h, dtype=float) for h in components)
    if n is None:
        if not comps:
            raise ValueError("n is required for a level-0 point")
        n = comps[0].shape[-1]
    return NervePoint(n=n, components=comps)


def tangent_frame(components: Sequence[np.ndarray], n: int | None = None) -> TangentFrame:
    comps = tuple(np.asarray(x, dtype=float) for x in components)
    if n is None:
        if not comps:
            raise ValueError("n is required for a level-0 frame")
        n = comps[0].shape[-1]
    return TangentFrame(n=n, components=comps)


def identity_point(n: int, level: int) -> NervePoint:
    return NervePoint(n=n, components=tuple(np.eye(n) for _ in range(level)))


def move_point(p: NervePoint, v: TangentFrame, t: float) -> NervePoint:
    """Flow p along the left-invariant extension of v for time t.

    The components' exponentials are one ``exp_alg`` call on their stack
    (broadcast to a common batch shape), bit-identical to one call each; a
    one-component frame is exponentiated as it is, with no stack.
    """
    if not v.components:
        return p
    if len(v.components) == 1:
        steps = (exp_alg(t * v.components[0]),)
    else:
        steps = exp_alg(t * np.stack(np.broadcast_arrays(*v.components)))
    return NervePoint(n=p.n, components=tuple(h @ e for h, e in zip(p.components, steps)))


def frame_bracket(v: TangentFrame, w: TangentFrame) -> TangentFrame:
    """Componentwise algebra bracket; the bracket of left-invariant fields."""
    return TangentFrame(
        n=v.n,
        components=tuple(bracket(a, b) for a, b in zip(v.components, w.components)),
    )


def random_frame(level: int, n: int, rng: np.random.Generator, norm: float = 1.0) -> TangentFrame:
    return TangentFrame(n=n, components=tuple(random_skew(n, rng, norm=norm) for _ in range(level)))
