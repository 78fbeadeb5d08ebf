"""Numerics for the special orthogonal group SO(n) and its Lie algebra so(n).

Group elements and algebra elements are plain float64 ndarrays.  Tangent
vectors on a product G^r are kept in left trivialization throughout: a frame
stores the algebra elements (xi_1, ..., xi_r) and the actual tangent vector
at (h_1, ..., h_r) is (h_1 xi_1, ..., h_r xi_r).

``exp_alg``, ``log_grp``, ``skew_project``, ``trivialized_difference`` and
``adjoint`` take (n, n) matrices or stacks (..., n, n) and map a stack matrix
by matrix, bit-identically to the call on that matrix alone.  Points and
frames may hold such stacks: their broadcast leading axes index a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm

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
    """Matrix exponential so(n) -> SO(n) (scaling-and-squaring Pade)."""
    return expm(np.asarray(xi, dtype=float))


def log_grp(g: np.ndarray) -> np.ndarray:
    """Principal logarithm SO(n) -> so(n).

    Requires every rotation angle, of every matrix in a stack, to stay at
    least ``LOG_ANGLE_MARGIN`` away from pi; otherwise the principal branch is
    ill-conditioned and a DomainError is raised.  Orthogonal matrices are
    normal, so the log is taken through a (unitary) eigendecomposition.
    """
    g = np.asarray(g, dtype=float)
    lam, vec = np.linalg.eig(g)
    worst = float(np.abs(np.angle(lam)).max(initial=0.0))
    if worst > np.pi - LOG_ANGLE_MARGIN:
        raise DomainError(
            f"rotation angle {worst:.8f} is within {LOG_ANGLE_MARGIN:g} of pi; "
            "outside the principal-logarithm domain"
        )
    w = np.log(lam)
    xi = vec @ (w[..., :, None] * np.conj(vec.swapaxes(-1, -2)))
    return skew_project(np.real(xi))


def adjoint(g: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Adjoint action g xi g^{-1} (= g xi g^T on SO(n))."""
    return g @ xi @ g.swapaxes(-1, -2)


def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix commutator [x, y] = xy - yx."""
    return x @ y - y @ x


# ---------------------------------------------------------------------------
# sampling


def random_skew(n: int, rng: np.random.Generator, norm: float = 1.0) -> np.ndarray:
    """Random skew matrix rescaled to spectral norm ``norm``."""
    s = skew_project(rng.standard_normal((n, n)))
    cur = np.linalg.norm(s, 2)
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
    """Flow p along the left-invariant extension of v for time t."""
    return NervePoint(
        n=p.n,
        components=tuple(h @ exp_alg(t * xi) for h, xi in zip(p.components, v.components)),
    )


def frame_bracket(v: TangentFrame, w: TangentFrame) -> TangentFrame:
    """Componentwise algebra bracket; the bracket of left-invariant fields."""
    return TangentFrame(
        n=v.n,
        components=tuple(bracket(a, b) for a, b in zip(v.components, w.components)),
    )


def random_frame(level: int, n: int, rng: np.random.Generator, norm: float = 1.0) -> TangentFrame:
    return TangentFrame(n=n, components=tuple(random_skew(n, rng, norm=norm) for _ in range(level)))
