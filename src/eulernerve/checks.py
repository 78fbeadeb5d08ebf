"""The registry of named checks: every certified identity, written once.

``SUITES`` maps each CLI subcommand to an ordered tuple of entries.  An entry
is a plain function ``(args, rng) -> list[Check]``; ``args`` holds the parsed
options of the subcommand.  Checks that share random draws stay in one entry
(the bidegrees of one total-cocycle run, the generator/transcription pairs,
the three loop-functional checks); every other identity has an entry of its
own.

The CLI runs a suite's entries in order on one generator, so the draws and
the residuals depend only on the seed and the options.  ``tests/test_checks.py``
runs each entry on its own at the configurations of ``tests/residual_hex.py``.

Every residual is formed and gated here: the entries draw the samples, reduce
the values that the library returns over them and compare the result with a
tolerance.  No function outside this module and ``cli`` takes a tolerance or
takes a maximum over random draws, so an entry has each separate
contribution of a residual in hand where it builds the ``Check``.

An entry hands a ``Check`` the list of its per-sample residuals, and the
``Check`` keeps their maximum, NaN if any sample is NaN, so a NaN fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .euler import (
    builtin_cocycle,
    bundle_projection,
    bundle_projection_pushforward,
    clutching_euler_number,
    euler_component,
    euler_pfaffian,
)
from .forms import FormEvaluator, exterior_derivative, generator_value, lmc, phi, rmc
from .loopcocycle import (
    antisymmetrized_mixed_partial,
    closed_form_mixed_partial,
    cocycle_residual,
    level1_loop_functional,
    level2_loop_functional,
    loop_cocycle,
    loop_element,
    mixed_partial,
    pf_pairing,
    random_loop,
)
from .matgroup import (
    DomainError,
    adjoint,
    bracket,
    iter_samples,
    move_point,
    nerve_point,
    random_frame,
    random_skew,
    sample_blocks,
    sample_haar,
    sample_near_identity,
    skew_from_gaussian,
    trivialized_difference,
)
from .nerve import d_prime, d_second, face_point, face_pushforward, verify_total_cocycle
from .transgression import local_cochain, transgression_form

# central-difference steps: the pushforward checks, and d'' of eta_0 in the
# truncated-cocycle check
FD_STEP = 1e-5
D2_STEP = 1e-3


@dataclass
class Check:
    name: str
    # the per-sample residuals (or one residual), reduced to their maximum
    max_residual: float
    tolerance: float
    # report-level fields that come with this check, e.g. the sign assignment
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.max_residual = float(np.max(self.max_residual))
        self.tolerance = float(self.tolerance)

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _max_abs_difference(xs, ys) -> float:
    return float(np.max([np.max(np.abs(a - b)) for a, b in zip(xs, ys)]))


def _matrix_form(gen):
    """A generator as a matrix-valued 1-form on NG(1), broadcast to the
    batch of its point and frame (lmc reads the frame alone)."""

    def fn(p, v):
        shape = np.broadcast_shapes(*(c.shape for c in (*p.components, *v[0].components)))
        return np.broadcast_to(generator_value(gen, p, v[0]), shape)

    return FormEvaluator(1, 1, fn)


# ---------------------------------------------------------------------------
# verify-euler


def _residuals(values, signs):
    """Per image bidegree, |signed sum of the contributions| of each sample."""
    return {
        bd: [abs(sum(signs[src] * value for src, value in row.items())) for row in rows]
        for bd, rows in values.items()
    }


def total_cocycle(args, rng):
    """(d' + d'')E = 0 per image bidegree, and a sign-flip audit: with the
    first component's sign fixed to +1, count the flips of the others under
    which every residual passes.  A correct cochain has exactly one."""
    cochain = builtin_cocycle(args.n)
    values = verify_total_cocycle(cochain, samples=args.samples, rng=rng)
    keys = sorted(cochain.components)
    checks = [
        Check(f"total-cocycle residual at ({r},{s})", residuals, args.tol)
        for (r, s), residuals in _residuals(values, dict.fromkeys(keys, 1)).items()
    ]
    consistent = []
    for flips in product((1, -1), repeat=len(keys) - 1):
        signs = dict(zip(keys, (1, *flips)))
        if all(np.max(r) < args.tol for r in _residuals(values, signs).values()):
            consistent.append({f"{r},{s}": sign for (r, s), sign in signs.items()})
    checks.append(Check(
        "unique sign assignment", abs(len(consistent) - 1), 0.5,
        extra={"sign_assignment": consistent[0] if consistent else None,
               "consistent_assignments": len(consistent)},
    ))
    return checks


# ---------------------------------------------------------------------------
# verify-generator


def generator_vs_transcription(args, rng):
    """Per component, max |a - b| over the samples relative to max |b|: a
    single sample's |b| can cancel to far below the component's size.  Each
    component's samples are drawn at once (``sample_blocks``), and each path
    evaluates them all in one stacked call."""
    checks = []
    for p in range(1, args.p_rank + 1):
        for q in range(p):
            n = 2 * p
            level, degree = p - q, p + q
            gen = euler_component(p, q)
            built = builtin_cocycle(n).components[(level, degree)]
            [(point, frames)] = sample_blocks(n, [(level, degree)], args.samples, rng)
            a = gen.fn(point, frames)
            b = built.fn(point, frames)
            checks.append(Check(f"generator vs transcription (p={p}, q={q})",
                                np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300),
                                args.tol))
    return checks


# ---------------------------------------------------------------------------
# pfaffian


def pfaffian(args, rng):
    n = args.n
    p = n // 2
    squared, conjugated = [], []
    for _ in range(args.trials):
        a = random_skew(n, rng)
        pf_a = euler_pfaffian(a)
        pf = (2 * np.pi) ** p * pf_a
        det = np.linalg.det(a)
        squared.append(abs(pf**2 - det) / max(abs(det), 1e-300))
        g = sample_haar(n, rng)
        pf2 = euler_pfaffian(adjoint(g, a))
        conjugated.append(abs(pf2 - pf_a) / max(abs(pf_a), 1e-300))
    return [
        Check("pfaffian^2 = det (relative)", squared, args.tol),
        Check("conjugation invariance (relative)", conjugated, 1e-10),
    ]


# ---------------------------------------------------------------------------
# euler-number


def clutching_winding(args, rng):
    value = clutching_euler_number(args.winding)
    print(f"euler number for winding {args.winding}: {value:.12f}")
    return [Check(f"winding {args.winding}", abs(value - args.winding), args.tol,
                  extra={"euler_number": value})]


# ---------------------------------------------------------------------------
# transgress


def _log_domain(args):
    if args.radius >= np.pi:
        raise DomainError(f"--radius {args.radius:g} is not below pi")


def _near_identity_point(level, radius, rng):
    return nerve_point([sample_near_identity(4, radius, rng) for _ in range(level)], n=4)


def truncated_cocycle(args, rng):
    """The two surviving components of the total differential of eta: degree
    0 on U^4, d' eta_0; degree 1 on U^3, d' eta_1 + d'' eta_0, whose two
    terms are evaluated separately and added."""
    _log_domain(args)
    eta = local_cochain(quad_order=args.quad_order)
    d_eta0 = d_prime(eta.eta0)
    d_eta1 = d_prime(eta.eta1)
    d2_eta0 = d_second(eta.eta0, step=D2_STEP)
    r0, r1 = [], []
    for _ in range(args.samples):
        r0.append(abs(d_eta0.fn(_near_identity_point(4, args.radius, rng), ())))
        point = _near_identity_point(3, args.radius, rng)
        frame = (random_frame(3, 4, rng),)
        r1.append(abs(d_eta1.fn(point, frame) + d2_eta0.fn(point, frame)))
    return [
        Check("degree-0 residual (d' eta0)", r0, args.tol),
        Check("degree-1 residual (d' eta1 + d'' eta0)", r1, args.tol),
    ]


def order_doubling_drift(args, rng):
    """|beta_{2,1}| change when the quadrature order doubles, at one sampled
    point and frame."""
    _log_domain(args)
    mu2 = builtin_cocycle(4).components[(2, 2)]
    low, high = (transgression_form(mu2, 2, 1, quad_order=order)
                 for order in (args.quad_order, 2 * args.quad_order))
    point = _near_identity_point(2, args.radius, rng)
    frame = (random_frame(2, 4, rng),)
    drift = abs(low.fn(point, frame) - high.fn(point, frame))
    return [Check("quadrature order-doubling drift", drift, 1e-6)]


# ---------------------------------------------------------------------------
# loop-cocycle


def pairing_ad_invariance(args, rng):
    # z, a and b of every trial from one draw
    z, a, b = skew_from_gaussian(rng.standard_normal((args.trials, 3, 4, 4))).swapaxes(0, 1)
    residuals = np.abs(pf_pairing(bracket(z, a), b) + pf_pairing(a, bracket(z, b)))
    return [Check("pairing ad-invariance", residuals, 1e-12)]


def loop_cocycle_residual(args, rng):
    residuals = []
    for _ in range(args.trials):
        triple = [random_loop(4, args.max_freq, rng) for _ in range(3)]
        residuals.append(abs(cocycle_residual(*triple)))
    return [Check("cocycle residual", residuals, 1e-10)]


def worked_example(args, rng):
    x = np.zeros((4, 4))
    x[0, 1], x[1, 0], x[2, 3], x[3, 2] = 1, -1, 1, -1
    zero = np.zeros((4, 4))
    xi1 = loop_element(zero, [x], [zero])
    xi2 = loop_element(zero, [zero], [x])
    val = loop_cocycle(xi1, xi2)
    return [Check("worked example = 1/(8 pi)", abs(val - 1 / (8 * np.pi)), 1e-12)]


def loop_functionals(args, rng):
    xa = random_loop(4, 1, rng, norm=0.8)
    xb = random_loop(4, 1, rng, norm=0.8)
    mixed = mixed_partial(lambda a, b: level2_loop_functional(a, xa, b, xb))
    phi_a = antisymmetrized_mixed_partial(level1_loop_functional, xa, xb)
    phi_b = antisymmetrized_mixed_partial(level2_loop_functional, xa, xb)
    alpha_val = loop_cocycle(xa, xb)
    return [
        Check("level-2 functional mixed partial vs closed form",
              abs(mixed - closed_form_mixed_partial(xa, xb)), args.tol),
        Check("phi of the level-1 functional", abs(phi_a), args.tol,
              extra={"phi_a_explicit": phi_a}),
        Check("phi(a + b) vs alpha", abs(phi_a + phi_b - alpha_val), args.tol),
    ]


# ---------------------------------------------------------------------------
# structure-tests


def maurer_cartan(args, rng):
    n = args.n
    d_left = exterior_derivative(_matrix_form(lmc(1)))
    d_right = exterior_derivative(_matrix_form(rmc(1)))
    left, right = [], []
    for [(point, (xf, yf))] in iter_samples(n, [(1, 2)], args.samples, rng):
        cx = xf.components[0]
        cy = yf.components[0]
        comm = cx @ cy - cy @ cx
        h = point.components[0]
        kx, ky = h @ cx @ h.T, h @ cy @ h.T
        comm_r = kx @ ky - ky @ kx
        dth = d_left.fn(point, (xf, yf))
        left.append(float(np.max(np.abs(dth + comm))))
        dk = d_right.fn(point, (xf, yf))
        right.append(float(np.max(np.abs(dk - comm_r))))
    return [
        Check("Maurer-Cartan (left)", left, 1e-7),
        Check("Maurer-Cartan (right)", right, 1e-7),
    ]


def d_squared(args, rng):
    # d o d on a generator entry at near-identity points
    n = args.n
    ddo = exterior_derivative(exterior_derivative(_matrix_form(rmc(1))))
    residuals = []
    for _ in range(args.samples):
        point = nerve_point([sample_near_identity(n, 0.2, rng)], n=n)
        frames = tuple(random_frame(1, n, rng) for _ in range(3))
        residuals.append(abs(ddo.fn(point, frames)[0, 1]))
    return [Check("d o d", residuals, 1e-5)]


def simplicial_identities(args, rng):
    # eps_i o eps_j = eps_{j-1} o eps_i for i < j, on points and pushforwards
    n = args.n
    points, pushforwards = [], []
    q = 3
    for [(point, (frame,))] in iter_samples(n, [(q, 1)], args.samples, rng):
        for j in range(1, q + 1):
            for i in range(j):
                p1 = face_point(i, q - 1, face_point(j, q, point))
                p2 = face_point(j - 1, q - 1, face_point(i, q, point))
                points.append(_max_abs_difference(p1.components, p2.components))
                v1 = face_pushforward(i, q - 1, face_point(j, q, point),
                                      face_pushforward(j, q, point, frame))
                v2 = face_pushforward(j - 1, q - 1, face_point(i, q, point),
                                      face_pushforward(i, q, point, frame))
                pushforwards.append(_max_abs_difference(v1.components, v2.components))
    return [
        Check("simplicial identities (points)", points, 1e-12),
        Check("simplicial identities (pushforwards)", pushforwards, 1e-12),
    ]


def face_pushforward_fd(args, rng):
    n = args.n
    residuals = []
    step = FD_STEP
    for [(point, (frame,))] in iter_samples(n, [(2, 1)], args.samples, rng):
        exact = face_pushforward(1, 2, point, frame)
        [moved] = move_point(point, (frame,), (step, -step))
        fp, fm = face_point(1, 2, moved).components[0]
        base = face_point(1, 2, point)
        fd = trivialized_difference(base.components[0], fp, fm, step)
        residuals.append(float(np.max(np.abs(fd - exact.components[0]))))
    return [Check("face pushforward vs finite differences", residuals, 1e-8)]


def d_prime_squared(args, rng):
    # d' o d' = 0 on a 0-form (matrix-trace based) and a 1-form
    n = args.n
    residuals = []
    m_fixed = random_skew(n, rng)
    f0 = FormEvaluator(1, 0, lambda p, v: np.trace(m_fixed @ p.components[0], axis1=-2, axis2=-1))
    ddp = d_prime(d_prime(f0))
    for [(point, ())] in iter_samples(n, [(3, 0)], args.samples, rng):
        residuals.append(abs(ddp.fn(point, ())))
    ddp1 = d_prime(d_prime(_matrix_form(rmc(1))))
    for [(point, frame)] in iter_samples(n, [(3, 1)], args.samples, rng):
        residuals.append(abs(ddp1.fn(point, frame)[0, 1]))
    return [Check("d' o d'", residuals, 1e-9)]


def anticommutation(args, rng):
    # d' d'' + d'' d' = 0
    n = args.n
    omega1 = _matrix_form(rmc(1))
    anti = d_second(d_prime(omega1))
    comm = d_prime(d_second(omega1))
    residuals = []
    for [(point, frames)] in iter_samples(n, [(2, 2)], args.samples, rng):
        residuals.append(abs(anti.fn(point, frames)[0, 1] + comm.fn(point, frames)[0, 1]))
    return [Check("d' d'' + d'' d'", residuals, 1e-5)]


def bundle_projection_pullback(args, rng):
    # gamma^* phi_s = Ad(g_0)(theta_{s-1} - theta_s) for the simplicial bundle
    # projection gamma(g_0, ..., g_q) = (g_0 g_1^{-1}, ..., g_{q-1} g_q^{-1}),
    # and the exact pushforward through gamma against central differences
    n = args.n
    pullbacks, pushforwards = [], []
    step = FD_STEP
    # per sample and q, the group elements g_0..g_q and one algebra element each
    blocks = [(q + 1, 1) for q in (1, 2, 3)]
    for draws in iter_samples(n, blocks, args.samples, rng):
        for q, (base, (flow,)) in zip((1, 2, 3), draws):
            gs, xis = base.components, flow.components
            point = bundle_projection(gs)
            frame = bundle_projection_pushforward(gs, xis)
            [moved] = move_point(base, (flow,), (step, -step))
            pushed = bundle_projection(moved.components)
            for m in range(q):
                fd = trivialized_difference(point.components[m], *pushed.components[m], step)
                pushforwards.append(float(np.max(np.abs(fd - frame.components[m]))))
            for s in range(1, q + 1):
                lhs = generator_value(phi(s), point, frame)
                rhs = adjoint(gs[0], xis[s - 1] - xis[s])
                pullbacks.append(float(np.max(np.abs(lhs - rhs))))
    return [
        Check("bundle projection pullback of phi_s", pullbacks, 1e-12),
        Check("bundle projection pushforward vs finite differences", pushforwards, 1e-8),
    ]


SUITES = {
    "verify-euler": (total_cocycle,),
    "verify-generator": (generator_vs_transcription,),
    "pfaffian": (pfaffian,),
    "euler-number": (clutching_winding,),
    "transgress": (truncated_cocycle, order_doubling_drift),
    "loop-cocycle": (pairing_ad_invariance, loop_cocycle_residual, worked_example,
                     loop_functionals),
    "structure-tests": (maurer_cartan, d_squared, simplicial_identities, face_pushforward_fd,
                        d_prime_squared, anticommutation, bundle_projection_pullback),
}
