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

Every maximum over samples is ``np.maximum`` or ``np.max``, which return NaN
when any value is NaN, so a NaN residual fails its gate.  The builtin ``max``
keeps its running value when the next one is NaN, and would drop a NaN on
any sample but the first.
"""

from __future__ import annotations

import json
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
    words_to_json,
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
    move_point,
    nerve_point,
    random_frame,
    random_skew,
    sample_haar,
    sample_near_identity,
    tangent_frame,
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
    max_residual: float
    tolerance: float
    # report-level fields that come with this check, e.g. the sign assignment
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.max_residual = float(self.max_residual)
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


def _haar_point(level, n, rng):
    return nerve_point([sample_haar(n, rng) for _ in range(level)], n=n)


def _max_abs_difference(xs, ys) -> float:
    return float(np.max([np.max(np.abs(a - b)) for a, b in zip(xs, ys)]))


def _matrix_form(gen):
    """A generator as a matrix-valued 1-form on NG(1)."""
    return FormEvaluator(1, 1, lambda p, v: generator_value(gen, p, v[0]))


# ---------------------------------------------------------------------------
# verify-euler


def _residual_maxima(values, signs):
    """Per image bidegree, the largest |signed sum of the contributions| over
    the samples."""
    return {
        bd: float(np.max([abs(sum(signs[src] * value for src, value in row.items()))
                          for row in rows]))
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
        Check(f"total-cocycle residual at ({r},{s})", worst, args.tol)
        for (r, s), worst in _residual_maxima(values, dict.fromkeys(keys, 1)).items()
    ]
    consistent = []
    for flips in product((1, -1), repeat=len(keys) - 1):
        signs = dict(zip(keys, (1, *flips)))
        if np.max(list(_residual_maxima(values, signs).values())) < args.tol:
            consistent.append({f"{r},{s}": sign for (r, s), sign in signs.items()})
    checks.append(Check(
        "unique sign assignment", abs(len(consistent) - 1), 0.5,
        extra={"sign_assignment": consistent[0] if consistent else None,
               "consistent_assignments": len(consistent)},
    ))
    if args.export_terms:
        terms = [
            {"bidegree": [r, s], "terms": words_to_json(args.n, list(form.fn.words))}
            for (r, s), form in sorted(cochain.components.items())
        ]
        with open(args.export_terms, "w") as fh:
            json.dump(terms, fh)
    return checks


# ---------------------------------------------------------------------------
# verify-generator


def generator_vs_transcription(args, rng):
    """Per component, max |a - b| over the samples relative to max |b|: a
    single sample's |b| can cancel to far below the component's size."""
    checks = []
    for p in range(1, args.p_rank + 1):
        for q in range(p):
            n = 2 * p
            key = (p - q, p + q)
            gen = euler_component(p, q)
            built = builtin_cocycle(n).components[key]
            diff = size = 0.0
            for _ in range(args.samples):
                point = _haar_point(key[0], n, rng)
                frames = tuple(random_frame(key[0], n, rng) for _ in range(key[1]))
                a = gen.fn(point, frames)
                b = built.fn(point, frames)
                diff = np.maximum(diff, abs(a - b))
                size = np.maximum(size, abs(b))
            checks.append(Check(f"generator vs transcription (p={p}, q={q})",
                                diff / max(size, 1e-300), args.tol))
    return checks


# ---------------------------------------------------------------------------
# pfaffian


def pfaffian(args, rng):
    n = args.n
    p = n // 2
    worst_det = 0.0
    worst_inv = 0.0
    for _ in range(args.trials):
        a = random_skew(n, rng)
        pf_a = euler_pfaffian(a)
        pf = (2 * np.pi) ** p * pf_a
        det = np.linalg.det(a)
        worst_det = np.maximum(worst_det, abs(pf**2 - det) / max(abs(det), 1e-300))
        g = sample_haar(n, rng)
        pf2 = euler_pfaffian(adjoint(g, a))
        worst_inv = np.maximum(worst_inv, abs(pf2 - pf_a) / max(abs(pf_a), 1e-300))
    return [
        Check("pfaffian^2 = det (relative)", worst_det, args.tol),
        Check("conjugation invariance (relative)", worst_inv, 1e-10),
    ]


# ---------------------------------------------------------------------------
# euler-number


def clutching_winding(args, rng):
    value = clutching_euler_number(args.winding, steps=args.steps)
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
    r0 = r1 = 0.0
    for _ in range(args.samples):
        r0 = np.maximum(r0, abs(d_eta0.fn(_near_identity_point(4, args.radius, rng), ())))
        point = _near_identity_point(3, args.radius, rng)
        frame = (random_frame(3, 4, rng),)
        r1 = np.maximum(r1, abs(d_eta1.fn(point, frame) + d2_eta0.fn(point, frame)))
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
    worst = 0.0
    for _ in range(args.trials):
        z, a, b = (random_skew(4, rng) for _ in range(3))
        worst = np.maximum(worst, abs(pf_pairing(z @ a - a @ z, b) + pf_pairing(a, z @ b - b @ z)))
    return [Check("pairing ad-invariance", worst, 1e-12)]


def loop_cocycle_residual(args, rng):
    worst = 0.0
    for _ in range(args.trials):
        triple = [random_loop(4, args.max_freq, rng) for _ in range(3)]
        worst = np.maximum(worst, abs(cocycle_residual(*triple)))
    return [Check("cocycle residual", worst, 1e-10)]


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
    phi_a = antisymmetrized_mixed_partial(
        lambda ya, xia, yb, xib: level1_loop_functional(ya, xia, yb, xib), xa, xb
    )
    phi_b = antisymmetrized_mixed_partial(
        lambda ya, xia, yb, xib: level2_loop_functional(ya, xia, yb, xib), xa, xb
    )
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
    worst_left = 0.0
    worst_right = 0.0
    for _ in range(args.samples):
        point = _haar_point(1, n, rng)
        xf = random_frame(1, n, rng)
        yf = random_frame(1, n, rng)
        cx = xf.components[0]
        cy = yf.components[0]
        comm = cx @ cy - cy @ cx
        h = point.components[0]
        kx, ky = h @ cx @ h.T, h @ cy @ h.T
        comm_r = kx @ ky - ky @ kx
        dth = d_left.fn(point, (xf, yf))
        worst_left = np.maximum(worst_left, float(np.max(np.abs(dth + comm))))
        dk = d_right.fn(point, (xf, yf))
        worst_right = np.maximum(worst_right, float(np.max(np.abs(dk - comm_r))))
    return [
        Check("Maurer-Cartan (left)", worst_left, 1e-7),
        Check("Maurer-Cartan (right)", worst_right, 1e-7),
    ]


def d_squared(args, rng):
    # d o d on a generator entry at near-identity points
    n = args.n
    ddo = exterior_derivative(exterior_derivative(_matrix_form(rmc(1))))
    worst = 0.0
    for _ in range(args.samples):
        point = nerve_point([sample_near_identity(n, 0.2, rng)], n=n)
        frames = tuple(random_frame(1, n, rng) for _ in range(3))
        worst = np.maximum(worst, abs(ddo.fn(point, frames)[0, 1]))
    return [Check("d o d", worst, 1e-5)]


def simplicial_identities(args, rng):
    # eps_i o eps_j = eps_{j-1} o eps_i for i < j, on points and pushforwards
    n = args.n
    worst_pt = 0.0
    worst_push = 0.0
    q = 3
    for _ in range(args.samples):
        point = _haar_point(q, n, rng)
        frame = random_frame(q, n, rng)
        for j in range(1, q + 1):
            for i in range(j):
                p1 = face_point(i, q - 1, face_point(j, q, point))
                p2 = face_point(j - 1, q - 1, face_point(i, q, point))
                worst_pt = np.maximum(worst_pt, _max_abs_difference(p1.components, p2.components))
                v1 = face_pushforward(i, q - 1, face_point(j, q, point),
                                      face_pushforward(j, q, point, frame))
                v2 = face_pushforward(j - 1, q - 1, face_point(i, q, point),
                                      face_pushforward(i, q, point, frame))
                worst_push = np.maximum(worst_push,
                                        _max_abs_difference(v1.components, v2.components))
    return [
        Check("simplicial identities (points)", worst_pt, 1e-12),
        Check("simplicial identities (pushforwards)", worst_push, 1e-12),
    ]


def face_pushforward_fd(args, rng):
    n = args.n
    worst = 0.0
    step = FD_STEP
    for _ in range(args.samples):
        point = _haar_point(2, n, rng)
        frame = random_frame(2, n, rng)
        exact = face_pushforward(1, 2, point, frame)
        fp = face_point(1, 2, move_point(point, frame, step))
        fm = face_point(1, 2, move_point(point, frame, -step))
        base = face_point(1, 2, point)
        fd = trivialized_difference(
            base.components[0], fp.components[0], fm.components[0], step
        )
        worst = np.maximum(worst, float(np.max(np.abs(fd - exact.components[0]))))
    return [Check("face pushforward vs finite differences", worst, 1e-8)]


def d_prime_squared(args, rng):
    # d' o d' = 0 on a 0-form (matrix-trace based) and a 1-form
    n = args.n
    worst = 0.0
    m_fixed = random_skew(n, rng)
    f0 = FormEvaluator(1, 0, lambda p, v: float(np.trace(m_fixed @ p.components[0])))
    ddp = d_prime(d_prime(f0))
    for _ in range(args.samples):
        point = _haar_point(3, n, rng)
        worst = np.maximum(worst, abs(ddp.fn(point, ())))
    ddp1 = d_prime(d_prime(_matrix_form(rmc(1))))
    for _ in range(args.samples):
        point = _haar_point(3, n, rng)
        frame = (random_frame(3, n, rng),)
        worst = np.maximum(worst, abs(ddp1.fn(point, frame)[0, 1]))
    return [Check("d' o d'", worst, 1e-9)]


def anticommutation(args, rng):
    # d' d'' + d'' d' = 0
    n = args.n
    omega1 = _matrix_form(rmc(1))
    anti = d_second(d_prime(omega1))
    comm = d_prime(d_second(omega1))
    worst = 0.0
    for _ in range(args.samples):
        point = _haar_point(2, n, rng)
        frames = tuple(random_frame(2, n, rng) for _ in range(2))
        worst = np.maximum(worst, abs(anti.fn(point, frames)[0, 1] + comm.fn(point, frames)[0, 1]))
    return [Check("d' d'' + d'' d'", worst, 1e-5)]


def bundle_projection_pullback(args, rng):
    # gamma^* phi_s = Ad(g_0)(theta_{s-1} - theta_s) for the simplicial bundle
    # projection gamma(g_0, ..., g_q) = (g_0 g_1^{-1}, ..., g_{q-1} g_q^{-1}),
    # and the exact pushforward through gamma against central differences
    n = args.n
    worst_pull = 0.0
    worst_push = 0.0
    step = FD_STEP
    for _ in range(args.samples):
        for q in (1, 2, 3):
            gs = [sample_haar(n, rng) for _ in range(q + 1)]
            xis = [random_skew(n, rng) for _ in range(q + 1)]
            point = bundle_projection(gs)
            frame = bundle_projection_pushforward(gs, xis)
            base, flow = nerve_point(gs), tangent_frame(xis)
            moved_p = bundle_projection(move_point(base, flow, step).components)
            moved_m = bundle_projection(move_point(base, flow, -step).components)
            for m in range(q):
                fd = trivialized_difference(
                    point.components[m], moved_p.components[m], moved_m.components[m], step
                )
                worst_push = np.maximum(worst_push,
                                        float(np.max(np.abs(fd - frame.components[m]))))
            for s in range(1, q + 1):
                lhs = generator_value(phi(s), point, frame)
                rhs = adjoint(gs[0], xis[s - 1] - xis[s])
                worst_pull = np.maximum(worst_pull, float(np.max(np.abs(lhs - rhs))))
    return [
        Check("bundle projection pullback of phi_s", worst_pull, 1e-12),
        Check("bundle projection pushforward vs finite differences", worst_push, 1e-8),
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
