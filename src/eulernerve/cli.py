"""Batch verification front-end.

One subcommand per verification suite; every run is deterministic given the
seed and writes an optional JSON report.  Exit code 0 when every check in the
suite passes, 1 on a failed check, 2 on usage or domain errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .euler import MIN_CLUTCHING_STEPS
from .matgroup import (
    DomainError,
    exp_alg,
    nerve_point,
    random_frame,
    random_skew,
    sample_haar,
    sample_near_identity,
    trivialized_difference,
)

SCHEMA_VERSION = 1


@dataclass
class Check:
    name: str
    max_residual: float
    tolerance: float

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


@dataclass
class Report:
    subcommand: str
    config: dict
    checks: list[Check] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def add(self, name: str, residual: float, tol: float) -> None:
        self.checks.append(Check(name, float(residual), float(tol)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self, wall_time: float) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
            "subcommand": self.subcommand,
            "config": self.config,
            "checks": [c.to_json() for c in self.checks],
            **self.extra,
            "pass": self.passed,
            "wall_time_s": wall_time,
        }


def _positive(kind):
    def parse(text):
        value = kind(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"expected a positive value, got {text}")
        return value

    return parse


def _int_at_least(low):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulernerve",
        description="Numerical verification suites for the Euler cochains on the nerve of SO(2p).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand")

    def common(p, samples=None, tol=1e-5):
        # a suite that reads no sample count gets no --samples
        if samples is not None:
            p.add_argument("--samples", type=_positive(int), default=samples)
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: env NERVE_EULER_SEED or 0)")
        p.add_argument("--tol", type=_positive(float), default=tol)
        p.add_argument("--out", type=str, default=None, help="JSON report path")

    p = sub.add_parser("verify-euler", help="total-cocycle residuals of the built-in cochains")
    p.add_argument("--n", type=int, choices=(2, 4, 6), default=4)
    p.add_argument("--export-terms", type=str, default=None,
                   help="write the cochain's expanded term list to this path")
    common(p, samples=20)

    p = sub.add_parser("verify-generator",
                       help="generated components against the built-in transcriptions")
    p.add_argument("--p", dest="p_rank", type=int, choices=(1, 2, 3), default=3)
    common(p, samples=10, tol=1e-10)

    p = sub.add_parser("pfaffian", help="Pfaffian-squared-equals-determinant and invariance")
    p.add_argument("--n", type=int, choices=(2, 4, 6), default=6)
    p.add_argument("--trials", type=_positive(int), default=100)
    common(p, tol=1e-9)

    p = sub.add_parser("euler-number", help="clutching-loop winding integrals on SO(2)")
    p.add_argument("--winding", type=int, default=2)
    p.add_argument("--steps", type=_int_at_least(MIN_CLUTCHING_STEPS), default=256)
    common(p, tol=1e-10)

    p = sub.add_parser("transgress", help="truncated-cocycle check of the local cochain")
    p.add_argument("--radius", type=_positive(float), default=0.1)
    p.add_argument("--quad-order", type=_positive(int), default=8)
    common(p, samples=10, tol=1e-3)

    p = sub.add_parser("loop-cocycle", help="loop-algebra cocycle checks")
    p.add_argument("--trials", type=_positive(int), default=20)
    p.add_argument("--max-freq", type=_positive(int), default=3)
    common(p, tol=1e-4)

    p = sub.add_parser("structure-tests",
                       help="structure equations, d o d, simplicial identities")
    p.add_argument("--n", type=int, choices=(2, 4, 6), default=4)
    common(p, samples=5, tol=1e-5)

    return parser


def _seed_of(args) -> int:
    """--seed, else env NERVE_EULER_SEED, else 0; ValueError names a bad seed."""
    if args.seed is not None:
        seed = args.seed
    else:
        env = os.environ.get("NERVE_EULER_SEED") or "0"
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"NERVE_EULER_SEED={env!r} is not an integer seed") from None
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def _haar_sampler(n):
    def sampler(level, rng):
        return nerve_point([sample_haar(n, rng) for _ in range(level)], n=n)

    return sampler


# ---------------------------------------------------------------------------
# suites


def run_verify_euler(args, report: Report, rng) -> None:
    from .euler import builtin_cocycle, words_to_json
    from .nerve import verify_total_cocycle

    cochain = builtin_cocycle(args.n)
    res = verify_total_cocycle(
        cochain,
        samples=args.samples,
        tol=args.tol,
        rng=rng,
        point_sampler=_haar_sampler(args.n),
    )
    for bd, val in res.bidegree_residuals.items():
        report.add(f"total-cocycle residual at ({bd})", val, args.tol)
    report.add("unique sign assignment", abs(res.consistent_assignments - 1), 0.5)
    report.extra["sign_assignment"] = res.sign_assignment
    report.extra["consistent_assignments"] = res.consistent_assignments
    if args.export_terms:
        terms = []
        for (r, s), form in sorted(cochain.components.items()):
            ev = form.fn  # WordSumEvaluator
            terms.append(
                {
                    "bidegree": [r, s],
                    "terms": words_to_json(args.n, list(ev.words)),
                }
            )
        with open(args.export_terms, "w") as fh:
            json.dump(terms, fh)


def run_verify_generator(args, report: Report, rng) -> None:
    from .euler import builtin_cocycle, euler_component

    builtin = {2: builtin_cocycle(2), 4: builtin_cocycle(4), 6: builtin_cocycle(6)}
    pairs = [(p, q) for p in range(1, args.p_rank + 1) for q in range(p)]
    for p, q in pairs:
        n = 2 * p
        key = (p - q, p + q)
        gen = euler_component(p, q)
        built = builtin[n].components[key]
        worst = 0.0
        for _ in range(args.samples):
            point = _haar_sampler(n)(key[0], rng)
            frames = tuple(random_frame(key[0], n, rng) for _ in range(key[1]))
            a = gen.fn(point, frames)
            b = built.fn(point, frames)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
        report.add(f"generator vs transcription (p={p}, q={q})", worst, args.tol)


def run_pfaffian(args, report: Report, rng) -> None:
    from .euler import euler_pfaffian
    from .matgroup import adjoint

    n = args.n
    p = n // 2
    worst_det = 0.0
    worst_inv = 0.0
    for _ in range(args.trials):
        a = random_skew(n, rng)
        pf_a = euler_pfaffian(a)
        pf = (2 * np.pi) ** p * pf_a
        det = np.linalg.det(a)
        worst_det = max(worst_det, abs(pf**2 - det) / max(abs(det), 1e-300))
        g = sample_haar(n, rng)
        pf2 = euler_pfaffian(adjoint(g, a))
        worst_inv = max(worst_inv, abs(pf2 - pf_a) / max(abs(pf_a), 1e-300))
    report.add("pfaffian^2 = det (relative)", worst_det, args.tol)
    report.add("conjugation invariance (relative)", worst_inv, 1e-10)


def run_euler_number(args, report: Report, rng) -> None:
    from .euler import clutching_euler_number

    value = clutching_euler_number(args.winding, steps=args.steps)
    report.add(f"winding {args.winding}", abs(value - args.winding), args.tol)
    report.extra["euler_number"] = value
    print(f"euler number for winding {args.winding}: {value:.12f}")


def run_transgress(args, report: Report, rng) -> None:
    from .transgression import local_cochain, quadrature_drift, truncated_cocycle_residuals

    if args.radius >= np.pi:
        raise DomainError(f"--radius {args.radius:g} is not below pi")
    r0, r1 = truncated_cocycle_residuals(
        local_cochain(quad_order=args.quad_order),
        samples=args.samples,
        radius=args.radius,
        rng=rng,
    )
    drift = quadrature_drift(radius=args.radius, quad_order=args.quad_order, rng=rng)
    report.add("degree-0 residual (d' eta0)", r0, args.tol)
    report.add("degree-1 residual (d' eta1 + d'' eta0)", r1, args.tol)
    report.add("quadrature order-doubling drift", drift, 1e-6)


def run_loop_cocycle(args, report: Report, rng) -> None:
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

    worst = 0.0
    for _ in range(args.trials):
        z, a, b = (random_skew(4, rng) for _ in range(3))
        worst = max(worst, abs(pf_pairing(z @ a - a @ z, b) + pf_pairing(a, z @ b - b @ z)))
    report.add("pairing ad-invariance", worst, 1e-12)

    worst = 0.0
    for _ in range(args.trials):
        triple = [random_loop(4, args.max_freq, rng) for _ in range(3)]
        worst = max(worst, abs(cocycle_residual(*triple)))
    report.add("cocycle residual", worst, 1e-10)

    x = np.zeros((4, 4))
    x[0, 1], x[1, 0], x[2, 3], x[3, 2] = 1, -1, 1, -1
    zero = np.zeros((4, 4))
    xi1 = loop_element(zero, [x], [zero])
    xi2 = loop_element(zero, [zero], [x])
    val = loop_cocycle(xi1, xi2)
    report.add("worked example = 1/(8 pi)", abs(val - 1 / (8 * np.pi)), 1e-12)

    xa = random_loop(4, 1, rng, norm=0.8)
    xb = random_loop(4, 1, rng, norm=0.8)
    mixed = mixed_partial(lambda a, b: level2_loop_functional(a, xa, b, xb))
    report.add(
        "level-2 functional mixed partial vs closed form",
        abs(mixed - closed_form_mixed_partial(xa, xb)),
        args.tol,
    )

    phi_a = antisymmetrized_mixed_partial(
        lambda ya, xia, yb, xib: level1_loop_functional(ya, xia, yb, xib), xa, xb
    )
    report.add("phi of the level-1 functional", abs(phi_a), args.tol)
    report.extra["phi_a_explicit"] = phi_a

    phi_b = antisymmetrized_mixed_partial(
        lambda ya, xia, yb, xib: level2_loop_functional(ya, xia, yb, xib), xa, xb
    )
    alpha_val = loop_cocycle(xa, xb)
    report.add("phi(a + b) vs alpha", abs(phi_a + phi_b - alpha_val), args.tol)


def run_structure_tests(args, report: Report, rng) -> None:
    from .forms import FormEvaluator, exterior_derivative, generator_value, lmc, rmc
    from .nerve import d_prime, d_second, face_point, face_pushforward

    n = args.n

    def entry_form(gen, aa, bb, level=1):
        return FormEvaluator(level, 1, lambda p, v: float(generator_value(gen, p, v[0])[aa, bb]))

    worst_left = 0.0
    worst_right = 0.0
    for _ in range(args.samples):
        point = _haar_sampler(n)(1, rng)
        xf = random_frame(1, n, rng)
        yf = random_frame(1, n, rng)
        cx = xf.components[0]
        cy = yf.components[0]
        comm = cx @ cy - cy @ cx
        h = point.components[0]
        kx, ky = h @ cx @ h.T, h @ cy @ h.T
        comm_r = kx @ ky - ky @ kx
        for aa in range(n):
            for bb in range(n):
                dth = exterior_derivative(entry_form(lmc(1), aa, bb))
                worst_left = max(worst_left, abs(dth.fn(point, (xf, yf)) + comm[aa, bb]))
                dk = exterior_derivative(entry_form(rmc(1), aa, bb))
                worst_right = max(worst_right, abs(dk.fn(point, (xf, yf)) - comm_r[aa, bb]))
    report.add("Maurer-Cartan (left)", worst_left, 1e-7)
    report.add("Maurer-Cartan (right)", worst_right, 1e-7)

    # d o d on a generator entry at near-identity points
    worst = 0.0
    for _ in range(args.samples):
        point = nerve_point([sample_near_identity(n, 0.2, rng)], n=n)
        frames = tuple(random_frame(1, n, rng) for _ in range(3))
        ddo = exterior_derivative(exterior_derivative(entry_form(rmc(1), 0, 1)))
        worst = max(worst, abs(ddo.fn(point, frames)))
    report.add("d o d", worst, 1e-5)

    # simplicial identities on points and pushforwards
    worst_pt = 0.0
    worst_push = 0.0
    q = 3
    for _ in range(args.samples):
        point = _haar_sampler(n)(q, rng)
        frame = random_frame(q, n, rng)
        for j in range(1, q + 1):
            for i in range(j):
                p1 = face_point(i, q - 1, face_point(j, q, point))
                p2 = face_point(j - 1, q - 1, face_point(i, q, point))
                worst_pt = max(
                    worst_pt,
                    max(
                        float(np.max(np.abs(a - b)))
                        for a, b in zip(p1.components, p2.components)
                    ),
                )
                v1 = face_pushforward(i, q - 1, face_point(j, q, point),
                                      face_pushforward(j, q, point, frame))
                v2 = face_pushforward(j - 1, q - 1, face_point(i, q, point),
                                      face_pushforward(i, q, point, frame))
                worst_push = max(
                    worst_push,
                    max(
                        float(np.max(np.abs(a - b)))
                        for a, b in zip(v1.components, v2.components)
                    ),
                )
    report.add("simplicial identities (points)", worst_pt, 1e-12)
    report.add("simplicial identities (pushforwards)", worst_push, 1e-12)

    # exact pushforward vs finite differences
    worst = 0.0
    step = 1e-5
    for _ in range(args.samples):
        point = _haar_sampler(n)(2, rng)
        frame = random_frame(2, n, rng)
        exact = face_pushforward(1, 2, point, frame)
        hp = nerve_point(
            [h @ exp_alg(step * xi) for h, xi in zip(point.components, frame.components)], n=n
        )
        hm = nerve_point(
            [h @ exp_alg(-step * xi) for h, xi in zip(point.components, frame.components)], n=n
        )
        fp = face_point(1, 2, hp)
        fm = face_point(1, 2, hm)
        base = face_point(1, 2, point)
        fd = trivialized_difference(
            base.components[0], fp.components[0], fm.components[0], step
        )
        worst = max(worst, float(np.max(np.abs(fd - exact.components[0]))))
    report.add("face pushforward vs finite differences", worst, 1e-8)

    # d' o d' = 0 on a 0-form (matrix-trace based) and a 1-form
    worst = 0.0
    m_fixed = random_skew(n, rng)
    f0 = FormEvaluator(1, 0, lambda p, v: float(np.trace(m_fixed @ p.components[0])))
    ddp = d_prime(d_prime(f0))
    for _ in range(args.samples):
        point = _haar_sampler(n)(3, rng)
        worst = max(worst, abs(ddp.fn(point, ())))
    omega1 = entry_form(rmc(1), 0, 1)
    ddp1 = d_prime(d_prime(omega1))
    for _ in range(args.samples):
        point = _haar_sampler(n)(3, rng)
        frame = (random_frame(3, n, rng),)
        worst = max(worst, abs(ddp1.fn(point, frame)))
    report.add("d' o d'", worst, 1e-9)

    # anticommutation d' d'' + d'' d'
    worst = 0.0
    for _ in range(args.samples):
        point = _haar_sampler(n)(2, rng)
        frames = tuple(random_frame(2, n, rng) for _ in range(2))
        anti = d_second(d_prime(omega1))
        comm = d_prime(d_second(omega1))
        worst = max(worst, abs(anti.fn(point, frames) + comm.fn(point, frames)))
    report.add("d' d'' + d'' d'", worst, 1e-5)


SUITES = {
    "verify-euler": run_verify_euler,
    "verify-generator": run_verify_generator,
    "pfaffian": run_pfaffian,
    "euler-number": run_euler_number,
    "transgress": run_transgress,
    "loop-cocycle": run_loop_cocycle,
    "structure-tests": run_structure_tests,
}


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    if not argv:
        parser.print_help()
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.subcommand is None:
        parser.print_help()
        return 2

    try:
        seed = _seed_of(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    rng = np.random.default_rng(seed)
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("subcommand", "out")}
    config["seed"] = seed
    report = Report(subcommand=args.subcommand, config=config)

    start = time.time()
    try:
        SUITES[args.subcommand](args, report, rng)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2

    wall = time.time() - start
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: residual {check.max_residual:.3e} "
              f"(tol {check.tolerance:g})")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_json(wall), fh, indent=2, sort_keys=True)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
