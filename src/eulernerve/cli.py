"""Batch verification front-end.

One subcommand per verification suite.  The parser, the seed handling and
the JSON report live here; the checks a suite runs are the entries of
``checks.SUITES``, run in order on one generator seeded from ``--seed`` (or
NERVE_EULER_SEED), so every run is deterministic given the seed.  Exit code 0
when every check in the suite passes, 1 on a failed check, 2 on usage or
domain errors and on a report that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import __version__
from .checks import SUITES, Check
from .matgroup import DomainError

SCHEMA_VERSION = 1


@dataclass
class Report:
    subcommand: str
    config: dict
    checks: list[Check] = field(default_factory=list)

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
            **{k: v for c in self.checks for k, v in c.extra.items()},
            "pass": self.passed,
            "wall_time_s": wall_time,
        }


def _positive(kind):
    def parse(text):
        value = kind(text)
        if not (value > 0 and math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"expected a finite positive value, got {text}")
        return value

    # argparse names the type function in "invalid <name> value: ..."
    parse.__name__ = kind.__name__
    return parse


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every suite, built once per process: parsing leaves it
    as it was, so ``main`` can run any number of times."""
    parser = argparse.ArgumentParser(
        prog="eulernerve",
        description="Numerical verification suites for the Euler cochains on the nerve of SO(2p).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand")

    def common(p, samples=None, tol=None):
        # a suite that reads no sample count gets no --samples, and one
        # whose checks all fix their own tolerances gets no --tol
        if samples is not None:
            p.add_argument("--samples", type=_positive(int), default=samples)
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: env NERVE_EULER_SEED or 0)")
        if tol is not None:
            p.add_argument("--tol", type=_positive(float), default=tol)
        p.add_argument("--out", type=str, default=None, help="JSON report path")

    p = sub.add_parser("verify-euler", help="total-cocycle residuals of the built-in cochains")
    p.add_argument("--n", type=int, choices=(2, 4, 6), default=4)
    common(p, samples=20, tol=1e-5)

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
    common(p, samples=5)

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

    start = time.perf_counter()
    try:
        for entry in SUITES[args.subcommand]:
            report.checks += entry(args, rng)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2

    wall = time.perf_counter() - start
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: residual {check.max_residual:.3e} "
              f"(tol {check.tolerance:g})")
    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump(report.to_json(wall), fh, indent=2, sort_keys=True)
        except OSError as exc:
            print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
            return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
