"""The certificate workloads and the checks each one gates on.

A certificate is one fixed-size run of a workload's identities on inputs
drawn from one seed.  ``cocycle-so6`` and ``transgress-so4`` go through the
CLI's ``main(argv)`` with the CLI's default tolerances and read its JSON
report; ``loop-so4`` calls the public ``loopcocycle`` functions with the
loop-cocycle suite's tolerances, at a reduced theta / t quadrature.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Check:
    """One gated identity: passes when residual < tolerance, as in the CLI."""

    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


@dataclass(frozen=True)
class Workload:
    name: str
    # certify(input_seed, report_dir) -> checks of one certificate
    certify: Callable[[int, str], list[Check]]
    # builds the caches a certificate uses: imports, cochains, tables, rules
    warm_up: Callable[[], None]
    # margin_decades averages over this many certificates; the timed phase
    # runs at least this many
    margin_reps: int


def input_seed(seed: int, rep: int) -> int:
    """Seed of the rep-th certificate of a run; every certificate gets new inputs."""
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def _warm(module: str, name: str, *args) -> None:
    """Call eulernerve.<module>.<name>(*args) if it still exists."""
    fn = getattr(importlib.import_module(f"eulernerve.{module}"), name, None)
    if fn is None:
        print(f"certbench: warning: eulernerve.{module}.{name} not found; "
              "not warmed up", file=sys.stderr)
        return
    fn(*args)


def cli_checks(argv: list[str], report_dir: str) -> list[Check]:
    """Run one CLI suite through ``main(argv)`` and read its gated checks."""
    from eulernerve import cli

    path = os.path.join(report_dir, "report.json")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--out", path])
    suite = argv[0]
    try:
        with open(path) as fh:
            report = json.load(fh)
        os.remove(path)
    except FileNotFoundError:
        report = {"checks": []}
    checks = [
        Check(f"{suite}: {c['name']}", float(c["max_residual"]), float(c["tolerance"]))
        for c in report["checks"]
    ]
    if code != 0 and all(c.passed for c in checks):
        # a suite that stopped without a failed check (usage or domain error)
        checks.append(Check(f"{suite}: exit code", float(code), 0.5))
    return checks


# -- cocycle-so6 -------------------------------------------------------------

EULER_SAMPLES = 4
GENERATOR_SAMPLES = 10


def certify_cocycle_so6(seed: int, report_dir: str) -> list[Check]:
    s = str(seed)
    return cli_checks(
        ["verify-euler", "--n", "6", "--samples", str(EULER_SAMPLES), "--seed", s], report_dir
    ) + cli_checks(
        ["verify-generator", "--p", "3", "--samples", str(GENERATOR_SAMPLES), "--seed", s],
        report_dir,
    )


def warm_cocycle_so6() -> None:
    import eulernerve.cli  # noqa: F401

    for n in (2, 4, 6):
        _warm("euler", "builtin_cocycle", n)
    for p in (1, 2, 3):
        _warm("euler", "generated_cocycle", p)


# -- transgress-so4 ----------------------------------------------------------

TRANSGRESS_RADIUS = 0.1
TRANSGRESS_ORDER = 8


def certify_transgress_so4(seed: int, report_dir: str) -> list[Check]:
    argv = ["transgress", "--samples", "1", "--radius", str(TRANSGRESS_RADIUS),
            "--quad-order", str(TRANSGRESS_ORDER), "--seed", str(seed)]
    return cli_checks(argv, report_dir)


def warm_transgress_so4() -> None:
    import eulernerve.cli  # noqa: F401
    import eulernerve.transgression  # noqa: F401

    _warm("euler", "builtin_cocycle", 4)
    # fiber dimensions 1..3 at the suite's order, and the doubled order of
    # the drift check
    for q, order in ((1, TRANSGRESS_ORDER), (2, TRANSGRESS_ORDER), (3, TRANSGRESS_ORDER),
                     (1, 2 * TRANSGRESS_ORDER)):
        _warm("simplex", "quadrature_rule", q, order)


# -- loop-so4 ----------------------------------------------------------------

LOOP_TRIPLES = 20  # the loop-cocycle suite's default trial count
LOOP_MAX_FREQ = 3
# Reduced from the suite's 64 theta nodes x order 8: the mixed partials at
# y = 0 only see low-degree trigonometric terms, and both residuals read the
# same at 8 x 2, 16 x 4 and 64 x 8.
LEVEL2_THETA_NODES, LEVEL2_T_ORDER = 16, 4
PHI_THETA_NODES, PHI_T_ORDER = 8, 4
STENCIL_STEP = 1e-3
# the loop-cocycle suite's gates
COCYCLE_TOL = 1e-10
LOOP_TOL = 1e-4


def certify_loop_so4(seed: int, report_dir: str) -> list[Check]:
    from eulernerve import loopcocycle as lc

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(LOOP_TRIPLES):
        triple = [lc.random_loop(4, LOOP_MAX_FREQ, rng) for _ in range(3)]
        worst = max(worst, abs(lc.cocycle_residual(*triple)))

    xa = lc.random_loop(4, 1, rng, norm=0.8)
    xb = lc.random_loop(4, 1, rng, norm=0.8)
    # fourth-order stencil in each variable, as the loop-cocycle suite takes
    # the level-2 mixed partial
    step = STENCIL_STEP
    offsets = (-2 * step, -step, step, 2 * step)
    weights = (1.0, -8.0, 8.0, -1.0)
    mixed = 0.0
    for oa, wa in zip(offsets, weights):
        for ob, wb in zip(offsets, weights):
            mixed += wa * wb * lc.level2_loop_functional(
                oa, xa, ob, xb, theta_nodes=LEVEL2_THETA_NODES, t_order=LEVEL2_T_ORDER
            )
    mixed /= (12 * step) ** 2

    phi = lc.antisymmetrized_mixed_partial(
        lambda ya, xia, yb, xib: lc.level1_loop_functional(
            ya, xia, yb, xib, theta_nodes=PHI_THETA_NODES, t_order=PHI_T_ORDER
        ),
        xa,
        xb,
    )
    return [
        Check("loop: cocycle residual", worst, COCYCLE_TOL),
        Check("loop: level-2 mixed partial vs closed form",
              abs(mixed - lc.closed_form_mixed_partial(xa, xb)), LOOP_TOL),
        Check("loop: phi of the level-1 functional", abs(phi), LOOP_TOL),
    ]


def warm_loop_so4() -> None:
    import eulernerve.loopcocycle  # noqa: F401

    _warm("euler", "builtin_cocycle", 4)
    _warm("simplex", "quadrature_rule", 1, LEVEL2_T_ORDER)
    _warm("simplex", "quadrature_rule", 2, PHI_T_ORDER)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cocycle-so6", certify_cocycle_so6, warm_cocycle_so6, margin_reps=12),
        Workload("transgress-so4", certify_transgress_so4, warm_transgress_so4, margin_reps=3),
        Workload("loop-so4", certify_loop_so4, warm_loop_so4, margin_reps=3),
    )
}
