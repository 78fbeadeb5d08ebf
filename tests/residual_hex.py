"""Print float.hex() of every check residual for a fixed table of CLI runs.

    PYTHONPATH=src python tests/residual_hex.py > new.txt

Each line reads ``argv | seed | check name | float.hex(max_residual)``; a
report that carries the total-cocycle sign audit adds one line for each of
its fields, ``argv | seed | sign_assignment | <json>`` and ``argv | seed |
consistent_assignments | <count>``.  The script reads only ``cli.main`` and
the JSON report, so running it against an older tree (``PYTHONPATH=<old
tree>/src``) and diffing the two outputs shows every residual and audit
result that a change moved, bit for bit.

``CONFIGS`` is also the table that ``tests/test_checks.py`` and
``tests/test_cli.py`` run; each is printed at seeds 0-2.  ``SEED0_CONFIGS``
(two benchmark certificates and the whole loop suite) are printed at seed 0
only; the third benchmark certificate, ``verify-generator --p 3 --samples
10``, is in ``CONFIGS``.  ``SEEDED_RUNS`` are (argv, seed) pairs printed at
their own seed: the two ``verify-generator`` draws where one sample's
transcribed value cancels to about 1e-6 of the component's size.

The ``loop-so4`` benchmark certificate calls the loop functionals at its own
theta / t quadrature (16 x 4 and 8 x 4; the CLI runs only 64 x 8), so its
three residuals are printed too, at seeds 0-2, as ``loop-so4 | seed | check
name | float.hex(residual)``.  They come from ``certify_loop_so4`` in
``certbench/workloads.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

CERTBENCH = Path(__file__).resolve().parents[1] / "certbench"

CONFIGS = [
    ["verify-euler", "--n", "2"],
    ["verify-euler", "--n", "2", "--tol", "1e-9"],
    ["verify-euler", "--n", "4"],
    ["verify-euler", "--n", "6", "--samples", "1"],
    ["verify-generator", "--p", "2"],
    ["verify-generator", "--p", "3", "--samples", "2"],
    ["verify-generator", "--p", "3", "--samples", "10"],
    ["pfaffian", "--n", "2", "--trials", "25"],
    ["pfaffian", "--n", "4", "--trials", "5"],
    ["pfaffian", "--n", "4", "--trials", "25"],
    ["pfaffian", "--n", "6", "--trials", "5"],
    ["pfaffian", "--n", "6", "--trials", "25"],
    ["euler-number"],
    *(["euler-number", "--winding", str(k)] for k in (-3, -2, -1, 1, 3)),
    ["structure-tests", "--n", "2", "--samples", "1"],
    ["structure-tests", "--n", "4", "--samples", "1"],
    ["structure-tests", "--n", "4"],
    ["structure-tests", "--n", "6", "--samples", "1"],
    ["transgress", "--samples", "1", "--quad-order", "2"],
    ["loop-cocycle", "--trials", "20", "--max-freq", "3"],
]
SEEDS = (0, 1, 2)
# report-level fields of the total-cocycle sign audit
AUDIT_KEYS = ("sign_assignment", "consistent_assignments")
SEED0_CONFIGS = [
    ["verify-euler", "--n", "6", "--samples", "4"],
    ["transgress", "--samples", "1", "--radius", "0.1", "--quad-order", "8"],
    ["loop-cocycle", "--trials", "5"],
]
SEEDED_RUNS = [
    (["verify-generator", "--p", "3", "--samples", "10"], seed)
    for seed in (13556049, 2161542497)
]


def residual_lines(argv: list[str], seed: int, report_dir: str) -> list[str]:
    from eulernerve import cli

    path = os.path.join(report_dir, "report.json")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--seed", str(seed), "--out", path])
    label = " ".join(argv)
    if not os.path.exists(path):
        return [f"{label} | {seed} | exit code {code} | no report"]
    with open(path) as fh:
        report = json.load(fh)
    os.remove(path)
    lines = [
        f"{label} | {seed} | {c['name']} | {float(c['max_residual']).hex()}"
        for c in report["checks"]
    ]
    lines += [
        f"{label} | {seed} | {key} | {json.dumps(report[key], sort_keys=True)}"
        for key in AUDIT_KEYS if key in report
    ]
    return lines


def loop_so4_lines(seed: int, report_dir: str) -> list[str]:
    sys.path.insert(0, str(CERTBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(CERTBENCH))
    return [
        f"loop-so4 | {seed} | {c.name} | {float(c.residual).hex()}"
        for c in workloads.certify_loop_so4(seed, report_dir)
    ]


def main() -> int:
    runs = [(argv, seed) for argv in CONFIGS for seed in SEEDS]
    runs += [(argv, 0) for argv in SEED0_CONFIGS]
    runs += SEEDED_RUNS
    with tempfile.TemporaryDirectory() as report_dir:
        for argv, seed in runs:
            for line in residual_lines(argv, seed, report_dir):
                print(line, flush=True)
        for seed in SEEDS:
            for line in loop_so4_lines(seed, report_dir):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
