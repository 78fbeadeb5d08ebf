"""Certifier benchmark for eulernerve.

Usage (from the repository root):

    python3 certbench/run.py --workload cocycle-so6 --seed 0 --seconds 36 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: set-up time in
fresh interpreters, then certificates on new inputs from the seed for about
``--seconds`` seconds.  With ``--trace 1`` it runs one certificate untraced
and the same certificate traced, and reports the per-layer metrics.  Either
way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, the versions, the seed and per-check detail.  The exit
code is 0 when every gated check passed, 1 when one failed and 2 when the
benchmark could not run.
"""

import os

# one BLAS thread, pinned before numpy is imported: the program's matrices
# are 2 x 2 to 6 x 6, where threads only add overhead
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "margin_decades": "log10"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def load_program() -> None:
    """Put the checkout's ``src`` first on sys.path and import eulernerve from it."""
    if not (SRC / "eulernerve" / "__init__.py").is_file():
        raise BenchError(f"no eulernerve sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eulernerve

    if SRC.resolve() not in Path(eulernerve.__file__).resolve().parents:
        raise BenchError(f"eulernerve was imported from {eulernerve.__file__}, not {SRC}")


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
    }


def cold_setup_seconds(workload: str) -> float:
    """Set-up time of one fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(SRC)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def decades(check) -> float | None:
    """log10(tolerance / residual).

    None for an exact zero residual, which has no margin; -99 for a NaN or
    infinite residual, which has failed.
    """
    if check.residual == 0:
        return None
    if not (math.isfinite(check.residual) and check.residual > 0):
        return -99.0
    return math.log10(check.tolerance / check.residual)


def margin_decades(certificates) -> float:
    """Smallest, over the gated checks, of the check's mean margin in decades.

    The mean runs over the given certificates.  A single certificate's worst
    relative residual is heavy-tailed in the seed (a sampled value near
    zero), so one certificate alone would make the metric swing by most
    of a decade between seeds.
    """
    per_check: dict[str, list[float]] = {}
    for checks in certificates:
        for c in checks:
            d = decades(c)
            if d is not None:
                per_check.setdefault(c.name, []).append(d)
    return min(statistics.fmean(v) for v in per_check.values())


def run_timed(wl, seed: int, seconds: float, report_dir: str):
    """Certificates on new inputs until ``seconds`` would be exceeded.

    At least ``wl.margin_reps`` run, whatever the time, so margin_decades
    always covers the same inputs.  Returns [(wall seconds, checks)].
    """
    reps = []
    start = time.perf_counter()
    while True:
        if len(reps) >= wl.margin_reps:
            typical = statistics.median(t for t, _ in reps)
            if time.perf_counter() - start + typical > seconds:
                break
        seed_k = workloads.input_seed(seed, len(reps))
        t0 = time.perf_counter()
        checks = wl.certify(seed_k, report_dir)
        reps.append((time.perf_counter() - t0, checks))
    return reps


def run_traced(wl, seed: int, report_dir: str):
    """One certificate untraced, then the same one traced.

    Returns (untraced checks, traced checks, untraced s, traced s, traced
    CPU s, instrumentation).
    """
    seed_0 = workloads.input_seed(seed, 0)
    t0 = time.perf_counter()
    plain = wl.certify(seed_0, report_dir)
    plain_s = time.perf_counter() - t0

    tracer = tracing.Tracer()
    try:
        inst = layers.Instrumentation(tracer).install()
        c0, t0 = time.process_time(), time.perf_counter()
        traced = wl.certify(seed_0, report_dir)
        traced_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    finally:
        tracer.restore()
    return plain, traced, plain_s, traced_s, cpu_s, inst


def check_detail(certificates) -> dict:
    out: dict[str, dict] = {}
    for checks in certificates:
        for c in checks:
            rec = out.setdefault(c.name, {"tolerance": c.tolerance, "worst_residual": 0.0,
                                          "failed": 0})
            rec["worst_residual"] = max(rec["worst_residual"], c.residual)
            rec["failed"] += not c.passed
    return out


def end_to_end(wl, seed: int, seconds: float, detail: dict):
    """Set-up probes, warm-up and the timed phase; returns (certificates, metrics)."""
    setups = [cold_setup_seconds(wl.name) for _ in range(SETUP_REPEATS)]
    wl.warm_up()
    with tempfile.TemporaryDirectory(prefix=".certbench-", dir=ROOT) as report_dir:
        reps = run_timed(wl, seed, seconds, report_dir)
    certificates = [checks for _, checks in reps]
    times = [t for t, _ in reps]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(times),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "margin_decades": margin_decades(certificates[: wl.margin_reps]),
    }
    detail.update(certificates=len(reps), wall_s_all=times, setup_s_all=setups)
    return certificates, {name: (values[name], unit) for name, unit in E2E_UNITS.items()}


def per_layer(wl, seed: int, detail: dict):
    """Warm-up, then one certificate untraced and traced; returns (certificates, metrics)."""
    wl.warm_up()
    with tempfile.TemporaryDirectory(prefix=".certbench-", dir=ROOT) as report_dir:
        plain, traced, plain_s, traced_s, cpu_s, inst = run_traced(wl, seed, report_dir)
    metrics = layers.layer_metrics(inst)
    metrics["process.cpu_s"] = (cpu_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    # tracing must not change a single residual
    repeat = [(c.name, c.residual) for c in plain] == [(c.name, c.residual) for c in traced]
    detail.update(untraced_s=plain_s, traced_s=traced_s, spans=inst.tracer.span_count,
                  warnings=inst.tracer.warnings, span_summary=inst.tracer.summary(),
                  traced_residuals_repeat=repeat)
    if not repeat:
        print("certbench: tracing changed a residual", file=sys.stderr)
    return [plain, traced], metrics


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result line, detail line, exit code)."""
    wl = workloads.WORKLOADS[workload]
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine_info()}
    if trace:
        certificates, metrics = per_layer(wl, seed, detail)
        correct = detail["traced_residuals_repeat"]
    else:
        certificates, metrics = end_to_end(wl, seed, seconds, detail)
        correct = True
    attempted = sum(len(checks) for checks in certificates)
    failed = sum(not c.passed for checks in certificates for c in checks)
    if trace:
        metrics["fail_share"] = (failed / attempted, "ratio")
    detail.update(fail_share=failed / attempted, checks=check_detail(certificates))
    correct = correct and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, detail, 0 if correct else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="certbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
        result, detail, code = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"certbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
