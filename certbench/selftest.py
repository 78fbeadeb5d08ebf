"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q certbench/selftest.py
"""

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy is imported)

run.load_program()

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def report_dir():
    with tempfile.TemporaryDirectory(prefix=".certbench-", dir=run.ROOT) as d:
        yield d


def residuals(checks):
    return [(c.name, c.residual) for c in checks]


def test_self_time_subtracts_direct_children():
    # outer 0..10 holds inner 1..4 and rec 5..9; rec holds rec 6..8
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    inner = tr.span("inner", lambda: None)
    rec = tr.span("rec", lambda depth: rec(depth - 1) if depth else None)

    def body():
        inner()
        rec(1)

    tr.span("outer", body)()
    assert tr.summary() == {
        "inner": {"calls": 1, "self_s": 3.0},
        "rec": {"calls": 2, "self_s": 4.0},
        "outer": {"calls": 1, "self_s": 3.0},
    }
    assert tr.span_count == 4


def test_margin_is_smallest_mean_over_certificates():
    c = workloads.Check
    certificates = [
        [c("a", 1e-12, 1e-10), c("b", 1e-9, 1e-4), c("zero", 0.0, 0.5)],
        [c("a", 1e-14, 1e-10), c("b", 1e-8, 1e-4), c("zero", 0.0, 0.5)],
    ]
    # a: mean(2, 4) = 3; b: mean(5, 4) = 4.5; an exact zero has no margin
    assert run.margin_decades(certificates) == pytest.approx(3.0)


@pytest.fixture(scope="module")
def traced_pair(report_dir):
    wl = workloads.WORKLOADS["cocycle-so6"]
    wl.warm_up()
    return [run.run_traced(wl, 7, report_dir) for _ in range(2)]


def test_traced_runs_repeat_residuals_and_counts(traced_pair):
    counts = []
    for plain, traced, _, _, _, inst in traced_pair:
        assert all(c.passed for c in plain)
        assert residuals(traced) == residuals(plain)
        metrics = layers.layer_metrics(inst)
        assert not inst.tracer.warnings
        counts.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")})
    assert residuals(traced_pair[0][0]) == residuals(traced_pair[1][0])
    assert counts[0] == counts[1]
    assert counts[0]["forms.word_contract.calls"] > 0


def test_different_seed_changes_inputs(traced_pair, report_dir):
    assert workloads.input_seed(7, 0) != workloads.input_seed(8, 0)
    assert workloads.input_seed(7, 0) != workloads.input_seed(7, 1)
    other = workloads.WORKLOADS["cocycle-so6"].certify(workloads.input_seed(8, 0), report_dir)
    seven = residuals(traced_pair[0][0])
    assert [name for name, _ in residuals(other)] == [name for name, _ in seven]
    assert residuals(other) != seven


@pytest.mark.parametrize("trace", ["0", "1"])
def test_check_above_tolerance_fails_the_run(trace, monkeypatch, capsys):
    from eulernerve import loopcocycle

    wl = workloads.WORKLOADS["loop-so4"]
    monkeypatch.setitem(workloads.WORKLOADS, "loop-so4", dataclasses.replace(wl, margin_reps=1))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    # ten times the suite's 1e-10 gate
    monkeypatch.setattr(loopcocycle, "cocycle_residual", lambda *loops: 1e-9)
    code = run.main(["--workload", "loop-so4", "--seed", "0", "--seconds", "0.1",
                     "--trace", trace])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    if trace == "1":
        assert result["metrics"]["fail_share"]["value"] == result["failed"] / result["attempted"]


def test_missing_target_gives_absent_metric_and_warning():
    targets = [t for t in layers.TARGETS if t[0] != "transgression.level_map"]
    targets.append(("transgression.level_map", "eulernerve.transgression", "renamed_map", "call"))
    tr = tracing.Tracer()
    try:
        inst = layers.Instrumentation(tr).install(targets)
    finally:
        tr.restore()
    metrics = layers.layer_metrics(inst)
    assert any("renamed_map" in w for w in tr.warnings)
    assert "transgression.level_map.calls" not in metrics
    assert "transgression.level_maps_per_node" not in metrics
    assert "matgroup.log_grp.calls" in metrics


def test_benchmark_json_matches_the_runner():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, unit, _ in layers.METRICS
    ]
