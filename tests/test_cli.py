import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from residual_hex import CONFIGS
from test_checks import NAMES, argv_id

import eulernerve
from eulernerve.checks import SUITES
from eulernerve.cli import SCHEMA_VERSION, main

TRANSGRESS = ["transgress", "--samples", "1", "--quad-order", "2", "--seed", "3"]

# arguments outside what a suite accepts, and the option the message names
BAD_ARGUMENTS = [
    (["structure-tests", "--workers", "2"], "--workers"),
    (["structure-tests", "--tol", "1e-5"], "--tol"),
    (["verify-generator", "--p", "4"], "--p"),
    (["euler-number", "--steps", "10"], "--steps"),
    (["pfaffian", "--samples", "3"], "--samples"),
    (["euler-number", "--samples", "3"], "--samples"),
    (["loop-cocycle", "--samples", "3"], "--samples"),
    (["verify-euler", "--fd-step", "1e-3"], "--fd-step"),
    (["transgress", "--radius", "nan", "--samples", "1", "--quad-order", "2"], "--radius"),
    (["pfaffian", "--n", "4", "--trials", "2", "--tol", "inf"], "--tol"),
    (["pfaffian", "--n", "4", "--trials", "2", "--tol", "nan"], "--tol"),
    (["verify-euler", "--export-terms", "t.json"], "--export-terms"),
]


def run_report(argv, path):
    code = main([*argv, "--out", str(path)])
    with open(path) as fh:
        return code, json.load(fh)


def test_transgress_report_and_determinism(tmp_path):
    code, first = run_report(TRANSGRESS, tmp_path / "a.json")
    assert code == 0
    assert first["schema_version"] == SCHEMA_VERSION == 1
    assert first["pass"] is True
    assert len(first["checks"]) == 3
    _, second = run_report(TRANSGRESS, tmp_path / "b.json")
    residuals = [[c["max_residual"] for c in r["checks"]] for r in (first, second)]
    assert residuals[0] == residuals[1]


def test_transgress_radius_outside_log_domain_exits_2(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["transgress", "--radius", "4", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "radius" in err
    assert not path.exists()


def test_no_arguments_exits_2(capsys):
    assert main([]) == 2


def test_every_suite_runs_under_test():
    assert {argv[0] for argv in CONFIGS} == set(SUITES)


@pytest.mark.parametrize("argv", CONFIGS, ids=map(argv_id, CONFIGS))
def test_fast_suites_pass(argv, tmp_path):
    code, report = run_report(argv, tmp_path / "report.json")
    assert code == 0
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["pass"] is True
    names = [name for entry in NAMES[" ".join(argv)] for name in entry]
    assert [c["name"] for c in report["checks"]] == names


def test_failed_check_exits_1(tmp_path):
    code, report = run_report(
        ["pfaffian", "--n", "4", "--trials", "2", "--tol", "1e-300"], tmp_path / "report.json"
    )
    assert code == 1
    assert report["pass"] is False


@pytest.mark.parametrize("argv, option", BAD_ARGUMENTS,
                         ids=[argv_id(argv) for argv, _ in BAD_ARGUMENTS])
def test_bad_arguments_exit_2(argv, option, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main([*argv, "--out", str(path)]) == 2
    assert option in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("seed", ["abc", "-3"])
def test_bad_env_seed_exits_2(seed, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("NERVE_EULER_SEED", seed)
    path = tmp_path / "report.json"
    assert main(["euler-number", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and seed in err
    assert not path.exists()


@pytest.mark.parametrize("argv, option", [
    (["pfaffian", "--n", "2", "--trials", "1"], "--out"),
], ids=["report"])
def test_unwritable_path_exits_2(argv, option, tmp_path, capsys):
    # the checks pass; only the file cannot be written
    path = tmp_path / "missing" / "out.json"
    assert main([*argv, option, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["verify-euler", "--samples", "inf"], "invalid int value: 'inf'"),
    (["euler-number", "--steps", "1.5"], "invalid int value: '1.5'"),
    (["transgress", "--radius", "abc"], "invalid float value: 'abc'"),
], ids=["positive-int", "int-at-least", "positive-float"])
def test_bad_value_names_its_type(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


# one run of each suite that reaches exp_alg at n != 4, the quadrature rules,
# the loop algebra and the clutching loop
NO_SCIPY_RUNS = [
    ["verify-euler", "--n", "6", "--samples", "1"],
    ["transgress", "--samples", "1", "--quad-order", "2"],
    ["loop-cocycle", "--trials", "1"],
    ["euler-number"],
]
NO_SCIPY_SCRIPT = f"""
import json, sys
from eulernerve import cli
codes = [cli.main(argv) for argv in {NO_SCIPY_RUNS!r}]
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({{"codes": codes, "scipy": scipy}}))
"""


def test_suites_run_without_scipy():
    # a fresh interpreter, so no other test's scipy import is visible; a
    # RuntimeWarning (a 0/0 in a quadrature rule or an exp) is an error there
    src = str(Path(eulernerve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-W", "error::RuntimeWarning", "-c", NO_SCIPY_SCRIPT]
    proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * len(NO_SCIPY_RUNS), "scipy": []}
