import json

import pytest
from residual_hex import CONFIGS
from test_checks import NAMES, argv_id

from eulernerve.checks import SUITES
from eulernerve.cli import SCHEMA_VERSION, main

TRANSGRESS = ["transgress", "--samples", "1", "--quad-order", "2", "--seed", "3"]

# arguments outside what a suite accepts, and the option the message names
BAD_ARGUMENTS = [
    (["structure-tests", "--workers", "2"], "--workers"),
    (["verify-generator", "--p", "4"], "--p"),
    (["euler-number", "--steps", "10"], "--steps"),
    (["pfaffian", "--samples", "3"], "--samples"),
    (["euler-number", "--samples", "3"], "--samples"),
    (["loop-cocycle", "--samples", "3"], "--samples"),
    (["verify-euler", "--fd-step", "1e-3"], "--fd-step"),
    (["transgress", "--radius", "nan", "--samples", "1", "--quad-order", "2"], "--radius"),
    (["pfaffian", "--n", "4", "--trials", "2", "--tol", "inf"], "--tol"),
    (["pfaffian", "--n", "4", "--trials", "2", "--tol", "nan"], "--tol"),
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


def test_verify_euler_exports_terms(tmp_path):
    path = tmp_path / "terms.json"
    code, _ = run_report(
        ["verify-euler", "--n", "4", "--samples", "1", "--export-terms", str(path)],
        tmp_path / "report.json",
    )
    assert code == 0
    with open(path) as fh:
        exported = json.load(fh)
    assert [c["bidegree"] for c in exported] == [[1, 3], [2, 2]]
    for component in exported:
        # 2 words x |S_4| expanded terms
        assert len(component["terms"]) == 48
        for term in component["terms"]:
            for factor in term["factors"]:
                gens = [factor[key] for key in ("generator", "second") if key in factor]
                assert all(len(g) == 1 and g[0]["coeff"] == 1.0 for g in gens)
