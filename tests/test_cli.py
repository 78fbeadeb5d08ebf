import json

import pytest

from eulernerve.cli import SCHEMA_VERSION, SUITES, main

TRANSGRESS = ["transgress", "--samples", "1", "--quad-order", "2", "--seed", "3"]

STRUCTURE_CHECKS = [
    "Maurer-Cartan (left)", "Maurer-Cartan (right)", "d o d",
    "simplicial identities (points)", "simplicial identities (pushforwards)",
    "face pushforward vs finite differences", "d' o d'", "d' d'' + d'' d'",
]
FAST_SUITES = [
    (["verify-euler", "--n", "2"],
     ["total-cocycle residual at (1,2)", "total-cocycle residual at (2,1)",
      "unique sign assignment"]),
    (["verify-euler", "--n", "4"],
     ["total-cocycle residual at (1,4)", "total-cocycle residual at (2,3)",
      "total-cocycle residual at (3,2)", "unique sign assignment"]),
    (["verify-euler", "--n", "6", "--samples", "1"],
     ["total-cocycle residual at (1,6)", "total-cocycle residual at (2,5)",
      "total-cocycle residual at (3,4)", "total-cocycle residual at (4,3)",
      "unique sign assignment"]),
    (["verify-generator", "--p", "2"],
     ["generator vs transcription (p=1, q=0)", "generator vs transcription (p=2, q=0)",
      "generator vs transcription (p=2, q=1)"]),
    (["verify-generator", "--p", "3", "--samples", "2"],
     [f"generator vs transcription (p={p}, q={q})" for p in (1, 2, 3) for q in range(p)]),
    (["pfaffian", "--n", "4", "--trials", "5"],
     ["pfaffian^2 = det (relative)", "conjugation invariance (relative)"]),
    (["pfaffian", "--n", "6", "--trials", "5"],
     ["pfaffian^2 = det (relative)", "conjugation invariance (relative)"]),
    (["euler-number"], ["winding 2"]),
    (["structure-tests", "--n", "2", "--samples", "1"], STRUCTURE_CHECKS),
    (["structure-tests", "--n", "4", "--samples", "1"], STRUCTURE_CHECKS),
    (["structure-tests", "--n", "6", "--samples", "1"], STRUCTURE_CHECKS),
]
# Suites with no case above, and why.  TRANSGRESS covers transgress.
SLOW_SUITES = {
    "loop-cocycle": "about 100 s per run until its loop functionals are batched",
}
# arguments outside what a suite accepts, and the option the message names
BAD_ARGUMENTS = [
    (["structure-tests", "--workers", "2"], "--workers"),
    (["verify-generator", "--p", "4"], "--p"),
    (["euler-number", "--steps", "10"], "--steps"),
    (["pfaffian", "--samples", "3"], "--samples"),
    (["euler-number", "--samples", "3"], "--samples"),
    (["loop-cocycle", "--samples", "3"], "--samples"),
    (["verify-euler", "--fd-step", "1e-3"], "--fd-step"),
]


def argv_id(cases):
    return ["_".join(arg.lstrip("-") for arg in argv) for argv, _ in cases]


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
    covered = {argv[0] for argv, _ in FAST_SUITES} | {TRANSGRESS[0]}
    assert covered | set(SLOW_SUITES) == set(SUITES)
    assert not covered & set(SLOW_SUITES)


@pytest.mark.parametrize("argv, names", FAST_SUITES, ids=argv_id(FAST_SUITES))
def test_fast_suites_pass(argv, names, tmp_path):
    code, report = run_report(argv, tmp_path / "report.json")
    assert code == 0
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["pass"] is True
    assert [c["name"] for c in report["checks"]] == names


def test_failed_check_exits_1(tmp_path):
    code, report = run_report(
        ["pfaffian", "--n", "4", "--trials", "2", "--tol", "1e-300"], tmp_path / "report.json"
    )
    assert code == 1
    assert report["pass"] is False


@pytest.mark.parametrize("argv, option", BAD_ARGUMENTS, ids=argv_id(BAD_ARGUMENTS))
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
