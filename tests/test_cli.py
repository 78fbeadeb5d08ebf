import json

from eulernerve.cli import SCHEMA_VERSION, main

TRANSGRESS = ["transgress", "--samples", "1", "--quad-order", "2", "--seed", "3"]


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
