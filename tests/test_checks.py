"""Every registry entry, run on its own at the configurations of residual_hex.

The check names are written out here, not read from the registry, so a
renamed, dropped or reordered check fails a test.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from residual_hex import CONFIGS

import eulernerve
from eulernerve import checks, euler
from eulernerve.checks import SUITES
from eulernerve.cli import build_parser
from eulernerve.forms import WordSumEvaluator, scale_form
from eulernerve.nerve import Cochain

PFAFFIAN = (("pfaffian^2 = det (relative)", "conjugation invariance (relative)"),)
STRUCTURE = (
    ("Maurer-Cartan (left)", "Maurer-Cartan (right)"),
    ("d o d",),
    ("simplicial identities (points)", "simplicial identities (pushforwards)"),
    ("face pushforward vs finite differences",),
    ("d' o d'",),
    ("d' d'' + d'' d'",),
    ("bundle projection pullback of phi_s",
     "bundle projection pushforward vs finite differences"),
)
EULER_2 = (("total-cocycle residual at (1,2)", "total-cocycle residual at (2,1)",
            "unique sign assignment"),)
GENERATOR_3 = (tuple(f"generator vs transcription (p={p}, q={q})"
                     for p in (1, 2, 3) for q in range(p)),)
# per configuration, the names of each entry's checks in registry order
NAMES = {
    "verify-euler --n 2": EULER_2,
    "verify-euler --n 2 --tol 1e-9": EULER_2,
    "verify-euler --n 4": (("total-cocycle residual at (1,4)", "total-cocycle residual at (2,3)",
                            "total-cocycle residual at (3,2)", "unique sign assignment"),),
    "verify-euler --n 6 --samples 1": (
        ("total-cocycle residual at (1,6)", "total-cocycle residual at (2,5)",
         "total-cocycle residual at (3,4)", "total-cocycle residual at (4,3)",
         "unique sign assignment"),),
    "verify-generator --p 2": (("generator vs transcription (p=1, q=0)",
                                "generator vs transcription (p=2, q=0)",
                                "generator vs transcription (p=2, q=1)"),),
    "verify-generator --p 3 --samples 2": GENERATOR_3,
    "verify-generator --p 3 --samples 10": GENERATOR_3,
    "pfaffian --n 2 --trials 25": PFAFFIAN,
    "pfaffian --n 4 --trials 5": PFAFFIAN,
    "pfaffian --n 4 --trials 25": PFAFFIAN,
    "pfaffian --n 6 --trials 5": PFAFFIAN,
    "pfaffian --n 6 --trials 25": PFAFFIAN,
    "euler-number": (("winding 2",),),
    "euler-number --winding -3": (("winding -3",),),
    "euler-number --winding -2": (("winding -2",),),
    "euler-number --winding -1": (("winding -1",),),
    "euler-number --winding 1": (("winding 1",),),
    "euler-number --winding 3": (("winding 3",),),
    "structure-tests --n 2 --samples 1": STRUCTURE,
    "structure-tests --n 4 --samples 1": STRUCTURE,
    "structure-tests --n 4": STRUCTURE,
    "structure-tests --n 6 --samples 1": STRUCTURE,
    "transgress --samples 1 --quad-order 2": (
        ("degree-0 residual (d' eta0)", "degree-1 residual (d' eta1 + d'' eta0)"),
        ("quadrature order-doubling drift",)),
    "loop-cocycle --trials 20 --max-freq 3": (
        ("pairing ad-invariance",), ("cocycle residual",), ("worked example = 1/(8 pi)",),
        ("level-2 functional mixed partial vs closed form", "phi of the level-1 functional",
         "phi(a + b) vs alpha")),
}

CASES = [
    (argv, index, entry)
    for argv in CONFIGS
    for index, entry in enumerate(SUITES[argv[0]])
]


def argv_id(argv):
    return "_".join(arg[2:] if arg.startswith("--") else arg for arg in argv)


def run_entry(entry, argv, rng):
    """The checks of one registry entry under the options of argv, by name."""
    return {c.name: c for c in entry(build_parser().parse_args(argv), rng)}


def test_every_entry_runs_under_test():
    covered = {entry for _, _, entry in CASES}
    assert covered == {entry for entries in SUITES.values() for entry in entries}
    assert set(NAMES) == {" ".join(argv) for argv in CONFIGS}


@pytest.mark.parametrize(
    "argv, index, entry", CASES,
    ids=[f"{argv_id(argv)}-{entry.__name__}" for argv, _, entry in CASES],
)
def test_entry(argv, index, entry):
    names = NAMES[" ".join(argv)]
    assert len(names) == len(SUITES[argv[0]])
    result = run_entry(entry, argv, np.random.default_rng(0))
    assert tuple(result) == names[index]
    assert [c.name for c in result.values() if not c.passed] == []


def test_only_the_registry_takes_a_tolerance():
    # gates live in checks and cli; library functions return values
    for info in pkgutil.iter_modules(eulernerve.__path__):
        if info.name in ("checks", "cli"):
            continue
        module = importlib.import_module(f"eulernerve.{info.name}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            assert "tol" not in inspect.signature(fn).parameters, f"{info.name}.{name}"


# ---------------------------------------------------------------------------
# one coefficient off by 1% must fail its gate


def scaled(fn):
    return lambda *args, **kwargs: 1.01 * fn(*args, **kwargs)


def tampered_cocycle(key):
    build = euler.builtin_cocycle

    def tampered(n):
        components = dict(build(n).components)
        if key in components:
            components[key] = scale_form(1.01, components[key])
        return Cochain(n=n, components=components)

    return tampered


def tampered_component(key):
    build = euler.euler_component
    return lambda p, q: scale_form(1.01, build(p, q)) if (p, q) == key else build(p, q)


LOOP = ["loop-cocycle", "--trials", "20", "--max-freq", "3"]
# (argv, entry, module and name of the patched function, its replacement,
#  the check that must fail)
MUTATIONS = {
    "E13": (["verify-euler", "--n", "4"], checks.total_cocycle,
            checks, "builtin_cocycle", tampered_cocycle((1, 3)),
            "total-cocycle residual at (2,3)"),
    "E22": (["verify-euler", "--n", "4"], checks.total_cocycle,
            checks, "builtin_cocycle", tampered_cocycle((2, 2)),
            "total-cocycle residual at (2,3)"),
    "generated-p2-q1": (["verify-generator", "--p", "2"], checks.generator_vs_transcription,
                        checks, "euler_component", tampered_component((2, 1)),
                        "generator vs transcription (p=2, q=1)"),
    "generated-p3-q0": (["verify-generator", "--p", "3"], checks.generator_vs_transcription,
                        checks, "euler_component", tampered_component((3, 0)),
                        "generator vs transcription (p=3, q=0)"),
    "pfaffian": (["pfaffian", "--n", "4", "--trials", "5"], checks.pfaffian,
                 checks, "euler_pfaffian", scaled(euler.euler_pfaffian),
                 "pfaffian^2 = det (relative)"),
    "E11": (["euler-number"], checks.clutching_winding,
            euler, "builtin_cocycle", tampered_cocycle((1, 1)), "winding 2"),
    "loop-cocycle": (LOOP, checks.worked_example,
                     checks, "loop_cocycle", scaled(checks.loop_cocycle),
                     "worked example = 1/(8 pi)"),
}


@pytest.mark.parametrize("case", list(MUTATIONS))
def test_one_percent_mutation_fails(case, monkeypatch):
    argv, entry, module, name, replacement, check = MUTATIONS[case]
    monkeypatch.setattr(module, name, replacement)
    result = run_entry(entry, argv, np.random.default_rng(0))
    assert not result[check].passed


@pytest.mark.parametrize("case", ["generated-p2-q1", "generated-p3-q0"])
def test_generator_mutation_fails_by_seven_decades(case, monkeypatch):
    # the generator gate is relative to the largest transcribed value, so a
    # 1% error reads about 1e-2 against its 1e-10 tolerance
    argv, entry, module, name, replacement, check = MUTATIONS[case]
    monkeypatch.setattr(module, name, replacement)
    result = run_entry(entry, argv, np.random.default_rng(0))[check]
    assert result.max_residual > 1e7 * result.tolerance


def nan_on_sample(key, sample):
    """euler_component whose component ``key`` returns NaN in the
    ``sample``-th sample (from 1) of the batch it is called on."""
    build = euler.euler_component

    def component(p, q):
        form = build(p, q)
        if (p, q) != key:
            return form

        def fn(point, frames):
            values = np.array(form.fn(point, frames))
            values[sample - 1] = np.nan
            return values

        return dataclasses.replace(form, fn=fn)

    return component


@pytest.mark.parametrize("sample", [1, 2, 3])
def test_nan_on_any_sample_fails(sample, monkeypatch):
    # the builtin max keeps its running value when the next one is NaN
    monkeypatch.setattr(checks, "euler_component", nan_on_sample((1, 0), sample))
    argv = ["verify-generator", "--p", "1", "--samples", "3"]
    result = run_entry(checks.generator_vs_transcription, argv, np.random.default_rng(0))
    check = result["generator vs transcription (p=1, q=0)"]
    assert np.isnan(check.max_residual) and not check.passed


def test_check_keeps_the_sample_maximum():
    rng = np.random.default_rng(21)
    samples = rng.uniform(0.0, 1e-6, 9).tolist()
    check = checks.Check("samples", samples, 1e-5)
    assert check.max_residual == max(samples) and check.passed
    assert type(check.max_residual) is float
    assert checks.Check("one", 2e-5, 1e-5).max_residual == 2e-5
    assert not checks.Check("samples", [*samples, 2e-5], 1e-5).passed


@pytest.mark.parametrize("position", range(5))
def test_check_with_a_nan_sample_fails(position):
    samples = [1e-9, 2e-9, 3e-9, 4e-9]
    samples.insert(position, float("nan"))
    check = checks.Check("samples", samples, 1e-5)
    assert np.isnan(check.max_residual) and not check.passed
    assert check.to_json()["pass"] is False


WORD_SUM_CALLS = [
    (["verify-euler", "--n", "6", "--samples", "4"], 232),
    (["verify-generator", "--p", "3", "--samples", "10"], 12),
]


@pytest.mark.parametrize("argv, calls", WORD_SUM_CALLS,
                         ids=[argv_id(argv) for argv, _ in WORD_SUM_CALLS])
def test_word_sum_calls_per_certificate(argv, calls, monkeypatch):
    # the two cocycle-so6 benchmark certificates at seed 0: d'' makes one
    # form call per stencil direction (58 word sums per verify-euler sample),
    # and verify-generator one per path and component; per-point stencil or
    # per-sample calls would make 412 and 120
    count = [0]
    call = WordSumEvaluator.__call__

    def counted(self, p, frames):
        count[0] += 1
        return call(self, p, frames)

    monkeypatch.setattr(WordSumEvaluator, "__call__", counted)
    (entry,) = SUITES[argv[0]]
    run_entry(entry, argv, np.random.default_rng(0))
    assert count[0] == calls


LAPACK_CALLS = [
    (["verify-euler", "--n", "6", "--samples", "4"], 1, 1),
    (["verify-generator", "--p", "3", "--samples", "10"], 6, 6),
]


@pytest.mark.parametrize("argv, qr, svd", LAPACK_CALLS,
                         ids=[argv_id(argv) for argv, _, _ in LAPACK_CALLS])
def test_qr_and_svd_calls_per_certificate(argv, qr, svd, monkeypatch):
    # the same certificates: verify-euler draws its 4 samples in one QR and
    # one SVD stack (a run fits one draw up to SAMPLE_CHUNK samples),
    # verify-generator one of each per component; lone draws per matrix
    # would make 40 and 160, and 100 and 300
    counts = dict.fromkeys(("qr", "svd"), 0)
    for name in counts:
        def counted(*args, _call=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    (entry,) = SUITES[argv[0]]
    run_entry(entry, argv, np.random.default_rng(0))
    assert counts == {"qr": qr, "svd": svd}
