import functools
import math

import pytest

from fockcalc import verify
from fockcalc.verify import SUITES, _Checks, run_suite

REPORT_KEYS = {"suite", "seed", "cases", "max_error", "tolerance", "pass", "failures", "generated_at"}


def test_recorder_lists_each_failing_case():
    record = _Checks("example", 5, 1e-6)
    record(1e-9, check="small", d=1)
    record(2e-6, check="large", d=2, t="1.0")
    record(5e-7, 1e-8, check="tight")
    rep = record.report()
    assert set(rep) == REPORT_KEYS
    assert (rep["suite"], rep["seed"], rep["cases"], rep["tolerance"]) == ("example", 5, 3, 1e-6)
    assert rep["max_error"] == 2e-6
    assert rep["pass"] is False
    assert rep["failures"] == [
        {"check": "large", "d": 2, "t": "1.0", "error": 2e-6, "tolerance": 1e-6},
        {"check": "tight", "error": 5e-7, "tolerance": 1e-8},
    ]


def test_recorder_passes_at_the_tolerance():
    # the bounds verdict: a ratio fails exactly when it is over 1 + 1e-12
    tol = 1.0 + 1e-12
    record = _Checks("bounds", 0, tol)
    record(0.5, r1=1.0)
    record(tol, r1=0.5)
    rep = record.report()
    assert rep["pass"] is True and rep["failures"] == [] and rep["max_error"] == tol
    record(math.nextafter(tol, 2.0), r1=1.0, r2=3.0, t="1.0")
    rep = record.report()
    assert rep["pass"] is False
    assert rep["failures"] == [{"r1": 1.0, "r2": 3.0, "t": "1.0",
                                "error": math.nextafter(tol, 2.0), "tolerance": tol}]


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_suite("nope", 0)


@pytest.mark.parametrize("name", list(SUITES))
def test_suite_report(monkeypatch, name):
    # identities and bounds at the benchmark's sizes, which keeps the test short
    for function, n_random in (("suite_identities", 4), ("suite_bounds", 10)):
        monkeypatch.setattr(verify, function, functools.partial(getattr(verify, function), n_random=n_random))
    rep = run_suite(name, 2)
    assert set(rep) == REPORT_KEYS
    assert rep["suite"] == name and rep["seed"] == 2
    assert rep["cases"] > 0 and rep["failures"] == []
    assert rep["pass"] is True and rep["max_error"] <= rep["tolerance"]


@pytest.mark.parametrize("name, function", [
    ("identities", "suite_identities"), ("quadrature", "suite_quadrature"),
    ("toeplitz", "suite_toeplitz"), ("bounds", "suite_bounds"), ("appendixB", "suite_appendix_b")])
def test_suites_are_looked_up_when_run(monkeypatch, name, function):
    # a replaced module attribute (a tracing wrapper, say) is the suite that runs
    monkeypatch.setattr(verify, function, lambda seed: {"replaced": function, "seed": seed})
    assert run_suite(name, 4) == {"replaced": function, "seed": 4}


def test_toeplitz_suite_builds_each_matrix_once(monkeypatch):
    # the identity check reads the unit-symbol matrix of the symbol loop
    calls = []
    original = verify.toeplitz_matrix_quad
    monkeypatch.setattr(verify, "toeplitz_matrix_quad", lambda *a, **k: calls.append(a) or original(*a, **k))
    rep = run_suite("toeplitz", 0)
    assert len(calls) == 2
    assert rep["cases"] == 3 and rep["pass"] is True
