import functools
import math

import numpy as np
import pytest

from fockcalc import binomial, series, symbolcalc, verify
from fockcalc.binomial import l2_r_norm, t0
from fockcalc.multiindex import enumerate_degree, log_multi_factorial, total_degree
from fockcalc.series import KernelCoeffs, SeriesCoeffs, kernel_delta
from fockcalc.symbolcalc import t0_bound_constant
from fockcalc.verify import SUITES, _Checks, run_suite

from _support import index_add

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


# --- the array oracle, draws and comparators against the per-entry loops ------

def loop_oracle(a, t, out_degree):
    """The monomial convolution as one loop over entries and the g-simplex."""
    d = a.d
    out = {}
    for (aa, bb), v in a.entries.items():
        m = v * math.exp(-0.5 * (log_multi_factorial(aa) + log_multi_factorial(bb)))
        room = out_degree - max(total_degree(aa), total_degree(bb))
        if room < 0:
            continue
        for g in enumerate_degree(d, room):
            fac = t ** total_degree(g) * math.exp(-log_multi_factorial(g))
            key = (index_add(aa, g), index_add(bb, g))
            out[key] = out.get(key, 0.0) + m * fac
    return KernelCoeffs(d, d, {
        k: v * math.exp(0.5 * (log_multi_factorial(k[0]) + log_multi_factorial(k[1])))
        for k, v in out.items()
    })


def loop_random_kernel(rng, d, degree):
    idx = enumerate_degree(d, degree)
    entries = {}
    for a in idx:
        for b in idx:
            entries[(a, b)] = complex(rng.standard_normal(), rng.standard_normal())
    return KernelCoeffs(d, d, entries)


def loop_random_series(rng, d, degree):
    return SeriesCoeffs(d, {
        a: complex(rng.standard_normal(), rng.standard_normal())
        for a in enumerate_degree(d, degree)
    })


def dict_sup(c):
    return max((abs(v) for v in c.entries.values()), default=0.0)


def dict_sup_diff(c1, c2):
    e1, e2 = c1.entries, c2.entries
    return max((abs(e1.get(k, 0.0) - e2.get(k, 0.0)) for k in set(e1) | set(e2)), default=0.0)


def dict_l2(c):
    return math.sqrt(sum(abs(v) ** 2 for v in c.entries.values()))


def dict_pairing(c, dker):
    d = dker.entries
    return sum(v * d[k].conjugate() for k, v in c.entries.items() if k in d)


def _sparse_kernel(rng, d, degree, n):
    idx = enumerate_degree(d, degree)
    pick = rng.integers(len(idx), size=(n, 2))
    return KernelCoeffs(d, d, {(idx[i], idx[j]): complex(*rng.standard_normal(2)) for i, j in pick})


def _oracle_cases():
    rng = np.random.default_rng(11)
    for d, degree, out_degree in ((1, 8, 12), (2, 4, 8), (3, 3, 5)):
        dense = verify._random_kernel(rng, d, degree)
        yield dense, out_degree
        # entries above out_degree are dropped
        yield dense, degree + 1
        yield _sparse_kernel(rng, d, degree + 3, 30), degree + 1
    yield KernelCoeffs(2, 2), 4
    yield kernel_delta(1, (5,), (0,)), 3  # every entry above out_degree


@pytest.mark.parametrize("t", [0.5 + 0.3j, -1.0, 0.7])
def test_array_oracle_matches_the_loop(t):
    for c, out_degree in _oracle_cases():
        got, ref = verify._convolution_oracle(c, t, out_degree), loop_oracle(c, t, out_degree)
        assert set(got.entries) == set(ref.entries)
        scale = max(dict_sup(ref), 1.0)
        assert all(abs(got.entries[k] - v) <= 1e-14 * scale for k, v in ref.entries.items())


@pytest.mark.parametrize("d, degree", [(1, 8), (2, 4), (1, 6), (1, 3), (3, 2)])
def test_random_draws_match_the_loops(d, degree):
    for array_draw, loop_draw in ((verify._random_kernel, loop_random_kernel),
                                  (verify._random_series, loop_random_series)):
        got = array_draw(np.random.default_rng(d * 10 + degree), d, degree)
        ref = loop_draw(np.random.default_rng(d * 10 + degree), d, degree)
        assert type(got) is type(ref)
        assert list(got.entries.items()) == list(ref.entries.items())
        assert got.arrays()[1].tobytes() == ref.arrays()[1].tobytes()


def _comparator_pairs():
    rng = np.random.default_rng(21)
    for d in (1, 2):
        c = verify._random_kernel(rng, d, 4)
        yield c, verify._random_kernel(rng, d, 4)            # one support
        yield c, _sparse_kernel(rng, d, 6, 25)               # overlapping supports
        yield c, KernelCoeffs(d, d, {((7,) * d, (0,) * d): 2.0 - 1j})  # disjoint supports
        yield c, KernelCoeffs(d, d)                           # one empty
        yield KernelCoeffs(d, d), c
        yield KernelCoeffs(d, d), KernelCoeffs(d, d)


def test_array_comparators_match_the_dict_versions():
    for c1, c2 in _comparator_pairs():
        assert verify._sup(c1) == dict_sup(c1)
        assert verify._sup_diff(c1, c2) == dict_sup_diff(c1, c2)
        assert verify._sup_diff(c2, c1) == dict_sup_diff(c2, c1)
        assert abs(verify._l2(c1) - dict_l2(c1)) <= 1e-15 * dict_l2(c1)
        scale = dict_l2(c1) * dict_l2(c2)
        assert abs(verify._pairing(c1, c2) - dict_pairing(c1, c2)) <= 1e-15 * scale


def loop_suite_bounds(seed, n_random):
    """suite_bounds as one transition per (kernel, r1, r2, t) case."""
    rng = np.random.default_rng(seed)
    record = _Checks("bounds", seed, 1.0 + 1e-12)
    for _ in range(n_random):
        b = loop_random_kernel(rng, 1, 6)
        for (r1, r2) in [(1.0, 3.0), (1.0, 4.0), (0.5, 2.0)]:
            cst = t0_bound_constant(r1, r2, 1)
            base = l2_r_norm(b, r1)
            for t in [1.0, -1.0, 0.6 + 0.8j, 0.3]:
                out = t0(b, t, out_degree=b.support_degree() + 8)
                record(l2_r_norm(out, r2) / (cst * base), r1=r1, r2=r2, t=str(t))
    return record.report()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bounds_report_matches_the_loop(seed):
    got, ref = verify.suite_bounds(seed, n_random=10), loop_suite_bounds(seed, 10)
    got.pop("generated_at"), ref.pop("generated_at")
    assert got == ref


def test_oracle_and_comparators_run_without_the_engines(monkeypatch):
    # the oracle and the comparators check the engines, so none may call them
    rng = np.random.default_rng(3)
    c = verify._random_kernel(rng, 2, 4)
    other = _sparse_kernel(rng, 2, 6, 25)
    ref = loop_oracle(c, 0.5 + 0.3j, 8)

    def forbidden(*args, **kwargs):
        raise AssertionError("engine called")

    for module, name in ((binomial, "_sweep"), (series, "_pack"), (series, "_runs"),
                         (series, "_first_seen"), (series, "_blocks"), (symbolcalc, "compose_kernels")):
        monkeypatch.setattr(module, name, forbidden)
    oracle = verify._convolution_oracle(c, 0.5 + 0.3j, 8)
    assert dict_sup_diff(oracle, ref) <= 1e-14 * dict_sup(ref)
    assert verify._sup(c) == dict_sup(c)
    assert verify._sup_diff(c, other) == dict_sup_diff(c, other)
    assert abs(verify._l2(c) - dict_l2(c)) <= 1e-15 * dict_l2(c)
    assert abs(verify._pairing(c, other) - dict_pairing(c, other)) <= 1e-15 * dict_l2(c) * dict_l2(other)
