import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fockcalc import serialize, symbolcalc
from fockcalc.binomial import t0
from fockcalc.cli import main
from fockcalc.multiindex import enumerate_degree
from fockcalc.serialize import coeffs_from_jsonable, coeffs_to_jsonable, load_coeffs, save_coeffs
from fockcalc.errors import SchemaError
from fockcalc.series import KernelCoeffs, SeriesCoeffs, kernel_delta, series_delta
from fockcalc.symbolcalc import apply_operator, identity_kernel


@pytest.fixture
def files(tmp_path):
    paths = {}
    paths["d11"] = tmp_path / "d11.json"
    save_coeffs(kernel_delta(1, (1,), (1,)), paths["d11"])
    paths["ident"] = tmp_path / "ident.json"
    save_coeffs(identity_kernel(1, 6), paths["ident"])
    paths["e3"] = tmp_path / "e3.json"
    save_coeffs(series_delta(1, (3,)), paths["e3"])
    paths["fact"] = tmp_path / "fact.json"
    save_coeffs(KernelCoeffs(1, 1, {((k,), (k,)): float(math.factorial(k)) for k in range(9)}),
                paths["fact"])
    paths["fact3"] = tmp_path / "fact3.json"
    save_coeffs(KernelCoeffs(1, 1, {((k,), (k,)): float(math.factorial(k)) ** 3 for k in range(9)}),
                paths["fact3"])
    paths["tmp"] = tmp_path
    return paths


def run(*argv):
    return main([str(a) for a in argv])


# --- serialization ---------------------------------------------------------------

def test_roundtrip_serialization(tmp_path):
    K = KernelCoeffs(1, 1, {((2,), (1,)): 0.5 - 0.25j, ((0,), (0,)): 1.0})
    p = tmp_path / "k.json"
    save_coeffs(K, p)
    K2 = load_coeffs(p)
    assert K2.entries == K.entries
    F = series_delta(2, (1, 0), 2j)
    p2 = tmp_path / "f.json"
    save_coeffs(F, p2)
    assert load_coeffs(p2).entries == F.entries
    # an engine output is written byte for byte as the same map built through the constructor
    raised = t0(K, 0.3 - 0.7j, out_degree=5)
    p3, p4 = tmp_path / "raised.json", tmp_path / "rebuilt.json"
    save_coeffs(raised, p3)
    save_coeffs(KernelCoeffs(1, 1, dict(raised.entries)), p4)
    assert p3.read_bytes() == p4.read_bytes()


def test_schema_rejects_bad_documents():
    with pytest.raises(SchemaError):
        coeffs_from_jsonable({"kind": "nope"})
    with pytest.raises(SchemaError):
        coeffs_from_jsonable({"kind": "series", "d": 1, "max_degree": 1,
                              "entries": [{"alpha": [2], "re": 1.0, "im": 0.0}]})
    with pytest.raises(SchemaError):
        coeffs_from_jsonable({"kind": "series", "d": 1, "max_degree": 2,
                              "entries": [{"alpha": [1], "re": 1.0, "im": 0.0},
                                          {"alpha": [1], "re": 2.0, "im": 0.0}]})
    with pytest.raises(SchemaError):
        coeffs_from_jsonable({"kind": "kernel", "d2": 1, "d1": 1, "max_degree": 1,
                              "entries": [{"alpha": [1], "beta": [1, 0], "re": 1.0, "im": 0.0}]})
    # booleans and values outside float range, as Python's json parses them
    for value in (True, math.nan, math.inf, json.loads("1e400"), -math.inf, 10 ** 400):
        for field in ("re", "im"):
            with pytest.raises(SchemaError):
                coeffs_from_jsonable({"kind": "series", "d": 1, "max_degree": 0,
                                      "entries": [{"alpha": [0], field: value}]})


def test_non_finite_file_value_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "kernel", "d2": 1, "d1": 1, "max_degree": 0, '
                   '"entries": [{"alpha": [0], "beta": [0], "re": NaN, "im": 0.0}]}')
    assert run("transform", "--input", bad, "--output", tmp_path / "x.json", "--op", "s0") == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "schema"


def test_canonical_entry_order():
    K = KernelCoeffs(1, 1, {((2,), (0,)): 1.0, ((0,), (0,)): 1.0, ((1,), (1,)): 1.0})
    doc = coeffs_to_jsonable(K)
    alphas = [tuple(e["alpha"]) for e in doc["entries"]]
    assert alphas == [(0,), (1,), (2,)]



def reference_text(c) -> str:
    """The file text by json.dump(indent=2), the document built entry by entry."""
    if isinstance(c, KernelCoeffs):
        head, split = {"kind": "kernel", "d2": c.d2, "d1": c.d1}, lambda k: (("alpha", k[0]), ("beta", k[1]))
    else:
        head, split = {"kind": "series", "d": c.d}, lambda k: (("alpha", k),)
    keys = sorted(c.entries, key=lambda k: [(sum(p), p) for _, p in split(k)])
    degree = max((sum(p) for k in keys for _, p in split(k)), default=0)
    # x + 0.0 writes -0.0 as 0.0
    entries = [{**{name: list(p) for name, p in split(k)}, "re": c.entries[k].real + 0.0,
                "im": c.entries[k].imag + 0.0} for k in keys]
    return json.dumps({**head, "max_degree": degree, "entries": entries}, indent=2) + "\n"


def random_coeffs(seed, dims, degree, count):
    rng = np.random.default_rng(seed)
    parts = [[i for k in range(degree + 1) for i in enumerate_degree(d, k)] for d in dims]
    entries = {}
    while len(entries) < count:
        key = tuple(p[rng.integers(len(p))] for p in parts)
        entries[key if len(key) > 1 else key[0]] = complex(*rng.standard_normal(2) * 10.0 ** rng.integers(-5, 6))
    return SeriesCoeffs(*dims, entries) if len(dims) == 1 else KernelCoeffs(*dims, entries)


SPECIAL = {((0,), (0,)): complex(-0.0, 1.0), ((1,), (0,)): complex(5e-324, -1e308),
           ((0,), (2,)): complex(3.0, -2.0), ((1,), (1,)): complex(1e308, -0.0), ((2,), (2,)): 7.0}


@pytest.mark.parametrize("c", [
    random_coeffs(1, (1,), 6, 5), random_coeffs(2, (2,), 5, 12), random_coeffs(3, (3,), 4, 20),
    random_coeffs(4, (1, 1), 6, 15), random_coeffs(5, (2, 2), 4, 40), random_coeffs(6, (3, 3), 3, 60),
    random_coeffs(7, (2, 1), 5, 25), SeriesCoeffs(2), KernelCoeffs(2, 1), KernelCoeffs(1, 1, SPECIAL),
], ids=["s1", "s2", "s3", "k11", "k22", "k33", "k21", "empty-series", "empty-kernel", "special-values"])
@pytest.mark.parametrize("block", [1024, 3, 5])
def test_writer_is_byte_identical_to_json_dump(tmp_path, monkeypatch, c, block):
    # a block size of 3 or 5 makes several write blocks, some with a short last one
    monkeypatch.setattr(serialize, "_BLOCK", block)
    p = tmp_path / "c.json"
    save_coeffs(c, p)
    assert p.read_text(encoding="utf-8") == reference_text(c)
    assert coeffs_to_jsonable(c) == json.loads(reference_text(c))
    assert load_coeffs(p).entries == c.entries


SERIES = {"kind": "series", "d": 2, "max_degree": 3}
KERNEL = {"kind": "kernel", "d2": 1, "d1": 2, "max_degree": 3}


@pytest.mark.parametrize("head, entries, message", [
    (SERIES, [{"alpha": [True, 0]}], "alpha entries must be non-negative integers, got [True, 0]"),
    (SERIES, [{"alpha": [1.0, 0]}], "alpha entries must be non-negative integers, got [1.0, 0]"),
    (SERIES, [{"alpha": [-1, 0]}], "alpha entries must be non-negative integers, got [-1, 0]"),
    (SERIES, [{"alpha": []}], "alpha must be a non-empty list of integers"),
    (SERIES, [{"alpha": [1, 0, 0]}], "alpha [1, 0, 0] has dimension 3, expected 2"),
    (SERIES, [{"alpha": 1}], "alpha must be a non-empty list of integers"),
    (SERIES, [{"re": 1.0}], "alpha must be a non-empty list of integers"),
    (KERNEL, [{"alpha": [0], "beta": [0]}], "beta [0] has dimension 1, expected 2"),
    (SERIES, [{"alpha": [2 ** 70, 0]}], f"alpha [{2 ** 70}, 0] exceeds declared max_degree 3"),
    ({**SERIES, "max_degree": 2 ** 80}, [{"alpha": [2 ** 70, 0]}], "alpha components must be below 2**63"),
    (SERIES, [{"alpha": [2, 2]}], "alpha [2, 2] exceeds declared max_degree 3"),
    (SERIES, [{"alpha": [1, 0]}, {"alpha": [0, 1]}, {"alpha": [1, 0]}], "duplicate index (1, 0)"),
    (KERNEL, [{"alpha": [1], "beta": [0, 1]}, {"alpha": [1], "beta": [1, 0]}, {"alpha": [1], "beta": [0, 1]}],
     "duplicate index ((1,), (0, 1))"),
    (SERIES, [{"alpha": [0, 0]}, [1, 0]], "entries must be objects"),
    (SERIES, [{"alpha": [0, 0], "re": "1.0"}], "entry fields 're'/'im' must be finite numbers, got '1.0', 0.0"),
    # the first offending entry is named
    (SERIES, [{"alpha": [0, 0]}, {"alpha": [0, -2]}, {"alpha": [-1, 0]}],
     "alpha entries must be non-negative integers, got [0, -2]"),
    (SERIES, [{"alpha": [0, 0], "im": 2}, {"alpha": [0, 1], "im": math.inf}, {"alpha": [1, 0], "re": None}],
     "entry fields 're'/'im' must be finite numbers, got 0.0, inf"),
])
def test_schema_rejects_bad_entries(head, entries, message):
    with pytest.raises(SchemaError) as info:
        coeffs_from_jsonable({**head, "entries": entries})
    assert str(info.value) == message


def test_reader_drops_zeros_and_keeps_file_order(tmp_path):
    p = tmp_path / "k.json"
    p.write_text(json.dumps({"kind": "kernel", "d2": 1, "d1": 1, "max_degree": 3, "entries": [
        {"alpha": [3], "beta": [0], "re": 2, "im": 0},
        {"alpha": [0], "beta": [0], "re": 0, "im": 0.0},
        {"alpha": [1], "beta": [2], "re": -1.5, "im": 1},
        {"alpha": [0], "beta": [1], "re": 0.0, "im": -0.0},
        {"alpha": [2], "beta": [1], "im": 0.25},
    ]}))
    c = load_coeffs(p)
    assert list(c.entries.items()) == [(((3,), (0,)), 2 + 0j), (((1,), (2,)), -1.5 + 1j), (((2,), (1,)), 0.25j)]
    assert len(c) == 3 and c.support_degree() == 3

# --- transform -------------------------------------------------------------------

def test_transform_ordering_shift(files):
    out = files["tmp"] / "out.json"
    assert run("transform", "--input", files["d11"], "--output", out,
               "--op", "antiwick-to-wick") == 0
    res = load_coeffs(out)
    assert res.entries == {((1,), (1,)): 1.0, ((0,), (0,)): 1.0}


def test_transform_t0_zero_is_byte_identical(files):
    out = files["tmp"] / "same.json"
    assert run("transform", "--input", files["d11"], "--output", out, "--op", "t0", "--t", "0") == 0
    assert out.read_bytes() == files["d11"].read_bytes()


def test_transform_kernel_to_wick_identity(files):
    out = files["tmp"] / "a.json"
    assert run("transform", "--input", files["ident"], "--output", out,
               "--op", "kernel-to-wick") == 0
    res = load_coeffs(out)
    assert set(res.entries) == {((0,), (0,))}
    assert abs(res.entries[((0,), (0,))] - 1.0) < 1e-12


def test_transform_round_trip(files):
    mid = files["tmp"] / "mid.json"
    back = files["tmp"] / "back.json"
    assert run("transform", "--input", files["d11"], "--output", mid,
               "--op", "wick-to-kernel", "--out-degree", "6") == 0
    assert run("transform", "--input", mid, "--output", back,
               "--op", "kernel-to-wick", "--out-degree", "1") == 0
    orig = load_coeffs(files["d11"])
    res = load_coeffs(back)
    for k, v in orig.entries.items():
        assert abs(res.entries.get(k, 0.0) - v) < 1e-10


def test_transform_wick_to_kernel_honours_out_degree(files):
    src, out = files["tmp"] / "deg3.json", files["tmp"] / "k1.json"
    a = KernelCoeffs(1, 1, {((3,), (2,)): 1.0, ((1,), (0,)): 0.5j, ((0,), (0,)): 2.0})
    save_coeffs(a, src)
    assert run("transform", "--input", src, "--output", out, "--op", "wick-to-kernel", "--out-degree", "1") == 0
    assert json.loads(out.read_text())["max_degree"] == 1
    assert load_coeffs(out).entries == t0(a, 1.0, out_degree=1).entries


def test_transform_complex_flag(files):
    out = files["tmp"] / "tc.json"
    assert run("transform", "--input", files["d11"], "--output", out,
               "--op", "t0star", "--t", "0.5,0.3") == 0
    res = load_coeffs(out)
    assert abs(res.entries[((0,), (0,))] - (0.5 + 0.3j)) < 1e-14


def test_transform_requires_kernel(files):
    out = files["tmp"] / "x.json"
    assert run("transform", "--input", files["e3"], "--output", out, "--op", "s0") == 4


# --- apply -----------------------------------------------------------------------

def test_apply_identity(files):
    out = files["tmp"] / "o.json"
    assert run("apply", "--kernel", files["ident"], "--series", files["e3"],
               "--output", out) == 0
    assert load_coeffs(out).entries == {(3,): 1.0}


def test_apply_number_operator(files):
    k = files["tmp"] / "diagk.json"
    out = files["tmp"] / "o2.json"
    run("transform", "--input", files["d11"], "--output", k, "--op", "wick-to-kernel",
        "--out-degree", "6")
    assert run("apply", "--kernel", k, "--series", files["e3"], "--output", out) == 0
    assert abs(load_coeffs(out).entries[(3,)] - 3.0) < 1e-12


def test_apply_dimension_mismatch(files, tmp_path):
    f2 = tmp_path / "f2.json"
    save_coeffs(series_delta(2, (0, 0)), f2)
    out = tmp_path / "x.json"
    assert run("apply", "--kernel", files["ident"], "--series", f2, "--output", out) == 3


def dense_apply_files(tmp_path):
    """A dense (2,16) kernel and a series over its betas, written to files; the
    series is built in an entry order other than the file's canonical one."""
    rng = np.random.default_rng(12)
    idx = enumerate_degree(2, 16)
    K = KernelCoeffs(2, 2, {(a, b): complex(*rng.standard_normal(2)) for a in idx for b in idx})
    F = SeriesCoeffs(2, {idx[i]: complex(*rng.standard_normal(2)) for i in rng.permutation(len(idx)).tolist()})
    save_coeffs(K, tmp_path / "kernel.json")
    save_coeffs(F, tmp_path / "series.json")
    return K, F


def test_apply_on_a_file_in_another_entry_order_writes_the_library_values(tmp_path, monkeypatch):
    K, F = dense_apply_files(tmp_path)
    assert list(load_coeffs(tmp_path / "series.json").entries) != list(F.entries)
    calls, gather = [], symbolcalc._gather
    monkeypatch.setattr(symbolcalc, "_gather", lambda *args: calls.append(1) or gather(*args))
    out = tmp_path / "out.json"
    assert run("apply", "--kernel", tmp_path / "kernel.json", "--series", tmp_path / "series.json",
               "--output", out) == 0
    assert calls == [1]  # the matrix-product route
    assert load_coeffs(out).entries == apply_operator(K, F).entries


def test_apply_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    dense_apply_files(tmp_path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    texts = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = tmp_path / f"out{threads}.json"
        subprocess.run([sys.executable, "-m", "fockcalc.cli", "apply", "--kernel", str(tmp_path / "kernel.json"),
                        "--series", str(tmp_path / "series.json"), "--output", str(out)],
                       env=env, check=True, timeout=120)
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


# --- verify ----------------------------------------------------------------------

def test_verify_identities_report(files, capsys):
    rep = files["tmp"] / "rep.json"
    assert run("verify", "--suite", "identities", "--seed", "7", "--report", rep) == 0
    doc = json.loads(rep.read_text())
    assert doc["pass"] is True
    assert doc["suite"] == "identities"
    assert doc["seed"] == 7
    assert doc["max_error"] < 1e-10
    assert "pass" in capsys.readouterr().out


def test_verify_deterministic_modulo_timestamp(files):
    r1 = files["tmp"] / "r1.json"
    r2 = files["tmp"] / "r2.json"
    run("verify", "--suite", "appendixB", "--seed", "3", "--report", r1)
    run("verify", "--suite", "appendixB", "--seed", "3", "--report", r2)
    d1 = json.loads(r1.read_text())
    d2 = json.loads(r2.read_text())
    d1.pop("generated_at")
    d2.pop("generated_at")
    assert d1 == d2


def test_verify_bounds(files):
    assert run("verify", "--suite", "bounds", "--seed", "1") == 0


def test_verify_failure_exit_code(monkeypatch, tmp_path, capsys):
    import fockcalc.cli as cli

    failing = {"suite": "identities", "seed": 0, "cases": 1, "max_error": 1.0,
               "tolerance": 1e-10, "pass": False,
               "failures": [{"check": "synthetic", "error": 1.0}],
               "generated_at": "x"}
    monkeypatch.setattr(cli, "run_suite", lambda name, seed: failing)
    rep = tmp_path / "r.json"
    assert main(["verify", "--suite", "identities", "--report", str(rep)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "synthetic" in out
    assert json.loads(rep.read_text())["pass"] is False


# --- classify --------------------------------------------------------------------

def test_classify_consistent(files, capsys):
    assert run("classify", "--input", files["fact"], "--family", "Adual", "--s1", "flat:1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "Consistent"


def test_classify_inconsistent_with_csv(files, capsys):
    csv = files["tmp"] / "c.csv"
    assert run("classify", "--input", files["fact3"], "--family", "Adual",
               "--s1", "flat:1", "--csv", csv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "Inconsistent"
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "r,constant"
    assert len(rows) == 4


def test_classify_csv_that_cannot_be_written(files, capsys):
    csv = files["tmp"] / "missing" / "c.csv"
    assert run("classify", "--input", files["fact3"], "--family", "Adual",
               "--s1", "flat:1", "--csv", csv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["kind"] == "io"


def test_classify_trivial(files, capsys):
    d00 = files["tmp"] / "d00.json"
    save_coeffs(kernel_delta(1, (0,), (0,)), d00)
    assert run("classify", "--input", d00, "--family", "B",
               "--s1", "real:0.25", "--s2", "real:0.25") == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "Consistent"


# --- error contract ---------------------------------------------------------------

def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "bogus"}')
    out = tmp_path / "x.json"
    assert main(["transform", "--input", str(bad), "--output", str(out), "--op", "s0"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == 2 and err["error"]["kind"] == "schema"


def test_missing_file_exit_code(tmp_path):
    assert main(["transform", "--input", str(tmp_path / "nope.json"),
                 "--output", str(tmp_path / "x.json"), "--op", "s0"]) == 2


def test_precondition_exit_code(files):
    out = files["tmp"] / "x.json"
    assert run("transform", "--input", files["d11"], "--output", out, "--op", "t0") == 4


def test_dimension_exit_code(files, tmp_path, capsys):
    rect = tmp_path / "rect.json"
    save_coeffs(KernelCoeffs(2, 1, {((0, 0), (1,)): 1.0}), rect)
    out = tmp_path / "x.json"
    assert run("transform", "--input", rect, "--output", out, "--op", "s0") == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "dimension"


def test_value_overflow_is_one_json_error(tmp_path, capsys):
    # the raised values leave float range: exit 4 with one JSON object on stderr
    big = tmp_path / "big.json"
    save_coeffs(KernelCoeffs(1, 1, {((0,), (0,)): 1e308}), big)
    out = tmp_path / "x.json"
    assert run("transform", "--input", big, "--output", out, "--op", "t0",
               "--t", "4", "--out-degree", "2") == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "arithmetic"
    assert not out.exists()


def test_overflow_exit_code(tmp_path, capsys):
    # the binomial weights of this raise pass the float range long before degree 1200
    big = tmp_path / "big.json"
    save_coeffs(kernel_delta(1, (600,), (0,)), big)
    out = tmp_path / "x.json"
    assert run("transform", "--input", big, "--output", out, "--op", "t0",
               "--t", "1", "--out-degree", "1200") == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == 4
    assert err["error"]["kind"] == "arithmetic"
    assert not out.exists()


def test_t0_past_its_term_budget_exits_4_at_once(files):
    # out-degree 10^20 from one entry: t0 refuses before it forms a power of t
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = files["tmp"] / "x.json"
    done = subprocess.run([sys.executable, "-m", "fockcalc.cli", "transform", "--input", str(files["d11"]),
                           "--output", str(out), "--op", "t0", "--t", "1", "--out-degree", str(10 ** 20)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 4 and done.stdout == ""
    err = json.loads(done.stderr)["error"]
    assert err["kind"] == "precondition" and "budget" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 11.6 TiB for an array"), MemoryError()])
def test_memory_error_is_one_json_error(files, monkeypatch, capsys, error):
    # a t0_star of alpha = beta = 10^11 asks for such a binomial table; not run here,
    # since whether that request fails at once depends on the host
    import fockcalc.cli as cli

    def exhausted(c, t):
        raise error

    # the report is written once the failed call's frames, and the memory they hold, are released
    handling = []

    def emit_error(*args):
        handling.append(sys.exc_info())
        return emit(*args)

    emit = cli._emit_error
    monkeypatch.setattr(cli, "_emit_error", emit_error)
    monkeypatch.setattr(cli, "t0_star", exhausted)
    out = files["tmp"] / "x.json"
    assert run("transform", "--input", files["d11"], "--output", out, "--op", "t0star", "--t", "0") == 4
    assert handling == [(None, None, None)]
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err == {"code": 4, "kind": "memory", "message": str(error) or "out of memory"}
    assert not out.exists()


def test_classify_infinite_order_at_a_large_degree(tmp_path, capsys):
    # |alpha|^2 = 1.6e19 passes int64; the constant at r = 1 is about |alpha|, not 1.0
    big = tmp_path / "big.json"
    save_coeffs(KernelCoeffs(1, 1, {((4000000000,), (0,)): 1.0, ((0,), (0,)): 1.0}), big)
    assert run("classify", "--input", big, "--family", "A", "--s1", "inf") == 0
    constants = json.loads(capsys.readouterr().out)["constants"]
    assert constants[0]["r"] == 1.0
    assert abs(constants[0]["constant"] / 4e9 - 1.0) < 1e-12


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "nope"],
    ["transform", "-i", "a.json", "-o", "b.json", "--op", "s0", "--out-degree", "x"],
    ["classify", "-i", "a.json", "--family", "A", "--s1", "flat:1", "--r-grid", "-inf,2"],
])
def test_argument_errors_are_one_json_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["code"] == 2 and err["kind"] == "schema" and "argument" in err["message"]


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["transform", "--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert "usage" in capsys.readouterr().out

@pytest.mark.parametrize("grid", ["nan", "inf", "1,inf", "2,-inf"])
def test_classify_rejects_radii_that_are_not_finite(files, capsys, grid):
    assert run("classify", "--input", files["fact"], "--family", "Adual", "--s1", "flat:1",
               "--r-grid", grid) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["code"] == 4 and err["error"]["kind"] == "precondition"


@pytest.mark.parametrize("order", ["real:inf", "flat:inf", "real:1e400", "flat:nan"])
def test_classify_rejects_growth_orders_that_are_not_finite(files, capsys, order):
    assert run("classify", "--input", files["fact"], "--family", "Adual", "--s1", order) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["kind"] == "precondition"


@pytest.mark.parametrize("t", ["nan", "inf", "1,-inf", "nan,0"])
def test_transform_rejects_t_that_is_not_finite(files, capsys, t):
    out = files["tmp"] / "x.json"
    assert run("transform", "--input", files["d11"], "--output", out, "--op", "t0", "--t", t) == 4
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "precondition" and "--t" in err["message"]
    assert not out.exists()


def test_verify_rejects_a_negative_seed_as_an_argument_error(capsys):
    assert run("verify", "--suite", "identities", "--seed", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["code"] == 2 and err["kind"] == "schema" and "--seed" in err["message"]


def test_transform_names_t_that_is_not_a_number(files, capsys):
    out = files["tmp"] / "x.json"
    assert run("transform", "--input", files["d11"], "--output", out, "--op", "t0", "--t", "abc") == 4
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "precondition" and "--t" in err["message"] and "'abc'" in err["message"]
    assert not out.exists()


def test_classify_names_a_growth_order_that_is_not_a_number(files, capsys):
    assert run("classify", "--input", files["fact"], "--family", "Adual", "--s1", "flat:abc") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "precondition" and "growth order 'flat:abc'" in err["message"]


def test_transform_ops_are_looked_up_when_run(files, monkeypatch):
    # a replaced module attribute (a tracing wrapper, say) is the function that runs
    import fockcalc.cli as cli

    calls = []
    original = cli.t0_star
    monkeypatch.setattr(cli, "t0_star", lambda c, t: calls.append(t) or original(c, t))
    out = files["tmp"] / "ts.json"
    assert run("transform", "--input", files["d11"], "--output", out, "--op", "t0star", "--t", "0.5,0.3") == 0
    assert calls == [0.5 + 0.3j]


def test_verify_failing_suite_report(monkeypatch, tmp_path, capsys):
    # a real suite whose checks fail: exit 1, and each failing case carries its tolerance
    import fockcalc.verify as verify

    original = verify.toeplitz_matrix_quad

    def perturbed(*args, **kwargs):
        out = original(*args, **kwargs)
        out.matrix[0, 0] += 1e-3
        return out

    monkeypatch.setattr(verify, "toeplitz_matrix_quad", perturbed)
    rep = tmp_path / "r.json"
    assert run("verify", "--suite", "toeplitz", "--report", rep) == 1
    assert "FAIL" in capsys.readouterr().out
    doc = json.loads(rep.read_text())
    assert doc["pass"] is False and doc["cases"] == 3
    assert [f["check"] for f in doc["failures"]] == ["toeplitz unit", "toeplitz quadratic", "toeplitz identity"]
    assert all(f["tolerance"] == 1e-6 and abs(f["error"] - 1e-3) < 1e-9 for f in doc["failures"])


@pytest.mark.parametrize("op", ["t0", "wick-to-kernel", "kernel-to-wick"])
def test_negative_out_degree_exits_4(files, capsys, op):
    out = files["tmp"] / "x.json"
    assert run("transform", "--input", files["d11"], "--output", out, "--op", op,
               "--t", "1", "--out-degree", "-1") == 4
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["code"] == 4 and err["kind"] == "precondition" and "out_degree" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("op, extra", [
    *[(op, ["--out-degree", "4"]) for op in ("s0", "t0star", "antiwick-to-wick", "wick-to-antiwick")],
    *[(op, ["--t", "1"]) for op in ("s0", "wick-to-kernel", "kernel-to-wick", "antiwick-to-wick",
                                    "wick-to-antiwick")],
])
def test_transform_rejects_an_option_its_op_does_not_read(files, capsys, op, extra):
    out = files["tmp"] / "x.json"
    flags = ["--t", "1"] if op == "t0star" else []
    assert run("transform", "--input", files["d11"], "--output", out, "--op", op, *flags, *extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["code"] == 2 and err["kind"] == "schema"
    assert f"op {op} does not read {extra[0]}" in err["message"]
    assert not out.exists()

