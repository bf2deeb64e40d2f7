import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fockcalc import series, symbolcalc
from fockcalc.binomial import t0
from fockcalc.errors import DimensionMismatch, PreconditionError
from fockcalc.multiindex import enumerate_degree, total_degree
from fockcalc.series import (
    KernelCoeffs,
    SeriesCoeffs,
    eval_series,
    kernel_delta,
    series_delta,
)
from fockcalc.symbolcalc import (
    a2_r_norm,
    antiwick_to_wick,
    apply_operator,
    compose_kernels,
    identity_kernel,
    kernel_to_wick,
    operator_matrix,
    psd_check,
    t0_bound_constant,
    twisted_product,
    wick_to_antiwick,
    wick_to_kernel,
)

from _support import random_kernel, sup_diff


# --- kernel <-> wick ------------------------------------------------------------

def test_wick_to_kernel_unit_symbol():
    K = wick_to_kernel(kernel_delta(1, (0,), (0,)), out_degree=8)
    for k in range(9):
        assert K.entries[((k,), (k,))] == 1.0
    assert len(K.entries) == 9


def test_wick_to_kernel_number_symbol():
    K = wick_to_kernel(kernel_delta(1, (1,), (1,)), out_degree=6)
    for k in range(1, 7):
        assert abs(K.entries[((k,), (k,))] - k) < 1e-14
    assert ((0,), (0,)) not in K.entries


def test_wick_to_kernel_zero():
    assert not wick_to_kernel(KernelCoeffs(1, 1, {}), out_degree=4).entries


def test_wick_to_kernel_honours_an_out_degree_below_the_support_degree():
    a = KernelCoeffs(1, 1, {((3,), (2,)): 1.0, ((1,), (0,)): 0.5j, ((0,), (0,)): 2.0})
    K = wick_to_kernel(a, out_degree=1)
    assert K.support_degree() == 1
    assert K.entries == t0(a, 1.0, out_degree=1).entries
    assert K.entries == {((0,), (0,)): 2.0, ((1,), (1,)): 2.0, ((1,), (0,)): 0.5j}
    assert wick_to_kernel(a).entries == t0(a, 1.0, out_degree=3).entries  # default: the support degree


def test_kernel_to_wick_identity_kernel():
    a = kernel_to_wick(identity_kernel(1, 10))
    assert set(a.entries) == {((0,), (0,))}
    assert abs(a.entries[((0,), (0,))] - 1.0) < 1e-12


def test_kernel_to_wick_single_entry():
    # exp(-z conj(w)) * z conj(w) expands with coefficients (-1)^(k-1) k on the
    # diagonal of the normalized basis; nothing lands at the origin
    a = kernel_to_wick(kernel_delta(1, (1,), (1,)), out_degree=3)
    assert abs(a.entries[((1,), (1,))] - 1.0) < 1e-14
    assert abs(a.entries[((2,), (2,))] + 2.0) < 1e-14
    assert abs(a.entries[((3,), (3,))] - 3.0) < 1e-14
    assert ((0,), (0,)) not in a.entries


def test_kernel_wick_round_trip():
    rng = np.random.default_rng(1)
    a = random_kernel(rng, 2, 3)
    back = kernel_to_wick(wick_to_kernel(a, out_degree=3), out_degree=3)
    assert sup_diff(back, a) < 1e-12 * max(abs(v) for v in a.entries.values())


# --- anti-wick transitions -------------------------------------------------------

def test_antiwick_to_wick_examples():
    out = antiwick_to_wick(kernel_delta(1, (1,), (1,)))
    assert out.entries == {((1,), (1,)): 1.0, ((0,), (0,)): 1.0}
    assert antiwick_to_wick(kernel_delta(1, (0,), (0,))).entries == {((0,), (0,)): 1.0}
    out2 = antiwick_to_wick(kernel_delta(1, (2,), (2,)))
    assert abs(out2.entries[((2,), (2,))] - 1.0) < 1e-14
    assert abs(out2.entries[((1,), (1,))] - 2.0) < 1e-14
    assert abs(out2.entries[((0,), (0,))] - 1.0) < 1e-14


def test_wick_antiwick_bijection():
    rng = np.random.default_rng(8)
    a = random_kernel(rng, 1, 5)
    rt = wick_to_antiwick(antiwick_to_wick(a))
    assert sup_diff(rt, a) < 1e-12 * max(abs(v) for v in a.entries.values())
    rt2 = antiwick_to_wick(wick_to_antiwick(a))
    assert sup_diff(rt2, a) < 1e-12 * max(abs(v) for v in a.entries.values())


# --- operator action -------------------------------------------------------------

def test_apply_identity():
    rng = np.random.default_rng(2)
    F = SeriesCoeffs(1, {(k,): complex(*rng.standard_normal(2)) for k in range(7)})
    out = apply_operator(identity_kernel(1, 6), F)
    assert set(out.entries) == set(F.entries)
    for k, v in F.entries.items():
        assert abs(out.entries[k] - v) < 1e-15


def test_apply_number_operator():
    K = wick_to_kernel(kernel_delta(1, (1,), (1,)), out_degree=5)
    out = apply_operator(K, series_delta(1, (3,)))
    assert set(out.entries) == {(3,)}
    assert abs(out.entries[(3,)] - 3.0) < 1e-14


def test_apply_rank_one_projector():
    K = kernel_delta(1, (0,), (2,))
    out = apply_operator(K, series_delta(1, (2,)))
    assert out.entries == {(0,): 1.0}


def test_apply_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_operator(identity_kernel(1, 3), series_delta(2, (0, 0)))


# --- composition ------------------------------------------------------------------

def test_compose_identity():
    rng = np.random.default_rng(3)
    K = random_kernel(rng, 1, 4)
    out = compose_kernels(identity_kernel(1, 4), K)
    assert sup_diff(out, K) < 1e-15


def test_compose_creation_annihilation():
    N = 6
    creation = KernelCoeffs(1, 1, {((k + 1,), (k,)): math.sqrt(k + 1) for k in range(N)})
    annihilation = KernelCoeffs(1, 1, {((k,), (k + 1,)): math.sqrt(k + 1) for k in range(N)})
    out = compose_kernels(creation, annihilation)
    for k in range(1, N + 1):
        assert abs(out.entries[((k,), (k,))] - k) < 1e-14
    assert ((0,), (0,)) not in out.entries


def test_compose_diagonals_multiply():
    d1 = KernelCoeffs(1, 1, {((k,), (k,)): 2.0 + k for k in range(5)})
    d2 = KernelCoeffs(1, 1, {((k,), (k,)): 1.0 - 0.5j * k for k in range(5)})
    out = compose_kernels(d1, d2)
    for k in range(5):
        assert abs(out.entries[((k,), (k,))] - (2.0 + k) * (1.0 - 0.5j * k)) < 1e-14


def compose_reference(K2, K1):
    """Dict loop over K2's entries and the matching rows of K1."""
    rows = {}
    for (beta, delta), v1 in K1.entries.items():
        rows.setdefault(beta, []).append((delta, v1))
    out = {}
    for (alpha, beta), v2 in K2.entries.items():
        for delta, v1 in rows.get(beta, ()):
            key = (alpha, delta)
            out[key] = out.get(key, 0.0) + v2 * v1
    return KernelCoeffs(K2.d2, K1.d1, out)


def random_sparse_kernel(rng, d, degree, n_entries):
    idx = enumerate_degree(d, degree)
    return KernelCoeffs(d, d, {
        (idx[i], idx[j]): complex(rng.standard_normal(), rng.standard_normal())
        for i, j in rng.integers(len(idx), size=(n_entries, 2))
    })


def mapped(c, f):
    """The container with f applied to each value."""
    return type(c)(*(getattr(c, name) for name in c._DIMS), {k: f(v) for k, v in c.entries.items()})


def take_route(monkeypatch, block):
    """Send compose_kernels down the blocked route with this block size, or, for
    block "dense", down the matrix product whatever its size."""
    dense = block == "dense"
    monkeypatch.setattr(symbolcalc, "COMPOSE_DENSE_RATIO", math.inf if dense else 0)
    monkeypatch.setattr(symbolcalc, "COMPOSE_TILE_BYTES", math.inf)
    if not dense:
        monkeypatch.setattr(series, "BLOCK", block)


U = 2.0 ** -53


def gamma(k):
    return k * U / (1 - k * U)


def product_sum_bound(terms, magnitude):
    """Largest distance between two evaluations of a sum of `terms` complex products
    x y whose |x| |y| add up to `magnitude`, each in any order, with or without
    fused multiply-adds: each part of each is within gamma(2 terms) of the sum of
    |x_r y_r| + |x_i y_i| (or the imaginary pair), which is at most sqrt(2) |x| |y|
    in modulus (Higham 2002, ch. 3)."""
    return 2 * math.sqrt(2) * gamma(2 * terms) * magnitude


def assert_within_product_sum_bound(out, ref, terms, magnitude):
    """out has ref's keys, each value within product_sum_bound of ref's; terms and
    magnitude hold each key's term count and magnitude sum."""
    assert set(out.entries) == set(ref.entries)
    for key, got in out.entries.items():
        assert abs(got - ref.entries[key]) <= product_sum_bound(terms.entries[key].real, magnitude.entries[key].real)


@pytest.mark.parametrize("block", [16, series.BLOCK, "dense"])
def test_compose_matches_loop_reference(monkeypatch, block):
    take_route(monkeypatch, block)
    rng = np.random.default_rng(31)
    # the dense d = 3 pair has 35^3 products, more than one block of either size
    pairs = [(random_kernel(rng, 3, 4), random_kernel(rng, 3, 4))]
    for d, degree in ((1, 12), (2, 6), (3, 4)):
        for n_entries in (5, 40, 300):
            pairs.append((random_sparse_kernel(rng, d, degree, n_entries),
                          random_sparse_kernel(rng, d, degree, n_entries)))
    for K2, K1 in pairs:
        out, ref = compose_kernels(K2, K1), compose_reference(K2, K1)
        assert set(out.entries) == set(ref.entries)
        scale = max((abs(v) for v in ref.entries.values()), default=0.0)
        assert sup_diff(out, ref) <= 1e-14 * scale
        if block == "dense":
            take_route(monkeypatch, 16)
            assert np.array_equal(out.arrays()[0], compose_kernels(K2, K1).arrays()[0])  # same entry order
            take_route(monkeypatch, "dense")
            terms = compose_reference(mapped(K2, lambda v: 1.0), mapped(K1, lambda v: 1.0))
            assert_within_product_sum_bound(out, ref, terms, compose_reference(mapped(K2, abs), mapped(K1, abs)))
        # the output reads like a validated container: Python ints and complex
        for (a, b), v in out.entries.items():
            assert all(type(x) is int for x in a + b) and type(v) is complex
        assert KernelCoeffs(out.d2, out.d1, out.entries).entries == out.entries
        assert len(out) == len(out.entries)


def test_compose_memory_grows_with_entries():
    # 2,925 indices: a dense 2925 x 2925 complex block alone would take 137 MB
    idx = enumerate_degree(3, 24)
    K2 = KernelCoeffs(3, 3, {(a, a): 1.0 + total_degree(a) for a in idx})
    K1 = KernelCoeffs(3, 3, {(a, a): 1j for a in idx})
    tracemalloc.start()
    try:
        out = compose_kernels(K2, K1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.entries == {(a, a): (1.0 + total_degree(a)) * 1j for a in idx}
    assert peak < 16 * 2 ** 20


def record_dense_calls(monkeypatch):
    """A list that gets one item per compose_kernels call that takes the matrix product."""
    calls, gather = [], symbolcalc._gather
    monkeypatch.setattr(symbolcalc, "_gather", lambda *args: calls.append(1) or gather(*args))
    return calls


def test_compose_route_follows_the_index_structure(monkeypatch):
    calls = record_dense_calls(monkeypatch)
    rng = np.random.default_rng(33)
    dense = (random_kernel(rng, 3, 4), random_kernel(rng, 3, 4))
    sparse = (random_sparse_kernel(rng, 3, 24, 2000), random_sparse_kernel(rng, 3, 24, 2000))
    idx = enumerate_degree(3, 24)
    diagonal = KernelCoeffs(3, 3, {(a, a): 1.0 for a in idx})
    out = compose_kernels(*dense)
    assert calls == [1]
    # with no byte budget the ratio alone keeps the sparse inputs on the blocked route
    monkeypatch.setattr(symbolcalc, "COMPOSE_TILE_BYTES", math.inf)
    compose_kernels(*sparse)
    compose_kernels(diagonal, diagonal)
    assert calls == [1]
    # dense tiles over the byte budget take the blocked route too
    monkeypatch.setattr(symbolcalc, "COMPOSE_TILE_BYTES", 1024)
    blocked = compose_kernels(*dense)
    assert calls == [1]
    assert np.array_equal(blocked.arrays()[0], out.arrays()[0])


def test_dense_route_sums_do_not_depend_on_entry_order(monkeypatch):
    calls = record_dense_calls(monkeypatch)
    rng = np.random.default_rng(34)
    for d, degree in ((1, 10), (2, 5), (3, 3)):
        K2, K1 = random_kernel(rng, d, degree), random_kernel(rng, d, degree)
        out = compose_kernels(K2, K1)
        again = compose_kernels(K2, K1)
        assert [x.tobytes() for x in out.arrays()] == [x.tobytes() for x in again.arrays()]
        for _ in range(2):
            shuffled = []
            for K in (K2, K1):
                items = list(K.entries.items())
                shuffled.append(KernelCoeffs(d, d, dict(items[i] for i in rng.permutation(len(items)))))
            other = compose_kernels(*shuffled).entries
            keys = list(out.entries)
            assert set(other) == set(keys)
            assert (np.array([out.entries[k] for k in keys]).tobytes()
                    == np.array([other[k] for k in keys]).tobytes())
    assert len(calls) == 12


def test_dense_route_overflow_raises_overflow_error_without_a_warning(monkeypatch):
    calls = record_dense_calls(monkeypatch)
    # the two products are +inf and -inf: their sum is not a number
    K2 = KernelCoeffs(1, 1, {((0,), (0,)): 1e200, ((0,), (1,)): 1e200})
    K1 = KernelCoeffs(1, 1, {((0,), (0,)): 1e200, ((1,), (0,)): -1e200})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            compose_kernels(K2, K1)
    assert calls == [1]


# --- twisted product --------------------------------------------------------------

def test_twisted_product_unit_laws():
    rng = np.random.default_rng(4)
    one = kernel_delta(1, (0,), (0,))
    a = random_kernel(rng, 1, 3)
    left = twisted_product(one, a)
    right = twisted_product(a, one)
    m = max(abs(v) for v in a.entries.values())
    assert sup_diff(left, a, max_degree=3) < 1e-10 * m
    assert sup_diff(right, a, max_degree=3) < 1e-10 * m
    zero = KernelCoeffs(1, 1, {})
    assert not twisted_product(a, zero).entries


def test_twisted_product_number_symbol():
    zw = kernel_delta(1, (1,), (1,))
    out = twisted_product(zw, zw)
    assert abs(out.entries[((2,), (2,))] - 2.0) < 1e-12
    assert abs(out.entries[((1,), (1,))] - 1.0) < 1e-12
    extra = {k: v for k, v in out.entries.items() if k not in (((2,), (2,)), ((1,), (1,)))}
    assert all(abs(v) < 1e-12 for v in extra.values())


def test_twisted_product_associative():
    rng = np.random.default_rng(5)
    a = random_kernel(rng, 1, 2)
    b = random_kernel(rng, 1, 2)
    c = random_kernel(rng, 1, 2)
    left = twisted_product(twisted_product(a, b), c)
    right = twisted_product(a, twisted_product(b, c))
    scale = max(abs(v) for v in left.entries.values())
    assert sup_diff(left, right, max_degree=6) < 1e-10 * scale


def twisted_unmasked_reference(a1, a2, out_degree=None):
    """Both symbols raised to the inner degree, composed in full, then lowered."""
    deg1, deg2 = a1.support_degree(), a2.support_degree()
    target = deg1 + deg2 if out_degree is None else out_degree
    inner = target + max(deg1, deg2)
    raised = compose_kernels(t0(a1, 1.0, out_degree=inner), t0(a2, 1.0, out_degree=inner))
    return t0(raised, -1.0, out_degree=target)


def twisted_cases(d, degree, keep):
    """Two pairs of random symbols, each at the out-degrees None, 1, degree and 3 degree."""
    rng = np.random.default_rng(70 + d)
    idx = enumerate_degree(d, degree)

    def symbol():
        return KernelCoeffs(d, d, {(a, b): complex(*rng.standard_normal(2))
                                   for a in idx for b in idx if rng.uniform() < keep})

    for _ in range(2):
        a1, a2 = symbol(), symbol()
        for out_degree in (None, 1, degree, 3 * degree):
            yield a1, a2, out_degree


@pytest.mark.parametrize("d,degree", [(1, 4), (2, 2), (3, 1)])
@pytest.mark.parametrize("keep", [1.0, 0.3])
def test_twisted_product_equals_unmasked_route_bit_for_bit(monkeypatch, d, degree, keep):
    take_route(monkeypatch, series.BLOCK)
    for a1, a2, out_degree in twisted_cases(d, degree, keep):
        out = twisted_product(a1, a2, out_degree)
        (i1, v1), (i2, v2) = out.arrays(), twisted_unmasked_reference(a1, a2, out_degree).arrays()
        assert i1.tolist() == i2.tolist()
        assert v1.tobytes() == v2.tobytes()


@pytest.mark.parametrize("d,degree", [(1, 4), (2, 2), (3, 1)])
@pytest.mark.parametrize("keep", [1.0, 0.3])
def test_twisted_product_dense_route_within_magnitude_bound(monkeypatch, d, degree, keep):
    """The matrix-product route against the blocked one, per entry, within the
    distance that rounding allows them: the composed kernels C differ by at
    most product_sum_bound of compose(|K1|, |K2|), and the lowering t0(., -1),
    whose weights w_g are each within gamma(3) of exact, sums at most
    target + 1 copies per slot on each of d axes, so each result is within
    (g_c + g_l + g_c g_l) t0(compose(|K1|, |K2|), 1) of the exact product, with
    g_c = sqrt(2) gamma(2 n), n the largest term count of C, and
    g_l = gamma(d (target + 4))."""
    for a1, a2, out_degree in twisted_cases(d, degree, keep):
        deg1, deg2 = a1.support_degree(), a2.support_degree()
        target = deg1 + deg2 if out_degree is None else out_degree
        inner = target + max(deg1, deg2)
        K1, K2 = t0(a1, 1.0, out_degree=inner), t0(a2, 1.0, out_degree=inner)
        terms = compose_reference(mapped(K1, lambda v: 1.0), mapped(K2, lambda v: 1.0))
        g_c = math.sqrt(2) * gamma(2 * max((v.real for v in terms.entries.values()), default=0))
        g_l = gamma(d * (target + 4))
        size = t0(compose_reference(mapped(K1, abs), mapped(K2, abs)), 1.0, out_degree=target).entries
        take_route(monkeypatch, series.BLOCK)
        blocked = twisted_product(a1, a2, out_degree)
        take_route(monkeypatch, "dense")
        out = twisted_product(a1, a2, out_degree)
        # an entry that cancels may come out as an exact zero on one route only
        for key in set(out.entries) | set(blocked.entries):
            diff = abs(out.entries.get(key, 0) - blocked.entries.get(key, 0))
            assert diff <= 2 * (g_c + g_l + g_c * g_l) * size[key].real


def test_negative_out_degree_is_a_precondition_error():
    a = kernel_delta(1, (1,), (1,))
    for call in (lambda: t0(a, 0.5, out_degree=-1), lambda: wick_to_kernel(a, out_degree=-1),
                 lambda: kernel_to_wick(a, out_degree=-1), lambda: twisted_product(a, a, out_degree=-1)):
        with pytest.raises(PreconditionError, match="out_degree"):
            call()
    # zero stays a valid degree: only the constant entry is kept
    assert kernel_to_wick(identity_kernel(1, 2), out_degree=0).entries == {((0,), (0,)): 1 + 0j}


# --- matrices ---------------------------------------------------------------------

def operator_matrix_reference(K, N):
    """Dict loop over the kernel's entries, placing those inside the degree-N basis."""
    index = enumerate_degree(K.d, N)
    pos = {a: i for i, a in enumerate(index)}
    m = np.zeros((len(index), len(index)), dtype=complex)
    for (alpha, beta), v in K.entries.items():
        if alpha in pos and beta in pos:
            m[pos[alpha], pos[beta]] = v
    return m


@pytest.mark.parametrize("d", [2, 3])
def test_operator_matrix_matches_dict_loop(d):
    rng = np.random.default_rng(80 + d)
    for N in (1, 3):
        # engine outputs with entries above N, on both indices
        K = wick_to_kernel(random_sparse_kernel(rng, d, 2, 12), out_degree=N + 2)
        assert K._entries is None and K.support_degree() > N
        for n in (0, N, N + 3):
            got = operator_matrix(K, n)
            assert got.index == enumerate_degree(d, n)
            assert got.matrix.tobytes() == operator_matrix_reference(K, n).tobytes()
    empty = KernelCoeffs(d, d)
    assert operator_matrix(empty, 2).matrix.tobytes() == operator_matrix_reference(empty, 2).tobytes()


def test_operator_matrix_identity():
    M = operator_matrix(identity_kernel(1, 4), 4)
    assert np.allclose(M.matrix, np.eye(5))


def test_operator_matrix_number_and_shifted():
    M = operator_matrix(wick_to_kernel(kernel_delta(1, (1,), (1,)), out_degree=3), 3)
    assert np.allclose(M.matrix, np.diag([0.0, 1.0, 2.0, 3.0]))
    K = wick_to_kernel(antiwick_to_wick(kernel_delta(1, (1,), (1,))), out_degree=3)
    M2 = operator_matrix(K, 3)
    assert np.allclose(M2.matrix, np.diag([1.0, 2.0, 3.0, 4.0]))


def test_matrix_series_consistency():
    rng = np.random.default_rng(6)
    a = random_kernel(rng, 1, 3)
    F = SeriesCoeffs(1, {(k,): complex(*rng.standard_normal(2)) for k in range(4)})
    N = 6
    K = wick_to_kernel(a, out_degree=N)
    direct = apply_operator(K, F)
    M = operator_matrix(K, N)
    vec = np.array([F.entries.get(al, 0.0) for al in M.index])
    out_vec = M.matrix @ vec
    for z in (0.3, -0.8 + 0.4j, 1.2j):
        series_val = eval_series(direct, z)
        basis_vals = np.array([eval_series(series_delta(1, al), z) for al in M.index])
        assert abs(series_val - np.dot(out_vec, basis_vals)) < 1e-11


def test_psd_check_examples():
    from fockcalc.symbolcalc import OperatorMatrix
    idx = enumerate_degree(1, 3)
    good = OperatorMatrix(3, 1, idx, np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
    out = psd_check(good, 1e-12)
    assert out == {"hermitian": True, "psd": True, "min_eigenvalue": 1.0}
    bad = OperatorMatrix(2, 1, idx[:3], (np.diag([0.0, 1.0, 2.0]) - 0.5 * np.eye(3)).astype(complex))
    out = psd_check(bad, 1e-12)
    assert out["hermitian"] and not out["psd"]
    assert abs(out["min_eigenvalue"] + 0.5) < 1e-14
    shift = np.zeros((3, 3), dtype=complex)
    shift[1, 0] = shift[2, 1] = 1.0
    out = psd_check(OperatorMatrix(2, 1, idx[:3], shift), 1e-12)
    assert not out["hermitian"] and not out["psd"]
    assert math.isnan(out["min_eigenvalue"])


@pytest.mark.parametrize("tol", [-1e-12, float("nan"), -math.inf])
def test_psd_check_rejects_a_tolerance_that_is_not_non_negative(tol):
    M = operator_matrix(identity_kernel(1, 2), 2)
    with pytest.raises(ValueError, match="tol must be non-negative"):
        psd_check(M, tol)
    assert psd_check(M, math.inf)["psd"]


def test_antiwick_positivity():
    rng = np.random.default_rng(7)
    for N in (6, 12):
        diag = KernelCoeffs(1, 1, {((k,), (k,)): float(rng.uniform(0, 3)) for k in range(4)})
        K = wick_to_kernel(antiwick_to_wick(diag), out_degree=N)
        out = psd_check(operator_matrix(K, N), 1e-10)
        assert out["hermitian"] and out["psd"]


# --- norms ------------------------------------------------------------------------

def test_a2_r_norm_closed_form():
    one = kernel_delta(1, (0,), (0,))
    assert abs(a2_r_norm(one, 2.0) - math.pi / 2.0) < 1e-14
    for (a, b) in (((1,), (0,)), ((2,), (3,))):
        single = KernelCoeffs(1, 1, {(a, b): 1.0})
        expect = math.pi * 3.0 ** (-(sum(a) + sum(b)) / 2.0 - 1.0)
        assert abs(a2_r_norm(single, 3.0) - expect) < 1e-14


def test_a2_r_norm_quadrature_oracle():
    # independent check of the closed form against the defining double integral
    from fockcalc.quadrature import complex_grid
    from fockcalc.series import eval_kernel

    rng = np.random.default_rng(8)
    K = random_kernel(rng, 1, 2)
    r = 2.0
    grid = complex_grid(24, 1, scale=1.0 / math.sqrt(r))

    def norm_sq_quad():
        total = 0.0
        zs = grid.nodes[:, 0] + 1j * grid.nodes[:, 1]
        wz = grid.flat_weights * np.exp(-r * np.abs(zs) ** 2)
        for i, z in enumerate(zs):
            vals = eval_kernel(K, np.full(len(zs), z).reshape(-1, 1), zs.reshape(-1, 1))
            total += wz[i] * np.sum(wz * np.abs(vals) ** 2)
        return math.sqrt(total)

    assert abs(norm_sq_quad() - a2_r_norm(K, r)) < 1e-8


def test_a2_r_norm_homogeneous():
    rng = np.random.default_rng(9)
    K = random_kernel(rng, 1, 3)
    scaled = KernelCoeffs(1, 1, {k: (3 - 4j) * v for k, v in K.entries.items()})
    assert abs(a2_r_norm(scaled, 1.5) - 5.0 * a2_r_norm(K, 1.5)) < 1e-10


def test_norm_transfer_trend():
    rng = np.random.default_rng(10)
    r1 = 1.0
    grid = [2.5, 3.0, 4.0]
    ratios = []
    for r2 in grid:
        worst = 0.0
        rng2 = np.random.default_rng(10)
        for _ in range(30):
            a = random_kernel(rng2, 1, 4)
            worst = max(worst, a2_r_norm(antiwick_to_wick(a), r2) / a2_r_norm(a, r1))
        ratios.append(worst)
    assert all(math.isfinite(x) for x in ratios)
    assert ratios[0] >= ratios[1] >= ratios[2]


def test_operator_matrix_serialization():
    M = operator_matrix(identity_kernel(2, 1), 1)
    doc = M.to_jsonable()
    assert doc["N"] == 1 and doc["d"] == 2
    assert doc["index"] == [[0, 0], [0, 1], [1, 0]]
    assert doc["re"] == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    assert all(all(x == 0.0 for x in row) for row in doc["im"])


def test_t0_bound_constant_values():
    assert abs(t0_bound_constant(1.0, 3.0, 1) - 3.0) < 1e-14
    assert abs(t0_bound_constant(1.0, 4.0, 1) - 2.0) < 1e-14
    assert abs(t0_bound_constant(1.0, 3.0, 2) - 9.0) < 1e-14
    with pytest.raises(PreconditionError):
        t0_bound_constant(1.0, 2.0, 1)


def apply_reference(K, F):
    """Dict loop over K's entries, each matched against F's coefficient at its beta."""
    out = {}
    f = F.entries
    for (alpha, beta), kv in K.entries.items():
        fv = f.get(beta)
        if fv is not None:
            out[alpha] = out.get(alpha, 0.0) + kv * fv
    return SeriesCoeffs(K.d2, out)


def random_series_over(rng, d, degree, keep=1.0):
    return SeriesCoeffs(d, {
        a: complex(rng.standard_normal(), rng.standard_normal())
        for a in enumerate_degree(d, degree) if rng.random() < keep
    })


@pytest.mark.parametrize("block", [16, series.BLOCK, "dense"])
def test_apply_matches_loop_reference(monkeypatch, block):
    take_route(monkeypatch, block)
    rng = np.random.default_rng(47)
    cases = []
    for d, degree in ((1, 12), (2, 5), (3, 3)):
        # F covers part of K's betas and has keys above K's degree
        cases.append((random_kernel(rng, d, degree), random_series_over(rng, d, degree + 2, keep=0.6)))
        for n_entries in (5, 40, 300):
            cases.append((random_sparse_kernel(rng, d, degree, n_entries),
                          random_series_over(rng, d, degree, keep=0.5)))
        cases.append((random_kernel(rng, d, 2), SeriesCoeffs(d)))
    idx2, idx1 = enumerate_degree(2, 4), enumerate_degree(1, 6)
    rectangular = KernelCoeffs(2, 1, {
        (idx2[i], idx1[j]): complex(rng.standard_normal(), rng.standard_normal())
        for i, j in zip(rng.integers(len(idx2), size=40), rng.integers(len(idx1), size=40))
    })
    cases.append((rectangular, random_series_over(rng, 1, 8, keep=0.7)))
    for K, F in cases:
        out, ref = apply_operator(K, F), apply_reference(K, F)
        assert out.d == ref.d
        (oi, ov), (ri, rv) = out.arrays(), ref.arrays()
        # in entry order; bit for bit on the blocked route
        assert np.array_equal(oi, ri)
        if block == "dense":
            terms = apply_reference(mapped(K, lambda v: 1.0), mapped(F, lambda v: 1.0))
            assert_within_product_sum_bound(out, ref, terms, apply_reference(mapped(K, abs), mapped(F, abs)))
        else:
            assert ov.view(np.int64).tolist() == rv.view(np.int64).tolist()
        assert all(type(x) is int for a in out.entries for x in a)


def test_apply_value_overflow_raises_overflow_error():
    K = KernelCoeffs(1, 1, {((0,), (0,)): 1e200})
    with pytest.raises(OverflowError):
        apply_operator(K, SeriesCoeffs(1, {(0,): 1e200}))
