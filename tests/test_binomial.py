import cmath
import itertools
import math
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcalc import binomial, series
from fockcalc.binomial import l2_r_norm, s0, s0_inv, t0, t0_star
from fockcalc.errors import DimensionMismatch, PreconditionError
from fockcalc.multiindex import enumerate_degree, multi_binomial, total_degree
from fockcalc.series import KernelCoeffs, kernel_delta
from fockcalc.symbolcalc import compose_kernels, identity_kernel, kernel_to_wick, t0_bound_constant

from _support import index_add, random_kernel, sup, sup_diff


# --- defining sums --------------------------------------------------------------

def test_t0_of_unit_symbol_is_exponential_diagonal():
    out = t0(kernel_delta(1, (0,), (0,)), 0.5 + 0.25j, out_degree=6)
    for k in range(7):
        assert abs(out.entries[((k,), (k,))] - (0.5 + 0.25j) ** k) < 1e-14
    off = [k for k in out.entries if k[0] != k[1]]
    assert not off


def test_t0_shift_symbol():
    out = t0(kernel_delta(1, (1,), (0,)), 1.0, out_degree=6)
    for k in range(6):
        assert abs(out.entries[((k + 1,), (k,))] - math.sqrt(k + 1)) < 1e-14


def test_t0_default_extension():
    # default retained degree is the input support degree plus eight
    out = t0(kernel_delta(1, (0,), (0,)), 1.0)
    assert out.support_degree() == 8
    assert len(out.entries) == 9


def test_t0_at_zero_is_identity():
    rng = np.random.default_rng(0)
    c = random_kernel(rng, 2, 3)
    out = t0(c, 0.0)
    assert out.entries == c.entries


def test_t0_star_examples():
    d00 = kernel_delta(1, (0,), (0,))
    for t in (1.0, -1.0, 0.3 + 0.7j):
        out = t0_star(d00, t)
        assert out.entries == {((0,), (0,)): 1.0}
    plus = t0_star(kernel_delta(1, (1,), (1,)), 1.0)
    assert abs(plus.entries[((1,), (1,))] - 1) < 1e-15
    assert abs(plus.entries[((0,), (0,))] - 1) < 1e-15
    minus = t0_star(kernel_delta(1, (1,), (1,)), -1.0)
    assert abs(minus.entries[((0,), (0,))] + 1) < 1e-15


def test_s0_phases():
    assert s0(kernel_delta(1, (0,), (0,))).entries[((0,), (0,))] == 1.0
    assert s0(kernel_delta(1, (1,), (1,))).entries[((1,), (1,))] == -1.0
    assert s0(kernel_delta(1, (2,), (1,))).entries[((2,), (1,))] == -1j


def test_dimension_mismatch_rejected():
    rect = KernelCoeffs(2, 1, {((0, 0), (0,)): 1.0})
    for op in (lambda c: t0(c, 1.0), lambda c: t0_star(c, 1.0), s0):
        with pytest.raises(DimensionMismatch):
            op(rect)


# --- structural laws -------------------------------------------------------------

def test_inverse_laws():
    rng = np.random.default_rng(42)
    for d, degree in ((1, 6), (2, 3)):
        c = random_kernel(rng, d, degree)
        for t in (1.0, -1.0, 0.5 + 0.3j):
            back = t0(t0(c, t, out_degree=degree), -t, out_degree=degree)
            assert sup_diff(back, c) <= 1e-10 * sup(c)
            back2 = t0_star(t0_star(c, t), -t)
            assert sup_diff(back2, c) <= 1e-10 * sup(c)


def test_conjugation_law():
    rng = np.random.default_rng(7)
    c = random_kernel(rng, 1, 5)
    for t in (1.0, 0.5 + 0.3j):
        direct = t0(c, -t, out_degree=8)
        routed = s0_inv(t0(s0(c), t, out_degree=8))
        assert sup_diff(direct, routed) < 1e-12 * sup(c)
        direct2 = t0_star(c, -t)
        routed2 = s0_inv(t0_star(s0(c), t))
        assert sup_diff(direct2, routed2) < 1e-12 * sup(c)


def test_adjoint_law():
    rng = np.random.default_rng(13)
    c = random_kernel(rng, 1, 5)
    dk = random_kernel(rng, 1, 5)
    for t in (1.0, -1.0, 0.5 + 0.3j):
        lhs = sum(v * dk.entries[k].conjugate()
                  for k, v in t0(c, t, out_degree=5).entries.items() if k in dk.entries)
        dual = t0_star(dk, np.conj(t))
        rhs = sum(v * dual.entries[k].conjugate()
                  for k, v in c.entries.items() if k in dual.entries)
        norm = math.sqrt(sum(abs(v) ** 2 for v in c.entries.values()))
        norm *= math.sqrt(sum(abs(v) ** 2 for v in dk.entries.values()))
        assert abs(lhs - rhs) <= 1e-10 * norm


def test_semigroup_in_t():
    rng = np.random.default_rng(3)
    c = random_kernel(rng, 1, 4)
    t1, t2 = 0.4 - 0.2j, -0.9 + 0.5j
    two_step = t0(t0(c, t2, out_degree=10), t1, out_degree=10)
    one_step = t0(c, t1 + t2, out_degree=10)
    assert sup_diff(two_step, one_step, max_degree=10) < 1e-12 * sup(one_step)


def test_linearity():
    rng = np.random.default_rng(4)
    c1 = random_kernel(rng, 1, 4)
    c2 = random_kernel(rng, 1, 4)
    lam = 0.7 - 1.3j
    combo = KernelCoeffs(1, 1, {
        k: c1.entries.get(k, 0.0) + lam * c2.entries.get(k, 0.0)
        for k in set(c1.entries) | set(c2.entries)
    })
    lhs = t0(combo, 1.0, out_degree=6)
    r1 = t0(c1, 1.0, out_degree=6)
    r2 = t0(c2, 1.0, out_degree=6)
    rhs = KernelCoeffs(1, 1, {
        k: r1.entries.get(k, 0.0) + lam * r2.entries.get(k, 0.0)
        for k in set(r1.entries) | set(r2.entries)
    })
    assert sup_diff(lhs, rhs) < 1e-12 * sup(lhs)


def test_explicit_l2_bound():
    rng = np.random.default_rng(99)
    for _ in range(20):
        b = random_kernel(rng, 1, 6)
        base1 = l2_r_norm(b, 1.0)
        base2 = l2_r_norm(b, 0.5)
        for t in (1.0, -1.0, 0.6 + 0.8j):
            out = t0(b, t, out_degree=b.support_degree() + 8)
            assert l2_r_norm(out, 3.0) <= t0_bound_constant(1.0, 3.0, 1) * base1 * (1 + 1e-12)
            assert l2_r_norm(out, 4.0) <= t0_bound_constant(1.0, 4.0, 1) * base1 * (1 + 1e-12)
            assert l2_r_norm(out, 2.0) <= t0_bound_constant(0.5, 2.0, 1) * base2 * (1 + 1e-12)


# --- loop reference ---------------------------------------------------------------

def loop_powers(t, n):
    out = [complex(1.0)]
    for _ in range(n):
        out.append(out[-1] * t)
    return out


def t0_reference(c, t, out_degree):
    """Direct sum over the whole g-simplex, one multi_binomial pair per term."""
    d = c.d
    tp = loop_powers(t, out_degree)
    out = {}
    for (a, b), v in c.entries.items():
        room = out_degree - max(total_degree(a), total_degree(b))
        if room < 0:
            continue
        for g in enumerate_degree(d, room):
            key = (index_add(a, g), index_add(b, g))
            w = math.sqrt(multi_binomial(key[0], g) * multi_binomial(key[1], g))
            out[key] = out.get(key, 0.0) + w * tp[total_degree(g)] * v
    return KernelCoeffs(d, d, out)


def t0_star_reference(c, t):
    d = c.d
    tp = loop_powers(t, c.support_degree())
    out = {}
    for (a, b), v in c.entries.items():
        for g in itertools.product(*(range(min(ai, bi) + 1) for ai, bi in zip(a, b))):
            key = (tuple(x - y for x, y in zip(a, g)), tuple(x - y for x, y in zip(b, g)))
            w = math.sqrt(multi_binomial(a, g) * multi_binomial(b, g))
            out[key] = out.get(key, 0.0) + w * tp[total_degree(g)] * v
    return KernelCoeffs(d, d, out)


def random_sparse_kernel(rng, d, degree, n_entries):
    idx = enumerate_degree(d, degree)
    entries = {}
    while len(entries) < n_entries:
        a, b = (idx[i] for i in rng.integers(len(idx), size=2))
        entries[(a, b)] = complex(rng.standard_normal(), rng.standard_normal())
    return KernelCoeffs(d, d, entries)


def test_sweep_matches_loop_reference():
    rng = np.random.default_rng(2024)
    for d, degree in ((1, 12), (2, 8), (3, 5)):
        for _ in range(3):
            c = random_sparse_kernel(rng, d, degree, 12)
            deg = c.support_degree()
            for t in (0.6 - 0.45j, -1.3 + 0.2j):
                pairs = [(t0(c, t, out_degree=n), t0_reference(c, t, n))
                         for n in (deg + 4, deg - 2)]
                pairs.append((t0_star(c, t), t0_star_reference(c, t)))
                for out, ref in pairs:
                    assert set(out.entries) == set(ref.entries)
                    if d == 1:
                        assert out.entries == ref.entries
                    else:
                        assert sup_diff(out, ref) <= 1e-14 * sup(ref)


def test_sweep_blocks_match_loop_reference(monkeypatch):
    # a block of 16 copies splits every pass into many blocks
    monkeypatch.setattr(series, "BLOCK", 16)
    rng = np.random.default_rng(77)
    kernels = [random_kernel(rng, 1, 10)]
    kernels += [random_sparse_kernel(rng, d, degree, 40) for d, degree in ((1, 12), (2, 8), (3, 5))]
    t = 0.6 - 0.45j
    for c in kernels:
        n = c.support_degree() + 2
        for out, ref in ((t0(c, t, out_degree=n), t0_reference(c, t, n)),
                         (t0_star(c, t), t0_star_reference(c, t))):
            assert set(out.entries) == set(ref.entries)
            if c.d == 1:
                assert out.entries == ref.entries
            else:
                assert sup_diff(out, ref) <= 1e-14 * sup(ref)


def test_keys_beyond_one_int64_word():
    # at d = 6 and out-degree 65 the twelve key components need 66^12 > 2^63 values
    c = KernelCoeffs(6, 6, {((64, 0, 0, 0, 0, 0), (0,) * 6): 0.8 - 0.3j})
    t = 0.7 + 0.2j
    raised = t0(c, t, out_degree=65)
    ref = t0_reference(c, t, 65)
    assert set(raised.entries) == set(ref.entries) and len(ref.entries) == 7
    assert sup_diff(raised, ref) <= 1e-14 * sup(ref)
    lowered = t0_star(raised, -t)
    ref = t0_star_reference(raised, -t)
    assert set(lowered.entries) == set(ref.entries)
    assert sup_diff(lowered, ref) <= 1e-14 * sup(ref)


# --- properties against the loop references -----------------------------------------

@st.composite
def sparse_kernels(draw):
    d = draw(st.integers(1, 3))
    index = st.lists(st.integers(0, 6), min_size=d, max_size=d).map(tuple)
    value = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    entries = draw(st.dictionaries(st.tuples(index, index), value, min_size=1, max_size=12))
    return KernelCoeffs(d, d, entries)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(c=sparse_kernels(),
       t=st.complex_numbers(min_magnitude=0.1, max_magnitude=1.5, allow_nan=False, allow_infinity=False),
       shift=st.integers(-3, 4))
def test_sweep_properties(c, t, shift):
    out_degree = max(c.support_degree() + shift, 0)
    for out, ref in ((t0(c, t, out_degree=out_degree), t0_reference(c, t, out_degree)),
                     (t0_star(c, t), t0_star_reference(c, t))):
        assert set(out.entries) == set(ref.entries)
        assert sup_diff(out, ref) <= 1e-14 * sup(ref)
        # the output reads like a validated container: Python ints and complex
        for (a, b), v in out.entries.items():
            assert all(type(x) is int for x in a + b) and type(v) is complex
        assert KernelCoeffs(out.d2, out.d1, out.entries).entries == out.entries
        assert len(out) == len(out.entries)


def test_value_overflow_raises_overflow_error():
    # finite inputs whose products leave float range: one error, no numpy warning first
    with pytest.raises(OverflowError):
        t0(KernelCoeffs(1, 1, {((0,), (0,)): 1e308}), 4.0, out_degree=2)
    big = KernelCoeffs(1, 1, {((0,), (0,)): 1e200})
    with pytest.raises(OverflowError):
        compose_kernels(big, big)


# --- the dense route ----------------------------------------------------------------

def as_bytes(c):
    index, values = c.arrays()
    return index.tobytes(), values.tobytes()


def dense_calls(monkeypatch):
    """The inputs that reach the dense route, one per call."""
    calls = []
    dense = binomial._dense

    def counted(keys, *args):
        calls.append(len(keys))
        return dense(keys, *args)

    monkeypatch.setattr(binomial, "_dense", counted)
    return calls


def blocked(monkeypatch, op, c):
    """op(c) on the blocked route."""
    with monkeypatch.context() as m:
        m.setattr(binomial, "_fits_dense", lambda d, N: False)
        return op(c)


def force_dense(monkeypatch):
    """Send every later sweep down the dense route, d = 1 and sparse inputs included."""
    monkeypatch.setattr(binomial, "_fits_dense", lambda d, N: True)
    monkeypatch.setattr(binomial, "_cell_steps", lambda d, N, top: 0)


def sweeps(degree, t):
    """Raising to the support degree, truncating below it, and lowering."""
    return (lambda c: t0(c, t, out_degree=degree), lambda c: t0(c, t, out_degree=degree - 1),
            lambda c: t0_star(c, t))


DENSE_T = (1.0, -1.0, cmath.rect(0.8, 0.7))


@pytest.mark.parametrize("d, degree", [(1, 10), (2, 6), (2, 3), (3, 3)])
def test_dense_route_gives_the_blocked_routes_bytes(monkeypatch, d, degree):
    c = random_kernel(np.random.default_rng(40 + d), d, degree)  # canonical order
    if d == 1:  # d = 1 takes the dense route only when made to
        force_dense(monkeypatch)
    calls = dense_calls(monkeypatch)
    for t in DENSE_T:
        for op in sweeps(degree, t):
            assert as_bytes(op(c)) == as_bytes(blocked(monkeypatch, op, c))
    assert len(calls) == 3 * len(DENSE_T)


def test_dense_route_does_not_depend_on_entry_order(monkeypatch):
    rng = np.random.default_rng(12)
    calls = dense_calls(monkeypatch)
    for d, degree in ((2, 5), (3, 3)):
        c = random_kernel(rng, d, degree)
        entries = list(c.entries.items())
        shuffled = KernelCoeffs(d, d, dict(entries[i] for i in rng.permutation(len(entries))))
        for t in DENSE_T:
            for op in sweeps(degree, t):
                assert as_bytes(op(shuffled)) == as_bytes(op(c))
    assert len(calls) == 2 * 2 * 3 * len(DENSE_T)


def ones(d, degree):
    return KernelCoeffs(d, d, {(a, b): 1.0 for a in enumerate_degree(d, degree) for b in enumerate_degree(d, degree)})


@pytest.mark.parametrize("K, size", [(identity_kernel(1, 10), 1), (identity_kernel(2, 6), 1),
                                     (identity_kernel(3, 3), 1), (ones(1, 6), 43), (ones(2, 4), 171)])
def test_dense_route_cancels_exactly(monkeypatch, K, size):
    # the identities and d = 1 take the dense route only when made to
    want = blocked(monkeypatch, kernel_to_wick, K)
    force_dense(monkeypatch)
    calls = dense_calls(monkeypatch)
    got = kernel_to_wick(K)
    assert calls == [len(K)]
    assert as_bytes(got) == as_bytes(want)
    assert len(got) == size
    if size == 1:
        assert got.entries == {((0,) * K.d, (0,) * K.d): 1.0}


def test_sparse_inputs_and_d_1_stay_on_the_blocked_route(monkeypatch):
    def forbidden(*args):
        raise AssertionError("dense route planned")

    monkeypatch.setattr(binomial, "_plan", forbidden)
    rng = np.random.default_rng(8)
    cases = []
    for d, top in ((2, 64), (3, 24)):  # the benchmark's sparse CLI transforms
        c = random_sparse_kernel(rng, d, 12, 4)
        cases += [(c, lambda c, top=top: t0(c, 0.7 - 0.3j, out_degree=top)), (c, lambda c: t0_star(c, 0.7 - 0.3j))]
    for d, degree in ((2, 8), (3, 5)):
        c = random_sparse_kernel(rng, d, degree, 40)
        cases += [(c, lambda c, n=degree: t0(c, 0.7 - 0.3j, out_degree=n)), (c, lambda c: t0_star(c, 0.7 - 0.3j))]
    c = random_kernel(rng, 1, 64)  # a full box, but at d = 1
    cases += [(c, lambda c: t0(c, 0.7 - 0.3j, out_degree=64)), (c, lambda c: t0_star(c, 0.7 - 0.3j))]
    for c, op in cases:
        op(c)  # binomial tables are cached from here on
        tracemalloc.start()
        try:
            op(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20
    # the benchmark's overflow probe: one entry, d = 1, raised to 1200
    probe = kernel_delta(1, (600,), (0,))
    for _ in range(2):
        tracemalloc.start()
        try:
            with pytest.raises(OverflowError):
                t0(probe, 1.0, out_degree=1200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 4 << 20


def test_dense_plans_are_cached_within_the_tile_budget(monkeypatch):
    monkeypatch.setattr(binomial, "_plans", OrderedDict())
    shapes = ((2, 6), (3, 3), (2, 4))
    budget = 2 * max(binomial._plan_bytes(d, n) for d, n in shapes)  # room for two of the six plans
    monkeypatch.setattr(series, "TILE_BYTES", budget)
    calls = dense_calls(monkeypatch)
    rng = np.random.default_rng(4)
    for d, n in shapes * 2:
        c = random_kernel(rng, d, n)
        for op in (lambda c, n=n: t0(c, 0.5, out_degree=n), lambda c: t0_star(c, 0.5)):
            assert as_bytes(op(c)) == as_bytes(blocked(monkeypatch, op, c))
            assert sum(plan.nbytes for plan in binomial._plans.values()) <= budget
    assert len(calls) == 12
    assert len(binomial._plans) < 6
    for (d, n, _), plan in binomial._plans.items():
        assert plan.nbytes <= binomial._plan_bytes(d, n)


def test_t0_term_budget(monkeypatch):
    with pytest.raises(PreconditionError, match="budget"):
        t0(kernel_delta(1, (1,), (1,)), 1.0, out_degree=10 ** 20)
    # sum over entries of C(D - max(|a|, |b|) + d, d): 1,925,097 for the dense (2,16) box at D = 24
    deg = np.array([max(sum(a), sum(b)) for a in enumerate_degree(2, 16) for b in enumerate_degree(2, 16)])
    binomial._check_budget(deg, 24, 2)
    monkeypatch.setattr(binomial, "MAX_RAISE_TERMS", 1925097)
    binomial._check_budget(deg, 24, 2)
    monkeypatch.setattr(binomial, "MAX_RAISE_TERMS", 1925096)
    with pytest.raises(PreconditionError, match="1925097 terms"):
        binomial._check_budget(deg, 24, 2)
