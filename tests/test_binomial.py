import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcalc import series
from fockcalc.binomial import l2_r_norm, s0, s0_inv, t0, t0_star
from fockcalc.errors import DimensionMismatch
from fockcalc.multiindex import enumerate_degree, multi_binomial, total_degree
from fockcalc.series import KernelCoeffs, kernel_delta
from fockcalc.symbolcalc import compose_kernels, t0_bound_constant

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
