import cmath
import math
import re
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import numpy as np
import pytest

from fockcalc import series
from fockcalc.binomial import s0
from fockcalc.errors import DimensionMismatch, DomainError
from fockcalc.multiindex import enumerate_degree, multi_binomial, multi_factorial, validate_index
from fockcalc.quadrature import gauss_hermite_grid
from fockcalc.series import (
    KernelCoeffs,
    SeriesCoeffs,
    a2_bilinear,
    a2_inner,
    coefficient_conjugate,
    diamond,
    eval_basis,
    eval_kernel,
    eval_series,
    hermite_eval,
    kernel_delta,
    ladder,
    multiply,
    series_delta,
)

from _support import index_add, random_kernel, random_series


# --- evaluation ------------------------------------------------------------

INVALID_INDICES = [(-1,), (2, -3), (1.5,), (True,)]


@pytest.mark.parametrize("alpha", INVALID_INDICES)
def test_eval_basis_rejects_invalid_indices(alpha):
    # (-1,) raised a bare IndexError from the power table
    with pytest.raises(ValueError, match=re.escape(repr(alpha))):
        eval_basis(alpha, np.full(len(alpha), 0.5))


@pytest.mark.parametrize("alpha", INVALID_INDICES)
def test_hermite_eval_rejects_invalid_indices(alpha):
    # (-1,) returned h_0(0.5)
    with pytest.raises(ValueError, match=re.escape(repr(alpha))):
        hermite_eval(alpha, np.full(len(alpha), 0.5))


def test_eval_basis_values():
    assert eval_basis((0,), 3.7 + 1j) == 1.0
    assert abs(eval_basis((2,), 2.0) - 2 * math.sqrt(2)) < 1e-14
    assert abs(eval_basis((1, 1), np.array([1j, 1 + 1j])) - (-1 + 1j)) < 1e-14


@pytest.mark.parametrize("alpha", [(171,), (300,), (120, 120)])
def test_eval_basis_beyond_float_factorial(alpha):
    # alpha! exceeds float range here while e_alpha on the unit circle does not
    mpmath = pytest.importorskip("mpmath")
    phases = np.array([0.0, 0.7, -1.6, 3.0])
    pts = np.stack([np.exp(1j * (j + 1) * phases) for j in range(len(alpha))], axis=-1)
    vals = eval_basis(alpha, pts)
    with mpmath.workdps(40):
        refs = [complex(mpmath.fprod(mpmath.mpc(zj) ** a / mpmath.sqrt(mpmath.factorial(a))
                                     for zj, a in zip(z, alpha))) for z in pts]
    # at z = 1 only the normaliser rounds; complex powers elsewhere lose ~eps per degree
    assert abs(vals[0] - refs[0]) <= 1e-15 * abs(refs[0])
    for v, ref in zip(vals, refs):
        assert abs(v - ref) <= 1e-15 * sum(alpha) * abs(ref)


def test_eval_series_single_and_linear():
    assert abs(eval_series(series_delta(1, (2,)), 2.0) - 2 * math.sqrt(2)) < 1e-14
    F = SeriesCoeffs(1, {(0,): 1.0, (1,): 1.0})
    assert abs(eval_series(F, 1j) - (1 + 1j)) < 1e-14


def test_eval_series_exp_truncation():
    # degree-12 truncation of exp(z) at z=1: remainder below 1/13!
    F = SeriesCoeffs(1, {(k,): 1.0 / math.sqrt(multi_factorial((k,))) for k in range(13)})
    assert abs(eval_series(F, 1.0) - math.e) < 1e-9


def test_eval_kernel_values():
    K = kernel_delta(1, (1,), (1,))
    assert abs(eval_kernel(K, 1 + 1j, 1 - 1j) - 2j) < 1e-14
    ident = KernelCoeffs(1, 1, {((k,), (k,)): 1.0 for k in range(11)})
    assert abs(eval_kernel(ident, 0.5, 0.5) - math.exp(0.25)) < 1e-10
    zero = KernelCoeffs(1, 1, {})
    assert eval_kernel(zero, 1.0, 2.0) == 0.0


def test_eval_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        eval_series(series_delta(2, (1, 0)), 1.0 + 0j)


def basis_reference(alpha, z):
    """e_alpha(z) from one power z_j ** alpha_j per axis, independent of the power tables."""
    pts, single = series._as_points(z, len(alpha))
    vals = np.ones(len(pts), dtype=complex)
    for j, a in enumerate(alpha):
        if a:
            vals = vals * pts[:, j] ** a
    vals = vals / series._int_sqrt(multi_factorial(alpha))
    return complex(vals[0]) if single else vals


def eval_series_reference(F, z):
    """Per-entry sum of basis_reference, the evaluation the power tables replace."""
    return sum((v * basis_reference(a, z) for a, v in F.entries.items()), 0j * basis_reference((0,) * F.d, z))


def eval_kernel_reference(K, z, w):
    """Per-entry sum of basis_reference products, z and w broadcast over points."""
    zero = 0j * basis_reference((0,) * K.d2, z) * basis_reference((0,) * K.d1, w)
    return sum((v * basis_reference(a, z) * basis_reference(b, np.conj(w)) for (a, b), v in K.entries.items()),
               zero)


def random_sparse_kernel(rng, d, degree, n_entries):
    idx = enumerate_degree(d, degree)
    picks = rng.integers(len(idx), size=(n_entries, 2))
    return KernelCoeffs(d, d, {(idx[i], idx[j]): complex(*rng.standard_normal(2)) for i, j in picks})


def random_points(rng, d, n, radius=1.3):
    return rng.uniform(-radius, radius, (n, d)) + 1j * rng.uniform(-radius, radius, (n, d))


@pytest.mark.parametrize("d, degree", [(1, 9), (2, 5), (3, 3)])
def test_eval_matches_per_entry_reference(d, degree):
    rng = np.random.default_rng(60 + d)
    kernels = [random_kernel(rng, d, degree), random_sparse_kernel(rng, d, degree, 7),
               KernelCoeffs(d, d, {((degree,) + (0,) * (d - 1), (0,) * (d - 1) + (degree,)): 0.5j})]
    series = [random_series(rng, d, degree), SeriesCoeffs(d, {(1,) * d: 2.0, (degree,) * d: -1j})]
    many, other = random_points(rng, d, 37), random_points(rng, d, 37)
    one, single = many[:1], many[0]
    for alpha in enumerate_degree(d, degree):
        for z in (many, single):
            got, ref = eval_basis(alpha, z), basis_reference(alpha, z)
            assert np.shape(got) == np.shape(ref)
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))
    for F in series:
        for z in (many, one, single):
            got, ref = eval_series(F, z), eval_series_reference(F, z)
            assert np.shape(got) == np.shape(ref)
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))
    for K in kernels:
        # same point counts, a one-point array or a single point on either side
        for z, w in ((many, other), (many, many), (one, other), (many, one), (single, other),
                     (many, single), (single, single), (one, one)):
            got, ref = eval_kernel(K, z, w), eval_kernel_reference(K, z, w)
            assert np.shape(got) == np.shape(ref)
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_eval_kernel_entry_blocks_match_reference(monkeypatch):
    # 80 entries on 50 points summed in blocks of 7: eleven full blocks and a partial last one
    monkeypatch.setattr(series, "BLOCK", 2 * (7 * 50 + 3))
    rng = np.random.default_rng(64)
    K = KernelCoeffs(1, 1, {((k,), (k,)): complex(*rng.standard_normal(2)) for k in range(80)})
    pts, other = random_points(rng, 1, 50, 0.9), random_points(rng, 1, 50, 0.9)
    for z, w in ((pts, other), (pts, pts), (pts[0], other), (pts, other[0])):
        ref = eval_kernel_reference(K, z, w)
        assert np.max(np.abs(eval_kernel(K, z, w) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_eval_empty_containers():
    pts = np.array([[0.5 + 1j, 2.0], [1.0, -1j]])
    assert eval_series(SeriesCoeffs(2, {}), pts[0]) == 0.0
    assert np.array_equal(eval_series(SeriesCoeffs(2, {}), pts), np.zeros(2))
    assert np.array_equal(eval_kernel(KernelCoeffs(2, 2, {}), pts, pts[0]), np.zeros(2))
    assert eval_kernel(KernelCoeffs(2, 2, {}), pts[0], pts[1]) == 0.0


def test_eval_point_count_mismatch():
    K = kernel_delta(1, (1,), (1,))
    with pytest.raises(DimensionMismatch):
        eval_kernel(K, np.ones(3), np.ones(4))


@pytest.mark.parametrize("degree", [171, 300])
def test_eval_beyond_float_factorial(degree):
    # degree! leaves float range; the tables never form it
    mpmath = pytest.importorskip("mpmath")
    F = SeriesCoeffs(1, {(degree,): 1.0, (degree - 1,): -0.5j, (0,): 1.0})
    K = KernelCoeffs(1, 1, {((degree,), (degree - 2,)): 1.0, ((1,), (degree,)): 2.0})
    phases = np.array([0.0, 0.7, -1.6, 3.0])
    z, w = 1.1 * np.exp(1j * phases), 0.9 * np.exp(-2j * phases)

    def e(k, x):
        return mpmath.mpc(x) ** k / mpmath.sqrt(mpmath.factorial(k))

    with mpmath.workdps(40):
        f_ref = [complex(e(degree, x) - 0.5j * e(degree - 1, x) + 1) for x in z]
        k_ref = [complex(e(degree, x) * e(degree - 2, y.conjugate()) + 2 * e(1, x) * e(degree, y.conjugate()))
                 for x, y in zip(z, w)]
    # complex products lose about eps per degree, as eval_basis does
    for got, ref in ((eval_series(F, z), f_ref), (eval_kernel(K, z, w), k_ref)):
        for v, r in zip(got, ref):
            assert abs(v - r) <= 1e-15 * degree * max(1.0, abs(r))


def test_entries_are_read_only():
    c = KernelCoeffs(1, 1, {((1,), (1,)): 1.0})
    c.arrays()
    with pytest.raises(TypeError):
        c.entries[((2,), (0,))] = 1.0
    out = s0(c)
    with pytest.raises(TypeError):
        out.entries[((1,), (1,))] = 5.0
    assert len(out) == len(out.entries) == 1
    with pytest.raises(TypeError):
        series_delta(1, (2,)).entries[(0,)] = 1.0


# --- products and pairings ---------------------------------------------------

def test_multiply_monomials():
    e1 = series_delta(1, (1,))
    e2 = series_delta(1, (2,))
    p = multiply(e1, e1)
    assert set(p.entries) == {(2,)}
    assert abs(p.entries[(2,)] - math.sqrt(2)) < 1e-14
    q = multiply(e1, e2)
    assert abs(q.entries[(3,)] - math.sqrt(3)) < 1e-14


def test_multiply_identity_element():
    rng = np.random.default_rng(11)
    F = random_series(rng, 2, 3)
    one = series_delta(2, (0, 0))
    p = multiply(one, F)
    assert set(p.entries) == set(F.entries)
    for k, v in F.entries.items():
        assert abs(p.entries[k] - v) < 1e-14


def test_multiply_matches_pointwise_products():
    for d in (1, 2, 3):
        rng = np.random.default_rng(5)
        F1 = random_series(rng, d, 4)
        F2 = random_series(rng, d, 5)
        P = multiply(F1, F2)
        pts = rng.uniform(-1.5, 1.5, (20, d)) + 1j * rng.uniform(-1.5, 1.5, (20, d))
        lhs = eval_series(P, pts)
        rhs = eval_series(F1, pts) * eval_series(F2, pts)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_multiply_beyond_float_binomial():
    # C(1200, 600) ~ 4e359 exceeds float range; its square root does not
    e600 = series_delta(1, (600,))
    out = multiply(e600, e600)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = float(mpmath.sqrt(mpmath.binomial(1200, 600)))
    assert set(out.entries) == {(1200,)}
    assert abs(out.entries[(1200,)] - ref) <= 1e-15 * ref


def test_a2_inner_orthonormality():
    for a in enumerate_degree(2, 3):
        for b in enumerate_degree(2, 3):
            v = a2_inner(series_delta(2, a), series_delta(2, b))
            assert v == (1.0 if a == b else 0.0)


def test_a2_inner_positivity_and_linearity():
    rng = np.random.default_rng(2)
    F = random_series(rng, 1, 6)
    n2 = a2_inner(F, F)
    assert abs(n2.imag) < 1e-14 and n2.real >= 0
    G = SeriesCoeffs(1, {(0,): 1.0, (1,): 1.0})
    assert a2_inner(G, series_delta(1, (1,))) == 1.0


def test_a2_bilinear_vs_sesquilinear():
    e0, e1 = series_delta(1, (0,)), series_delta(1, (1,))
    assert a2_bilinear(e1, e1) == 1.0
    assert a2_bilinear(e1, SeriesCoeffs(1, {})) == 0.0
    F = SeriesCoeffs(1, {(0,): 1.0, (1,): 1j})
    assert abs(a2_bilinear(F, F)) < 1e-15          # 1 + i^2 = 0
    assert abs(a2_inner(F, F) - 2.0) < 1e-15


# --- ladder / diamond --------------------------------------------------------

def test_ladder_examples():
    e2 = series_delta(1, (2,))
    up = ladder(e2, 1, "multiply")
    assert abs(up.entries[(3,)] - math.sqrt(3)) < 1e-14
    assert not ladder(series_delta(1, (0,)), 1, "differentiate").entries
    down = ladder(series_delta(1, (3,)), 1, "differentiate")
    assert abs(down.entries[(2,)] - math.sqrt(3)) < 1e-14


def test_ladder_adjointness():
    rng = np.random.default_rng(17)
    F = random_series(rng, 2, 3)
    G = random_series(rng, 2, 4)
    for j in (1, 2):
        lhs = a2_inner(ladder(F, j, "multiply"), G)
        rhs = a2_inner(F, ladder(G, j, "differentiate"))
        assert abs(lhs - rhs) < 1e-12


def ladder_reference(F, j, mode):
    """The dict loop that ladder replaced: each entry moved by +-e_j and weighted."""
    out = {}
    for alpha, v in F.entries.items():
        k = alpha[j - 1] + (mode == "multiply")
        if k:
            key = tuple(a + (1 if mode == "multiply" else -1) * (i == j - 1) for i, a in enumerate(alpha))
            out[key] = out.get(key, 0.0) + math.sqrt(k) * v
    return SeriesCoeffs(F.d, out)


def conjugate_reference(F):
    return SeriesCoeffs(F.d, {a: np.conj(v) for a, v in F.entries.items()})


def inner_reference(F, G):
    """The pairing loop that a2_inner replaced."""
    g = G.entries
    return complex(sum(v * g[k].conjugate() for k, v in F.entries.items() if k in g))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ladder_and_conjugate_match_the_dict_loops(d):
    rng = np.random.default_rng(80 + d)
    idx = enumerate_degree(d, 4)
    zero_axis = [a for a in idx if 0 in a]  # entries with alpha_j = 0 on some axis
    cases = [random_series(rng, d, 3), SeriesCoeffs(d, {}),
             SeriesCoeffs(d, {a: complex(*rng.standard_normal(2)) for a in zero_axis[::2]}),
             SeriesCoeffs(d, {idx[i]: complex(*rng.standard_normal(2)) for i in rng.integers(len(idx), size=9)})]
    for F in cases:
        for j in range(1, d + 1):
            for mode in ("multiply", "differentiate"):
                _same_container(ladder(F, j, mode), ladder_reference(F, j, mode))
        _same_container(coefficient_conjugate(F), conjugate_reference(F))


def test_ladder_keeps_keys_within_int64_and_values_within_float_range():
    top = 2 ** 63 - 1
    F = SeriesCoeffs(2, {(0, top): 1.0, (1, 0): 2.0})
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        ladder(F, 2, "multiply")
    assert ladder(F, 1, "multiply").entries == {(1, top): 1.0, (2, 0): 2 * math.sqrt(2)}
    assert ladder(F, 2, "differentiate").entries == {(0, top - 1): math.sqrt(top)}
    with pytest.raises(OverflowError):  # sqrt(4) * 1e308, like the other array engines
        ladder(series_delta(1, (3,), 1e308), 1, "multiply")


def test_a2_inner_matches_the_pairing_loop():
    rng = np.random.default_rng(90)
    for trial in range(60):
        d = 1 + trial % 3
        idx = enumerate_degree(d, 3)
        F, G = (SeriesCoeffs(d, {idx[i]: complex(*rng.standard_normal(2))
                                 for i in rng.integers(len(idx), size=int(rng.integers(0, 12)))})
                for _ in range(2))
        assert np.array(a2_inner(F, G)).tobytes() == np.array(inner_reference(F, G)).tobytes()


def test_diamond_examples():
    e1, e2 = series_delta(1, (1,)), series_delta(1, (2,))
    rng = np.random.default_rng(3)
    F = random_series(rng, 1, 5)
    same = diamond(series_delta(1, (0,)), F)
    assert all(abs(same.entries[k] - v) < 1e-14 for k, v in F.entries.items())
    d12 = diamond(e1, e2)
    assert abs(d12.entries[(1,)] - math.sqrt(2)) < 1e-14
    assert not diamond(e2, e1).entries


def test_diamond_beyond_float_factorial():
    # 171! exceeds float range; sqrt(C(beta, alpha)) does not
    e171 = series_delta(1, (171,))
    assert diamond(e171, e171).entries == {(0,): 1}
    mpmath = pytest.importorskip("mpmath")
    out = diamond(e171, series_delta(1, (300,)))
    with mpmath.workdps(40):
        ref = float(mpmath.sqrt(mpmath.binomial(300, 171)))
    assert set(out.entries) == {(129,)}
    assert abs(out.entries[(129,)] - ref) <= 1e-15 * ref


def test_diamond_adjointness():
    for d in (1, 2, 3):
        rng = np.random.default_rng(23)
        F1 = random_series(rng, d, 3)
        F2 = random_series(rng, d, 5)
        G = random_series(rng, d, 4)
        lhs = a2_inner(diamond(F1, F2), G)
        rhs = a2_inner(F2, multiply(coefficient_conjugate(F1), G))
        assert abs(lhs - rhs) < 1e-10


def multiply_reference(F1, F2):
    """The pair loop that multiply replaced; also returns, per key, the sum of |terms|."""
    out, size = {}, {}
    for a1, v1 in F1.entries.items():
        for a2, v2 in F2.entries.items():
            alpha = index_add(a1, a2)
            w = series._int_sqrt(multi_binomial(alpha, a1))
            out[alpha] = out.get(alpha, 0.0) + w * v1 * v2
            size[alpha] = size.get(alpha, 0.0) + w * abs(v1) * abs(v2)
    return SeriesCoeffs(F1.d, out), size


def diamond_reference(F1, F2):
    """The pair loop that diamond replaced; also returns, per key, the sum of |terms|."""
    out, size = {}, {}
    for alpha, v1 in F1.entries.items():
        for beta, v2 in F2.entries.items():
            c = multi_binomial(beta, alpha)  # zero unless alpha <= beta
            if c:
                key = tuple(b - a for a, b in zip(alpha, beta))
                out[key] = out.get(key, 0.0) + series._int_sqrt(c) * v1 * v2
                size[key] = size.get(key, 0.0) + series._int_sqrt(c) * abs(v1) * abs(v2)
    return SeriesCoeffs(F1.d, out), size


def _sparse_series(rng, d, degree, n):
    idx = enumerate_degree(d, degree)
    return SeriesCoeffs(d, {idx[i]: complex(*rng.standard_normal(2))
                            for i in rng.choice(len(idx), size=min(n, len(idx)), replace=False)})


@pytest.mark.parametrize("d", [1, 2, 3])
def test_multiply_and_diamond_match_the_pair_loops(d):
    rng = np.random.default_rng(70 + d)
    empty = SeriesCoeffs(d, {})
    cases = [(random_series(rng, d, 4), random_series(rng, d, 6)),
             (_sparse_series(rng, d, 9, 12), _sparse_series(rng, d, 12, 30)),
             (empty, random_series(rng, d, 2)), (random_series(rng, d, 2), empty),
             (_sparse_series(rng, d, 5, 1), _sparse_series(rng, d, 8, 40))]
    cases += [(G, F) for F, G in cases]
    if d == 1:  # 301 x 121 pairs take 5 blocks of whole entries of the first factor
        long, short = _sparse_series(rng, 1, 300, 301), _sparse_series(rng, 1, 120, 121)
        cases += [(long, short), (short, long)]
    for F1, F2 in cases:
        for op, reference in ((multiply, multiply_reference), (diamond, diamond_reference)):
            got, (ref, size) = op(F1, F2), reference(F1, F2)
            if d == 1:  # one binomial per pair, so the same weights and terms in the same order
                _same_container(got, ref)
                continue
            # the product of per-axis roots in place of one root moves the last bits
            assert list(got.entries) == list(ref.entries)
            for key, v in got.entries.items():
                assert abs(v - ref.entries[key]) <= 1e-15 * size[key]


def test_products_keep_keys_within_int64_and_values_within_float_range():
    # the weight bound stops before C(2^41, 2^40) is formed
    with pytest.raises(OverflowError, match="binomial weight out of float range"):
        multiply(series_delta(1, (2 ** 40,)), series_delta(1, (2 ** 40,)))
    with pytest.raises(OverflowError, match="binomial weight out of float range"):
        diamond(series_delta(1, (2 ** 40,)), series_delta(1, (2 ** 41,)))
    # sqrt(C(2060, 1030)) just past float range, where the bound leaves it to the integer
    with pytest.raises(OverflowError, match="binomial weight out of float range"):
        multiply(series_delta(1, (1030,)), series_delta(1, (1030,)))
    with pytest.raises(OverflowError):  # sqrt(4) * 1e308 * 1e10, without a numpy warning
        multiply(series_delta(1, (3,), 1e308), series_delta(1, (1,), 1e10))
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        multiply(series_delta(1, (2 ** 62,)), series_delta(1, (2 ** 62,)))
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        multiply(series_delta(2, (0, 1)), SeriesCoeffs(2, {(1, 0): 1.0, (0, 2 ** 63 - 1): 1.0}))


def test_products_run_without_the_entries_view(monkeypatch):
    # multiply, diamond and ladder read the arrays only
    rng = np.random.default_rng(4)
    F, G = random_series(rng, 2, 3), random_series(rng, 2, 5)
    expect = [multiply(F, G), diamond(F, G), ladder(G, 1, "multiply"), ladder(G, 2, "differentiate")]

    def forbidden(self):
        raise AssertionError("entries read")

    monkeypatch.setattr(series._Coeffs, "entries", property(forbidden))
    got = [multiply(F, G), diamond(F, G), ladder(G, 1, "multiply"), ladder(G, 2, "differentiate")]
    monkeypatch.undo()
    for g, e in zip(got, expect):
        _same_container(g, e)


def test_pairings_and_weighted_norms_run_without_the_entries_view(monkeypatch):
    # a2_bilinear, a2_inner and weighted_norm with a WeightSpec read the arrays only
    from fockcalc.spaces import GrowthOrder, WeightSpec, weighted_norm

    rng = np.random.default_rng(8)
    F, G = _sparse_series(rng, 3, 6, 80), _sparse_series(rng, 3, 6, 80)
    weights = [WeightSpec(GrowthOrder(kind, value), 1.5) for kind, value in
               (("zero", None), ("real", 0.3), ("flat", 1.0), ("inf", None))]
    runs = [lambda: a2_bilinear(F, G), lambda: a2_inner(F, G), lambda: a2_inner(G, G)]
    runs += [lambda w=w, p=p: weighted_norm(G, w, p) for w in weights[1:] for p in (1, 2, math.inf)]
    expect = [np.array(run()).tobytes() for run in runs]

    def forbidden(self):
        raise AssertionError("entries read")

    monkeypatch.setattr(series._Coeffs, "entries", property(forbidden))
    got = [np.array(run()).tobytes() for run in runs]
    with pytest.raises(DomainError, match="infinite weight on support"):
        weighted_norm(G, weights[0], 2)
    monkeypatch.undo()
    assert got == expect


def test_a2_bilinear_matches_the_pairing_loop_on_sparse_supports():
    # sums from +0.0 in F's entry order, so signed zeros and empty overlaps agree too
    rng = np.random.default_rng(91)
    for d in (1, 2, 3):
        for n1, n2 in ((0, 5), (5, 0), (1, 1), (30, 200), (200, 30)):
            F, G = _sparse_series(rng, d, 9, n1), _sparse_series(rng, d, 9, n2)
            for a, b in ((F, G), (G, F), (F, F)):
                want = complex(sum(v * b.entries[k] for k, v in a.entries.items() if k in b.entries))
                assert np.array(a2_bilinear(a, b)).tobytes() == np.array(want).tobytes()
    # the one product is (-0.0, +0.0) after underflow; the sum from +0.0 makes it +0.0
    tiny, small = SeriesCoeffs(1, {(0,): -1e-200}), SeriesCoeffs(1, {(0,): 1e-200})
    assert np.array(a2_bilinear(tiny, small)).tobytes() == np.array(0j).tobytes()


def test_harmonic_oscillator_eigenvalues():
    # 2 sum_j z_j d_j + d acts diagonally with eigenvalue 2|alpha| + d
    d = 2
    for alpha in enumerate_degree(d, 4):
        e = series_delta(d, alpha)
        acc = {}
        for j in range(1, d + 1):
            term = ladder(ladder(e, j, "differentiate"), j, "multiply")
            for k, v in term.entries.items():
                acc[k] = acc.get(k, 0.0) + 2.0 * v
        acc[alpha] = acc.get(alpha, 0.0) + d * 1.0
        assert set(acc) == {alpha}
        assert abs(acc[alpha] - (2 * sum(alpha) + d)) < 1e-13


# --- Hermite functions -------------------------------------------------------

def test_hermite_point_values():
    assert abs(hermite_eval((0,), 0.0) - math.pi ** -0.25) < 1e-14
    expect = math.sqrt(2) * math.pi ** -0.25 * math.exp(-0.5)
    assert abs(hermite_eval((1,), 1.0) - expect) < 1e-14
    assert abs(hermite_eval((0, 0), (0.0, 0.0)) - math.pi ** -0.5) < 1e-14


def test_hermite_orthonormality_by_quadrature():
    grid = gauss_hermite_grid(48, 1)
    for a in range(9):
        for b in range(9):
            val = grid.integrate(lambda y, a=a, b=b:
                                 hermite_eval((a,), y) * hermite_eval((b,), y))
            assert abs(val - (1.0 if a == b else 0.0)) < 1e-12


def test_hermite_high_degree_stable():
    # recurrence stays finite and normalized well past degree 60
    grid = gauss_hermite_grid(96, 1)
    val = grid.integrate(lambda y: hermite_eval((64,), y) ** 2)
    assert abs(val - 1.0) < 1e-10


def first_seen_reference(rows):
    """The first equal row of each row, from a lexsort over every column."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    first = np.empty(len(rows), dtype=np.intp)
    first[order] = order[new][np.cumsum(new) - 1]
    return first


def test_first_seen_matches_column_lexsort():
    rng = np.random.default_rng(5)
    cases = [rng.integers(0, top, size=(n, cols)) for n, cols, top in
             ((1, 1, 1), (50, 1, 4), (200, 2, 5), (300, 4, 3), (500, 6, 8))]
    # d = 6 kernel keys of degree up to 65: twelve columns pack into two words
    keys = rng.integers(0, 66, size=(400, 12))
    keys[-1] = 65
    keys[::7] = keys[3]
    assert len(series._pack(keys, 66)[0]) == 2
    cases.append(keys)
    near = (1 << 62) - rng.integers(0, 3, size=(100, 3))
    cases.append(near)
    cases.append(np.zeros((0, 3), dtype=np.int64))
    for rows in cases:
        rows = rows.astype(np.int64)
        assert series._first_seen(rows).tolist() == first_seen_reference(rows).tolist()


# --- constructors: one bulk pass, checked against the per-entry loop ----------

def constructor_reference(dims, entries):
    """The constructors' per-entry loop from before containers held only arrays:
    the validated dict with exact zeros dropped, or the first offending entry's error."""
    clean = {}
    for key, v in (entries or {}).items():
        if len(dims) == 1:
            idx = validate_index(key)
            if len(idx) != dims[0]:
                raise DimensionMismatch(f"index {idx} has dimension {len(idx)}, expected {dims[0]}")
        else:
            alpha, beta = key
            idx = (validate_index(alpha), validate_index(beta))
            if tuple(map(len, idx)) != tuple(dims):
                raise DimensionMismatch(f"key {idx} has dimensions {tuple(map(len, idx))}, expected {tuple(dims)}")
        cv = complex(v)
        if not cmath.isfinite(cv):
            raise ValueError(f"non-finite coefficient at {idx}")
        if cv != 0:
            clean[idx] = cv
    return clean


def _same_container(c1, c2):
    (i1, v1), (i2, v2) = c1.arrays(), c2.arrays()
    assert i1.tolist() == i2.tolist() and v1.tobytes() == v2.tobytes()
    assert list(c1.entries.items()) == list(c2.entries.items())


@pytest.mark.parametrize("d", [1, 2, 3])
def test_constructor_paths_agree(d):
    rng = np.random.default_rng(40 + d)
    idx = enumerate_degree(d, 3)
    for _ in range(3):
        kernel = {(idx[i], idx[j]): complex(*rng.standard_normal(2))
                  for i, j in rng.integers(len(idx), size=(40, 2))}
        kernel[(idx[0], idx[-1])] = 0j  # an exact zero, dropped whatever the value types
        plain = KernelCoeffs(d, d, kernel)
        assert plain._index is not None  # taken as arrays at once
        scalars = KernelCoeffs(d, d, {k: np.complex128(v) for k, v in kernel.items()})
        assert scalars._index is not None  # numpy scalars take the same bulk pass
        _same_container(plain, scalars)
        values = {idx[i]: complex(*rng.standard_normal(2)) for i in rng.integers(len(idx), size=12)}
        plain = SeriesCoeffs(d, values)
        assert plain._index is not None
        scalars = SeriesCoeffs(d, {k: np.complex128(v) for k, v in values.items()})
        assert scalars._index is not None
        _same_container(plain, scalars)


def _outcome(build):
    """The entries as text (which shows value types and signed zeros), or the error."""
    try:
        c = build()
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    return repr(list((c.entries if isinstance(c, series._Coeffs) else c).items()))


@pytest.mark.parametrize("d,entries", [
    (1, {(True,): 1.0}),
    (2, {(0, 1): 1.0, (1, -1): 2.0, (-1, 0): 3.0}),
    (1, {(2 ** 70,): 1.0}),
    (2, {(0, 1): 1.0, (1,): 2.0, (0, 0, 0): 3.0}),
    (1, {(0,): 1.0, (1,): float("nan"), (2,): float("inf")}),
    (1, {(0,): 10 ** 400}),
    (1, {(0,): 2 ** 53 + 1, (1,): -(2 ** 70) - 1, (2,): 3}),
    (1, {(0,): -0.0, (1,): complex(0.0, -0.0), (2,): complex(1.0, -0.0), (3,): 0}),
    (1, {(0,): 1, (1,): True, (2,): np.float64(0.5), (3,): "1+2j"}),
    (2, {}),
    (1, {(0,): Fraction(1, 3), (1,): Decimal("0.1"), (2,): np.float32(0.1), (3,): np.complex64(0.1 - 0.2j)}),
    (1, {(0,): 1.0, (np.int64(1),): 2.0}),
    (1, {(0,): 1.0, (1,): "abc", (2,): None}),
    (1, {(0,): 1.0, (1,): None, (2,): "abc"}),
    (1, {(0,): 1.0, (1,): b"1"}),
    (1, {(0,): np.timedelta64(1, "s")}),
    (2, {(0, 1): 1.0, (0.0, 2): 2.0}),
    (1, [((0,), 1.0)]),
])
def test_constructor_edge_cases_match_the_loop(d, entries):
    kernel = {(k, k): v for k, v in entries.items()} if isinstance(entries, dict) else entries
    got = [_outcome(lambda: SeriesCoeffs(d, entries)), _outcome(lambda: KernelCoeffs(d, d, kernel))]
    want = [_outcome(lambda: constructor_reference((d,), entries)),
            _outcome(lambda: constructor_reference((d, d), kernel))]
    assert got == want


def test_constructors_take_int_subclass_components_as_int():
    class Axis(IntEnum):
        ONE = 1

    class Small(int):
        pass

    entries = {(Axis.ONE, Small(2)): 1.0, (0, Axis.ONE): 2.0}
    F = SeriesCoeffs(2, entries)
    K = KernelCoeffs(2, 2, {(k, k): v for k, v in entries.items()})
    assert F.entries == constructor_reference((2,), entries)  # equal by ==
    assert {type(c) for key in F.entries for c in key} == {int}
    assert {type(c) for key in K.entries for part in key for c in part} == {int}
    assert F.arrays()[0].tolist() == [[1, 2], [0, 1]]


def test_constructors_reject_keys_that_are_not_tuples():
    # the per-entry loop took any iterable as a multi-index; keys are tuples now
    assert constructor_reference((1,), {range(1, 2): 1.0}) == {(1,): 1.0}
    with pytest.raises(ValueError, match=r"keys must be tuples, got range\(1, 2\)"):
        SeriesCoeffs(1, {(0,): 1.0, range(1, 2): 1.0})
    with pytest.raises(ValueError, match=r"keys must be tuples of tuples, got \(range\(1, 2\), \(0,\)\)"):
        KernelCoeffs(1, 1, {((0,), (0,)): 1.0, (range(1, 2), (0,)): 1.0})
    # the first offending entry is named, whatever its fault
    with pytest.raises(ValueError, match="non-negative integers"):
        SeriesCoeffs(1, {(-1,): 1.0, range(1, 2): 1.0})


def test_constructor_errors_name_the_first_offending_entry():
    with pytest.raises(ValueError, match=r"got \(1, -1\)"):
        SeriesCoeffs(2, {(0, 1): 1.0, (1, -1): 2.0, (-1, 0): 3.0})
    with pytest.raises(DimensionMismatch, match=r"key \(\(0, 1\), \(1,\)\) has dimensions \(2, 1\)"):
        KernelCoeffs(2, 2, {((0, 0), (0, 0)): 1.0, ((0, 1), (1,)): 2.0})
    with pytest.raises(ValueError, match=r"non-finite coefficient at \(1,\)"):
        SeriesCoeffs(1, {(0,): 1.0, (1,): float("nan"), (2,): float("inf")})
    with pytest.raises(OverflowError):
        KernelCoeffs(1, 1, {((0,), (0,)): 10 ** 400})
    with pytest.raises(ValueError, match="non-negative integers"):
        KernelCoeffs(1, 1, {((True,), (0,)): 1.0})
    # rectangular kernels check each multi-index against its own dimension
    K = KernelCoeffs(2, 1, {((0, 1), (2,)): 1.0})
    assert K._index is not None and K.entries == {((0, 1), (2,)): 1.0}
    with pytest.raises(DimensionMismatch):
        KernelCoeffs(1, 2, {((0, 1), (2,)): 1.0})


def test_constructors_reject_index_components_past_int64():
    with pytest.raises(ValueError, match=r"below 2\*\*63, got \(1180591620717411303424,\)"):
        KernelCoeffs(1, 1, {((2 ** 70,), (0,)): 1.0})
    with pytest.raises(ValueError, match=r"below 2\*\*63, got \(0, 9223372036854775808\)"):
        KernelCoeffs(1, 2, {((1,), (0, 1)): 1.0, ((0,), (0, 2 ** 63)): 1.0})
    with pytest.raises(ValueError, match=r"below 2\*\*63, got \(9223372036854775808,\)"):
        SeriesCoeffs(1, {(0,): 1.0, (2 ** 63,): 1.0})
    # the largest int64 component is held, and the container works
    top = 2 ** 63 - 1
    assert SeriesCoeffs(1, {(top,): 1.0}).support_degree() == top
    assert KernelCoeffs(1, 1, {((top,), (0,)): 1.0}).support_degree() == top


def test_constructor_accepts_a_read_only_view():
    K = s0(KernelCoeffs(1, 1, {((1,), (2,)): 1.0, ((0,), (0,)): 2.0}))
    copy = KernelCoeffs(1, 1, K.entries)
    assert copy._index is not None
    _same_container(copy, K)
