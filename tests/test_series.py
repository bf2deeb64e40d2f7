import math

import numpy as np
import pytest

from fockcalc.errors import DimensionMismatch
from fockcalc.multiindex import enumerate_degree, multi_factorial
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


def random_series(rng, d, degree):
    return SeriesCoeffs(d, {
        a: complex(rng.standard_normal(), rng.standard_normal())
        for a in enumerate_degree(d, degree)
    })


# --- evaluation ------------------------------------------------------------

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
    rng = np.random.default_rng(5)
    F1 = random_series(rng, 1, 4)
    F2 = random_series(rng, 1, 5)
    P = multiply(F1, F2)
    pts = rng.uniform(-1.5, 1.5, (20, 1)) + 1j * rng.uniform(-1.5, 1.5, (20, 1))
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
    rng = np.random.default_rng(23)
    F1 = random_series(rng, 1, 3)
    F2 = random_series(rng, 1, 5)
    G = random_series(rng, 1, 4)
    lhs = a2_inner(diamond(F1, F2), G)
    rhs = a2_inner(F2, multiply(coefficient_conjugate(F1), G))
    assert abs(lhs - rhs) < 1e-10


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
