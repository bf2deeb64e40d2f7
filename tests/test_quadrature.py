import cmath
import math
from collections import OrderedDict

import numpy as np
import pytest

from fockcalc import quadrature
from fockcalc.errors import DimensionMismatch, DomainError, PreconditionError
from fockcalc.multiindex import enumerate_degree
from fockcalc.quadrature import (
    antiwick_apply_quad,
    bargmann_quad,
    berezin_transform_quad,
    complex_grid,
    default_nodes,
    gauss_hermite_grid,
    gaussian_window,
    integrate_gaussian_c,
    rank_one_check,
    stft_gaussian_quad,
    toeplitz_matrix_quad,
    twisted_product_quad,
    uv_inv,
    uv_map,
    wick_apply_quad,
)
from fockcalc.series import (
    KernelCoeffs,
    SeriesCoeffs,
    eval_basis,
    eval_kernel,
    eval_series,
    hermite_eval,
    kernel_delta,
    series_delta,
)
from fockcalc.symbolcalc import (
    antiwick_to_wick,
    apply_operator,
    operator_matrix,
    twisted_product,
    wick_to_kernel,
)

from _support import random_kernel


# --- grids -------------------------------------------------------------------

def test_two_point_rule():
    g = gauss_hermite_grid(2, 1)
    assert np.allclose(sorted(g.nodes[:, 0]), [-1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert np.allclose(g.weights, g.weights[0])


def test_grid_mass_and_shape():
    for dims, scale in ((1, 1.0), (2, math.sqrt(2)), (3, 0.5)):
        g = gauss_hermite_grid(8, dims, scale=scale)
        assert g.nodes.shape == (8 ** dims, dims)
        mass = (scale * math.sqrt(math.pi)) ** dims
        assert abs(float(np.sum(g.weights)) - mass) < 1e-12 * mass


def test_grid_limits():
    with pytest.raises(PreconditionError):
        gauss_hermite_grid(1, 1)
    with pytest.raises(PreconditionError):
        gauss_hermite_grid(300, 1)
    with pytest.raises(PreconditionError):
        complex_grid(8, 4)


def test_grid_node_budget():
    # rejected before any array is built: 64^6 nodes would need terabytes
    with pytest.raises(PreconditionError, match="at most 10 nodes per axis"):
        complex_grid(64, 3)
    with pytest.raises(PreconditionError, match="1185921 nodes.*at most 32 nodes per axis"):
        complex_grid(33, 2)
    assert complex_grid(32, 2).nodes.shape == (32 ** 4, 4)


def test_polynomial_exactness():
    # degree <= 2M-1 against the Gaussian: moments of e^{-x^2} are exact
    g = gauss_hermite_grid(6, 1)
    for k, expect in ((0, math.sqrt(math.pi)), (2, math.sqrt(math.pi) / 2),
                      (4, 3 * math.sqrt(math.pi) / 4), (10, 945 / 32 * math.sqrt(math.pi))):
        val = g.integrate_weighted(lambda x, k=k: x[:, 0] ** k)
        assert abs(val - expect) < 1e-12 * expect


def test_gaussian_measure_normalization():
    grid = complex_grid(16, 1)
    v = integrate_gaussian_c(lambda z: np.ones(z.shape[0]), 1, grid)
    assert abs(v - 1.0) < 1e-14
    v2 = integrate_gaussian_c(lambda z: np.abs(z[:, 0]) ** 2, 1, grid)
    assert abs(v2 - 1.0) < 1e-12


def test_basis_orthonormality_under_measure():
    grid = complex_grid(32, 1)
    worst = 0.0
    for a in range(7):
        for b in range(7):
            val = integrate_gaussian_c(
                lambda z, a=a, b=b: eval_basis((a,), z) * np.conj(eval_basis((b,), z)),
                1, grid)
            worst = max(worst, abs(val - (1.0 if a == b else 0.0)))
    assert worst < 1e-12


def test_reproducing_at_constant():
    grid = complex_grid(32, 1)
    for w0 in (0.5, -0.3 + 0.8j, 1j):
        val = integrate_gaussian_c(lambda z, w0=w0: np.exp(z[:, 0] * np.conj(w0)), 1, grid)
        assert abs(val - 1.0) < 1e-12


# --- operator application -----------------------------------------------------

def test_wick_apply_reproducing():
    one = kernel_delta(1, (0,), (0,))
    val = wick_apply_quad(one, series_delta(1, (2,)), 1 + 1j, M=64)
    assert abs(val - cmath.sqrt(2) * 1j) < 1e-8


def test_wick_apply_reproduces_degree_8():
    rng = np.random.default_rng(40)
    one = kernel_delta(1, (0,), (0,))
    F = SeriesCoeffs(1, {(k,): complex(*rng.standard_normal(2)) for k in range(9)})
    worst = 0.0
    for _ in range(6):
        z = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        worst = max(worst, abs(wick_apply_quad(one, F, z, M=64) - eval_series(F, z)))
    assert worst < 1e-8


def test_wick_apply_number_symbol():
    a = kernel_delta(1, (1,), (1,))
    val = wick_apply_quad(a, series_delta(1, (3,)), 0.7, M=64)
    assert abs(val - 3 * eval_basis((3,), 0.7)) < 1e-8


def test_wick_apply_squared_number_symbol():
    a = KernelCoeffs(1, 1, {((2,), (2,)): 2.0, ((1,), (1,)): 1.0})  # z^2 conj(w)^2 + z conj(w)
    val = wick_apply_quad(a, series_delta(1, (2,)), 1.0, M=64)
    assert abs(val - 4 * eval_basis((2,), 1.0)) < 1e-8


def test_antiwick_apply_examples():
    one = kernel_delta(1, (0,), (0,))
    val = antiwick_apply_quad(one, series_delta(1, (1,)), 0.3j, M=64)
    assert abs(val - eval_basis((1,), 0.3j)) < 1e-8
    a = kernel_delta(1, (1,), (1,))          # a(w,w) = |w|^2
    for k in range(4):
        for z in (0.4, -0.6 + 0.3j):
            val = antiwick_apply_quad(a, series_delta(1, (k,)), z, M=64)
            assert abs(val - (k + 1) * eval_basis((k,), z)) < 1e-7
    val = antiwick_apply_quad(a, series_delta(1, (0,)), 0.0, M=64)
    assert abs(val - 1.0) < 1e-8


def test_berezin_transform_examples():
    one = kernel_delta(1, (0,), (0,))
    for z, w in ((0.2, 0.7), (1 + 0.5j, -0.4j)):
        assert abs(berezin_transform_quad(one, z, w, M=64) - 1.0) < 1e-10
    a = kernel_delta(1, (1,), (1,))
    z = 0.8 - 0.6j
    assert abs(berezin_transform_quad(a, z, z, M=64) - (abs(z) ** 2 + 1)) < 1e-8
    assert abs(berezin_transform_quad(a, 1.0, 1j, M=64) - (1 - 1j)) < 1e-8


# --- real-space transforms ------------------------------------------------------

def test_transform_maps_hermite_to_basis():
    worst = 0.0
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.4, 1.4, (10, 2))
    for k in range(9):
        f = lambda y, k=k: hermite_eval((k,), y)
        for (x, y) in pts:
            z = complex(x, y)
            worst = max(worst, abs(bargmann_quad(f, z, M=64) - eval_basis((k,), z)))
    assert worst < 1e-8


def test_transform_linearity():
    f = lambda y: hermite_eval((0,), y) + hermite_eval((1,), y)
    assert abs(bargmann_quad(f, 0.0, M=64) - 1.0) < 1e-8


def test_stft_window_normalization():
    val = stft_gaussian_quad(lambda y: gaussian_window(y), 0.0, 0.0, M=64)
    assert abs(val - (2 * math.pi) ** -0.5) < 1e-9


def test_stft_of_ground_state():
    for (x, xi) in ((1.0, 1.0), (0.4, -1.2)):
        val = stft_gaussian_quad(lambda y: hermite_eval((0,), y), x, xi, M=64)
        expect = (2 * math.pi) ** -0.5 * math.exp(-(x * x + xi * xi) / 4.0) * cmath.exp(-0.5j * x * xi)
        assert abs(val - expect) < 1e-8


def test_stft_cauchy_schwarz():
    # |V f| <= ||f|| ||window|| (2 pi)^{-d/2}, both norms 1 here
    bound = (2 * math.pi) ** -0.5
    f = lambda y: hermite_eval((3,), y)
    for (x, xi) in ((0.0, 0.0), (1.0, -0.5), (-2.0, 1.5)):
        assert abs(stft_gaussian_quad(f, x, xi, M=64)) <= bound + 1e-9


def test_uv_inverse_pair():
    assert abs(uv_inv(lambda z: 1.0, 0.0, 0.0) - (2 * math.pi) ** -0.5) < 1e-14
    # the map consumes the inverse's value at the scaled arguments (sqrt2 x, -sqrt2 xi)
    F = lambda z: eval_basis((2,), z) + 0.3 * eval_basis((0,), z)
    for (x, xi) in ((0.3, -0.4), (1.1, 0.7)):
        inner = uv_inv(F, math.sqrt(2) * x, -math.sqrt(2) * xi)
        val = uv_map(inner, x, xi)
        assert abs(val - F(complex(x, xi))) < 1e-12


def test_transform_factors_through_stft():
    # applying the phase-space change of picture to the windowed transform
    # reproduces the direct transform of the same function
    worst = 0.0
    for k in (0, 1, 3):
        f = lambda y, k=k: hermite_eval((k,), y)
        for (x, xi) in ((0.5, 0.2), (-0.8, 1.0)):
            stft_val = stft_gaussian_quad(f, math.sqrt(2) * x, -math.sqrt(2) * xi, M=64)
            lhs = uv_map(stft_val, x, xi)
            rhs = bargmann_quad(f, complex(x, xi), M=64)
            worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-7


# --- localization matrices ------------------------------------------------------

def test_toeplitz_identity_symbol():
    out = toeplitz_matrix_quad(lambda x, xi: np.ones(x.shape[0]), 6, M=64, d=1)
    assert np.max(np.abs(out.matrix - np.eye(7))) < 1e-8


def test_toeplitz_harmonic_symbol():
    out = toeplitz_matrix_quad(lambda x, xi: (x[:, 0] ** 2 + xi[:, 0] ** 2) / 2.0, 6, M=64, d=1)
    assert np.max(np.abs(out.matrix - np.diag(np.arange(7) + 1.0))) < 1e-6


def test_toeplitz_real_symbol_hermitian():
    out = toeplitz_matrix_quad(lambda x, xi: x[:, 0] ** 2 - xi[:, 0] + 0.5, 5, M=64, d=1)
    assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-10


# --- composition and the rank-one identity ----------------------------------------

def test_twisted_product_quad_units():
    one = kernel_delta(1, (0,), (0,))
    assert abs(twisted_product_quad(one, one, 0.4 + 0.2j, -0.1 + 0.3j, M=64) - 1.0) < 1e-10
    rng = np.random.default_rng(12)
    a2 = random_kernel(rng, 1, 3)
    for _ in range(10):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        val = twisted_product_quad(one, a2, z, w, M=64)
        assert abs(val - eval_kernel(a2, z, w)) < 1e-7


def test_twisted_product_quad_number_symbol():
    a = kernel_delta(1, (1,), (1,))
    assert abs(twisted_product_quad(a, a, 1.0, 1.0, M=64) - 2.0) < 1e-7


def test_rank_one_identity():
    r = rank_one_check((0,), (0,), 1.0, 0.5 + 0.1j, -0.2 + 0.3j, M=64)
    assert abs(r["lhs"] - 1.0) < 1e-10 and abs(r["rhs"] - 1.0) < 1e-14
    r = rank_one_check((1,), (1,), 1.0, 1.0, 1j, M=64)
    assert abs(r["lhs"] - (1 - 1j)) < 1e-7 and abs(r["rhs"] - (1 - 1j)) < 1e-14
    r = rank_one_check((1,), (0,), 1.0, 0.8 - 0.3j, 0.4 + 0.2j, M=64)
    assert abs(r["lhs"] - eval_basis((1,), 0.8 - 0.3j)) < 1e-7
    with pytest.raises(PreconditionError):
        rank_one_check((1,), (1,), 0.0, 1.0, 1.0)


def test_rank_one_identity_across_parameters():
    rng = np.random.default_rng(21)
    worst = 0.0
    for t in (1.0, -1.0, 2.0, 0.5 + 0.3j):
        for a in range(3):
            for b in range(3):
                z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                r = rank_one_check((a,), (b,), t, z, w, M=48)
                worst = max(worst, abs(r["lhs"] - r["rhs"]))
    assert worst < 1e-7


# --- cross-route agreement and convergence ---------------------------------------

def test_routes_agree_on_random_symbols():
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(3):
        a = random_kernel(rng, 1, 3)
        F = SeriesCoeffs(1, {(k,): complex(*rng.standard_normal(2)) for k in range(5)})
        K = wick_to_kernel(a, out_degree=a.support_degree() + F.support_degree())
        TF = apply_operator(K, F)
        aw = antiwick_to_wick(a)
        Kaw = wick_to_kernel(aw, out_degree=aw.support_degree() + F.support_degree())
        TFaw = apply_operator(Kaw, F)
        for _ in range(3):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            worst = max(worst, abs(wick_apply_quad(a, F, z, M=64) - eval_series(TF, z)))
            worst = max(worst, abs(antiwick_apply_quad(a, F, z, M=64) - eval_series(TFaw, z)))
    assert worst < 1e-7


def test_routes_agree_in_two_dimensions():
    # each complex-plane integral form against its coefficient route at d = 2
    rng = np.random.default_rng(32)
    M = 16
    worst = 0.0
    for _ in range(2):
        a1, a2 = random_kernel(rng, 2, 2), random_kernel(rng, 2, 2)
        F = SeriesCoeffs(2, {k: complex(*rng.standard_normal(2)) for k in enumerate_degree(2, 3)})
        out = a1.support_degree() + F.support_degree()
        TF = apply_operator(wick_to_kernel(a1, out_degree=out), F)
        aw = antiwick_to_wick(a1)
        TFaw = apply_operator(wick_to_kernel(aw, out_degree=out), F)
        tw = twisted_product(a1, a2)
        for _ in range(2):
            z, w = (rng.uniform(-0.7, 0.7, 2) + 1j * rng.uniform(-0.7, 0.7, 2) for _ in range(2))
            worst = max(worst,
                        abs(wick_apply_quad(a1, F, z, M=M) - eval_series(TF, z)),
                        abs(antiwick_apply_quad(a1, F, z, M=M) - eval_series(TFaw, z)),
                        abs(berezin_transform_quad(a1, z, w, M=M) - eval_kernel(aw, z, w)),
                        abs(twisted_product_quad(a1, a2, z, w, M=M) - eval_kernel(tw, z, w)))
            r = rank_one_check((2, 1), (1, 2), 0.5 + 0.3j, z, w, M=M)
            worst = max(worst, abs(r["lhs"] - r["rhs"]))
    assert worst < 1e-9


def test_toeplitz_agrees_with_coefficient_route():
    N = 6
    quad = toeplitz_matrix_quad(lambda x, xi: (x[:, 0] ** 2 + xi[:, 0] ** 2) / 2.0, N, M=64, d=1)
    K = wick_to_kernel(antiwick_to_wick(kernel_delta(1, (1,), (1,))), out_degree=N)
    coeff = operator_matrix(K, N)
    assert np.max(np.abs(quad.matrix - coeff.matrix)) < 1e-6


def test_doubling_nodes_is_stable():
    rng = np.random.default_rng(31)
    a = random_kernel(rng, 1, 3)
    F = SeriesCoeffs(1, {(k,): complex(*rng.standard_normal(2)) for k in range(4)})
    for z in (0.5, -0.7 + 0.9j):
        v32 = wick_apply_quad(a, F, z, M=32)
        v64 = wick_apply_quad(a, F, z, M=64)
        assert abs(v32 - v64) < 1e-9
    r32 = rank_one_check((2,), (1,), -1.0, 0.3 + 0.4j, -0.5, M=32)
    r64 = rank_one_check((2,), (1,), -1.0, 0.3 + 0.4j, -0.5, M=64)
    assert abs(r32["lhs"] - r64["lhs"]) < 1e-9


def test_default_nodes_env_override(monkeypatch):
    monkeypatch.delenv("FOCK_QUAD_NODES", raising=False)
    assert default_nodes() == 64
    # per number of real axes: the largest M up to 64 within the node budget
    assert [default_nodes(dims) for dims in (1, 2, 3, 4, 5, 6)] == [64, 64, 64, 32, 16, 10]
    monkeypatch.setenv("FOCK_QUAD_NODES", "32")
    assert default_nodes() == 32
    assert default_nodes(6) == 32
    # an override over the budget is refused where the grid is built, naming the M that fits
    with pytest.raises(PreconditionError, match="at most 10 nodes per axis"):
        wick_apply_quad(kernel_delta(3, (0, 0, 0), (0, 0, 0)), series_delta(3, (0, 0, 0)), [0.1, 0.2, 0.3])
    monkeypatch.setenv("FOCK_QUAD_NODES", "33")
    with pytest.raises(PreconditionError, match="at most 32 nodes per axis"):
        antiwick_apply_quad(kernel_delta(2, (0, 0), (0, 0)), series_delta(2, (0, 0)), [0.1, 0.2])
    monkeypatch.setenv("FOCK_QUAD_NODES", "1000")
    with pytest.raises(PreconditionError):
        default_nodes()
    monkeypatch.delenv("FOCK_QUAD_NODES")
    with pytest.raises(PreconditionError, match="at most 32 nodes per axis"):
        wick_apply_quad(kernel_delta(2, (0, 0), (0, 0)), series_delta(2, (0, 0)), [0.1, 0.2], M=40)


def test_max_nodes_equals_a_scan_over_every_m():
    for dims in range(1, 25):
        scan = max((m for m in range(2, quadrature.MAX_NODES + 1) if m ** dims <= quadrature.MAX_GRID_NODES),
                   default=1)
        assert quadrature._max_nodes(dims) == scan

def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        wick_apply_quad(kernel_delta(1, (0,), (0,)), series_delta(1, (0,)),
                        np.array([1.0 + 0j, 2.0]), M=8)


def test_routes_agree_at_default_nodes_in_two_dimensions(monkeypatch):
    # d = 2 runs with no M given: 32 nodes per axis, 2^20 nodes
    monkeypatch.delenv("FOCK_QUAD_NODES", raising=False)
    rng = np.random.default_rng(33)
    a = random_kernel(rng, 2, 2)
    F = SeriesCoeffs(2, {k: complex(*rng.standard_normal(2)) for k in enumerate_degree(2, 3)})
    out = a.support_degree() + F.support_degree()
    TF = apply_operator(wick_to_kernel(a, out_degree=out), F)
    TFaw = apply_operator(wick_to_kernel(antiwick_to_wick(a), out_degree=out), F)
    z = np.array([0.4 - 0.3j, -0.5 + 0.2j])
    assert abs(wick_apply_quad(a, F, z) - eval_series(TF, z)) < 1e-12
    assert abs(antiwick_apply_quad(a, F, z) - eval_series(TFaw, z)) < 1e-12


def sparse_application(seed, d=2):
    """A 12-entry degree-4 symbol, a 6-entry degree-4 series (supports fixed, values from
    seed) and a point with |z_j| = 0.8, as the benchmark's M = 12 application jobs draw them."""
    idx = enumerate_degree(d, 4)
    pick, keys = np.random.default_rng(1), set()
    while len(keys) < 12:
        alpha = idx[pick.integers(len(idx))]
        keys.add((alpha, idx[pick.integers(len(idx))]))
    pick, cols = np.random.default_rng(3), set()
    while len(cols) < 6:
        cols.add(idx[pick.integers(len(idx))])
    rng = np.random.default_rng(seed)
    a = KernelCoeffs(d, d, {k: complex(*rng.standard_normal(2)) for k in sorted(keys)})
    F = SeriesCoeffs(d, {k: complex(*rng.standard_normal(2)) for k in sorted(cols)})
    return a, F, 0.8 * np.exp(2j * np.pi * rng.uniform(size=d))


def test_antiwick_application_is_centred_where_the_gaussian_peaks():
    # |exp((z, u) - |u|^2)| peaks at u = z/2: on the same inputs the M = 12 rule centred
    # there errs less than the same rule centred at u = z
    at_half, at_z = [], []
    for seed in range(20):
        a, F, z = sparse_application(seed)
        aw = antiwick_to_wick(a)
        TFaw = apply_operator(wick_to_kernel(aw, out_degree=aw.support_degree() + F.support_degree()), F)
        terms = np.array([v * eval_basis(k, z) for k, v in TFaw.entries.items()])
        ref, scale = terms.sum(), np.abs(terms).sum()
        at_half.append(abs(antiwick_apply_quad(a, F, z, M=12) - ref) / scale)
        centred_at_z = quadrature._gaussian_integral(lambda u: eval_kernel(a, u, u) * eval_series(F, u), 2,
                                                     complex_grid(12, 2, center=z), z, np.zeros(2))
        at_z.append(abs(centred_at_z - ref) / scale)
    assert sum(h < c for h, c in zip(at_half, at_z)) >= 18
    assert max(at_half) < max(at_z)


def test_antiwick_accuracy_at_default_nodes_in_three_dimensions(monkeypatch):
    # d = 3 runs with no M given: 10 nodes per axis, 10^6 nodes.  The 10-node rule
    # leaves about 1e-11 to 1.4e-10 on anti-Wick values of order 10, against about
    # 1e-14 at d = 1 and d = 2
    monkeypatch.delenv("FOCK_QUAD_NODES", raising=False)
    rng = np.random.default_rng(34)
    a = random_kernel(rng, 3, 2)
    F = SeriesCoeffs(3, {k: complex(*rng.standard_normal(2)) for k in enumerate_degree(3, 3)})
    aw = antiwick_to_wick(a)
    TFaw = apply_operator(wick_to_kernel(aw, out_degree=aw.support_degree() + F.support_degree()), F)
    z = np.array([0.4 - 0.3j, -0.5 + 0.2j, 0.1 + 0.3j])
    err = abs(antiwick_apply_quad(a, F, z) - eval_series(TFaw, z))
    assert err < 1e-9


def fresh_grid_nodes(M, dims, center, scale):
    """The nodes as every call built them before grids were cached."""
    x, _ = np.polynomial.hermite.hermgauss(M)
    nodes = np.empty((M ** dims, dims))
    for j in range(dims):
        nodes[:, j] = center[j] + scale * np.repeat(np.tile(x, M ** j), M ** (dims - 1 - j))
    return nodes


def test_cached_unit_grids(monkeypatch):
    monkeypatch.setattr(quadrature, "_unit_grids", OrderedDict())
    for M, dims, center, scale in ((7, 1, [0.3], 1.0), (6, 3, [0.5, -1.25, 2.0], math.sqrt(2)),
                                   (5, 4, [1e-3, -0.7, 0.1, 3.3], 0.5)):
        first = gauss_hermite_grid(M, dims, center=center, scale=scale)
        again = gauss_hermite_grid(M, dims, center=center, scale=scale)
        assert again.offsets is first.offsets and again.weights is first.weights
        for arr in (first.offsets, first.weights, first.flat_weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        # recentring adds the centre to the cached offsets: the same nodes, bit for bit
        assert np.array_equal(first.nodes, fresh_grid_nodes(M, dims, center, scale))
        assert np.array_equal(np.concatenate([x for x, _, _ in first.blocks()]), first.nodes)
    assert len(quadrature._unit_grids) == 3


def test_unit_grid_cache_byte_bound(monkeypatch):
    monkeypatch.setattr(quadrature, "_unit_grids", OrderedDict())
    monkeypatch.setattr(quadrature, "GRID_CACHE_BYTES", 40_000)   # 1000 nodes at d = 3 take 40,000 B

    def held():
        return sum(a.nbytes for g in quadrature._unit_grids.values() for a in g)

    for M in (4, 5, 6, 7, 8, 9, 10, 5):
        g = complex_grid(M, 1)
        assert held() <= quadrature.GRID_CACHE_BYTES
        assert abs(integrate_gaussian_c(lambda z: np.ones(z.shape[0]), 1, g) - 1.0) < 1e-14
    assert list(quadrature._unit_grids)[-1] == (5, 2, 1.0)
    big = gauss_hermite_grid(11, 3)   # 53,240 B: built, used and not kept
    assert (11, 3, 1.0) not in quadrature._unit_grids and held() <= quadrature.GRID_CACHE_BYTES
    assert abs(big.integrate_weighted(lambda x: np.ones(len(x))) - math.pi ** 1.5) < 1e-12
    gauss_hermite_grid(10, 3)   # exactly the bound: everything else goes
    assert list(quadrature._unit_grids) == [(10, 3, 1.0)]


def test_blocked_integrals_match_one_block(monkeypatch):
    # an odd block of 37 nodes splits every grid unevenly
    rng = np.random.default_rng(34)
    a1, a2 = random_kernel(rng, 2, 2), random_kernel(rng, 2, 2)
    F = SeriesCoeffs(2, {k: complex(*rng.standard_normal(2)) for k in enumerate_degree(2, 2)})
    z, w = np.array([0.3 + 0.1j, -0.2j]), np.array([-0.4, 0.1 + 0.5j])
    f = lambda y: hermite_eval((2,), y) + 0.5 * hermite_eval((1,), y)
    calls = {
        "wick": lambda: wick_apply_quad(a1, F, z, M=6),
        "antiwick": lambda: antiwick_apply_quad(a1, F, z, M=6),
        "berezin": lambda: berezin_transform_quad(a1, z, w, M=6),
        "twisted": lambda: twisted_product_quad(a1, a2, z, w, M=6),
        "rank one": lambda: rank_one_check((2, 1), (1, 2), 0.5 + 0.3j, z, w, M=6)["lhs"],
        "bargmann": lambda: bargmann_quad(f, 0.3 - 0.2j, M=64),
        "stft": lambda: stft_gaussian_quad(f, 0.4, -0.9, M=64),
        "toeplitz": lambda: toeplitz_matrix_quad(lambda x, xi: x[:, 0] ** 2 - xi[:, 0] + 0.5, 5, M=12, d=2).matrix,
        "weighted": lambda: gauss_hermite_grid(9, 2).integrate_weighted(lambda x: np.cos(x[:, 0]) * x[:, 1] ** 2),
    }
    monkeypatch.setattr(quadrature, "QUAD_BLOCK", 10 ** 6)
    whole = {name: call() for name, call in calls.items()}
    monkeypatch.setattr(quadrature, "QUAD_BLOCK", 37)
    for name, call in calls.items():
        got = call()
        assert np.max(np.abs(got - whole[name])) <= 1e-14 * max(1.0, np.max(np.abs(whole[name]))), name


def test_every_block_is_checked_for_finite_values(monkeypatch):
    # 16 nodes in blocks of 5: the largest node, the only NaN, is alone in the last block
    monkeypatch.setattr(quadrature, "QUAD_BLOCK", 5)
    top = gauss_hermite_grid(16, 1, center=[0.4], scale=math.sqrt(2)).nodes.max()
    assert len(list(gauss_hermite_grid(16, 1).blocks())) == 4
    with pytest.raises(DomainError):
        stft_gaussian_quad(lambda y: np.where(y[:, 0] == top, np.nan, 1.0), 0.4, 0.2, M=16)
