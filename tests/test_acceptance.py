"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Scale: d = 1 (d = 2 where noted), truncation 16, 64 quadrature nodes per
axis, standard complex Gaussian random entries with fixed seeds.
"""

import math

import numpy as np

from fockcalc.binomial import l2_r_norm, s0, s0_inv, t0, t0_star
from fockcalc.multiindex import enumerate_degree, log_multi_factorial, total_degree
from fockcalc.quadrature import (
    antiwick_apply_quad,
    bargmann_quad,
    rank_one_check,
    stft_gaussian_quad,
    toeplitz_matrix_quad,
    twisted_product_quad,
    uv_map,
    wick_apply_quad,
)
from fockcalc.series import (
    KernelCoeffs,
    a2_inner,
    coefficient_conjugate,
    diamond,
    eval_kernel,
    eval_series,
    hermite_eval,
    kernel_delta,
    ladder,
    multiply,
    series_delta,
)
from fockcalc.symbolcalc import (
    a2_r_norm,
    antiwick_to_wick,
    apply_operator,
    operator_matrix,
    psd_check,
    t0_bound_constant,
    twisted_product,
    wick_to_antiwick,
    wick_to_kernel,
)

from _support import index_add, random_kernel, random_series, sup, sup_diff

M_NODES = 64
T_VALUES = (1.0, -1.0, 0.5 + 0.3j)


def report(number, name, err, tol):
    status = "PASS" if err <= tol else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status} (max_error={err:.3e}, tolerance={tol:.1e})")
    assert err <= tol, f"criterion {number}: {name} exceeded tolerance ({err:.3e} > {tol:.1e})"


def l2(c):
    return math.sqrt(sum(abs(v) ** 2 for v in c.entries.values()))


def pairing(c, d):
    return sum(v * d.entries[k].conjugate() for k, v in c.entries.items() if k in d.entries)


def test_criterion_01_inverse_laws():
    # support degree 12 (d=1) / 6 (d=2): dense degree-16 inputs condition the
    # sqrt-binomial sums at ~1e-9 in doubles, beyond any implementation's reach
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(200):
        d, degree = (1, 12) if i < 100 else (2, 6)
        c = random_kernel(rng, d, degree)
        s = sup(c)
        for t in T_VALUES:
            back = t0(t0(c, t, out_degree=degree), -t, out_degree=degree)
            worst = max(worst, sup_diff(back, c) / s)
            back2 = t0_star(t0_star(c, t), -t)
            worst = max(worst, sup_diff(back2, c) / s)
    report(1, "inverse laws for the raise and its dual", worst, 1e-10)


def test_criterion_02_adjoint_law():
    rng = np.random.default_rng(102)
    worst = 0.0
    for i in range(200):
        c = random_kernel(rng, 1, 16)
        dk = random_kernel(rng, 1, 16)
        t = T_VALUES[i % 3]
        lhs = pairing(t0(c, t, out_degree=16), dk)
        rhs = pairing(c, t0_star(dk, np.conj(t)))
        worst = max(worst, abs(lhs - rhs) / (l2(c) * l2(dk)))
    report(2, "formal l2 adjointness", worst, 1e-10)


def test_criterion_03_conjugation_law():
    rng = np.random.default_rng(103)
    worst = 0.0
    for i in range(50):
        c = random_kernel(rng, 1, 8)
        t = T_VALUES[i % 3]
        direct = t0(c, -t, out_degree=12)
        routed = s0_inv(t0(s0(c), t, out_degree=12))
        worst = max(worst, sup_diff(direct, routed))
        worst = max(worst, sup_diff(t0_star(c, -t), s0_inv(t0_star(s0(c), t))))
    report(3, "phase conjugation law", worst, 1e-12)


def test_criterion_04_ordering_identities():
    d11 = kernel_delta(1, (1,), (1,))
    shifted = antiwick_to_wick(d11)
    expect = KernelCoeffs(1, 1, {((1,), (1,)): 1.0, ((0,), (0,)): 1.0})
    worst = sup_diff(shifted, expect)
    rng = np.random.default_rng(104)
    for _ in range(50):
        a = random_kernel(rng, 1, 8)
        rt = wick_to_antiwick(antiwick_to_wick(a))
        worst = max(worst, sup_diff(rt, a))
    report(4, "ordering shift and its round trip", worst, 1e-12)


def test_criterion_05_exponential_multiplier_diagram():
    # oracle: the raise equals multiplication by the exponential factor,
    # i.e. plain convolution of monomial coefficients with t^|g| / g!
    rng = np.random.default_rng(105)
    worst = 0.0
    for i in range(20):
        a = random_kernel(rng, 1, 6)
        t = T_VALUES[i % 3]
        out = t0(a, t, out_degree=16)
        oracle = {}
        for (aa, bb), v in a.entries.items():
            m = v * math.exp(-0.5 * (log_multi_factorial(aa) + log_multi_factorial(bb)))
            for g in enumerate_degree(1, 16 - max(total_degree(aa), total_degree(bb))):
                key = (index_add(aa, g), index_add(bb, g))
                oracle[key] = oracle.get(key, 0.0) + m * t ** g[0] / math.factorial(g[0])
        oracle = {k: v * math.exp(0.5 * (log_multi_factorial(k[0]) + log_multi_factorial(k[1])))
                  for k, v in oracle.items()}
        worst = max(worst, sup_diff(out, KernelCoeffs(1, 1, oracle)) / sup(a))
    report(5, "exponential-multiplier diagram vs convolution oracle", worst, 1e-10)


def test_criterion_06_quadrature_coefficient_agreement():
    rng = np.random.default_rng(106)
    worst = 0.0
    symbols = [random_kernel(rng, 1, 4) for _ in range(10)]
    fields = [random_series(rng, 1, 6) for _ in range(5)]
    points = rng.uniform(-1.4, 1.4, (10, 2)) @ np.array([1.0, 1j])
    for a in symbols:
        aw = antiwick_to_wick(a)
        for F in fields:
            K = wick_to_kernel(a, out_degree=a.support_degree() + F.support_degree())
            TF = apply_operator(K, F)
            Kaw = wick_to_kernel(aw, out_degree=aw.support_degree() + F.support_degree())
            TFaw = apply_operator(Kaw, F)
            for z in points:
                worst = max(worst, abs(wick_apply_quad(a, F, z, M=M_NODES) - eval_series(TF, z)))
                worst = max(worst, abs(antiwick_apply_quad(a, F, z, M=M_NODES) - eval_series(TFaw, z)))
    report(6, "integral vs coefficient operator application", worst, 1e-7)


def test_criterion_07_rank_one_suite():
    rng = np.random.default_rng(107)
    worst = 0.0
    for t in (1.0, -1.0, 2.0):
        for a in range(4):
            for b in range(4):
                for _ in range(5):
                    z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    r = rank_one_check((a,), (b,), t, z, w, M=M_NODES)
                    worst = max(worst, abs(r["lhs"] - r["rhs"]))
    report(7, "rank-one smoothing identity", worst, 1e-6)
    base = rank_one_check((0,), (0,), 1.0, 0.7 - 0.2j, 0.1 + 0.4j, M=M_NODES)
    unit_err = abs(base["lhs"] - 1.0)
    report(7, "unit-symbol smoothing equals one", unit_err, 1e-10)


def test_criterion_08_explicit_bound():
    rng = np.random.default_rng(108)
    pairs = ((1.0, 3.0), (1.0, 4.0), (0.5, 2.0))
    ts = (1.0, -1.0, 0.6 + 0.8j, 0.3, 1j)
    violations = 0
    worst_excess = 0.0
    for _ in range(100):
        b = random_kernel(rng, 1, 8)
        for (r1, r2) in pairs:
            base = l2_r_norm(b, r1) * t0_bound_constant(r1, r2, 1)
            for t in ts:
                out = t0(b, t, out_degree=b.support_degree() + 8)
                ratio = l2_r_norm(out, r2) / base
                worst_excess = max(worst_excess, ratio - 1.0)
                if ratio > 1.0 + 1e-12:
                    violations += 1
    print(f"[criterion 08] explicit geometric-weight bound: "
          f"{'PASS' if violations == 0 else 'FAIL'} (violations={violations}, "
          f"worst_margin={worst_excess:.3e})")
    assert violations == 0


def test_criterion_09_norm_transfer_trend():
    rng = np.random.default_rng(109)
    symbols = [random_kernel(rng, 1, 5) for _ in range(100)]
    r1 = 1.0
    ratios = []
    for r2 in (2.5, 3.0, 4.0):
        worst = max(a2_r_norm(antiwick_to_wick(a), r2) / a2_r_norm(a, r1) for a in symbols)
        ratios.append(worst)
    ok = all(math.isfinite(x) for x in ratios) and ratios[0] >= ratios[1] >= ratios[2]
    print(f"[criterion 09] norm-transfer trend: {'PASS' if ok else 'FAIL'} "
          f"(ratios={['%.4g' % x for x in ratios]})")
    assert ok
    # kernel direction: radii past r1/(1-r1) for r1 < 1
    kratios = []
    for r2 in (1.5, 2.0, 3.0):
        worst = max(a2_r_norm(wick_to_kernel(a, out_degree=a.support_degree() + 8), r2)
                    / a2_r_norm(a, 0.5) for a in symbols[:50])
        kratios.append(worst)
    assert all(math.isfinite(x) for x in kratios)
    assert kratios[0] >= kratios[1] >= kratios[2]


def test_criterion_10_toeplitz_cross_check():
    N = 6
    worst = 0.0
    cases = {
        "unit": (lambda x, xi: np.ones(x.shape[0]), kernel_delta(1, (0,), (0,))),
        "harmonic": (lambda x, xi: (x[:, 0] ** 2 + xi[:, 0] ** 2) / 2.0, kernel_delta(1, (1,), (1,))),
    }
    for fn, a in cases.values():
        quad = toeplitz_matrix_quad(fn, N, M=M_NODES, d=1)
        coeff = operator_matrix(wick_to_kernel(antiwick_to_wick(a), out_degree=N), N)
        worst = max(worst, float(np.max(np.abs(quad.matrix - coeff.matrix))))
    ident = toeplitz_matrix_quad(cases["unit"][0], N, M=M_NODES, d=1)
    worst = max(worst, float(np.max(np.abs(ident.matrix - np.eye(N + 1)))))
    report(10, "localization matrix vs coefficient route", worst, 1e-6)


def test_criterion_11_hermite_transform_and_stft():
    rng = np.random.default_rng(111)
    pts = rng.uniform(-1.4, 1.4, (10, 2))
    worst = 0.0
    for k in range(9):
        f = lambda y, k=k: hermite_eval((k,), y)
        for (x, y) in pts:
            z = complex(x, y)
            worst = max(worst, abs(bargmann_quad(f, z, M=M_NODES)
                                   - eval_series(series_delta(1, (k,)), z)))
    report(11, "transform maps Hermite functions to the basis", worst, 1e-8)

    worst_fact = 0.0
    for k in (0, 1, 2, 4):
        f = lambda y, k=k: hermite_eval((k,), y)
        for (x, xi) in ((0.5, 0.2), (-0.9, 0.6), (1.1, -1.0)):
            stft_val = stft_gaussian_quad(f, math.sqrt(2) * x, -math.sqrt(2) * xi, M=M_NODES)
            lhs = uv_map(stft_val, x, xi)
            rhs = bargmann_quad(f, complex(x, xi), M=M_NODES)
            worst_fact = max(worst_fact, abs(lhs - rhs))
    report(11, "windowed-transform factorization", worst_fact, 1e-7)


def test_criterion_12_positivity():
    N = 12
    # diagonals of 1, |z|^2, |z|^4, (1 + |z|^2)^2 in the normalized basis
    symbols = {
        "one": {((0,), (0,)): 1.0},
        "|z|^2": {((1,), (1,)): 1.0},
        "|z|^4": {((2,), (2,)): 2.0},
        "(1+|z|^2)^2": {((0,), (0,)): 1.0, ((1,), (1,)): 2.0, ((2,), (2,)): 2.0},
    }
    worst = 0.0
    for name, entries in symbols.items():
        a = KernelCoeffs(1, 1, entries)
        K = wick_to_kernel(antiwick_to_wick(a), out_degree=N)
        out = psd_check(operator_matrix(K, N), 1e-10)
        assert out["hermitian"], f"{name}: not Hermitian"
        worst = max(worst, max(0.0, -out["min_eigenvalue"]))
    report(12, "anti-Wick positivity at truncation 12", worst, 1e-10)


def test_criterion_13_twisted_product_triple_agreement():
    rng = np.random.default_rng(113)
    worst_routes = 0.0
    worst_assoc = 0.0
    for _ in range(10):
        a1 = random_kernel(rng, 1, 3)
        a2 = random_kernel(rng, 1, 3)
        prod = twisted_product(a1, a2)

        # route 2: dense operator-matrix product
        D = a1.support_degree() + a2.support_degree()
        Nm = D + 3
        M1 = operator_matrix(wick_to_kernel(a1, out_degree=Nm), Nm)
        M2 = operator_matrix(wick_to_kernel(a2, out_degree=Nm), Nm)
        M3 = M1.matrix @ M2.matrix
        Mp = operator_matrix(wick_to_kernel(prod, out_degree=Nm), Nm)
        side = len(enumerate_degree(1, D))
        worst_routes = max(worst_routes, float(np.max(np.abs(M3[:side, :side] - Mp.matrix[:side, :side]))))

        # route 3: the composition integral at sample points
        for _ in range(3):
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            qv = twisted_product_quad(a1, a2, z, w, M=M_NODES)
            worst_routes = max(worst_routes, abs(qv - eval_kernel(prod, z, w)))

    for _ in range(5):
        a = random_kernel(rng, 1, 2)
        b = random_kernel(rng, 1, 2)
        c = random_kernel(rng, 1, 2)
        left = twisted_product(twisted_product(a, b), c)
        right = twisted_product(a, twisted_product(b, c))
        worst_assoc = max(worst_assoc, sup_diff(left, right, max_degree=6) / sup(left))
    report(13, "twisted product: three routes", worst_routes, 1e-7)
    report(13, "twisted product: associativity", worst_assoc, 1e-10)


def test_criterion_14_series_algebra():
    rng = np.random.default_rng(114)
    worst_mult = 0.0
    for _ in range(5):
        F1 = random_series(rng, 1, 4)
        F2 = random_series(rng, 1, 5)
        P = multiply(F1, F2)
        pts = rng.uniform(-1.5, 1.5, (20, 1)) + 1j * rng.uniform(-1.5, 1.5, (20, 1))
        worst_mult = max(worst_mult, float(np.max(np.abs(
            eval_series(P, pts) - eval_series(F1, pts) * eval_series(F2, pts)))))
    report(14, "coefficient product matches pointwise product", worst_mult, 1e-10)

    worst_adj = 0.0
    for _ in range(20):
        F = random_series(rng, 2, 3)
        G = random_series(rng, 2, 4)
        for j in (1, 2):
            lhs = a2_inner(ladder(F, j, "multiply"), G)
            rhs = a2_inner(F, ladder(G, j, "differentiate"))
            worst_adj = max(worst_adj, abs(lhs - rhs))
        F1 = random_series(rng, 1, 3)
        F2 = random_series(rng, 1, 5)
        G1 = random_series(rng, 1, 4)
        lhs = a2_inner(diamond(F1, F2), G1)
        rhs = a2_inner(F2, multiply(coefficient_conjugate(F1), G1))
        worst_adj = max(worst_adj, abs(lhs - rhs))
    report(14, "ladder and diamond adjoint identities", worst_adj, 1e-10)
