import math

import numpy as np
import pytest

from fockcalc.errors import DomainError, PreconditionError
from fockcalc.multiindex import enumerate_degree, log_multi_factorial, total_degree
from fockcalc.series import KernelCoeffs, SeriesCoeffs, eval_kernel, kernel_delta, series_delta
from fockcalc.spaces import (
    _FAMILIES,
    DiagnosticReport,
    GrowthOrder,
    SpaceSpec,
    WeightSpec,
    classify,
    kappa_weight,
    _is_divergent,
    omega_weight,
    theta_weight,
    verify_pointwise_bound,
    weighted_norm,
)

GO = GrowthOrder


# --- ordering ----------------------------------------------------------------

def test_growth_order_rule():
    assert GO.zero() < GO.real(0.1)
    assert GO.real(0.49) < GO.flat(0.01)
    assert GO.flat(1) < GO.flat(2)
    assert GO.flat(1000) < GO.real(0.5)
    assert GO.real(7) < GO.infinity()
    assert GO.real(0.3) < GO.real(0.4)


def test_growth_order_parse_roundtrip():
    for text in ("zero", "inf", "real:0.5", "flat:1"):
        assert repr(GO.parse(text)) == text.replace("real:0.5", "real:0.5")
    with pytest.raises(ValueError):
        GO.parse("quadratic:2")


# --- theta -------------------------------------------------------------------

def test_theta_values():
    assert abs(theta_weight(WeightSpec(GO.real(0.5), 1.0), (2,)) - math.exp(2)) < 1e-12
    assert abs(theta_weight(WeightSpec(GO.flat(1), 2.0), (2,)) - 4 * math.sqrt(2)) < 1e-12
    assert abs(theta_weight(WeightSpec(GO.infinity(), 2.0), (3, 4)) - 50.0) < 1e-10


def test_theta_zero_order_boundary():
    w = WeightSpec(GO.zero(), 2.0)
    assert theta_weight(w, (1,)) == 1.0
    assert theta_weight(w, (2,)) == 1.0          # finite at |alpha| = r
    assert theta_weight(w, (3,)) == math.inf


def test_theta_additive_in_r_for_real_orders():
    alpha = (3, 1)
    for s in (0.25, 0.5, 2.0):
        lhs = theta_weight(WeightSpec(GO.real(s), 0.7 + 1.1), alpha)
        rhs = theta_weight(WeightSpec(GO.real(s), 0.7), alpha) * theta_weight(WeightSpec(GO.real(s), 1.1), alpha)
        assert abs(lhs - rhs) < 1e-10 * lhs


def test_theta_log_space_survives_degree_64():
    # (64!)^5 overflows doubles; the log form stays finite and usable
    from fockcalc.spaces import log_theta_weight
    w = WeightSpec(GO.flat(0.1), 1.0)
    assert theta_weight(w, (64,)) == math.inf
    assert math.isfinite(log_theta_weight(w, (64,)))


# --- omega -------------------------------------------------------------------

def test_omega_values():
    assert abs(omega_weight(GO.real(0.5), GO.real(0.5), 1, 1, (1,), (1,)) - 1.0) < 1e-14
    assert abs(omega_weight(GO.flat(1), GO.flat(1), 1, 2, (2,), (0,)) - 4 * math.sqrt(2)) < 1e-12
    assert abs(omega_weight(GO.real(0.5), GO.infinity(), 1, 2, (3, 4), (1,)) - 50 / math.e) < 1e-10


def test_omega_symmetric_quotient_is_one():
    for s in (GO.real(0.3), GO.flat(2), GO.infinity()):
        for alpha in ((0,), (3,), (5,)):
            assert abs(omega_weight(s, s, 1.5, 1.5, alpha, alpha) - 1.0) < 1e-12


def test_omega_infinite_factor_is_domain_error():
    with pytest.raises(DomainError):
        omega_weight(GO.zero(), GO.real(1), 1.0, 1.0, (1,), (5,))


# --- kappa -------------------------------------------------------------------

def test_kappa_values():
    assert abs(kappa_weight(1, False, 1.0, GO.flat(2), 1.0) - math.e) < 1e-12
    assert abs(kappa_weight(2, False, 1.0, GO.real(1), 2.0) - math.exp(4)) < 1e-10
    assert abs(kappa_weight(1, True, 0.5, GO.real(0.5), 2.0) - math.exp(2)) < 1e-12


def test_kappa_small_real_order_uses_log_bracket():
    v = kappa_weight(1, False, 2.0, GO.real(0.25), 1.0)
    expect = math.exp(2.0 * math.log(math.sqrt(2.0)) ** 2)
    assert abs(v - expect) < 1e-12


def test_kappa_unsupported_combinations():
    with pytest.raises(PreconditionError):
        kappa_weight(2, False, 1.0, GO.flat(0.5), 1.0)
    with pytest.raises(PreconditionError):
        kappa_weight(2, False, 1.0, GO.real(0.25), 1.0)
    with pytest.raises(PreconditionError):
        kappa_weight(1, False, 1.0, GO.zero(), 1.0)
    with pytest.raises(PreconditionError):
        kappa_weight(3, False, 1.0, GO.real(1), 1.0)


# --- weighted norms ----------------------------------------------------------

def test_weighted_norm_examples():
    assert weighted_norm(series_delta(1, (0,)), lambda k: 1.0, 2) == 1.0
    F = SeriesCoeffs(1, {(0,): 1.0, (1,): 1.0})
    assert abs(weighted_norm(F, WeightSpec(GO.real(0.5), 1.0), math.inf) - math.e) < 1e-12
    v = weighted_norm(series_delta(1, (2,)), WeightSpec(GO.flat(1), 2.0), 1)
    assert abs(v - 4 * math.sqrt(2)) < 1e-12


def test_weighted_norm_homogeneous():
    rng = np.random.default_rng(9)
    F = SeriesCoeffs(1, {(k,): complex(*rng.standard_normal(2)) for k in range(6)})
    G = SeriesCoeffs(1, {k: (2 - 3j) * v for k, v in F.entries.items()})
    for p in (1, 2, math.inf):
        assert abs(weighted_norm(G, lambda k: 1.0, p)
                   - abs(2 - 3j) * weighted_norm(F, lambda k: 1.0, p)) < 1e-10


def test_weighted_norm_infinite_weight_raises():
    F = series_delta(1, (5,))
    with pytest.raises(DomainError):
        weighted_norm(F, WeightSpec(GO.zero(), 2.0), 2)


# --- classify ----------------------------------------------------------------

GRID = [1.0, 2.0, 4.0]


def factorial_diagonal(power, n=8):
    return KernelCoeffs(1, 1, {((k,), (k,)): float(math.factorial(k)) ** power for k in range(n + 1)})


def test_classify_delta_consistent():
    rep = classify(kernel_delta(1, (0,), (0,)), SpaceSpec("B", GO.real(0.25), GO.real(0.25)), GRID)
    assert rep.verdict == "Consistent"


def test_classify_factorial_diagonal_consistent():
    space = SpaceSpec("Adual", GO.flat(1), GO.flat(1))
    rep = classify(factorial_diagonal(1), space, GRID)
    assert rep.verdict == "Consistent"
    # the fitted constants themselves are exposed for trend assertions
    assert all(v <= 1.0 + 1e-9 for v in rep.fitted_constants.values())


def test_classify_cubed_factorial_inconsistent():
    space = SpaceSpec("Adual", GO.flat(1), GO.flat(1))
    rep = classify(factorial_diagonal(3), space, GRID)
    assert rep.verdict == "Inconsistent"


def test_classify_scalar_invariance():
    space = SpaceSpec("Adual", GO.flat(1), GO.flat(1))
    for scale in (1e-9, 1.0, 1e9, 2j):
        c = factorial_diagonal(3)
        scaled = KernelCoeffs(1, 1, {k: scale * v for k, v in c.entries.items()})
        assert classify(scaled, space, GRID).verdict == "Inconsistent"
        c2 = factorial_diagonal(1)
        scaled2 = KernelCoeffs(1, 1, {k: scale * v for k, v in c2.entries.items()})
        assert classify(scaled2, space, GRID).verdict == "Consistent"


def test_classify_empty_support_trivially_consistent():
    rep = classify(KernelCoeffs(1, 1, {}), SpaceSpec("B0", GO.real(0.5), GO.real(0.5)), GRID)
    assert rep.verdict == "Consistent"


def test_classify_two_radius_gaussian_tail():
    # geometric diagonal decay 4^-k sits inside the B-type pattern comfortably
    c = KernelCoeffs(1, 1, {((k,), (k,)): 4.0 ** -k for k in range(9)})
    rep = classify(c, SpaceSpec("B", GO.flat(1), GO.flat(1)), GRID)
    assert rep.verdict == "Consistent"
    assert any(v is not None for v in rep.minimal_inner.values())


def test_classify_zero_order_edges():
    c = kernel_delta(1, (5,), (5,))
    # reciprocal indicator weights annihilate high entries: every sequence fits
    rep = classify(c, SpaceSpec("Adual", GO.zero(), GO.zero()), GRID)
    assert rep.verdict == "Consistent"
    # direct indicator weights blow up beyond every grid radius
    rep2 = classify(c, SpaceSpec("A", GO.zero(), GO.zero()), GRID)
    assert rep2.verdict == "Inconsistent"
    rep3 = classify(kernel_delta(1, (1,), (1,)), SpaceSpec("A", GO.zero(), GO.zero()), GRID)
    assert rep3.verdict == "Consistent"


def test_classify_infinite_order_uses_l2():
    c = KernelCoeffs(1, 1, {((k,), (k,)): (1.0 + k) ** -2 for k in range(9)})
    rep = classify(c, SpaceSpec("B", GO.infinity(), GO.infinity()), GRID)
    assert rep.verdict in ("Consistent", "Indeterminate")
    assert all(math.isfinite(v) for v in rep.fitted_constants.values())


def test_classify_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        SpaceSpec("B0", GO.zero(), GO.real(0.5))
    with pytest.raises(PreconditionError):
        SpaceSpec("Q", GO.real(0.5), GO.real(0.5))
    with pytest.raises(PreconditionError):
        classify(kernel_delta(1, (0,), (0,)), SpaceSpec("B", GO.real(0.5), GO.real(0.5)), [])


def test_classify_report_serialization():
    rep = classify(factorial_diagonal(1), SpaceSpec("Adual", GO.flat(1), GO.flat(1)), GRID)
    doc = rep.to_jsonable()
    assert doc["verdict"] == "Consistent"
    assert doc["truncation"] == 8
    assert len(doc["constants"]) == len(GRID)
    rows = rep.csv_rows()
    assert rows[0] == "r,constant"
    assert len(rows) == len(GRID) + 1


def test_weighted_norm_near_float_max():
    # log|c| = 704.6 lies past the old exp cut-off at 700 but inside float range
    F = series_delta(1, (0,), 1e306)
    for p in (2, math.inf):
        assert abs(weighted_norm(F, lambda k: 1.0, p) / 1e306 - 1.0) < 1e-13


def test_classify_constant_near_float_max():
    space = SpaceSpec("A", GO.flat(1), GO.flat(1))
    rep = classify(kernel_delta(1, (0,), (0,), 1e306), space, [1.0])
    assert abs(rep.fitted_constants[(1.0,)] / 1e306 - 1.0) < 1e-13
    assert rep.to_jsonable()["constants"][0]["constant"] is not None
    assert rep.verdict == "Consistent"


def test_omega_weight_overflow_is_inf():
    # log omega = log(200!) = 863.2, beyond float range like theta_weight's
    assert omega_weight(GO.flat(0.5), GO.flat(0.5), 1.0, 1.0, (200,), (0,)) == math.inf
    assert theta_weight(WeightSpec(GO.flat(0.5), 1.0), (200,)) == math.inf


def test_classify_log_weight_overflow_raises():
    # 64 ** 500 leaves float range in the log weight itself, as it did in the
    # scalar code; the CLI maps the ArithmeticError to exit code 4
    c = kernel_delta(1, (64,), (0,))
    space = SpaceSpec("A", GO.real(0.001), GO.real(0.001))
    with pytest.raises(ArithmeticError):
        classify(c, space, GRID)
    with pytest.raises(ArithmeticError):
        classify_reference(c, space, GRID)


# --- classify against the per-entry reference ------------------------------------

def log_theta_reference(order, r, alpha):
    n = total_degree(alpha)
    if order.kind == "real":
        return r * n ** (1.0 / (2.0 * order.value)) if n else 0.0
    if order.kind == "flat":
        return n * math.log(r) + log_multi_factorial(alpha) / (2.0 * order.value)
    if order.kind == "inf":
        return 0.5 * r * math.log1p(n * n)
    return 0.0 if n <= r else math.inf


def degree_profile_reference(c, log_w, p):
    """Per-entry loop: per-degree log masses and the overall log constant."""
    per_degree = {}
    poisoned = False
    for (alpha, beta), v in c.entries.items():
        lw = log_w((alpha, beta))
        if lw == -math.inf:
            continue
        if lw == math.inf:
            poisoned = True
            per_degree.setdefault(total_degree(alpha) + total_degree(beta), []).append(math.inf)
            continue
        per_degree.setdefault(total_degree(alpha) + total_degree(beta),
                              []).append(math.log(abs(v)) + lw)
    masses = {}
    for n, logs in per_degree.items():
        m = max(logs)
        if m == math.inf:
            masses[n] = math.inf
        elif p == math.inf:
            masses[n] = m
        else:
            masses[n] = m + math.log(sum(math.exp(p * (x - m)) for x in logs)) / p
    finite = [x for x in masses.values() if math.isfinite(x)]
    if poisoned:
        overall = math.inf
    elif not finite:
        overall = -math.inf
    elif p == math.inf:
        overall = max(finite)
    else:
        m = max(finite)
        overall = m + math.log(sum(math.exp(p * (x - m)) for x in finite)) / p
    return masses, overall


def classify_reference(c, space, r_grid):
    """classify with per-entry weight closures, one scalar log weight per entry."""
    grid = sorted(float(r) for r in r_grid)
    truncation = c.support_degree()
    if not c.entries:
        return DiagnosticReport(space, truncation, grid, {}, "Consistent")
    pattern, outer_role, sign = _FAMILIES[space.family]
    s1, s2 = space.s1, space.s2
    p = 2.0 if (s1.kind == "inf" or s2.kind == "inf") else math.inf

    def log_w_single(r):
        def lw(key):
            a2, a1 = key
            return sign * (log_theta_reference(s1, r, a1) + log_theta_reference(s2, r, a2))
        return lw

    def log_w_pair(r1, r2):
        def lw(key):
            a2, a1 = key
            num = log_theta_reference(s2, r2, a2)
            den = log_theta_reference(s1, r1, a1)
            if math.isinf(num) and math.isinf(den):
                return math.inf
            return sign * (num - den)
        return lw

    constants, divergent = {}, {}
    if pattern in ("exists", "forall"):
        for r in grid:
            masses, constants[(r,)] = degree_profile_reference(c, log_w_single(r), p)
            divergent[(r,)] = _is_divergent(masses)
    else:
        for ro in grid:
            for ri in grid:
                r1, r2 = (ro, ri) if outer_role == "r1" else (ri, ro)
                masses, constants[(ro, ri)] = degree_profile_reference(c, log_w_pair(r1, r2), p)
                divergent[(ro, ri)] = _is_divergent(masses)

    fitted = {}
    for k, v in constants.items():
        if math.isinf(v):
            fitted[k] = math.inf if v > 0 else 0.0
        else:
            fitted[k] = math.exp(v) if v < 700 else math.inf
    finite_vals = [v for v in fitted.values() if math.isfinite(v)]
    med = float(np.median(finite_vals)) if finite_vals else math.inf
    threshold = 10.0 * med if math.isfinite(med) else math.inf

    def within_cap(key):
        return fitted[key] <= threshold

    def passes(key):
        return (not divergent[key]) and within_cap(key)

    minimal_inner = {}
    if pattern == "exists":
        consistent = any(passes(k) for k in constants)
    elif pattern == "forall":
        consistent = all(passes(k) for k in constants)
    elif pattern == "forall-exists":
        consistent = True
        for ro in grid:
            inner = [ri for ri in grid if within_cap((ro, ri))]
            minimal_inner[ro] = min(inner) if inner else None
            consistent = consistent and any(passes((ro, ri)) for ri in grid)
    else:
        for ro in grid:
            inner = [ri for ri in grid if within_cap((ro, ri))]
            minimal_inner[ro] = min(inner) if inner else None
        consistent = any(all(passes((ro, ri)) for ri in grid) for ro in grid)
    if consistent:
        verdict = "Consistent"
    elif all(divergent.values()):
        verdict = "Inconsistent"
    else:
        verdict = "Indeterminate"
    return DiagnosticReport(space, truncation, grid, fitted, verdict, minimal_inner)


REFERENCE_ORDERS = [GO.zero(), GO.infinity(), GO.real(0.25), GO.real(1), GO.flat(1)]


def random_growth_kernel(rng, d, degree, n_entries):
    """Sparse kernel whose entry sizes grow or decay with degree at a random rate."""
    idx = enumerate_degree(d, degree)
    rate = rng.uniform(-1.5, 1.5)
    entries = {}
    for i, j in rng.integers(len(idx), size=(n_entries, 2)):
        k = total_degree(idx[i]) + total_degree(idx[j])
        entries[(idx[i], idx[j])] = math.exp(rate * k + rng.normal()) * np.exp(2j * math.pi * rng.uniform())
    return KernelCoeffs(d, d, entries)


def test_classify_matches_per_entry_reference():
    rng = np.random.default_rng(5)
    kernels = [random_growth_kernel(rng, 1, 10, 12), random_growth_kernel(rng, 2, 6, 30),
               random_growth_kernel(rng, 1, 16, 6), random_growth_kernel(rng, 2, 8, 60)]
    grid = [0.5, 1.0, 2.0, 4.0]
    cases = 0
    verdicts = set()
    for c in kernels:
        for family in _FAMILIES:
            for s1 in REFERENCE_ORDERS:
                for s2 in REFERENCE_ORDERS:
                    try:
                        space = SpaceSpec(family, s1, s2)
                    except PreconditionError:
                        continue   # families that need positive orders
                    got, ref = classify(c, space, grid), classify_reference(c, space, grid)
                    assert got.verdict == ref.verdict, space.label()
                    assert got.minimal_inner == ref.minimal_inner, space.label()
                    assert got.fitted_constants.keys() == ref.fitted_constants.keys()
                    for key, want in ref.fitted_constants.items():
                        have = got.fitted_constants[key]
                        if math.isfinite(want) and want > 0:
                            assert abs(have - want) <= 1e-13 * want, (space.label(), key)
                        else:
                            assert have == want, (space.label(), key)
                    verdicts.add(got.verdict)
                    cases += 1
    assert cases == 4 * (6 * 25 + 6 * 16)
    assert verdicts == {"Consistent", "Inconsistent", "Indeterminate"}


# --- pointwise bounds ----------------------------------------------------------

def test_pointwise_bound_constant_one():
    pts = [complex(x, y) for x in np.linspace(-2, 2, 9) for y in np.linspace(-2, 2, 9)]
    out = verify_pointwise_bound(
        lambda z: 1.0,
        lambda z: kappa_weight(1, True, 1.0, GO.real(0.5), z),
        pts,
    )
    assert abs(out["constant"] - 1.0) < 1e-12   # attained at z = 0
    # with an explicit cap at the fitted constant nothing is flagged
    assert not verify_pointwise_bound(
        lambda z: 1.0,
        lambda z: kappa_weight(1, True, 1.0, GO.real(0.5), z),
        pts, cap=1.0 + 1e-12,
    )["violations"]


def test_pointwise_bound_exp_kernel():
    # degree-12 partial sum of exp(z conj(w)) against exp((|z|^2+|w|^2)/2)
    K = KernelCoeffs(1, 1, {((k,), (k,)): 1.0 for k in range(13)})
    pts = [(complex(a, b), complex(c, e))
           for a in np.linspace(-1.5, 1.5, 4) for b in np.linspace(-1.5, 1.5, 4)
           for c in np.linspace(-1.5, 1.5, 4) for e in np.linspace(-1.5, 1.5, 4)]
    out = verify_pointwise_bound(
        lambda z, w: eval_kernel(K, z, w),
        lambda z, w: math.exp((abs(z) ** 2 + abs(w) ** 2) / 2.0),
        pts,
    )
    assert out["constant"] <= 1.0 + 1e-3


def test_pointwise_bound_smoothed_unit_symbol():
    # the smoothing of the unit symbol is 1; quarter-Gaussian of the separation bounds it
    from fockcalc.quadrature import berezin_transform_quad

    one = kernel_delta(1, (0,), (0,))
    pts = [(complex(0.3, 0.2), complex(0.3, 0.2)), (1.0 + 0j, -0.5 + 0.5j), (0j, 1j)]
    out = verify_pointwise_bound(
        lambda z, w: berezin_transform_quad(one, z, w, M=32),
        lambda z, w: math.exp(abs(z - w) ** 2 / 4.0),
        pts,
        cap=1.0 + 1e-9,
    )
    assert abs(out["constant"] - 1.0) < 1e-9
    assert not out["violations"]


def test_pointwise_bound_flags_violations():
    out = verify_pointwise_bound(lambda z: z, lambda z: 1.0, [0.1, 0.1, 0.1, 50.0])
    assert len(out["violations"]) == 1
    with pytest.raises(DomainError):
        verify_pointwise_bound(lambda z: math.inf, lambda z: 1.0, [1.0])
