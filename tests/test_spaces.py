import math
import warnings

import numpy as np
import pytest

from fockcalc import spaces
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
    _exp,
    _is_divergent,
    _log_norm,
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


@pytest.mark.parametrize("text", ["real:inf", "flat:inf", "real:1e400", "flat:-inf", "real:nan", "flat:nan"])
def test_growth_order_parse_rejects_values_that_are_not_finite(text):
    # real and flat parameters lie in (0, inf); infinity is its own kind, "inf"
    with pytest.raises(ValueError):
        GO.parse(text)


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


def test_kappa_overflow_is_inf():
    # exp(900) and exp(800) / sqrt(1601) leave float range, as theta and omega weights may
    assert kappa_weight(1, True, 1.0, GO.real(0.5), 30.0) == math.inf
    assert kappa_weight(1, False, 1.0, GO.infinity(), 40.0) == math.inf


@pytest.mark.parametrize("kind, zero, r, order, z, expect", [
    (1, False, 1.0, GO.real(0.5), 1e200, 0.0),        # (1/2 - r) |z|^2 -> -inf
    (1, False, 1.0, GO.real(0.5), [1e200, -1e200j], 0.0),
    (2, False, 1.0, GO.real(0.5), 1e200, math.inf),
    (1, False, 0.5, GO.real(0.5), 1e200, 1.0),        # the exponent is exactly 0
    (1, False, 1.0, GO.real(1), 1e200, math.inf),
    (1, False, 1.0, GO.real(0.499), 1e200, math.inf),
    (1, False, 1.0, GO.flat(10), 1e200, math.inf),
    (2, False, 1.0, GO.flat(2), 1e200, math.inf),
    (1, False, 1.0, GO.infinity(), 1e200, math.inf),
    (1, True, 1.0, GO.real(0.5), 1e200, math.inf),
])
def test_kappa_at_huge_points(kind, zero, r, order, z, expect):
    # |z|^2 leaves float range past about 1.3e154; the envelope is +inf, 0 or finite, never NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kappa_weight(kind, zero, r, order, z) == expect


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


@pytest.mark.parametrize("grid", [[math.nan], [math.inf], [1.0, math.inf], [1.0, 2.0, math.nan], [-math.inf, 2.0]])
def test_classify_rejects_radii_that_are_not_finite(grid):
    space = SpaceSpec("Adual", GO.flat(1), GO.flat(1))
    with pytest.raises(PreconditionError):
        classify(factorial_diagonal(1), space, grid)


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


# --- weighted_norm against the per-key loop ---------------------------------------

def log_theta_weight_reference(w, alpha):
    """One key's log weight from Python scalars, as the per-key loop formed it."""
    n, lf, r = total_degree(alpha), log_multi_factorial(alpha), w.r
    if w.order.kind == "real":
        return r * n ** (1.0 / (2.0 * w.order.value))
    if w.order.kind == "flat":
        return n * math.log(r) + lf / (2.0 * w.order.value)
    if w.order.kind == "inf":
        return float(0.5 * r * np.log1p(n * n))
    return 0.0 if n <= r else math.inf


def weighted_norm_reference(c, weight, p):
    """The per-key loop that weighted_norm replaced: one log weight and one log|c| per key,
    summed by the unchanged _log_norm."""
    logs = []
    for key, v in c.entries.items():
        if isinstance(weight, WeightSpec):
            lw = log_theta_weight_reference(weight, key)
        else:
            x = weight(key)
            if x != math.inf and not x > 0:
                raise DomainError(f"weight must be positive, got {x!r} at {key}")
            lw = math.log(x)
        if math.isinf(lw):
            raise DomainError(f"infinite weight on support at {key}")
        logs.append(math.log(abs(v)) + lw)
    return _exp(_log_norm(logs, p))


def _outcome(f):
    try:
        return np.float64(f()).tobytes()
    except DomainError as exc:
        return str(exc)


def _sparse_growth_series(rng, d, degree, n_entries):
    """Series on a random sparse support whose entry sizes span ten decades."""
    idx = enumerate_degree(d, degree)
    return SeriesCoeffs(d, {idx[i]: complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-5, 5)
                            for i in rng.integers(len(idx), size=n_entries)})


WEIGHT_ORDERS = [GO.zero(), GO.real(0.2), GO.real(0.45), GO.real(0.5), GO.real(1.7),
                 GO.flat(0.3), GO.flat(1), GO.flat(2.5), GO.infinity()]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_weighted_norm_matches_the_per_key_loop(d):
    # bit for bit, errors included: the zero order at a small radius meets its infinite branch
    rng = np.random.default_rng(60 + d)
    degree = {1: 60, 2: 14, 3: 8}[d]
    series = [SeriesCoeffs(d, {}), series_delta(d, (0,) * d, -2.5j)]
    series += [_sparse_growth_series(rng, d, degree, n) for n in (1, 5, 40, 200)]
    series.append(SeriesCoeffs(d, {a: complex(*rng.standard_normal(2)) for a in enumerate_degree(d, 5)}))
    cases, errors = 0, 0
    for F in series:
        for order in WEIGHT_ORDERS:
            for r in (0.3, 1.0, 7.5, 100.0):
                w = WeightSpec(order, r)
                for p in (1, 2, math.inf):
                    got = _outcome(lambda: weighted_norm(F, w, p))
                    assert got == _outcome(lambda: weighted_norm_reference(F, w, p)), (d, order, r, p)
                    cases, errors = cases + 1, errors + isinstance(got, str)
    assert cases == 7 * 9 * 4 * 3 and errors > 0


def test_weighted_norm_takes_each_log_as_the_per_key_loop(monkeypatch):
    # numpy's vector log differs from math.log in the last bit for a few values in ten
    # thousand, most of them near 1; with unit weights the logs reach _log_norm unchanged
    rng = np.random.default_rng(14)
    idx = enumerate_degree(2, 199)
    F = SeriesCoeffs(2, dict(zip(idx, ((rng.standard_normal((len(idx), 2)) @ [1, 1j])
                                       * 10.0 ** rng.uniform(-3, 3, len(idx))).tolist())))
    seen = []
    monkeypatch.setattr(spaces, "_log_norm", lambda logs, p: seen.append(np.asarray(logs)) or _log_norm(logs, p))
    weighted_norm(F, lambda key: 1.0, 2)
    weighted_norm(F, WeightSpec(GO.flat(1), 1.0), 2)
    want = np.array([math.log(abs(v)) for v in F.entries.values()])
    assert seen[0].tobytes() == want.tobytes()
    lw = np.array([log_theta_weight_reference(WeightSpec(GO.flat(1), 1.0), key) for key in F.entries])
    assert seen[1].tobytes() == (want + lw).tobytes()


def test_weighted_norm_callable_weights_keep_the_per_key_loop():
    # a callable is called once per key in entry order until the first error, on series and kernels
    rng = np.random.default_rng(12)
    F = _sparse_growth_series(rng, 2, 6, 30)
    K = KernelCoeffs(1, 2, {((i,), (j, i)): complex(*rng.standard_normal(2)) for i in range(5) for j in range(3)})
    keys = list(F.entries)
    weights = [lambda k: 1.0 + sum(map(sum, k)) if isinstance(k[0], tuple) else 1.0 + sum(k),
               lambda k: {keys[4]: math.inf, keys[9]: -1.0}.get(k, 2.0),
               lambda k: {keys[4]: 0.0, keys[9]: math.inf}.get(k, 2.0),
               lambda k: math.nan if k == keys[7] else 3.0]
    for c in (F, K):
        for weight in weights:
            for p in (1, 2, math.inf):
                seen, seen_ref = [], []
                got = _outcome(lambda: weighted_norm(c, lambda k: seen.append(k) or weight(k), p))
                ref = _outcome(lambda: weighted_norm_reference(c, lambda k: seen_ref.append(k) or weight(k), p))
                assert got == ref and seen == seen_ref
    assert _outcome(lambda: weighted_norm(F, weights[1], 2)) == f"infinite weight on support at {keys[4]}"
    assert _outcome(lambda: weighted_norm(F, weights[2], 2)) == f"weight must be positive, got 0.0 at {keys[4]}"


def test_weighted_norm_weight_spec_needs_a_series():
    K = kernel_delta(1, (1,), (2,))
    with pytest.raises(TypeError, match="WeightSpec weighs series indices"):
        weighted_norm(K, WeightSpec(GO.flat(1), 1.0), 2)
    assert weighted_norm(K, lambda key: 2.0, 2) == 2.0
    with pytest.raises(TypeError, match="WeightSpec or a callable"):
        weighted_norm(series_delta(1, (1,)), 2.0, 2)


def test_classify_sums_degrees_as_floats():
    # |alpha| = 4e9: an int64 |alpha|^2 wraps past 2^63, a float one is exact
    c = KernelCoeffs(1, 1, {((4000000000,), (0,)): 1.0, ((0,), (0,)): 1.0})
    rep = classify(c, SpaceSpec("A", GO.infinity(), GO.infinity()), [1.0])
    want = math.hypot(1.0, theta_weight(WeightSpec(GO.infinity(), 1.0), (4000000000,)))
    assert abs(rep.fitted_constants[(1.0,)] - want) <= 1e-15 * want
    F = SeriesCoeffs(1, {(4000000000,): 1.0, (0,): 1.0})
    assert weighted_norm(F, WeightSpec(GO.infinity(), 1.0), 2) == weighted_norm_reference(F, WeightSpec(GO.infinity(), 1.0), 2)

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
