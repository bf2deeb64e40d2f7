"""Named verification suites behind the command-line ``verify`` subcommand.

Each suite runs a deterministic batch of identity checks with a seeded
generator and returns a JSON-ready report.  Cheap independent oracles are
built inline (discrete convolutions, closed-form eigenvalues, quadrature)
so no suite checks an implementation against itself.
"""

from __future__ import annotations

import datetime
import math
from typing import Dict, List

import numpy as np

from .binomial import l2_r_norm, s0, s0_inv, t0, t0_star
from .multiindex import enumerate_degree, index_add, log_multi_factorial, total_degree
from .quadrature import default_nodes, rank_one_check, toeplitz_matrix_quad, wick_apply_quad, antiwick_apply_quad
from .series import KernelCoeffs, SeriesCoeffs, eval_series, kernel_delta
from .symbolcalc import (
    antiwick_to_wick,
    apply_operator,
    operator_matrix,
    t0_bound_constant,
    wick_to_kernel,
)

SUITES = ("identities", "quadrature", "toeplitz", "bounds", "appendixB")


def _random_kernel(rng: np.random.Generator, d: int, degree: int) -> KernelCoeffs:
    idx = enumerate_degree(d, degree)
    entries = {}
    for a in idx:
        for b in idx:
            entries[(a, b)] = complex(rng.standard_normal(), rng.standard_normal())
    return KernelCoeffs(d, d, entries)


def _random_series(rng: np.random.Generator, d: int, degree: int) -> SeriesCoeffs:
    return SeriesCoeffs(d, {
        a: complex(rng.standard_normal(), rng.standard_normal())
        for a in enumerate_degree(d, degree)
    })


def _sup(c: KernelCoeffs) -> float:
    return max((abs(v) for v in c.entries.values()), default=0.0)


def _sup_diff(c1: KernelCoeffs, c2: KernelCoeffs, max_degree: int | None = None) -> float:
    e1, e2 = c1.entries, c2.entries
    worst = 0.0
    for k in set(e1) | set(e2):
        if max_degree is not None and max(total_degree(k[0]), total_degree(k[1])) > max_degree:
            continue
        worst = max(worst, abs(e1.get(k, 0.0) - e2.get(k, 0.0)))
    return worst


def _l2(c: KernelCoeffs) -> float:
    return math.sqrt(sum(abs(v) ** 2 for v in c.entries.values()))


def _pairing(c: KernelCoeffs, dker: KernelCoeffs) -> complex:
    d = dker.entries
    return sum(v * d[k].conjugate() for k, v in c.entries.items() if k in d)


def _report(suite: str, seed: int, cases: int, max_error: float,
            failures: List[dict], tolerance: float) -> dict:
    return {
        "suite": suite,
        "seed": seed,
        "cases": cases,
        "max_error": max_error,
        "tolerance": tolerance,
        "pass": not failures and max_error <= tolerance,
        "failures": failures,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _convolution_oracle(a: KernelCoeffs, t: complex, out_degree: int) -> KernelCoeffs:
    """Exponential-multiplier oracle: monomial-coefficient convolution.

    Rescale to monomial coefficients m = c / sqrt(alpha! beta!), convolve with
    the diagonal Taylor coefficients t^|g| / g! of the exponential factor, and
    rescale back.  Shares no code path with the binomial-sum implementation.
    """
    d = a.d
    out: Dict = {}
    for (aa, bb), v in a.entries.items():
        m = v * math.exp(-0.5 * (log_multi_factorial(aa) + log_multi_factorial(bb)))
        room = out_degree - max(total_degree(aa), total_degree(bb))
        if room < 0:
            continue
        for g in enumerate_degree(d, room):
            fac = t ** total_degree(g) * math.exp(-log_multi_factorial(g))
            key = (index_add(aa, g), index_add(bb, g))
            out[key] = out.get(key, 0.0) + m * fac
    return KernelCoeffs(d, d, {
        k: v * math.exp(0.5 * (log_multi_factorial(k[0]) + log_multi_factorial(k[1])))
        for k, v in out.items()
    })


def suite_identities(seed: int, n_random: int = 60) -> dict:
    """Inverse, adjoint, conjugation and ordering identities for the transitions."""
    rng = np.random.default_rng(seed)
    ts = [1.0, -1.0, 0.5 + 0.3j]
    max_err = 0.0
    failures: List[dict] = []
    cases = 0

    def record(err: float, tol: float, label: str, **ctx) -> None:
        nonlocal max_err, cases
        cases += 1
        max_err = max(max_err, err)
        if err > tol:
            failures.append({"check": label, "error": err, "tolerance": tol, **ctx})

    for i in range(n_random):
        d = 1 if i % 2 == 0 else 2
        degree = 8 if d == 1 else 4
        c = _random_kernel(rng, d, degree)
        dk = _random_kernel(rng, d, degree)
        sup = _sup(c)
        for t in ts:
            fwd = t0(c, t, out_degree=degree)
            back = t0(fwd, -t, out_degree=degree)
            record(_sup_diff(back, c) / sup, 1e-10, "t0 inverse", d=d, t=str(t))

            fwd2 = t0_star(c, t)
            back2 = t0_star(fwd2, -t)
            record(_sup_diff(back2, c) / sup, 1e-10, "t0_star inverse", d=d, t=str(t))

            lhs = _pairing(t0(c, t, out_degree=degree), dk)
            rhs = _pairing(c, t0_star(dk, np.conj(t)))
            scale = _l2(c) * _l2(dk)
            record(abs(lhs - rhs) / scale, 1e-10, "adjoint", d=d, t=str(t))

            conj_route = s0_inv(t0(s0(c), t, out_degree=degree))
            record(_sup_diff(t0(c, -t, out_degree=degree), conj_route), 1e-12 * max(1.0, sup),
                   "conjugation", d=d, t=str(t))

        # oracle: multiplying by the exponential factor is a convolution in
        # monomial coefficients
        oracle = _convolution_oracle(c, 0.5 + 0.3j, degree + 4)
        record(_sup_diff(t0(c, 0.5 + 0.3j, out_degree=degree + 4), oracle) / sup,
               1e-10, "exponential multiplier oracle", d=d)

    # Berezin ordering shift on the quadratic symbol, and the exact round trip
    d11 = kernel_delta(1, (1,), (1,))
    w = antiwick_to_wick(d11)
    expect = KernelCoeffs(1, 1, {((1,), (1,)): 1.0, ((0,), (0,)): 1.0})
    record(_sup_diff(w, expect), 1e-12, "ordering shift")
    for i in range(20):
        c = _random_kernel(rng, 1, 6)
        rt = t0_star(t0_star(c, 1.0), -1.0)
        record(_sup_diff(rt, c) / _sup(c), 1e-12, "ordering round trip")

    return _report("identities", seed, cases, max_err, failures, 1e-10)


def suite_quadrature(seed: int, M: int | None = None) -> dict:
    """Coefficient route against the defining integrals for both orderings."""
    rng = np.random.default_rng(seed)
    M = M or default_nodes(2)
    max_err = 0.0
    failures: List[dict] = []
    cases = 0
    for _ in range(4):
        a = _random_kernel(rng, 1, 3)
        F = _random_series(rng, 1, 4)
        K = wick_to_kernel(a, out_degree=a.support_degree() + F.support_degree())
        TF = apply_operator(K, F)
        aw = antiwick_to_wick(a)
        Kaw = wick_to_kernel(aw, out_degree=aw.support_degree() + F.support_degree())
        TFaw = apply_operator(Kaw, F)
        for _ in range(4):
            z = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
            qv = wick_apply_quad(a, F, z, M=M)
            cv = eval_series(TF, z)
            err = abs(qv - cv)
            qv2 = antiwick_apply_quad(a, F, z, M=M)
            cv2 = eval_series(TFaw, z)
            err2 = abs(qv2 - cv2)
            cases += 2
            max_err = max(max_err, err, err2)
            if err > 1e-7:
                failures.append({"check": "wick route", "z": str(z), "error": err})
            if err2 > 1e-7:
                failures.append({"check": "anti-wick route", "z": str(z), "error": err2})
    return _report("quadrature", seed, cases, max_err, failures, 1e-7)


def suite_toeplitz(seed: int, M: int | None = None) -> dict:
    """Phase-space quadrature against the coefficient route, N = 6."""
    M = M or default_nodes(2)
    N = 6
    max_err = 0.0
    failures: List[dict] = []

    symbols = {
        "unit": (lambda x, xi: np.ones(x.shape[0]), kernel_delta(1, (0,), (0,))),
        "quadratic": (lambda x, xi: (x[:, 0] ** 2 + xi[:, 0] ** 2) / 2.0, kernel_delta(1, (1,), (1,))),
    }
    cases = 0
    for name, (fn, a) in symbols.items():
        quad = toeplitz_matrix_quad(fn, N, M=M, d=1)
        K = wick_to_kernel(antiwick_to_wick(a), out_degree=N)
        coeff = operator_matrix(K, N)
        err = float(np.max(np.abs(quad.matrix - coeff.matrix)))
        cases += 1
        max_err = max(max_err, err)
        if err > 1e-6:
            failures.append({"check": f"toeplitz {name}", "error": err})
    ident_err = float(np.max(np.abs(
        toeplitz_matrix_quad(symbols["unit"][0], N, M=M, d=1).matrix - np.eye(N + 1))))
    cases += 1
    max_err = max(max_err, ident_err)
    if ident_err > 1e-6:
        failures.append({"check": "toeplitz identity", "error": ident_err})
    return _report("toeplitz", seed, cases, max_err, failures, 1e-6)


def suite_bounds(seed: int, n_random: int = 100) -> dict:
    """Explicit geometric-weight operator bound; pass requires zero violations."""
    rng = np.random.default_rng(seed)
    pairs = [(1.0, 3.0), (1.0, 4.0), (0.5, 2.0)]
    ts = [1.0, -1.0, 0.6 + 0.8j, 0.3]
    violations: List[dict] = []
    worst_ratio = 0.0
    cases = 0
    for _ in range(n_random):
        b = _random_kernel(rng, 1, 6)
        for (r1, r2) in pairs:
            cst = t0_bound_constant(r1, r2, 1)
            base = l2_r_norm(b, r1)
            for t in ts:
                out = t0(b, t, out_degree=b.support_degree() + 8)
                ratio = l2_r_norm(out, r2) / (cst * base)
                cases += 1
                worst_ratio = max(worst_ratio, ratio)
                if ratio > 1.0 + 1e-12:
                    violations.append({"r1": r1, "r2": r2, "t": str(t), "ratio": ratio})
    report = _report("bounds", seed, cases, worst_ratio, violations, 1.0 + 1e-12)
    report["pass"] = not violations
    return report


def suite_appendix_b(seed: int, M: int | None = None) -> dict:
    """Rank-one smoothing identity across orders, parameters and random points."""
    rng = np.random.default_rng(seed)
    M = M or default_nodes(2)
    max_err = 0.0
    failures: List[dict] = []
    cases = 0
    for t in (1.0, -1.0, 2.0):
        for a in range(4):
            for b in range(4):
                for _ in range(2):
                    z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    r = rank_one_check((a,), (b,), t, z, w, M=M)
                    err = abs(r["lhs"] - r["rhs"])
                    cases += 1
                    max_err = max(max_err, err)
                    if err > 1e-6:
                        failures.append({"alpha": a, "beta": b, "t": str(t), "error": err})
    base = rank_one_check((0,), (0,), 1.0, 0.4 + 0.3j, -0.2 + 0.1j, M=M)
    unit_err = max(abs(base["lhs"] - 1.0), abs(base["rhs"] - 1.0))
    cases += 1
    if unit_err > 1e-10:
        failures.append({"check": "unit smoothing", "error": unit_err})
    max_err = max(max_err, unit_err)
    return _report("appendixB", seed, cases, max_err, failures, 1e-6)


def run_suite(name: str, seed: int, M: int | None = None) -> dict:
    if name == "identities":
        return suite_identities(seed)
    if name == "quadrature":
        return suite_quadrature(seed, M=M)
    if name == "toeplitz":
        return suite_toeplitz(seed, M=M)
    if name == "bounds":
        return suite_bounds(seed)
    if name == "appendixB":
        return suite_appendix_b(seed, M=M)
    raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
