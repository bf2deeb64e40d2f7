"""Named verification suites behind the command-line ``verify`` subcommand.

Each suite runs a deterministic batch of identity checks with a seeded
generator and returns a JSON-ready report.  Cheap independent oracles are
built inline (discrete convolutions, closed-form eigenvalues, quadrature)
so no suite checks an implementation against itself.  The convolution
oracle and the comparators (``_sup``, ``_sup_diff``, ``_l2``, ``_pairing``)
work on the containers' arrays with plain numpy, keys matched through
``np.ravel_multi_index``; they call nothing from ``binomial``,
``symbolcalc`` or the engine's row matchers.  ``suite_identities`` and
``suite_bounds`` compute each transition once per kernel and read it in
every check that needs it.

Every check goes through one recorder, ``_Checks``: it counts the cases,
keeps the worst error and lists each failing case with its context, its
``error`` and its ``tolerance``.  A report passes when no case failed and
the worst error is within the suite tolerance.  ``SUITES`` maps each suite
name to its suite.  Each quadrature suite reads its node count once, from
``default_nodes(2)``, which ``FOCK_QUAD_NODES`` overrides.
"""

from __future__ import annotations

import datetime
import math
from itertools import chain
from typing import List

import numpy as np

from .binomial import l2_r_norm, s0, s0_inv, t0, t0_star
from .multiindex import enumerate_degree, log_multi_factorial, total_degree
from .quadrature import default_nodes, rank_one_check, toeplitz_matrix_quad, wick_apply_quad, antiwick_apply_quad
from .series import KernelCoeffs, SeriesCoeffs, eval_series, kernel_delta
from .symbolcalc import (
    antiwick_to_wick,
    apply_operator,
    operator_matrix,
    t0_bound_constant,
    wick_to_kernel,
)


def _random_kernel(rng: np.random.Generator, d: int, degree: int) -> KernelCoeffs:
    """Dense kernel on |alpha|, |beta| <= degree, alpha-major; each value is a
    standard normal real part and then imaginary part, from one draw."""
    idx = np.array(enumerate_degree(d, degree), dtype=np.int64)
    n = len(idx)
    index = np.hstack([np.repeat(idx, n, axis=0), np.tile(idx, (n, 1))])
    return KernelCoeffs._from_arrays(d, d, index, rng.standard_normal(2 * n * n).view(complex))


def _random_series(rng: np.random.Generator, d: int, degree: int) -> SeriesCoeffs:
    """Dense series on |alpha| <= degree, drawn like ``_random_kernel``."""
    idx = np.array(enumerate_degree(d, degree), dtype=np.int64)
    return SeriesCoeffs._from_arrays(d, idx, rng.standard_normal(2 * len(idx)).view(complex))


def _matched(c1: KernelCoeffs, c2: KernelCoeffs):
    """Values of c1 and c2 on their common keys, then on the keys of each alone;
    keys are numbered in the box that holds both indices."""
    (i1, v1), (i2, v2) = c1.arrays(), c2.arrays()
    dims = np.maximum(i1.max(axis=0, initial=0), i2.max(axis=0, initial=0)) + 1
    k1, k2 = np.ravel_multi_index(i1.T, dims), np.ravel_multi_index(i2.T, dims)
    _, s1, s2 = np.intersect1d(k1, k2, assume_unique=True, return_indices=True)
    only1, only2 = np.ones(len(v1), dtype=bool), np.ones(len(v2), dtype=bool)
    only1[s1] = only2[s2] = False
    return v1[s1], v2[s2], v1[only1], v2[only2]


# _sup and _sup_diff take Python's abs of Python complex, as the per-entry
# versions did, so that the worst errors stay the same bit for bit
def _sup(c: KernelCoeffs) -> float:
    return max(map(abs, c.arrays()[1].tolist()), default=0.0)


def _sup_diff(c1: KernelCoeffs, c2: KernelCoeffs) -> float:
    both1, both2, only1, only2 = _matched(c1, c2)
    return max(map(abs, chain((both1 - both2).tolist(), only1.tolist(), only2.tolist())), default=0.0)


def _l2(c: KernelCoeffs) -> float:
    return float(np.linalg.norm(c.arrays()[1]))


def _pairing(c: KernelCoeffs, dker: KernelCoeffs) -> complex:
    both, dboth, _, _ = _matched(c, dker)
    return complex(np.vdot(dboth, both))


class _Checks:
    """One suite's check recorder: case count, worst error and failing cases."""

    def __init__(self, suite: str, seed: int, tolerance: float):
        self.suite, self.seed, self.tolerance = suite, seed, tolerance
        self.cases = 0
        self.max_error = 0.0
        self.failures: List[dict] = []

    def __call__(self, error: float, tolerance: float | None = None, **context) -> None:
        """Record one case; it fails when ``error`` is over ``tolerance``
        (the suite tolerance unless given)."""
        tolerance = self.tolerance if tolerance is None else tolerance
        self.cases += 1
        self.max_error = max(self.max_error, error)
        if error > tolerance:
            self.failures.append({**context, "error": error, "tolerance": tolerance})

    def report(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "cases": self.cases,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "pass": not self.failures and self.max_error <= self.tolerance,
            "failures": self.failures,
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }


def _convolution_oracle(a: KernelCoeffs, t: complex, out_degree: int) -> KernelCoeffs:
    """Exponential-multiplier oracle: monomial-coefficient convolution.

    Rescale to monomial coefficients m = c / sqrt(alpha! beta!), convolve with
    the diagonal Taylor coefficients t^|g| / g! of the exponential factor, and
    rescale back.  One loop over the simplex |g| <= out_degree forms the
    factors; the terms of all entries at all steps are then one array
    expression, keys numbered by ``np.ravel_multi_index`` in the box of side
    out_degree + 1 and equal keys summed after ``np.unique``, so memory grows
    with entries x simplex.  It uses no binomial weight and calls nothing
    from ``binomial``, ``symbolcalc`` or the engine's row matchers in
    ``series``.
    """
    d = a.d
    index, values = a.arrays()
    lg = np.array([math.lgamma(k + 1) for k in range(max(out_degree, 0) + 1)])
    room = out_degree - np.maximum(index[:, :d].sum(axis=1), index[:, d:].sum(axis=1))
    keep = room >= 0
    index, values, room = index[keep], values[keep], room[keep]
    if not len(values):
        return KernelCoeffs(d, d)
    dims = (out_degree + 1,) * (2 * d)
    m = values * np.exp(-0.5 * (lg[index[:, :d]].sum(axis=1) + lg[index[:, d:]].sum(axis=1)))
    base = np.ravel_multi_index(index.T, dims)
    simplex = enumerate_degree(d, int(room.max()))
    steps = [total_degree(g) for g in simplex]
    fac = np.array([t ** k * math.exp(-log_multi_factorial(g)) for g, k in zip(simplex, steps)])
    shift = np.array([np.ravel_multi_index(g + g, dims) for g in simplex])
    # entry-major, each entry's steps in simplex order, as the per-entry loop formed its sums
    used = room[:, None] >= np.array(steps)
    keys, terms = (base[:, None] + shift)[used], (m[:, None] * fac)[used]
    out, slot = np.unique(keys, return_inverse=True)
    slot = slot.reshape(-1)
    sums = np.bincount(slot, terms.real, len(out)) + 1j * np.bincount(slot, terms.imag, len(out))
    out_index = np.stack(np.unravel_index(out, dims), axis=1)
    scale = np.exp(0.5 * (lg[out_index[:, :d]].sum(axis=1) + lg[out_index[:, d:]].sum(axis=1)))
    return KernelCoeffs._from_arrays(d, d, out_index, sums * scale)


def suite_identities(seed: int, n_random: int = 60) -> dict:
    """Inverse, adjoint, conjugation and ordering identities for the transitions.

    Each forward transition t0(c, s), s = ±t, is computed once per kernel and
    read by the inverse, adjoint and conjugation checks."""
    rng = np.random.default_rng(seed)
    record = _Checks("identities", seed, 1e-10)
    ts = [1.0, -1.0, 0.5 + 0.3j]
    signed = list(dict.fromkeys(x for t in ts for x in (t, -t)))  # t and -t, once each
    for i in range(n_random):
        d = 1 if i % 2 == 0 else 2
        degree = 8 if d == 1 else 4
        c = _random_kernel(rng, d, degree)
        dk = _random_kernel(rng, d, degree)
        sup = _sup(c)
        scale = _l2(c) * _l2(dk)
        fwd = {s: t0(c, s, out_degree=degree) for s in signed}
        for t in ts:
            back = t0(fwd[t], -t, out_degree=degree)
            record(_sup_diff(back, c) / sup, check="t0 inverse", d=d, t=str(t))

            fwd2 = t0_star(c, t)
            back2 = t0_star(fwd2, -t)
            record(_sup_diff(back2, c) / sup, check="t0_star inverse", d=d, t=str(t))

            lhs = _pairing(fwd[t], dk)
            rhs = _pairing(c, t0_star(dk, np.conj(t)))
            record(abs(lhs - rhs) / scale, check="adjoint", d=d, t=str(t))

            conj_route = s0_inv(t0(s0(c), t, out_degree=degree))
            direct = fwd[-t]
            record(_sup_diff(direct, conj_route), 1e-12 * max(1.0, sup),
                   check="conjugation", d=d, t=str(t))

        # oracle: multiplying by the exponential factor is a convolution in
        # monomial coefficients
        oracle = _convolution_oracle(c, 0.5 + 0.3j, degree + 4)
        record(_sup_diff(t0(c, 0.5 + 0.3j, out_degree=degree + 4), oracle) / sup,
               check="exponential multiplier oracle", d=d)

    # Berezin ordering shift on the quadratic symbol, and the exact round trip
    d11 = kernel_delta(1, (1,), (1,))
    w = antiwick_to_wick(d11)
    expect = KernelCoeffs(1, 1, {((1,), (1,)): 1.0, ((0,), (0,)): 1.0})
    record(_sup_diff(w, expect), 1e-12, check="ordering shift")
    for i in range(20):
        c = _random_kernel(rng, 1, 6)
        rt = t0_star(t0_star(c, 1.0), -1.0)
        record(_sup_diff(rt, c) / _sup(c), 1e-12, check="ordering round trip")
    return record.report()


def suite_quadrature(seed: int) -> dict:
    """Coefficient route against the defining integrals for both orderings."""
    rng = np.random.default_rng(seed)
    record = _Checks("quadrature", seed, 1e-7)
    M = default_nodes(2)
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
            record(abs(wick_apply_quad(a, F, z, M=M) - eval_series(TF, z)),
                   check="wick route", z=str(z))
            record(abs(antiwick_apply_quad(a, F, z, M=M) - eval_series(TFaw, z)),
                   check="anti-wick route", z=str(z))
    return record.report()


def suite_toeplitz(seed: int) -> dict:
    """Phase-space quadrature against the coefficient route, N = 6."""
    record = _Checks("toeplitz", seed, 1e-6)
    M, N = default_nodes(2), 6
    symbols = {
        "unit": (lambda x, xi: np.ones(x.shape[0]), kernel_delta(1, (0,), (0,))),
        "quadratic": (lambda x, xi: (x[:, 0] ** 2 + xi[:, 0] ** 2) / 2.0, kernel_delta(1, (1,), (1,))),
    }
    quad = {}
    for name, (fn, a) in symbols.items():
        quad[name] = toeplitz_matrix_quad(fn, N, M=M, d=1).matrix
        K = wick_to_kernel(antiwick_to_wick(a), out_degree=N)
        coeff = operator_matrix(K, N)
        record(float(np.max(np.abs(quad[name] - coeff.matrix))), check=f"toeplitz {name}")
    record(float(np.max(np.abs(quad["unit"] - np.eye(N + 1)))), check="toeplitz identity")
    return record.report()


def suite_bounds(seed: int, n_random: int = 100) -> dict:
    """Explicit geometric-weight operator bound; pass requires zero violations.

    The four transitions of each kernel are computed once and read by every
    (r1, r2) pair."""
    rng = np.random.default_rng(seed)
    record = _Checks("bounds", seed, 1.0 + 1e-12)
    pairs = [(1.0, 3.0), (1.0, 4.0), (0.5, 2.0)]
    ts = [1.0, -1.0, 0.6 + 0.8j, 0.3]
    for _ in range(n_random):
        b = _random_kernel(rng, 1, 6)
        outs = [t0(b, t, out_degree=b.support_degree() + 8) for t in ts]
        for (r1, r2) in pairs:
            cst = t0_bound_constant(r1, r2, 1)
            base = l2_r_norm(b, r1)
            for t, out in zip(ts, outs):
                record(l2_r_norm(out, r2) / (cst * base), r1=r1, r2=r2, t=str(t))
    return record.report()


def suite_appendix_b(seed: int) -> dict:
    """Rank-one smoothing identity across orders, parameters and random points."""
    rng = np.random.default_rng(seed)
    record = _Checks("appendixB", seed, 1e-6)
    M = default_nodes(2)
    for t in (1.0, -1.0, 2.0):
        for a in range(4):
            for b in range(4):
                for _ in range(2):
                    z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    r = rank_one_check((a,), (b,), t, z, w, M=M)
                    record(abs(r["lhs"] - r["rhs"]), alpha=a, beta=b, t=str(t))
    base = rank_one_check((0,), (0,), 1.0, 0.4 + 0.3j, -0.2 + 0.1j, M=M)
    record(max(abs(base["lhs"] - 1.0), abs(base["rhs"] - 1.0)), 1e-10, check="unit smoothing")
    return record.report()


# suite name -> suite; each lambda looks its suite up when called, so a
# replaced module attribute (a tracing wrapper, a test stub) is the one run
SUITES = {
    "identities": lambda seed: suite_identities(seed),
    "quadrature": lambda seed: suite_quadrature(seed),
    "toeplitz": lambda seed: suite_toeplitz(seed),
    "bounds": lambda seed: suite_bounds(seed),
    "appendixB": lambda seed: suite_appendix_b(seed),
}


def run_suite(name: str, seed: int) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {tuple(SUITES)}")
    return SUITES[name](seed)
