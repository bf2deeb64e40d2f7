"""Independent references for the benchmark's correctness checks.

Nothing here imports fockcalc.  The references follow the documented
coefficient convention only: a kernel entry (alpha, beta) is the
coefficient of e_alpha(z) e_beta(conj w), with e_alpha(z) = z^alpha /
sqrt(alpha!).  Rescaled to monomial coefficients, the exponential raise
t0 becomes a plain convolution with t^g / g! along each axis pair, and its
dual t0_star becomes the heat operator exp(t sum_j d/dz_j d/dconj(w_j)).
"""

from __future__ import annotations

import cmath
import itertools
import json
import math

import numpy as np


def canonical_indices(d: int, n: int) -> list[tuple[int, ...]]:
    """All alpha in N^d with |alpha| <= n, sorted by (total degree, lexicographic)."""
    idx = (a for a in itertools.product(range(n + 1), repeat=d) if sum(a) <= n)
    return sorted(idx, key=lambda a: (sum(a), a))


def _sqrt_factorial_box(d: int, n: int) -> np.ndarray:
    """sqrt(alpha! beta!) on the box {0..n}^(2d)."""
    s = np.sqrt(np.array([float(math.factorial(k)) for k in range(n + 1)]))
    out = np.ones((n + 1,) * (2 * d))
    for axis in range(2 * d):
        shape = [1] * (2 * d)
        shape[axis] = n + 1
        out = out * s.reshape(shape)
    return out


def simplex_mask(d: int, n: int) -> np.ndarray:
    """True where |alpha| <= n and |beta| <= n."""
    grids = np.indices((n + 1,) * (2 * d))
    return (grids[:d].sum(axis=0) <= n) & (grids[d:].sum(axis=0) <= n)


def to_box(entries: dict, d: int, n: int) -> np.ndarray | None:
    """Dense box array of a kernel map; None when an index leaves the box."""
    box = np.zeros((n + 1,) * (2 * d), dtype=complex)
    for (a, b), v in entries.items():
        key = tuple(a) + tuple(b)
        if len(key) != 2 * d or max(key) > n:
            return None
        box[key] = v
    return box


def _diagonal_convolution(x: np.ndarray, d: int, n: int, t: complex, up: bool) -> np.ndarray:
    """Sum over g of t^g / g! times x shifted by g along every axis pair (j, d + j)."""
    for j in range(d):
        y = np.zeros_like(x)
        for g in range(n + 1):
            lo = [slice(None)] * (2 * d)
            hi = [slice(None)] * (2 * d)
            lo[j] = lo[d + j] = slice(0, n + 1 - g)
            hi[j] = hi[d + j] = slice(g, n + 1)
            src, dst = (lo, hi) if up else (hi, lo)
            y[tuple(dst)] += (t ** g / math.factorial(g)) * x[tuple(src)]
        x = y
    return x


def raise_box(entries: dict, d: int, n: int, t: complex) -> np.ndarray:
    """t0(c, t, out_degree=n): multiply by exp(t (z, w)) in monomial coefficients."""
    f = _sqrt_factorial_box(d, n)
    x = _diagonal_convolution(to_box(entries, d, n) / f, d, n, t, up=True)
    return np.where(simplex_mask(d, n), x * f, 0)


def smooth_box(entries: dict, d: int, n: int, t: complex) -> np.ndarray:
    """t0_star(c, t): the heat operator applied to the monomial expansion."""
    f = _sqrt_factorial_box(d, n)
    return _diagonal_convolution(to_box(entries, d, n) * f, d, n, t, up=False) / f


def matrix(entries: dict, index: list) -> np.ndarray:
    """Dense matrix of a kernel map over a list of multi-indices."""
    pos = {a: i for i, a in enumerate(index)}
    m = np.zeros((len(index), len(index)), dtype=complex)
    for (a, b), v in entries.items():
        m[pos[a], pos[b]] = v
    return m


def rel_error(got, want) -> float:
    """Largest absolute deviation relative to the largest reference magnitude."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    dev = float(np.max(np.abs(got - want))) if want.size else 0.0
    return dev / scale if scale else dev


def map_error(got: dict, want: dict) -> float:
    """rel_error over the union of two sparse maps (a missing key counts as zero)."""
    keys = sorted(set(got) | set(want))
    return rel_error([got.get(k, 0) for k in keys], [want.get(k, 0) for k in keys])


def _monomial_arrays(entries: dict):
    keys = list(entries)
    a = np.array([k[0] for k in keys], dtype=int)
    b = np.array([k[1] for k in keys], dtype=int)
    norm = np.array([math.sqrt(math.prod(math.factorial(x) for x in k[0] + k[1])) for k in keys])
    m = np.array([entries[k] for k in keys], dtype=complex) / norm
    return a, b, m


def symbol_terms(entries: dict, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The terms c(alpha, beta) e_alpha(z) e_beta(conj w) of a kernel map at one point pair."""
    a, b, m = _monomial_arrays(entries)
    return m * np.prod(z ** a, axis=1) * np.prod(np.conj(w) ** b, axis=1)


def series_terms(entries: dict, z: np.ndarray) -> np.ndarray:
    """The terms c(alpha) e_alpha(z) of a series map at one point."""
    keys = list(entries)
    norm = np.array([math.sqrt(math.prod(math.factorial(x) for x in a)) for a in keys])
    c = np.array([entries[a] for a in keys], dtype=complex)
    return c / norm * np.prod(z ** np.array(keys, dtype=int), axis=1)


def scaled_error(got: complex, terms: np.ndarray) -> float:
    """|got - sum(terms)| over sum(|terms|): relative error that a cancelling sum cannot inflate."""
    return abs(got - terms.sum()) / float(np.sum(np.abs(terms)))


def _falling(x: np.ndarray, g: tuple) -> np.ndarray:
    """prod_j x_j! / (x_j - g_j)!, zero where some x_j < g_j."""
    out = np.ones(x.shape[0])
    for j, gj in enumerate(g):
        for k in range(gj):
            out = out * np.clip(x[:, j] - k, 0, None)
    return out


def wick_product_at(e1: dict, e2: dict, d: int, z: np.ndarray, w: np.ndarray) -> complex:
    """Wick symbol of Op(a1) Op(a2) at (z, conj w).

    Normal-ordering gives (a1 # a2)(z, zeta) = sum_g (1/g!) d^g_zeta a1 * d^g_z a2,
    evaluated here from monomial coefficients with exact falling factorials.
    """
    a1, b1, m1 = _monomial_arrays(e1)
    a2, b2, m2 = _monomial_arrays(e2)
    zeta = np.conj(w)
    za1 = np.prod(z ** a1, axis=1)
    zb2 = np.prod(zeta ** b2, axis=1)
    top = int(max(b1.sum(axis=1).max(), a2.sum(axis=1).max()))
    total = 0j
    for g in canonical_indices(d, top):
        ga = np.array(g)
        f1 = _falling(b1, g)
        f2 = _falling(a2, g)
        if not f1.any() or not f2.any():
            continue
        left = np.sum(m1 * f1 * za1 * np.prod(zeta ** np.clip(b1 - ga, 0, None), axis=1))
        right = np.sum(m2 * f2 * np.prod(z ** np.clip(a2 - ga, 0, None), axis=1) * zb2)
        total += left * right / math.prod(math.factorial(x) for x in g)
    return complex(total)


def _basis(alpha: tuple, z: np.ndarray) -> complex:
    return complex(np.prod(z ** np.array(alpha)) / math.sqrt(math.prod(math.factorial(x) for x in alpha)))


def rank_one_terms(alpha: tuple, beta: tuple, t: complex, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Terms of the closed form of the rank-one smoothing identity (principal square root of t)."""
    s = cmath.sqrt(t)
    terms = []
    for g in itertools.product(*(range(min(x, y) + 1) for x, y in zip(alpha, beta))):
        weight = math.sqrt(math.prod(math.comb(x, k) * math.comb(y, k) for x, y, k in zip(alpha, beta, g)))
        am = tuple(x - k for x, k in zip(alpha, g))
        bm = tuple(y - k for y, k in zip(beta, g))
        terms.append(weight * t ** sum(g) * _basis(am, s * z) * _basis(bm, s * np.conj(w)))
    return np.array(terms)


def write_coeffs(path: str, d: int, entries: dict, kind: str) -> None:
    """Write a coefficient file in the documented schema (canonical order, indent 2)."""
    if kind == "kernel":
        keys = sorted(entries, key=lambda k: (sum(k[0]), k[0], sum(k[1]), k[1]))
        doc = {"kind": "kernel", "d2": d, "d1": d,
               "max_degree": max(max(sum(a), sum(b)) for a, b in keys),
               "entries": [{"alpha": list(a), "beta": list(b),
                            "re": entries[a, b].real, "im": entries[a, b].imag} for a, b in keys]}
    else:
        keys = sorted(entries, key=lambda a: (sum(a), a))
        doc = {"kind": "series", "d": d, "max_degree": max(sum(a) for a in keys),
               "entries": [{"alpha": list(a), "re": entries[a].real, "im": entries[a].imag}
                           for a in keys]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_coeffs(path: str) -> tuple[dict, dict]:
    """Header fields and the entry map of a coefficient file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["kind"] == "kernel":
        entries = {(tuple(e["alpha"]), tuple(e["beta"])): complex(e["re"], e["im"]) for e in doc["entries"]}
    else:
        entries = {tuple(e["alpha"]): complex(e["re"], e["im"]) for e in doc["entries"]}
    header = {k: v for k, v in doc.items() if k != "entries"}
    return header, entries
