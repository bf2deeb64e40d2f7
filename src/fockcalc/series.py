"""Sparse coefficient containers and basis-level operations.

Power series are stored against the normalized monomial basis
``e_alpha(z) = z^alpha / sqrt(alpha!)``; kernels are stored against
``e_alpha(z) e_beta(conj(w))``, i.e. analytic in the first argument and
conjugate-analytic in the second.  Containers are sparse maps and are
treated as immutable after construction.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, Iterable, Tuple

import numpy as np

from .errors import DimensionMismatch
from .multiindex import (
    MultiIndex,
    index_add,
    multi_binomial,
    multi_factorial,
    total_degree,
    validate_index,
)

KernelKey = Tuple[MultiIndex, MultiIndex]

LADDER_MULTIPLY = "multiply"
LADDER_DIFFERENTIATE = "differentiate"


class SeriesCoeffs:
    """Finitely supported map alpha -> complex, representing sum c(alpha) e_alpha."""

    __slots__ = ("d", "entries")

    def __init__(self, d: int, entries: Dict[MultiIndex, complex] | None = None):
        if d < 1:
            raise ValueError("dimension d must be >= 1")
        self.d = d
        clean: Dict[MultiIndex, complex] = {}
        for alpha, v in (entries or {}).items():
            idx = validate_index(alpha)
            if len(idx) != d:
                raise DimensionMismatch(f"index {idx} has dimension {len(idx)}, expected {d}")
            cv = complex(v)
            if not cmath.isfinite(cv):
                raise ValueError(f"non-finite coefficient at {idx}")
            if cv != 0:
                clean[idx] = cv
        self.entries = clean

    def support_degree(self) -> int:
        """Largest total degree in the support (0 for the zero series)."""
        if not self.entries:
            return 0
        return max(total_degree(a) for a in self.entries)

    def copy(self) -> "SeriesCoeffs":
        return SeriesCoeffs(self.d, dict(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"SeriesCoeffs(d={self.d}, {len(self.entries)} entries)"


class KernelCoeffs:
    """Finitely supported map (alpha, beta) -> complex.

    Represents sum c(alpha, beta) e_alpha(z) e_beta(conj(w)) with alpha of
    dimension d2 (output variable) and beta of dimension d1 (input variable).
    Depending on its role the same container holds an operator kernel, a Wick
    symbol or an anti-Wick symbol.
    """

    __slots__ = ("d2", "d1", "entries")

    def __init__(self, d2: int, d1: int, entries: Dict[KernelKey, complex] | None = None):
        if d2 < 1 or d1 < 1:
            raise ValueError("dimensions must be >= 1")
        self.d2 = d2
        self.d1 = d1
        clean: Dict[KernelKey, complex] = {}
        for (alpha, beta), v in (entries or {}).items():
            a = validate_index(alpha)
            b = validate_index(beta)
            if len(a) != d2 or len(b) != d1:
                raise DimensionMismatch(
                    f"key ({a}, {b}) has dimensions ({len(a)}, {len(b)}), expected ({d2}, {d1})"
                )
            cv = complex(v)
            if not cmath.isfinite(cv):
                raise ValueError(f"non-finite coefficient at ({a}, {b})")
            if cv != 0:
                clean[(a, b)] = cv
        self.entries = clean

    @property
    def d(self) -> int:
        """Common dimension for square kernels (d2 == d1)."""
        if self.d2 != self.d1:
            raise DimensionMismatch(f"kernel is not square: d2={self.d2}, d1={self.d1}")
        return self.d2

    def support_degree(self) -> int:
        """max over support of max(|alpha|, |beta|); 0 for the zero kernel."""
        if not self.entries:
            return 0
        return max(max(total_degree(a), total_degree(b)) for a, b in self.entries)

    def copy(self) -> "KernelCoeffs":
        return KernelCoeffs(self.d2, self.d1, dict(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"KernelCoeffs(d2={self.d2}, d1={self.d1}, {len(self.entries)} entries)"


def series_delta(d: int, alpha: Iterable[int], value: complex = 1.0) -> SeriesCoeffs:
    return SeriesCoeffs(d, {tuple(alpha): value})


def kernel_delta(d: int, alpha: Iterable[int], beta: Iterable[int], value: complex = 1.0) -> KernelCoeffs:
    return KernelCoeffs(d, d, {(tuple(alpha), tuple(beta)): value})


# ---------------------------------------------------------------------------
# point evaluation
# ---------------------------------------------------------------------------

def _as_points(z, d: int, dtype=complex) -> tuple[np.ndarray, bool]:
    """Normalize z to shape (n, d); returns (points, was_single_point)."""
    arr = np.asarray(z, dtype=dtype)
    if arr.ndim == 0:
        if d != 1:
            raise DimensionMismatch(f"scalar point given for dimension {d}")
        return arr.reshape(1, 1), True
    if arr.shape[-1] == d:
        single = arr.ndim == 1
        return arr.reshape(-1, d), single
    if d == 1:
        return arr.reshape(-1, 1), False
    raise DimensionMismatch(f"point array of shape {arr.shape} does not match dimension {d}")


def _int_sqrt(n: int) -> float:
    """sqrt(n) from an integer square root with 64 fraction bits.

    n itself may exceed float range where its root does not.
    """
    return math.isqrt(n << 128) / (1 << 64)


def eval_basis(alpha: MultiIndex, z) -> complex | np.ndarray:
    """e_alpha(z) = z^alpha / sqrt(alpha!), vectorized over a trailing point axis."""
    alpha = tuple(alpha)
    pts, single = _as_points(z, len(alpha))
    vals = np.ones(pts.shape[0], dtype=complex)
    for j, a in enumerate(alpha):
        if a:
            vals = vals * pts[:, j] ** a
    vals = vals / _int_sqrt(multi_factorial(alpha))
    return complex(vals[0]) if single else vals


def eval_series(F: SeriesCoeffs, z) -> complex | np.ndarray:
    pts, single = _as_points(z, F.d)
    acc = np.zeros(pts.shape[0], dtype=complex)
    for alpha, v in F.entries.items():
        acc += v * eval_basis(alpha, pts)
    return complex(acc[0]) if single else acc


def eval_kernel(K: KernelCoeffs, z, w) -> complex | np.ndarray:
    """sum c(alpha, beta) e_alpha(z) e_beta(conj(w)); z and w broadcast over points."""
    zp, zs = _as_points(z, K.d2)
    wp, ws = _as_points(w, K.d1)
    if zp.shape[0] != wp.shape[0]:
        if zp.shape[0] == 1:
            zp = np.broadcast_to(zp, (wp.shape[0], K.d2))
        elif wp.shape[0] == 1:
            wp = np.broadcast_to(wp, (zp.shape[0], K.d1))
        else:
            raise DimensionMismatch("z and w point counts differ")
    wc = np.conj(wp)
    acc = np.zeros(zp.shape[0], dtype=complex)
    for (alpha, beta), v in K.entries.items():
        acc += v * eval_basis(alpha, zp) * eval_basis(beta, wc)
    return complex(acc[0]) if zs and ws else acc


# ---------------------------------------------------------------------------
# algebra on coefficients
# ---------------------------------------------------------------------------

def multiply(F1: SeriesCoeffs, F2: SeriesCoeffs) -> SeriesCoeffs:
    """Coefficientwise product: c(alpha) = sum C(alpha, alpha1)^(1/2) c1(alpha1) c2(alpha2).

    Matches pointwise products exactly on finitely supported inputs.
    """
    if F1.d != F2.d:
        raise DimensionMismatch(f"series dimensions differ: {F1.d} vs {F2.d}")
    out: Dict[MultiIndex, complex] = {}
    for a1, v1 in F1.entries.items():
        for a2, v2 in F2.entries.items():
            alpha = index_add(a1, a2)
            w = _int_sqrt(multi_binomial(alpha, a1))
            out[alpha] = out.get(alpha, 0.0) + w * v1 * v2
    return SeriesCoeffs(F1.d, out)


def a2_inner(F: SeriesCoeffs, G: SeriesCoeffs) -> complex:
    """Sesquilinear pairing sum c_F(alpha) conj(c_G(alpha)) (orthonormal e_alpha)."""
    if F.d != G.d:
        raise DimensionMismatch(f"series dimensions differ: {F.d} vs {G.d}")
    return complex(sum(v * G.entries[k].conjugate() for k, v in F.entries.items() if k in G.entries))


def a2_bilinear(F: SeriesCoeffs, G: SeriesCoeffs) -> complex:
    """Bilinear pairing sum c_F(alpha) c_G(alpha)."""
    if F.d != G.d:
        raise DimensionMismatch(f"series dimensions differ: {F.d} vs {G.d}")
    return complex(sum(v * G.entries[k] for k, v in F.entries.items() if k in G.entries))


def ladder(F: SeriesCoeffs, j: int, mode: str) -> SeriesCoeffs:
    """Raising/lowering on coefficients along axis j (1-based).

    mode "multiply":       z_j e_alpha = sqrt(alpha_j + 1) e_{alpha + e_j}
    mode "differentiate":  d_j e_alpha = sqrt(alpha_j)     e_{alpha - e_j}
    """
    if not 1 <= j <= F.d:
        raise ValueError(f"axis j={j} out of range 1..{F.d}")
    jj = j - 1
    out: Dict[MultiIndex, complex] = {}
    if mode == LADDER_MULTIPLY:
        for alpha, v in F.entries.items():
            up = tuple(a + 1 if i == jj else a for i, a in enumerate(alpha))
            out[up] = out.get(up, 0.0) + math.sqrt(alpha[jj] + 1) * v
    elif mode == LADDER_DIFFERENTIATE:
        for alpha, v in F.entries.items():
            if alpha[jj] == 0:
                continue
            down = tuple(a - 1 if i == jj else a for i, a in enumerate(alpha))
            out[down] = out.get(down, 0.0) + math.sqrt(alpha[jj]) * v
    else:
        raise ValueError(f"unknown ladder mode {mode!r}")
    return SeriesCoeffs(F.d, out)


def coefficient_conjugate(F: SeriesCoeffs) -> SeriesCoeffs:
    """Entrywise conjugation; realizes z -> conj(F(conj(z))) since e_alpha is real."""
    return SeriesCoeffs(F.d, {a: np.conj(v) for a, v in F.entries.items()})


def diamond(F1: SeriesCoeffs, F2: SeriesCoeffs) -> SeriesCoeffs:
    """Action of F1 as a constant-coefficient differential operator on F2.

    diamond(F1, F2) = sum_alpha c1(alpha)/sqrt(alpha!) d^alpha F2.  Since
    d^alpha e_beta = sqrt(beta! / (beta-alpha)!) e_(beta-alpha), each pair with
    alpha <= beta adds sqrt(C(beta, alpha)) c1(alpha) c2(beta) at beta - alpha.
    """
    if F1.d != F2.d:
        raise DimensionMismatch(f"series dimensions differ: {F1.d} vs {F2.d}")
    out: Dict[MultiIndex, complex] = {}
    for alpha, v1 in F1.entries.items():
        for beta, v2 in F2.entries.items():
            c = multi_binomial(beta, alpha)  # zero unless alpha <= beta
            if c:
                key = tuple(b - a for a, b in zip(alpha, beta))
                out[key] = out.get(key, 0.0) + _int_sqrt(c) * v1 * v2
    return SeriesCoeffs(F1.d, out)


# ---------------------------------------------------------------------------
# Hermite functions
# ---------------------------------------------------------------------------

def hermite_eval(alpha: MultiIndex, x) -> float | np.ndarray:
    """Hermite function h_alpha(x), L^2-normalized, via the stable recurrence.

    Per axis: h_0(t) = pi^(-1/4) exp(-t^2/2), h_1 = sqrt(2) t h_0 and
    h_{k+1} = sqrt(2/(k+1)) t h_k - sqrt(k/(k+1)) h_{k-1}.
    """
    alpha = tuple(alpha)
    pts, single = _as_points(x, len(alpha), dtype=float)
    vals = np.ones(pts.shape[0], dtype=float)
    for j, k in enumerate(alpha):
        t = pts[:, j]
        h_prev = np.zeros_like(t)
        h = math.pi ** (-0.25) * np.exp(-0.5 * t * t)
        for m in range(k):
            h_next = math.sqrt(2.0 / (m + 1)) * t * h - math.sqrt(m / (m + 1)) * h_prev
            h_prev, h = h, h_next
        vals = vals * h
    return float(vals[0]) if single else vals
