"""Kernel / Wick / anti-Wick symbol transitions and operator-level algebra.

The kernel of the operator with Wick symbol a is the exponential raise of a
(t0 at t = 1); the inverse transition is t0 at t = -1.  Anti-Wick symbols
convert to Wick symbols through the dual operator t0_star at t = 1 (the
coefficient form of Gaussian smoothing of the diagonal symbol) and back at
t = -1.  All transitions are exact on finitely supported input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from . import series
from .binomial import l2_r_norm, t0, t0_star
from .errors import DimensionMismatch, PreconditionError
from .multiindex import MultiIndex, enumerate_degree
from .series import KernelCoeffs, SeriesCoeffs, _blocks, _first_seen, _numbered

# compose_kernels takes one matrix product when it has at most this many terms per
# product of matching entries (half the crossover measured on one BLAS thread),
# and its three complex tiles take at most series.TILE_BYTES
COMPOSE_DENSE_RATIO = 128


@dataclass
class OperatorMatrix:
    """Dense matrix of a square kernel over the canonical degree-N basis."""

    N: int
    d: int
    index: List[MultiIndex]
    matrix: np.ndarray

    def to_jsonable(self) -> dict:
        return {
            "N": self.N,
            "d": self.d,
            "index": [list(a) for a in self.index],
            "re": [[float(x.real) for x in row] for row in self.matrix],
            "im": [[float(x.imag) for x in row] for row in self.matrix],
        }


def wick_to_kernel(a: KernelCoeffs, out_degree: int | None = None) -> KernelCoeffs:
    """Kernel of the operator with Wick symbol a, retained to out_degree.

    Defaults to the symbol's own support degree; pass out_degree = N to fill
    an operator matrix of truncation N (entries are exact either way).
    """
    return t0(a, 1.0, out_degree=a.support_degree() if out_degree is None else out_degree)


def kernel_to_wick(K: KernelCoeffs, out_degree: int | None = None) -> KernelCoeffs:
    """Wick symbol of the operator with kernel K (inverse of wick_to_kernel)."""
    deg = out_degree if out_degree is not None else K.support_degree()
    return t0(K, -1.0, out_degree=deg)


def antiwick_to_wick(a: KernelCoeffs) -> KernelCoeffs:
    """Wick symbol of the anti-Wick operator with symbol a; exact."""
    return t0_star(a, 1.0)


def wick_to_antiwick(a: KernelCoeffs) -> KernelCoeffs:
    """Anti-Wick symbol whose operator has Wick symbol a; exact."""
    return t0_star(a, -1.0)


def apply_operator(K: KernelCoeffs, F: SeriesCoeffs) -> SeriesCoeffs:
    """Coefficient action of the kernel operator: out(alpha) = sum_beta c_K(alpha,beta) c_F(beta).

    Computed as K composed with F taken as a one-column kernel (delta = 0).
    """
    if K.d1 != F.d:
        raise DimensionMismatch(f"kernel input dimension {K.d1} != series dimension {F.d}")
    index, values = F.arrays()
    delta = np.zeros((len(index), 1), dtype=np.int64)
    column = KernelCoeffs._from_arrays(F.d, 1, np.hstack((index, delta)), values)
    index, values = compose_kernels(K, column).arrays()
    return SeriesCoeffs._from_arrays(K.d2, index[:, :K.d2], values)


@np.errstate(over="ignore", invalid="ignore")  # values past float range are caught on output
def compose_kernels(K2: KernelCoeffs, K1: KernelCoeffs) -> KernelCoeffs:
    """Kernel of K2 after K1: c(alpha, delta) = sum_beta c2(alpha, beta) c1(beta, delta).

    K1 is grouped by its row index beta, the index it shares with K2, and the
    route follows the index structure.  Where the index sets are dense, that
    is where the n_alpha n_beta n_delta terms of one matrix product are at
    most COMPOSE_DENSE_RATIO times the products of matching entries, the
    sums are that one product: its tiles take 16 (n_alpha n_beta + n_beta
    n_delta + n_alpha n_delta) bytes, at most ``series.TILE_BYTES`` or the
    blocked route runs.  n_alpha counts the distinct alphas that take part;
    n_beta and n_delta count K1's distinct betas and deltas, which bound
    those that take part at no cost to the blocked route.  The three indices are numbered in key order there, so each sum
    depends on the entries as a map and not on their order; its last bits
    depend on the BLAS build, and for more than one output column on its
    thread count.  Otherwise the products are formed for whole rows alpha of
    K2 at a time in ``_blocks`` (a row has at most len(K1) products), and
    each output entry adds its terms in the order of a loop over K2's
    entries, whatever the block size.  Either way the entries come out by
    alpha, then delta, each in the order first seen.
    """
    if K2.d1 != K1.d2:
        raise DimensionMismatch(f"inner dimensions differ: {K2.d1} vs {K1.d2}")
    idx2, v2 = K2.arrays()
    idx1, v1 = K1.arrays()
    n1 = len(idx1)
    # an index is numbered by the position of its first row; K1's betas come
    # first, so a K2 entry whose beta K1 lacks gets a number of n1 or more
    inner, rank = _numbered(np.concatenate((idx1[:, :K1.d2], idx2[:, K2.d2:])))
    b1, b2 = inner[:n1], inner[n1:]
    matched = b2 < n1
    alphas, b2, v2 = idx2[matched, :K2.d2], b2[matched], v2[matched]
    if not len(b2):
        return KernelCoeffs(K2.d2, K1.d1)
    (a2, ra), (c1, rd) = _numbered(alphas), _numbered(idx1[:, K1.d2:])
    row_len = np.bincount(b1)
    counts = row_len[b2]
    # the distinct alphas, and at most as many betas and deltas as K1 has
    na, nb, nd = int(ra.max()) + 1, int(np.count_nonzero(row_len)), int(rd.max()) + 1
    if (na * nb * nd <= COMPOSE_DENSE_RATIO * int(counts.sum())
            and 16 * (na * nb + nb * nd + na * nd) <= series.TILE_BYTES):
        # the betas and deltas that take part, rows and columns in key order,
        # so that no sum depends on the entry order
        r1, r2 = rank[:n1], rank[n1:][matched]
        hit = np.zeros(len(rank), dtype=bool)
        hit[r2] = True
        used = hit[r1]
        seen = np.zeros(n1, dtype=bool)
        seen[rd[used]] = True
        nb, nd = int(np.count_nonzero(hit)), int(np.count_nonzero(seen))
        beta, delta = np.cumsum(hit) - 1, np.cumsum(seen) - 1
        left = np.zeros((na, nb), dtype=complex)
        left[ra, beta[r2]] = v2
        right = np.zeros((nb, nd), dtype=complex)
        right[beta[r1[used]], delta[rd[used]]] = v1[used]
        # gathered in the order first seen, as on the blocked route
        alpha_at = np.flatnonzero(a2 == np.arange(len(a2)))
        delta_at = np.flatnonzero((c1 == np.arange(n1)) & seen[rd])
        product = (left @ right)[np.ix_(ra[alpha_at], delta[rd[delta_at]])]
        return _gather(product, alphas[alpha_at], idx1[delta_at, K1.d2:])
    # K1 row by row (entry order within a row); K2 likewise
    by_row = np.argsort(b1, kind="stable")
    c1, v1 = c1[by_row], v1[by_row]
    row_start = np.cumsum(row_len) - row_len
    by_row = np.argsort(a2, kind="stable")
    a2, b2, v2, counts = a2[by_row], b2[by_row], v2[by_row], counts[by_row]
    keys, re, im = [], [], []
    for _, _, lo, hi, step in _blocks(counts, np.flatnonzero(np.diff(a2, prepend=-1))):
        cnt = counts[lo:hi]
        s1 = step + np.repeat(row_start[b2[lo:hi]], cnt)
        x2, x1 = np.repeat(v2[lo:hi], cnt), v1[s1]
        # complex multiply part by part
        term_re = x2.real * x1.real - x2.imag * x1.imag
        term_im = x2.real * x1.imag + x2.imag * x1.real
        key = np.repeat(a2[lo:hi], cnt) * n1 + c1[s1]
        # bincount adds each distinct key's products in order
        distinct, group = np.unique(key, return_inverse=True)
        keys.append(distinct)
        re.append(np.bincount(group, weights=term_re))
        im.append(np.bincount(group, weights=term_im))
    key = np.concatenate(keys)
    values = np.empty(len(key), dtype=complex)
    values.real, values.imag = np.concatenate(re), np.concatenate(im)
    index = np.concatenate((alphas[key // n1], idx1[key % n1, K1.d2:]), axis=1)
    return KernelCoeffs._from_arrays(K2.d2, K1.d1, index, values)


def _gather(product: np.ndarray, alphas: np.ndarray, deltas: np.ndarray) -> KernelCoeffs:
    """The nonzero entries of a dense product over rows ``alphas`` and columns ``deltas``, row by row."""
    i, j = np.nonzero(product)
    index = np.concatenate((alphas[i], deltas[j]), axis=1)
    return KernelCoeffs._from_arrays(alphas.shape[1], deltas.shape[1], index, product[i, j])


def twisted_product(a1: KernelCoeffs, a2: KernelCoeffs, out_degree: int | None = None) -> KernelCoeffs:
    """Wick symbol of Op(a1) composed with Op(a2).

    Realized through kernels: raise both symbols, multiply the kernels over
    the shared index, lower back.  The internal kernel degree is padded so
    that every retained output entry is exact; the exact product of
    polynomial symbols is again polynomial, with degree at most the sum of
    the factor degrees.  The lowering reads only entries with |alpha| and
    |delta| <= target, so K1's rows and K2's columns above target are dropped
    before the product.  On compose_kernels' blocked route the kept entries'
    sums, and their order, do not change, so the output is the same bit for
    bit; a matrix product over other index sets may round differently.
    """
    d = a1.d
    if a2.d != d:
        raise DimensionMismatch(f"symbol dimensions differ: {d} vs {a2.d2}")
    deg1, deg2 = a1.support_degree(), a2.support_degree()
    target = deg1 + deg2 if out_degree is None else out_degree
    inner = target + max(deg1, deg2)
    K1 = _up_to(t0(a1, 1.0, out_degree=inner), slice(None, d), target)
    K2 = _up_to(t0(a2, 1.0, out_degree=inner), slice(d, None), target)
    return t0(compose_kernels(K1, K2), -1.0, out_degree=target)


def _up_to(K: KernelCoeffs, part: slice, degree: int) -> KernelCoeffs:
    """The entries of K whose multi-index in the columns ``part`` has degree <= degree."""
    index, values = K.arrays()
    keep = index[:, part].sum(axis=1) <= degree
    return KernelCoeffs._from_arrays(K.d2, K.d1, index[keep], values[keep])


def operator_matrix(K: KernelCoeffs, N: int) -> OperatorMatrix:
    """Dense coefficient matrix M(alpha, beta) = c_K(alpha, beta) over degree <= N."""
    d = K.d
    index = enumerate_degree(d, N)
    keys, values = K.arrays()
    n, size = len(keys), len(index)
    # a row equal to a basis row is numbered by its place in the basis, any other by size or more
    pos = _first_seen(np.concatenate((np.array(index, dtype=np.int64), keys[:, :d], keys[:, d:])))
    i, j = pos[size:size + n], pos[size + n:]
    inside = (i < size) & (j < size)
    m = np.zeros((size, size), dtype=complex)
    m[i[inside], j[inside]] = values[inside]
    return OperatorMatrix(N, d, index, m)


def psd_check(M: OperatorMatrix, tol: float) -> dict:
    """Hermitian / positive-semidefinite verdict with the smallest eigenvalue.

    Hermitianity is decided first (max entrywise deviation <= tol); only then
    is a self-adjoint eigensolver applied, so truncation cannot produce false
    negatives beyond tolerance.
    """
    if not tol >= 0:  # NaN too
        raise ValueError("tol must be non-negative")
    m = M.matrix
    herm_dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    hermitian = herm_dev <= tol
    if not hermitian:
        return {"hermitian": False, "psd": False, "min_eigenvalue": math.nan}
    try:
        eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failure: {exc}") from exc
    min_eig = float(eigs[0]) if eigs.size else 0.0
    return {"hermitian": True, "psd": min_eig >= -tol, "min_eigenvalue": min_eig}


def a2_r_norm(K: KernelCoeffs, r: float) -> float:
    """Gaussian-weighted L^2 norm of the symbol, in exact closed form.

    norm^2 = pi^(d1+d2) sum |c(alpha,beta)|^2 r^(-(|alpha|+|beta|+d1+d2)),
    from the per-axis moment  integral |z^a|^2 e^(-r|z|^2) dlambda = pi a! / r^(a+1);
    that is (pi/r)^((d1+d2)/2) times the geometric-weight norm ``l2_r_norm``.
    """
    # l2_r_norm rejects r <= 0 before the factor is formed
    return l2_r_norm(K, r) * (math.pi / r) ** ((K.d1 + K.d2) / 2)


def t0_bound_constant(r1: float, r2: float, d: int) -> float:
    """Explicit operator bound for the exponential raise between geometric l^2 weights.

    Valid for |t| <= 1 and r2 > 1 + r1: the norm ratio never exceeds
    (1 - (1+r1)/r2)^(-d).
    """
    if not (r1 > 0):
        raise PreconditionError("r1 must be positive")
    if not (r2 > 1.0 + r1):
        raise PreconditionError(f"need r2 > 1 + r1, got r1={r1}, r2={r2}")
    if d < 1:
        raise PreconditionError("d must be >= 1")
    return (1.0 - (1.0 + r1) / r2) ** (-d)


def identity_kernel(d: int, N: int) -> KernelCoeffs:
    """Diagonal ones up to degree N: the truncated reproducing kernel."""
    return KernelCoeffs(d, d, {(a, a): 1.0 for a in enumerate_degree(d, N)})
