"""Sparse coefficient containers and basis-level operations.

Power series are stored against the normalized monomial basis
``e_alpha(z) = z^alpha / sqrt(alpha!)``; kernels are stored against
``e_alpha(z) e_beta(conj(w))``, i.e. analytic in the first argument and
conjugate-analytic in the second.  Containers are immutable sparse maps held
as arrays (index, values).  Public constructors validate every entry, over
all entries at once like the file reader; engines read ``arrays()`` and
return ``_from_arrays``.  ``entries``, a read-only dict view built on first
read, is for users: no function here reads it.  ``multiply``, ``diamond`` and
``ladder`` (a product with e_j) are one blocked sum over pairs of entries,
``_shifted_products``; ``a2_bilinear`` matches keys through ``_first_seen``.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from itertools import chain
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

import numpy as np

from .errors import DimensionMismatch
from .multiindex import MultiIndex, validate_index

KernelKey = Tuple[MultiIndex, MultiIndex]

LADDER_MULTIPLY = "multiply"
LADDER_DIFFERENTIATE = "differentiate"

_INT64_SPAN = 2 ** 63
BLOCK = 1 << 13  # float terms formed at once by a blocked array pass: 64 KB per temporary


def _pack(cols: np.ndarray, radix: int) -> tuple[List[np.ndarray], List[tuple[int, int]]]:
    """Pack the columns of a non-negative int array (each < radix) into int64 words.

    As many columns as fit below 2^63 share a word, the first most significant,
    so the words compare like the column tuples.  Returns the words and, per
    column, (word, multiplier).
    """
    n_cols = cols.shape[1]
    per_word = 1
    while per_word < n_cols and radix ** (per_word + 1) <= _INT64_SPAN:
        per_word += 1
    place = []
    for c in range(n_cols):
        w, pos = divmod(c, per_word)
        width = min(per_word, n_cols - w * per_word)
        place.append((w, radix ** (width - 1 - pos)))
    words = [np.zeros(cols.shape[0], dtype=np.int64) for _ in range(-(-n_cols // per_word))]
    for c, (w, mult) in enumerate(place):
        words[w] += cols[:, c] * mult
    return words, place


def _runs(words: List[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Sort keys given as packed int64 words (the first most significant), stably.

    Returns the order and, per sorted position, whether a run of equal keys
    starts there; the first row of each run comes first in the input.
    """
    order = np.lexsort(words[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for w in words:
        w = w[order]
        new[1:] |= w[1:] != w[:-1]
    return order, new


def _numbered(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of a non-negative int array, the position of the first row equal
    to it and the row's number among the distinct rows in key order."""
    order, new = _runs(_pack(rows, int(rows.max(initial=0)) + 1)[0])
    number = np.cumsum(new) - 1
    first, rank = np.empty(len(rows), dtype=np.intp), np.empty(len(rows), dtype=np.intp)
    first[order], rank[order] = order[new][number], number
    return first, rank


def _blocks(counts: np.ndarray, firsts: np.ndarray, width: int = 0) -> Iterator[tuple]:
    """Cut a pass over entries into blocks of whole groups of consecutive entries.

    ``counts`` holds each entry's term count and ``firsts`` the first entry of
    each group, ascending from 0.  A block holds at most BLOCK terms unless one
    group alone has more; where each group takes ``width`` slots of a table, it
    also holds at most BLOCK // width groups.  Yields, per block, its first and
    end group, its first and end entry and each term's step within its entry.
    """
    bounds = np.append(firsts, len(counts))
    before = np.concatenate(([0], np.cumsum(counts)))  # terms before each entry
    at = before[bounds]  # terms before each group
    cap = max(BLOCK // width, 1) if width else len(firsts)
    i = 0
    while i < len(firsts):
        k = min(max(int(np.searchsorted(at, at[i] + BLOCK, side="right")) - 1, i + 1), i + cap)
        lo, hi = bounds[i], bounds[k]
        yield i, k, lo, hi, np.arange(at[k] - at[i]) - (before[lo:hi] - at[i]).repeat(counts[lo:hi])
        i = k


def _first_seen(rows: np.ndarray) -> np.ndarray:
    """For each row of a non-negative int array, the position of the first row equal to it."""
    return _numbered(rows)[0]


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a non-negative int array, in first-seen order, and each row's number among them."""
    first = _first_seen(rows)
    new = first == np.arange(len(rows))
    return rows[new], (np.cumsum(new) - 1)[first]


class _Coeffs:
    """Storage shared by both containers: arrays (index, values) with one int64
    row of key components per entry, the rows distinct and the values finite
    and nonzero.  ``_DIMS`` names the dimension of each multi-index of a key.
    """

    __slots__ = ("_entries", "_index", "_values", "_rows")

    def _spans(self) -> List[slice]:
        """The columns of ``index`` that hold each multi-index of a key."""
        dims = [getattr(self, name) for name in self._DIMS]
        return [slice(sum(dims[:i]), sum(dims[:i + 1])) for i in range(len(dims))]

    @property
    def entries(self) -> Mapping:
        """The map as a read-only view of Python ints and complex, one tuple per distinct multi-index."""
        if self._entries is None:
            cols = self._index.T.tolist()
            shared: Dict[MultiIndex, MultiIndex] = {}
            parts = [[shared.setdefault(k, k) for k in zip(*cols[s])] for s in self._spans()]
            keys = zip(*parts) if len(parts) > 1 else parts[0]
            self._entries = dict(zip(keys, self._values.tolist()))
        return MappingProxyType(self._entries)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The map as arrays (index, values), in the order of ``entries``; do not write to them."""
        return self._index, self._values

    def _distinct(self) -> List[Tuple[np.ndarray, np.ndarray, List[int]]]:
        """Per multi-index of a key: its distinct rows, each entry's row number and
        the largest component per axis; kept."""
        if self._rows is None:
            self._rows = []
            for s in self._spans():
                rows, inv = _distinct_rows(self._index[:, s])
                self._rows.append((rows, inv, rows.max(axis=0, initial=0).tolist()))
        return self._rows

    @classmethod
    def _from_arrays(cls, *args):
        """Container over arrays built from validated inputs, called as
        ``_from_arrays(*dims, index, values)`` with the dimensions named in
        ``_DIMS``; the rows of ``index`` are distinct.  Exact zeros are dropped,
        and a value past float range raises OverflowError."""
        *dims, index, values = args
        if not np.isfinite(values).all():
            raise OverflowError("coefficient out of float range")
        out = cls.__new__(cls)
        for name, dim in zip(cls._DIMS, dims):
            setattr(out, name, dim)
        out._set_arrays(index, values)
        return out

    def _set_arrays(self, index: np.ndarray, values: np.ndarray) -> None:
        """Hold (index, values), finite and with distinct rows, exact zeros dropped."""
        keep = values != 0
        if not keep.all():
            index, values = index[keep], values[keep]
        self._entries, self._index, self._values, self._rows = None, index, values, None

    def _hold(self, entries) -> None:
        """Hold a public constructor's ``entries`` as arrays, checked over all
        entries at once: each key is a tuple (of tuples, one per multi-index) of
        ints other than bools, of the right lengths, within int64 and
        non-negative; each value converts to a finite complex as ``complex()``
        converts it.  Where a check fails, ``_reject`` raises the first
        offending entry's error.
        """
        dims = [getattr(self, name) for name in self._DIMS]
        try:
            n, width, indices, values = len(entries), sum(dims), entries.keys(), entries.values()
            if len(dims) > 1:
                pairs = _all_types(indices, tuple) and set(map(len, indices)) <= {len(dims)}
                indices = list(chain.from_iterable(indices)) if pairs else [None]  # None fails below
            if (_all_types(indices, tuple) and list(map(len, indices)) == dims * n
                    and _all_types(chain.from_iterable(indices), int, bool)
                    and _all_types(values, object, _NOT_COMPLEX)):
                index = np.fromiter(chain.from_iterable(indices), np.int64, count=n * width)
                array = np.fromiter(values, complex, count=n)
                if index.min(initial=0) >= 0 and np.isfinite(array).all():
                    self._set_arrays(index.reshape(n, width), array)
                    return
        except (AttributeError, TypeError, ValueError, OverflowError):
            pass
        self._reject(entries)
        raise TypeError("entries must map tuples of ints to numbers")

    def support_degree(self) -> int:
        """Largest total degree of a multi-index in the support (0 when empty)."""
        return max(int(self._index[:, s].sum(axis=1).max()) for s in self._spans()) if len(self) else 0

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        dims = ", ".join(f"{name}={getattr(self, name)}" for name in self._DIMS)
        return f"{type(self).__name__}({dims}, {len(self)} entries)"


# numpy converts these to complex where complex() refuses them
_NOT_COMPLEX = (bytes, np.datetime64, np.timedelta64)


def _all_types(items, kind, but=()) -> bool:
    """Whether every item is a ``kind`` and none a ``but``, tested once per distinct type."""
    return all(issubclass(t, kind) and not issubclass(t, but) for t in set(map(type, items)))


class SeriesCoeffs(_Coeffs):
    """Finitely supported map alpha -> complex, representing sum c(alpha) e_alpha."""

    __slots__ = ("d",)
    _DIMS = ("d",)

    def __init__(self, d: int, entries: Dict[MultiIndex, complex] | None = None):
        if d < 1:
            raise ValueError("dimension d must be >= 1")
        self.d = d
        self._hold(entries or {})

    def _reject(self, entries) -> None:
        """Raise the error of the first entry that is not a valid series entry."""
        for alpha, v in entries.items():
            idx = validate_index(alpha)
            if not isinstance(alpha, tuple):
                raise ValueError(f"keys must be tuples, got {alpha!r}")
            if len(idx) != self.d:
                raise DimensionMismatch(f"index {idx} has dimension {len(idx)}, expected {self.d}")
            if not cmath.isfinite(complex(v)):
                raise ValueError(f"non-finite coefficient at {idx}")


class KernelCoeffs(_Coeffs):
    """Finitely supported map (alpha, beta) -> complex.

    Represents sum c(alpha, beta) e_alpha(z) e_beta(conj(w)) with alpha of
    dimension d2 (output variable) and beta of dimension d1 (input variable).
    Depending on its role the same container holds an operator kernel, a Wick
    symbol or an anti-Wick symbol.
    """

    __slots__ = ("d2", "d1")
    _DIMS = ("d2", "d1")

    def __init__(self, d2: int, d1: int, entries: Dict[KernelKey, complex] | None = None):
        if d2 < 1 or d1 < 1:
            raise ValueError("dimensions must be >= 1")
        self.d2 = d2
        self.d1 = d1
        self._hold(entries or {})

    def _reject(self, entries) -> None:
        """Raise the error of the first entry that is not a valid kernel entry."""
        for key, v in entries.items():
            alpha, beta = key
            a, b = validate_index(alpha), validate_index(beta)
            if not all(isinstance(k, tuple) for k in (key, alpha, beta)):
                raise ValueError(f"keys must be tuples of tuples, got {key!r}")
            if len(a) != self.d2 or len(b) != self.d1:
                raise DimensionMismatch(
                    f"key ({a}, {b}) has dimensions ({len(a)}, {len(b)}), expected ({self.d2}, {self.d1})"
                )
            if not cmath.isfinite(complex(v)):
                raise ValueError(f"non-finite coefficient at ({a}, {b})")

    @property
    def d(self) -> int:
        """Common dimension for square kernels (d2 == d1)."""
        if self.d2 != self.d1:
            raise DimensionMismatch(f"kernel is not square: d2={self.d2}, d1={self.d1}")
        return self.d2


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
    """e_alpha(z) = z^alpha / sqrt(alpha!), vectorized over a trailing point axis; one row of _basis_rows."""
    alpha = validate_index(alpha)
    pts, single = _as_points(z, len(alpha))
    vals = _basis_rows(np.array([alpha], dtype=np.int64), list(alpha), pts)[0]
    return complex(vals[0]) if single else vals


def _basis_rows(rows: np.ndarray, tops: List[int], pts: np.ndarray) -> np.ndarray:
    """e_alpha at every point for each row alpha of ``rows``, shape (len(rows), n);
    ``tops`` holds the largest entry of each column of ``rows``.

    Per axis the table u^k / sqrt(k!) is built by repeated multiplication, so
    no factorial leaves float range; each row multiplies one table row per axis.
    """
    out = None
    for j, top in enumerate(tops):
        if top == 0:
            continue
        u = pts[:, j]
        table = np.empty((top + 1, len(pts)), dtype=complex)
        parts = table.view(float)  # divide the real and imaginary parts by the real sqrt(k)
        table[0] = 1.0
        for k in range(1, top + 1):
            np.multiply(table[k - 1], u, out=table[k])
            parts[k] /= math.sqrt(k)
        if out is None:
            out = table[rows[:, j]]
        else:
            out *= table[rows[:, j]]
    return np.ones((len(rows), len(pts)), dtype=complex) if out is None else out


def eval_series(F: SeriesCoeffs, z) -> complex | np.ndarray:
    """sum c(alpha) e_alpha(z), from per-axis power tables and one contraction."""
    pts, single = _as_points(z, F.d)
    index, values = F.arrays()
    acc = values @ _basis_rows(index, index.max(axis=0, initial=0).tolist(), pts)
    return complex(acc[0]) if single else acc


def eval_kernel(K: KernelCoeffs, z, w) -> complex | np.ndarray:
    """sum c(alpha, beta) e_alpha(z) e_beta(conj(w)); z and w broadcast over points.

    The basis values come from per-axis power tables over the distinct alphas
    and betas.  The entries are summed in blocks that hold at most BLOCK // 2
    complex entry-point values (one entry at least): 64 KB temporaries, which
    the allocator reuses instead of mapping fresh pages for each.  The block
    sets the order of the sums, so it is part of the result.
    """
    zp, zs = _as_points(z, K.d2)
    wp, ws = _as_points(w, K.d1)
    if len(zp) != len(wp) and 1 not in (len(zp), len(wp)):
        raise DimensionMismatch("z and w point counts differ")
    _, values = K.arrays()
    (arows, ai, atops), (brows, bi, btops) = K._distinct()
    ez, ew = _basis_rows(arows, atops, zp), _basis_rows(brows, btops, np.conj(wp))
    n = max(len(zp), len(wp))
    step = max(1, BLOCK // 2 // n)
    acc = np.zeros(n, dtype=complex)
    for s in range(0, len(values), step):
        e = slice(s, s + step)
        acc += values[e] @ (ez[ai[e]] * ew[bi[e]])
    return complex(acc[0]) if zs and ws else acc


# ---------------------------------------------------------------------------
# algebra on coefficients
# ---------------------------------------------------------------------------

def multiply(F1: SeriesCoeffs, F2: SeriesCoeffs) -> SeriesCoeffs:
    """Coefficientwise product: c(alpha) = sum C(alpha, alpha1)^(1/2) c1(alpha1) c2(alpha2).

    Matches pointwise products exactly on finitely supported inputs.
    """
    return _shifted_products(F1, F2, 1)


def a2_inner(F: SeriesCoeffs, G: SeriesCoeffs) -> complex:
    """Sesquilinear pairing sum c_F(alpha) conj(c_G(alpha)) (orthonormal e_alpha)."""
    return a2_bilinear(F, coefficient_conjugate(G))


def a2_bilinear(F: SeriesCoeffs, G: SeriesCoeffs) -> complex:
    """Bilinear pairing sum c_F(alpha) c_G(alpha), summed from +0.0 in the order of F's entries."""
    if F.d != G.d:
        raise DimensionMismatch(f"series dimensions differ: {F.d} vs {G.d}")
    (fi, fv), (gi, gv) = F.arrays(), G.arrays()
    at = _first_seen(np.concatenate((gi, fi)))[len(gi):]  # each F row's row in G, or a position past G
    x, y = fv[at < len(gi)], gv[at[at < len(gi)]]
    terms = np.zeros(len(x) + 1, dtype=complex)  # products part by part, as numpy's complex multiply may fuse
    terms.real[1:], terms.imag[1:] = x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real
    return complex(np.cumsum(terms)[-1])


def ladder(F: SeriesCoeffs, j: int, mode: str) -> SeriesCoeffs:
    """Raising/lowering on coefficients along axis j (1-based).

    mode "multiply":       z_j e_alpha = sqrt(alpha_j + 1) e_{alpha + e_j}
    mode "differentiate":  d_j e_alpha = sqrt(alpha_j)     e_{alpha - e_j}

    That is ``multiply`` or ``diamond`` with the unit monomial e_j as the first factor.
    """
    if not 1 <= j <= F.d:
        raise ValueError(f"axis j={j} out of range 1..{F.d}")
    if mode not in (LADDER_MULTIPLY, LADDER_DIFFERENTIATE):
        raise ValueError(f"unknown ladder mode {mode!r}")
    e_j = series_delta(F.d, (int(i == j - 1) for i in range(F.d)))
    return (multiply if mode == LADDER_MULTIPLY else diamond)(e_j, F)


def coefficient_conjugate(F: SeriesCoeffs) -> SeriesCoeffs:
    """Entrywise conjugation; realizes z -> conj(F(conj(z))) since e_alpha is real."""
    index, values = F.arrays()
    return SeriesCoeffs._from_arrays(F.d, index, np.conj(values))


def diamond(F1: SeriesCoeffs, F2: SeriesCoeffs) -> SeriesCoeffs:
    """Action of F1 as a constant-coefficient differential operator on F2.

    diamond(F1, F2) = sum_alpha c1(alpha)/sqrt(alpha!) d^alpha F2.  Since
    d^alpha e_beta = sqrt(beta! / (beta-alpha)!) e_(beta-alpha), each pair with
    alpha <= beta adds sqrt(C(beta, alpha)) c1(alpha) c2(beta) at beta - alpha.
    """
    return _shifted_products(F1, F2, -1)


def _root_binomial(n: int, k: int) -> float:
    """sqrt(C(n, k)) from the exact integer; OverflowError, without forming it, where
    the lower bound C(n, k) >= (n - m + 1)^m / m!, m = min(k, n - k), passes e^1420."""
    m = min(k, n - k)
    if m * math.log(n - m + 1) - math.lgamma(m + 1) <= 1420:  # else the root passes DBL_MAX ~ e^709.78
        with contextlib.suppress(OverflowError):
            return _int_sqrt(math.comb(n, k))
    raise OverflowError("binomial weight out of float range")


@np.errstate(over="ignore", invalid="ignore")  # a value past float range raises OverflowError in _from_arrays
def _shifted_products(F1: SeriesCoeffs, F2: SeriesCoeffs, sign: int) -> SeriesCoeffs:
    """sum over pairs (alpha of F1, beta of F2) of sqrt(C(hi, alpha)) c1(alpha) c2(beta) at
    the key beta + sign * alpha, hi the larger of beta and the key; negative keys are dropped.

    The pairs of whole entries of F1, n2 = len(F2) each, are formed in ``_blocks``; each axis
    factor sqrt(C(hi_j, alpha_j)) is computed once per distinct (hi_j, alpha_j) of a block.  A
    block's sums start from the earlier blocks' sums, so each key adds its terms in the order of
    a loop over F1, then F2, whatever the block size, and keys come out in the order first
    reached."""
    if F1.d != F2.d:
        raise DimensionMismatch(f"series dimensions differ: {F1.d} vs {F2.d}")
    (idx1, v1), (idx2, v2) = F1.arrays(), F2.arrays()
    n2 = len(idx2)
    keys, re, im = idx1[:0], np.empty(0), np.empty(0)
    for _, _, lo, hi, i2 in _blocks(np.full(len(idx1), n2), np.arange(len(idx1))):
        i1 = np.arange(lo, hi).repeat(n2)
        key = idx2[i2] + sign * idx1[i1]
        if sign > 0 and (key < 0).any():  # int64 wrapped past 2**63 - 1
            raise ValueError("multi-index entries must be non-negative integers below 2**63")
        keep = (key >= 0).all(axis=1)
        i1, i2, key = i1[keep], i2[keep], key[keep]
        low, hi = idx1[i1], np.maximum(key, idx2[i2])
        w = np.ones(len(key))
        for j in range(F1.d):
            pairs, inv = _distinct_rows(np.stack((hi[:, j], low[:, j]), axis=1))
            w *= np.array([_root_binomial(n, k) for n, k in pairs.tolist()])[inv]
        x1, x2 = w * v1[i1], v2[i2]  # (x1 c2) part by part below, as numpy's complex multiply may fuse
        keys, slot = _distinct_rows(np.concatenate((keys, key)))  # earlier keys keep their slots
        re = np.bincount(slot, weights=np.concatenate((re, x1.real * x2.real - x1.imag * x2.imag)))
        im = np.bincount(slot, weights=np.concatenate((im, x1.real * x2.imag + x1.imag * x2.real)))
    return SeriesCoeffs._from_arrays(F1.d, keys, re + 1j * im)


# ---------------------------------------------------------------------------
# Hermite functions
# ---------------------------------------------------------------------------

def hermite_eval(alpha: MultiIndex, x) -> float | np.ndarray:
    """Hermite function h_alpha(x), L^2-normalized, via the stable recurrence.

    Per axis: h_0(t) = pi^(-1/4) exp(-t^2/2), h_1 = sqrt(2) t h_0 and
    h_{k+1} = sqrt(2/(k+1)) t h_k - sqrt(k/(k+1)) h_{k-1}.
    """
    alpha = validate_index(alpha)
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
