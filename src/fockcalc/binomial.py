"""Binomial transition operators on square coefficient tensors.

``t0`` realizes, at coefficient level, multiplication of the associated
kernel by the exponential factor exp(t (z, w)); ``t0_star`` is its formal
l^2 dual and performs the Gaussian (Berezin-type) smoothing of symbols.
Both are exact on finitely supported input: every retained output entry
is a finite sum evaluated in full.

``t0(t) = exp(t R)`` with R the nilpotent diagonal raise, and the factors
``exp(t R_j)`` of the individual axes commute, so both operators are one
numpy pass per axis.  A pass repeats each entry once per step g of its
range, weights the copy by sqrt(C(hi_a, g) C(hi_b, g)) t^g with the
binomials read from a cached float table of exact integers, moves it by g
on that axis and sums the copies that land on one key.  Real and imaginary
parts are multiplied and summed separately, each key's copies in the order
of a loop over entries and steps: a one-dimensional transition adds its
terms in the order that loop would.

Two routes form these same terms.  The blocked route works on arrays of
entries, keys packed into int64 words (more than one word when the index
range needs it).  The dense route, for supports that fill the degree-N box,
holds the kernel as an n x n pair of real and imaginary arrays over
``enumerate_degree(d, N)`` and runs each step as one gather over a cached
plan.  It adds each key's terms in the blocked route's order on inputs in
canonical order, where the two routes agree bit for bit, and returns the
entries in the blocked route's key order, which does not depend on the
entry order (nor on the BLAS thread count: the route uses no BLAS).
A value past float range raises OverflowError in ``KernelCoeffs._from_arrays``.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from typing import List

import numpy as np

from . import series
from .errors import PreconditionError
from .multiindex import enumerate_degree
from .series import KernelCoeffs, _blocks, _pack, _runs

DEFAULT_EXTENSION = 8
# t0 refuses an input that may form more terms (entry, step) than this; the dense
# (2,16) box raised to out-degree 24 forms at most 1,925,097
MAX_RAISE_TERMS = 1 << 22

_I_POWERS = np.array((1.0, 1j, -1.0, -1j))


def _powers(t: complex, n: int) -> List[complex]:
    """t^0..t^n by repeated multiplication (exact at 0 and on the axes).

    Stops early at the first power that is exactly zero: every later term
    would add nothing.
    """
    out = [complex(1.0)]
    while len(out) <= n and out[-1] * t != 0:
        out.append(out[-1] * t)
    return out


@functools.lru_cache(maxsize=8)
def _binomials(rows: int, cols: int) -> np.ndarray:
    """Read-only table of C(k+g, g) for k < rows, g < cols, as floats.

    Each entry is the correctly rounded float of the exact integer, or inf
    past float range (C(k+g, g) grows with g, so the rest of a row stays inf).
    """
    table = np.full((rows, cols), math.inf)
    for k in range(rows):
        row, c = [], 1
        for g in range(cols):
            if g:
                c = c * (k + g) // g
            try:
                row.append(float(c))
            except OverflowError:
                break
        table[k, :len(row)] = row
    table.setflags(write=False)
    return table


def _check_budget(deg: np.ndarray, out_degree: int, d: int) -> None:
    """PreconditionError where raising entries of degree max(|a|, |b|) = ``deg`` to
    ``out_degree`` may form more than MAX_RAISE_TERMS terms: an entry of degree m has
    C(out_degree - m + d, d) steps g.  The count is exact in Python ints, per distinct
    degree, where the crude bound len(deg) C(out_degree - min(deg) + d, d) passes."""
    room = out_degree - int(deg.min())
    if room < 0 or len(deg) * math.comb(room + d, d) <= MAX_RAISE_TERMS:
        return
    degrees, counts = np.unique(deg, return_counts=True)
    terms = sum(k * math.comb(out_degree - m + d, d)
                for m, k in zip(degrees.tolist(), counts.tolist()) if m <= out_degree)
    if terms > MAX_RAISE_TERMS:
        raise PreconditionError(
            f"t0 to out-degree {out_degree} may form {terms} terms, more than the budget of {MAX_RAISE_TERMS}")


def _round_up(n: int) -> int:
    """Table sizes in steps of 16, so that nearby sizes share one cached table."""
    return -(-n // 16) * 16


def _cell_steps(d: int, N: int, top: int) -> int:
    """Cell steps of one axis of the dense route over the degree-N basis, steps g <= top:
    sum_g C(N-g+d, d)^2, the pairs (a, b) with |a|, |b| <= N - g."""
    return sum(math.comb(N - g + d, d) ** 2 for g in range(top + 1))


def _fits_dense(d: int, N: int) -> bool:
    """Whether the dense route may run over the degree-N basis: at d >= 2 (at d = 1 it
    was no faster inside the benchmark, and its plans cost RSS), its four n x n float
    arrays and its plan each taking at most ``series.TILE_BYTES``."""
    n = math.comb(N + d, d)
    return d > 1 and 32 * n * n <= series.TILE_BYTES and _plan_bytes(d, N) <= series.TILE_BYTES


def _plan_bytes(d: int, N: int) -> int:
    """Bytes of a dense-route plan over the degree-N basis (``_Plan``): a weight per cell
    step g >= 1 of each axis, a source row per target row, each cell's output place, the
    rows' keys and a table of (N+1)^d places; never less than the plan's ``nbytes``."""
    n = math.comb(N + d, d)
    return 8 * (d * (_cell_steps(d, N, N) - n * n + N * n) + n * n + n * d + (N + 1) ** d)


class _Plan:
    """The dense route of ``_sweep`` over the n multi-indices of degree <= N, one
    direction.  A kernel is an n x n pair of real and imaginary arrays.  Per axis j
    the rows are ordered so that the targets of each step g are the first
    m_g = C(N-g+d, d) rows: graded (``enumerate_degree``) order when lowering, whose
    first m_g rows have |a| <= N - g, and a_j descending when raising.  Step g of
    axis j then adds its weighted copies to the leading m_g x m_g block of the
    output, gathered from the previous order's rows ``src`` (the targets moved by
    -g or +g on axis j) with the weights sqrt(C(k+g, g) C(l+g, g)) of ``_binomials``,
    (k, l) the lower end of the step.  ``order`` lists the cells of the last order
    in the blocked route's output order, and ``keys`` the rows of the last order.
    """

    def __init__(self, d: int, N: int, raising: bool):
        basis = np.array(enumerate_degree(d, N), dtype=np.int64)
        n = len(basis)
        self.mult = (N + 1) ** np.arange(d - 1, -1, -1)
        code = basis @ self.mult
        self.where = np.zeros((N + 1) ** d, dtype=np.intp)  # a key's row in graded order
        self.where[code] = np.arange(n)
        table = _binomials(_round_up(N + 1), _round_up(N + 1))
        rows = np.arange(n)  # the basis row at each place of the current order
        self.steps = []
        for j in range(d):
            new = np.argsort(-basis[:, j], kind="stable") if raising else rows
            place = np.empty(n, dtype=np.intp)
            place[rows] = np.arange(n)
            per = [(n, None if new is rows else place[new], 1.0)]  # g = 0: weight 1
            for g in range(1, N + 1):
                tgt = new[:math.comb(N - g + d, d)]
                src = place[self.where[code[tgt] + (-g if raising else g) * self.mult[j]]]
                u = table[basis[tgt, j] - g if raising else basis[tgt, j], g]
                w = u[:, None] * u
                per.append((len(tgt), src, np.sqrt(w, out=w)))
            self.steps.append(per)
            rows = new
        self.keys = basis[rows]  # the rows of the last order
        a, b = self.keys.repeat(n, axis=0), np.tile(self.keys, (n, 1))
        low = np.minimum(a[:, -1], b[:, -1])
        # the blocked route's last pass returns its entries by line, then by low
        self.order = np.lexsort([low, b[:, -1] - low, *b[:, -2::-1].T, a[:, -1] - low, *a[:, -2::-1].T])
        self.n = n
        self.nbytes = sum(x.nbytes for x in (self.where, self.order, self.keys))
        self.nbytes += sum(w.nbytes + src.nbytes for per in self.steps for _, src, w in per[1:])


_plans: OrderedDict = OrderedDict()  # (d, N, raising) -> _Plan, least recently used first


def _plan(d: int, N: int, raising: bool) -> _Plan:
    """The cached plan; the cache holds at most ``series.TILE_BYTES`` of plans."""
    key = (d, N, raising)
    plan = _plans.pop(key, None) or _Plan(d, N, raising)
    _plans[key] = plan
    while sum(p.nbytes for p in _plans.values()) > series.TILE_BYTES:
        _plans.popitem(last=False)
    return plan


@np.errstate(over="ignore", invalid="ignore")  # values past float range are caught on output
def _sweep(c: KernelCoeffs, t: complex, out_degree: int | None) -> KernelCoeffs:
    """Apply exp(t R_j), or its adjoint when out_degree is None, on each axis j in turn.

    Raising sends (a_j, b_j) -> (a_j+g, b_j+g) for g <= out_degree - max(|a|, |b|);
    lowering sends it to (a_j-g, b_j-g) for g <= min(a_j, b_j).  The weight is
    sqrt(C(hi_a, g) C(hi_b, g)) t^g, hi being the larger of the two indices
    on that axis; the product of the two binomials passes through one square
    root.  Degrees only rise when raising, so dropping intermediate entries
    above out_degree loses nothing that a retained entry needs.  Raising first
    checks that the input forms at most MAX_RAISE_TERMS terms.

    Two routes form these terms.  The dense one (``_dense``) runs over every
    cell of the degree-N basis, N the out-degree when raising and the support
    degree when lowering; it is taken where ``_fits_dense`` allows it and one
    axis's cell steps, ``_cell_steps``, are no more than the blocked route's
    copies on its first axis, as on a full box.
    The blocked route (``_blocked``) serves every other input.
    """
    d = c.d
    if not len(c):
        return KernelCoeffs(d, d)
    raising = out_degree is not None
    keys, values = c.arrays()
    deg = np.maximum(keys[:, :d].sum(axis=1), keys[:, d:].sum(axis=1))  # max(|a|, |b|)
    if raising:
        _check_budget(deg, out_degree, d)
    k_max = int(keys.max())
    # no entry steps further: g <= out_degree - max(|a|, |b|) or g <= min(a_j, b_j)
    reach = max(out_degree - int(deg.min()) if raising else k_max, 0)
    tp = _powers(t, reach)
    top = len(tp) - 1
    N = out_degree if raising else c.support_degree()
    if _fits_dense(d, N):
        first = np.minimum(out_degree - deg if raising else np.minimum(keys[:, 0], keys[:, d]), top) + 1
        if _cell_steps(d, N, top) <= int(np.maximum(first, 0).sum()):
            out = _dense(keys, values, deg, tp, _plan(d, N, raising), N, raising)
            if out is not None:
                return out
    return _blocked(keys, values, deg, tp, k_max, out_degree)


def _dense(keys, values, deg, tp, plan: _Plan, N: int, raising: bool) -> KernelCoeffs | None:
    """The dense route of ``_sweep``: the blocked route's output, byte for byte on inputs in
    canonical order, in the same key order; None where a value leaves float range.

    Each cell's terms are formed part by part as on the blocked route and added in
    its order, which on canonical input is that of the lower end of the step: g
    descending when raising, ascending when lowering.  The route runs through
    every cell, also those the blocked route never forms; the terms of an empty
    cell add nothing, and a value past float range (which could be 0 * inf in
    such a cell) hands the input to the blocked route, which then forms only its
    own terms.
    """
    d, n = keys.shape[1] // 2, plan.n
    inside = deg <= N
    cell = plan.where[keys[inside, :d] @ plan.mult] * n + plan.where[keys[inside, d:] @ plan.mult]
    re, im = np.zeros(n * n), np.zeros(n * n)
    re[cell], im[cell] = values.real[inside], values.imag[inside]
    steps = range(len(tp) - 1, -1, -1) if raising else range(len(tp))
    for per in plan.steps:
        re, im = re.reshape(n, n), im.reshape(n, n)
        out_re, out_im = np.zeros((n, n)), np.zeros((n, n))
        for g in steps:
            m, src, w = per[g]
            xr, xi = w * tp[g].real, w * tp[g].imag
            vr, vi = (re, im) if src is None else (re[src][:, src], im[src][:, src])
            # (xr + i xi)(vr + i vi) part by part, added in step order
            out_re[:m, :m] += xr * vr - xi * vi
            out_im[:m, :m] += xr * vi + xi * vr
        re, im = out_re.ravel(), out_im.ravel()
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        return None
    re, im = re[plan.order], im[plan.order]
    keep = (re != 0) | (im != 0)
    values = np.empty(int(keep.sum()), dtype=complex)
    values.real, values.imag = re[keep], im[keep]
    row, col = np.divmod(plan.order[keep], n)
    return KernelCoeffs._from_arrays(d, d, np.concatenate((plan.keys[row], plan.keys[col]), axis=1), values)


def _blocked(keys, values, deg, tp, k_max: int, out_degree: int | None) -> KernelCoeffs:
    """The blocked route of ``_sweep``: one numpy pass per axis over arrays of entries.

    Copies meet only if their entries lie on one line of the axis: equal
    indices off axis j and equal a_j - b_j.  A pass sorts the entries by line,
    stably, then forms the copies of whole lines in ``_blocks``, each line
    taking ``radix`` slots (line, min(a_j, b_j)) of a block's sums, so the
    block size moves no bit.
    """
    d = keys.shape[1] // 2
    raising = out_degree is not None
    g_max = len(tp) - 1
    re, im = values.real, values.imag
    # components never pass out_degree when raising and never rise when lowering
    top = max(k_max, min(out_degree, k_max + g_max)) if raising else k_max
    radix = top + 1
    words, place = _pack(keys, radix)
    # C(k+g, g) with k the lower end of the step: the input index when raising,
    # the output index when lowering; either way k <= k_max
    table = _binomials(_round_up(k_max + 1), _round_up(g_max + 1))
    tp_re = np.array([p.real for p in tp])
    tp_im = np.array([p.imag for p in tp])
    step = 1 if raising else -1
    for j in range(d):
        if not re.size:
            break
        (wa, ma), (wb, mb) = place[j], place[d + j]
        aj = words[wa] // ma % radix
        bj = words[wb] // mb % radix
        low = np.minimum(aj, bj)
        line = list(words)
        line[wa] = line[wa] - low * ma
        line[wb] = line[wb] - low * mb
        order, new = _runs(line)
        line = [w[order] for w in line]
        aj, bj, low, re, im, deg = (x[order] for x in (aj, bj, low, re, im, deg))
        counts = np.minimum(out_degree - deg if raising else low, g_max) + 1
        np.maximum(counts, 0, out=counts)
        line_id = new.cumsum() - 1
        starts = new.nonzero()[0]
        out_words: List[List[np.ndarray]] = [[] for _ in words]
        out_re, out_im, out_deg = [], [], []
        for i, k, lo, hi, g in _blocks(counts, starts, radix):
            cnt = counts[lo:hi]
            ka = aj[lo:hi].repeat(cnt)
            kb = bj[lo:hi].repeat(cnt)
            if not raising:
                ka -= g
                kb -= g
            weight = table[ka, g] * table[kb, g]
            if not np.isfinite(weight).all():
                raise OverflowError(f"binomial weight out of float range on axis {j + 1}")
            np.sqrt(weight, out=weight)
            xr, xi = weight * tp_re[g], weight * tp_im[g]
            vr, vi = re[lo:hi].repeat(cnt), im[lo:hi].repeat(cnt)
            slot = ((line_id[lo:hi] - i) * radix + low[lo:hi]).repeat(cnt) + step * g
            # (xr + i xi)(vr + i vi) part by part; bincount adds each slot's copies in order
            sum_re = np.bincount(slot, weights=xr * vr - xi * vi, minlength=(k - i) * radix)
            sum_im = np.bincount(slot, weights=xr * vi + xi * vr, minlength=(k - i) * radix)
            hit = ((sum_re != 0) | (sum_im != 0)).nonzero()[0]
            pos = hit % radix
            src = starts[i + hit // radix]
            for out, word in zip(out_words, line):
                out.append(word[src])
            out_words[wa][-1] += pos * ma
            out_words[wb][-1] += pos * mb
            out_re.append(sum_re[hit])
            out_im.append(sum_im[hit])
            out_deg.append(deg[src] - low[src] + pos)
        words = [np.concatenate(out) for out in out_words]
        re, im, deg = np.concatenate(out_re), np.concatenate(out_im), np.concatenate(out_deg)
    values = np.empty(len(re), dtype=complex)
    values.real, values.imag = re, im
    index = np.stack([words[w] // mult % radix for w, mult in place], axis=1)
    return KernelCoeffs._from_arrays(d, d, index, values)


def t0(c: KernelCoeffs, t: complex, out_degree: int | None = None) -> KernelCoeffs:
    """Binomial raise: out(a,b) = sum_{g <= a,b} sqrt(C(a,g) C(b,g)) t^|g| c(a-g, b-g).

    The output has unbounded support in general, so entries are retained for
    |alpha|, |beta| <= out_degree (default: input support degree plus
    DEFAULT_EXTENSION); a negative out_degree is a PreconditionError.  Each
    retained entry only involves lower-degree inputs and is therefore exact.
    """
    if out_degree is None:
        out_degree = c.support_degree() + DEFAULT_EXTENSION
    elif out_degree < 0:
        raise PreconditionError(f"out_degree must be >= 0, got {out_degree}")
    return _sweep(c, t, out_degree)


def t0_star(c: KernelCoeffs, t: complex) -> KernelCoeffs:
    """Formal l^2 dual: out(a,b) = sum_g sqrt(C(a+g,g) C(b+g,g)) t^|g| c(a+g, b+g).

    Finitely many terms contribute on finitely supported input, so the
    result is exact and its support degree never exceeds the input's.
    """
    return _sweep(c, t, None)


def _phase(c: KernelCoeffs, quarter_turns: int) -> KernelCoeffs:
    d = c.d
    index, values = c.arrays()
    return KernelCoeffs._from_arrays(d, d, index, _I_POWERS[quarter_turns * index.sum(axis=1) % 4] * values)


def s0(c: KernelCoeffs) -> KernelCoeffs:
    """Entrywise quarter-turn phase: c(a,b) -> i^(|a|+|b|) c(a,b)."""
    return _phase(c, 1)


def s0_inv(c: KernelCoeffs) -> KernelCoeffs:
    """Inverse phase: c(a,b) -> (-i)^(|a|+|b|) c(a,b)."""
    return _phase(c, -1)


def l2_r_norm(c: KernelCoeffs, r: float) -> float:
    """Geometric-weight l^2 norm: (sum |c(a,b)|^2 r^(-(|a|+|b|)))^(1/2); +inf past float range."""
    if not (r > 0):
        raise ValueError("r must be positive")
    index, values = c.arrays()
    with np.errstate(over="ignore"):
        scaled = np.abs(values) * r ** (-0.5 * index.sum(axis=1))
    return math.hypot(*scaled.tolist())
