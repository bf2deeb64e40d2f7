"""Binomial transition operators on square coefficient tensors.

``t0`` realizes, at coefficient level, multiplication of the associated
kernel by the exponential factor exp(t (z, w)); ``t0_star`` is its formal
l^2 dual and performs the Gaussian (Berezin-type) smoothing of symbols.
Both are exact on finitely supported input: every retained output entry
is a finite sum evaluated in full.

``t0(t) = exp(t R)`` with R the nilpotent diagonal raise, and the factors
``exp(t R_j)`` of the individual axes commute, so both operators are one
numpy pass per axis over arrays of entries.  A pass repeats each entry once
per step g of its range, weights the copy by sqrt(C(hi_a, g) C(hi_b, g)) t^g
with the binomials read from a cached float table of exact integers, moves
it by g on that axis and sums the copies that land on one key.  Keys are
packed into int64 words (more than one word when the index range needs
it).  Real and imaginary parts are multiplied and summed separately, each
key's copies in the order of a loop over entries and steps: a
one-dimensional transition adds its terms in the order that loop would.
A value past float range raises OverflowError in ``KernelCoeffs._from_arrays``.
"""

from __future__ import annotations

import functools
import math
from typing import List

import numpy as np

from .errors import PreconditionError
from .series import KernelCoeffs, _blocks, _pack, _runs

DEFAULT_EXTENSION = 8

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


def _round_up(n: int) -> int:
    """Table sizes in steps of 16, so that nearby sizes share one cached table."""
    return -(-n // 16) * 16


@np.errstate(over="ignore", invalid="ignore")  # values past float range are caught on output
def _sweep(c: KernelCoeffs, t: complex, out_degree: int | None) -> KernelCoeffs:
    """Apply exp(t R_j), or its adjoint when out_degree is None, on each axis j in turn.

    Raising sends (a_j, b_j) -> (a_j+g, b_j+g) for g <= out_degree - max(|a|, |b|);
    lowering sends it to (a_j-g, b_j-g) for g <= min(a_j, b_j).  The weight is
    sqrt(C(hi_a, g) C(hi_b, g)) t^g, hi being the larger of the two indices
    on that axis; the product of the two binomials passes through one square
    root.  Degrees only rise when raising, so dropping intermediate entries
    above out_degree loses nothing that a retained entry needs.

    Copies meet only if their entries lie on one line of the axis: equal
    indices off axis j and equal a_j - b_j.  A pass sorts the entries by line,
    stably, then forms the copies of whole lines in ``_blocks``, each line
    taking ``radix`` slots (line, min(a_j, b_j)) of a block's sums, so the
    block size moves no bit.
    """
    d = c.d
    if not len(c):
        return KernelCoeffs(d, d)
    raising = out_degree is not None
    tp = _powers(t, out_degree if raising else c.support_degree())
    g_max = len(tp) - 1
    keys, values = c.arrays()
    re, im = values.real, values.imag
    k_max = int(keys.max())
    # components never pass out_degree when raising and never rise when lowering
    top = max(k_max, min(out_degree, k_max + g_max)) if raising else k_max
    radix = top + 1
    words, place = _pack(keys, radix)
    deg = np.maximum(keys[:, :d].sum(axis=1), keys[:, d:].sum(axis=1))  # max(|a|, |b|)
    reach = out_degree - int(deg.min()) if raising else k_max
    # C(k+g, g) with k the lower end of the step: the input index when raising,
    # the output index when lowering; either way k <= k_max
    table = _binomials(_round_up(k_max + 1), _round_up(min(g_max, max(reach, 0)) + 1))
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
