"""Binomial transition operators on square coefficient tensors.

``t0`` realizes, at coefficient level, multiplication of the associated
kernel by the exponential factor exp(t (z, w)); ``t0_star`` is its formal
l^2 dual and performs the Gaussian (Berezin-type) smoothing of symbols.
Both are exact on finitely supported input: every retained output entry
is a finite sum evaluated in full.

``t0(t) = exp(t R)`` with R the nilpotent diagonal raise, and the factors
``exp(t R_j)`` of the individual axes commute, so both operators are computed
as one sweep over the sparse entry map per axis.
"""

from __future__ import annotations

import math
from typing import Dict, List

from .multiindex import total_degree
from .series import KernelCoeffs, KernelKey

DEFAULT_EXTENSION = 8

_I_POWERS = (1.0, 1j, -1.0, -1j)


def _powers(t: complex, n: int) -> List[complex]:
    """t^0..t^n by repeated multiplication (exact at 0 and on the axes).

    Stops early at the first power that is exactly zero: every later term
    would add nothing.
    """
    out = [complex(1.0)]
    while len(out) <= n and out[-1] * t != 0:
        out.append(out[-1] * t)
    return out


def _sweep(c: KernelCoeffs, t: complex, out_degree: int | None) -> KernelCoeffs:
    """Apply exp(t R_j), or its adjoint when out_degree is None, on each axis j in turn.

    Raising sends (a_j, b_j) -> (a_j+g, b_j+g) for g <= out_degree - max(|a|, |b|);
    lowering sends it to (a_j-g, b_j-g) for g <= min(a_j, b_j).  The weight is
    sqrt(C(hi_a, g) C(hi_b, g)) t^g, hi being the larger of the two indices
    on that axis; both binomials stay exact integers under one square root.
    Degrees only rise when raising, so dropping intermediate entries above
    out_degree loses nothing that a retained entry needs.
    """
    d = c.d
    raising = out_degree is not None
    tp = _powers(t, out_degree if raising else c.support_degree())
    step = 1 if raising else -1
    entries = c.entries
    for j in range(d):
        swept: Dict[KernelKey, complex] = {}
        for (a, b), v in entries.items():
            aj, bj = a[j], b[j]
            if raising:
                reach = out_degree - max(total_degree(a), total_degree(b))
            else:
                reach = min(aj, bj)
            a_pre, a_post, b_pre, b_post = a[:j], a[j + 1:], b[:j], b[j + 1:]
            ca = cb = 1
            for g in range(min(reach, len(tp) - 1) + 1):
                if g:
                    # exact integer steps: C(aj+g, g) from C(aj+g-1, g-1) when raising,
                    # C(aj, g) from C(aj, g-1) when lowering
                    ca = ca * (aj + g if raising else aj + 1 - g) // g
                    cb = cb * (bj + g if raising else bj + 1 - g) // g
                key = (a_pre + (aj + step * g,) + a_post, b_pre + (bj + step * g,) + b_post)
                swept[key] = swept.get(key, 0.0) + math.sqrt(ca * cb) * tp[g] * v
        entries = swept
    return KernelCoeffs(d, d, entries)


def t0(c: KernelCoeffs, t: complex, out_degree: int | None = None) -> KernelCoeffs:
    """Binomial raise: out(a,b) = sum_{g <= a,b} sqrt(C(a,g) C(b,g)) t^|g| c(a-g, b-g).

    The output has unbounded support in general, so entries are retained for
    |alpha|, |beta| <= out_degree (default: input support degree plus
    DEFAULT_EXTENSION).  Each retained entry only involves lower-degree
    inputs and is therefore exact.
    """
    if out_degree is None:
        out_degree = c.support_degree() + DEFAULT_EXTENSION
    return _sweep(c, t, out_degree)


def t0_star(c: KernelCoeffs, t: complex) -> KernelCoeffs:
    """Formal l^2 dual: out(a,b) = sum_g sqrt(C(a+g,g) C(b+g,g)) t^|g| c(a+g, b+g).

    Finitely many terms contribute on finitely supported input, so the
    result is exact and its support degree never exceeds the input's.
    """
    return _sweep(c, t, None)


def _phase(c: KernelCoeffs, quarter_turns: int) -> KernelCoeffs:
    d = c.d
    return KernelCoeffs(d, d, {
        k: _I_POWERS[quarter_turns * (total_degree(k[0]) + total_degree(k[1])) % 4] * v
        for k, v in c.entries.items()
    })


def s0(c: KernelCoeffs) -> KernelCoeffs:
    """Entrywise quarter-turn phase: c(a,b) -> i^(|a|+|b|) c(a,b)."""
    return _phase(c, 1)


def s0_inv(c: KernelCoeffs) -> KernelCoeffs:
    """Inverse phase: c(a,b) -> (-i)^(|a|+|b|) c(a,b)."""
    return _phase(c, -1)


def l2_r_norm(c: KernelCoeffs, r: float) -> float:
    """Geometric-weight l^2 norm: (sum |c(a,b)|^2 r^(-(|a|+|b|)))^(1/2)."""
    if not (r > 0):
        raise ValueError("r must be positive")
    total = 0.0
    for (a, b), v in c.entries.items():
        total += abs(v) ** 2 * r ** (-(total_degree(a) + total_degree(b)))
    return math.sqrt(total)
