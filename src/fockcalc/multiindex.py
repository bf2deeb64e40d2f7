"""Multi-index arithmetic and degree-bounded enumeration.

A multi-index is a tuple of non-negative integers of length d.  Every
coefficient tensor in the package is keyed by multi-indices, and every
dense serialization uses the canonical (total degree, lexicographic)
ordering produced by :func:`enumerate_degree`.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence, Tuple

from .errors import DimensionMismatch

MultiIndex = Tuple[int, ...]


def validate_index(alpha: Sequence[int]) -> MultiIndex:
    """Return ``alpha`` as a tuple after checking entries are non-negative ints
    below 2**63, the range of the int64 arrays that containers hold."""
    idx = tuple(alpha)
    if len(idx) < 1:
        raise ValueError("multi-index must have length >= 1")
    for a in idx:
        # exact ints pass the type test at once; int subclasses other than bool also pass
        if type(a) is not int and (not isinstance(a, int) or isinstance(a, bool)) or not 0 <= a < 2 ** 63:
            raise ValueError(f"multi-index entries must be non-negative integers below 2**63, got {idx!r}")
    return idx


def total_degree(alpha: Sequence[int]) -> int:
    return sum(alpha)


def _fixed_degree(d: int, n: int) -> Iterator[MultiIndex]:
    """All alpha in N^d with |alpha| = n, in ascending lexicographic order."""
    if d == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _fixed_degree(d - 1, n - first):
            yield (first,) + rest


def enumerate_degree(d: int, max_degree: int) -> list[MultiIndex]:
    """All multi-indices alpha in N^d with |alpha| <= max_degree.

    Sorted by (total degree, lexicographic); the list has length
    C(max_degree + d, d).  This ordering is the canonical one used by
    operator matrices and file serialization.
    """
    if d < 1:
        raise ValueError("dimension d must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    out: list[MultiIndex] = []
    for n in range(max_degree + 1):
        out.extend(_fixed_degree(d, n))
    return out


def multi_binomial(alpha: Sequence[int], gamma: Sequence[int]) -> int:
    """Product of componentwise binomial coefficients C(alpha_j, gamma_j).

    Exact integer arithmetic; zero when any gamma_j exceeds alpha_j.
    """
    if len(alpha) != len(gamma):
        raise DimensionMismatch(f"multi-index dimensions differ: {len(alpha)} vs {len(gamma)}")
    out = 1
    for a, g in zip(alpha, gamma):
        if g > a:
            return 0
        out *= math.comb(a, g)
    return out


def multi_factorial(alpha: Sequence[int]) -> int:
    """Product of componentwise factorials, as an exact integer."""
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def log_multi_factorial(alpha: Sequence[int]) -> float:
    """log(alpha!) through lgamma; safe for degrees where alpha! overflows floats."""
    return sum(math.lgamma(a + 1) for a in alpha)
