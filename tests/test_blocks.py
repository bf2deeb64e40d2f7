"""The blocked array passes: t0/t0_star, compose_kernels' blocked route and
the series products cut their work with ``series._blocks`` into blocks of
whole lines, rows or entries, so the block size moves no output bit."""

import tracemalloc

import numpy as np
import pytest

from fockcalc import series, symbolcalc
from fockcalc.binomial import t0, t0_star
from fockcalc.multiindex import enumerate_degree
from fockcalc.series import KernelCoeffs, SeriesCoeffs, diamond, multiply
from fockcalc.symbolcalc import apply_operator, compose_kernels, twisted_product

from _support import random_kernel, random_series

# (dense degree, sparse degree) per dimension: small enough that a block of one term stays fast
DEGREES = {1: (6, 14), 2: (3, 7), 3: (2, 5)}


def sparse_kernel(rng, d, degree, count):
    idx = enumerate_degree(d, degree)
    pick = rng.integers(len(idx), size=(count, 2))
    return KernelCoeffs(d, d, {(idx[i], idx[j]): complex(*rng.standard_normal(2)) for i, j in pick})


def sparse_series(rng, d, degree, count):
    idx = enumerate_degree(d, degree)
    return SeriesCoeffs(d, {idx[i]: complex(*rng.standard_normal(2)) for i in rng.integers(len(idx), size=count)})


def outputs(d):
    """The arrays of every blocked engine on dense and sparse inputs, as bytes."""
    rng = np.random.default_rng(90 + d)
    dense, sparse = DEGREES[d]
    kernels = [random_kernel(rng, d, dense), sparse_kernel(rng, d, sparse, 30)]
    symbols = [random_kernel(rng, d, 1), sparse_kernel(rng, d, 3, 6)]
    factors = [random_series(rng, d, dense), sparse_series(rng, d, sparse, 20)]
    t = 0.6 - 0.45j
    out = []
    for K in kernels:
        deg = K.support_degree()
        out += [t0(K, t, out_degree=deg + 2), t0(K, t, out_degree=deg - 1), t0_star(K, t),
                compose_kernels(K, K)]
        out += [apply_operator(K, F) for F in factors]
    out += [twisted_product(a, b) for a in symbols for b in symbols]
    for F1 in factors:
        for F2 in factors:
            out += [multiply(F1, F2), diamond(F1, F2)]
    return [(c.arrays()[0].tobytes(), c.arrays()[1].tobytes()) for c in out]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_block_size_moves_no_bit(monkeypatch, d):
    monkeypatch.setattr(symbolcalc, "COMPOSE_DENSE_RATIO", 0)  # compose on the blocked route
    want = outputs(d)
    for block in (1, 16):
        monkeypatch.setattr(series, "BLOCK", block)
        assert outputs(d) == want


def test_sweep_blocks_hold_at_most_block_slots():
    # at t = 0 each of 1,000 entries ((k,), (0,)) gives one copy on its own line of
    # 1,000 slots; the lines of a block take at most BLOCK slots, where a block of
    # all 1,000 lines would take 10^6 slots, two float sums of 8 MB each
    rng = np.random.default_rng(5)
    c = KernelCoeffs(1, 1, {((k,), (0,)): complex(*rng.standard_normal(2)) for k in range(1000)})
    t0_star(c, 0.0)  # the binomial table is cached from here on
    tracemalloc.start()
    try:
        out = t0_star(c, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.arrays()[0].tobytes() == c.arrays()[0].tobytes()
    assert out.arrays()[1].tobytes() == c.arrays()[1].tobytes()
    assert peak <= 8 * (2 * 8 * series.BLOCK)
