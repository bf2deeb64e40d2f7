"""Test helpers shared by several test modules: random dense containers,
sup-norm distances between containers and multi-index sums."""

from fockcalc.multiindex import enumerate_degree, total_degree
from fockcalc.series import KernelCoeffs, SeriesCoeffs


def random_kernel(rng, d, degree):
    idx = enumerate_degree(d, degree)
    return KernelCoeffs(d, d, {
        (a, b): complex(rng.standard_normal(), rng.standard_normal())
        for a in idx for b in idx
    })


def random_series(rng, d, degree):
    return SeriesCoeffs(d, {
        a: complex(rng.standard_normal(), rng.standard_normal())
        for a in enumerate_degree(d, degree)
    })


def index_add(alpha, gamma):
    return tuple(a + g for a, g in zip(alpha, gamma))


def sup(c):
    return max((abs(v) for v in c.entries.values()), default=0.0)


def sup_diff(c1, c2, max_degree=None):
    keys = set(c1.entries) | set(c2.entries)
    worst = 0.0
    for k in keys:
        if max_degree is not None and max(total_degree(k[0]), total_degree(k[1])) > max_degree:
            continue
        worst = max(worst, abs(c1.entries.get(k, 0.0) - c2.entries.get(k, 0.0)))
    return worst
