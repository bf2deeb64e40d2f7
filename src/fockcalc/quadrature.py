"""Gauss-Hermite quadrature oracle for every integral formula in the package.

Every complex-plane integral is one form,

    pi^(-d) integral f(u) exp(-(z - u, w - u)) dlambda(u),

evaluated by ``_gaussian_integral`` on a tensor-product Gauss-Hermite rule
on R^(2d): z = w = 0 is the Gaussian measure itself, w = 0 operator
application and general (z, w) the smoothing, composition and rank-one
integrals, each recentered at (z + w)/2 where the Gaussian factor peaks.  The
real-space transforms recenter at sqrt(2) Re z and at x.  The rules
integrate the polynomial parts exactly and leave the remainder of an
entire function.  At the default M it is about 1e-14 at d = 1 and d = 2; at
d = 3 the 10-node rule leaves about 1e-10 (up to 5e-9) on anti-Wick
applications of values of order 10 to 60, and about 4e-13 (up to 2e-11) on
Wick applications.

Grids hold at most MAX_GRID_NODES = 2^20 nodes, checked before anything is
allocated: M^(2d) nodes means d = 1 takes any M, d = 2 needs M <= 32 and
d = 3 needs M <= 10.  Complex integration is d <= 3 only.  The default M
is chosen per number of real axes, the largest M up to 64 within that
budget: 64 at d = 1, 32 at d = 2 and 10 at d = 3 for complex integrals;
FOCK_QUAD_NODES overrides it.

The rule centred at 0 (offsets, weights and flat weights, read-only) is
built once per (M, dims, scale) and kept while the kept rules fit in
GRID_CACHE_BYTES; a grid adds its centre to the offsets, the same operation
that built the nodes before, so the nodes are the same bit for bit.
Integrands are evaluated on blocks of QUAD_BLOCK nodes, which bounds every
temporary of an integral whatever the grid size.  The integrands evaluate
basis functions pointwise and never call the coefficient engines they check.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import DimensionMismatch, DomainError, PreconditionError
from .multiindex import enumerate_degree, multi_binomial, total_degree, validate_index
from .series import (
    KernelCoeffs,
    SeriesCoeffs,
    _basis_rows,
    eval_basis,
    eval_kernel,
    eval_series,
)
from .symbolcalc import OperatorMatrix

MAX_NODES = 256
DEFAULT_NODES = 64
MAX_COMPLEX_DIM = 3
MAX_GRID_NODES = 2 ** 20
QUAD_BLOCK = 1024             # nodes per integrand evaluation
GRID_CACHE_BYTES = 2 ** 26    # bound on the cached unit grids

NODES_ENV_VAR = "FOCK_QUAD_NODES"


def _max_nodes(dims: int) -> int:
    """The largest M up to MAX_NODES with M^dims <= MAX_GRID_NODES (1 where no M >= 2 fits)."""
    # the rounded float root is the answer or one above it
    m = min(MAX_NODES, round(MAX_GRID_NODES ** (1 / dims)))
    while m > 1 and m ** dims > MAX_GRID_NODES:
        m -= 1
    return m


def default_nodes(dims: int = 1) -> int:
    """Default nodes per axis on ``dims`` real axes: the largest M up to
    DEFAULT_NODES within MAX_GRID_NODES.  FOCK_QUAD_NODES overrides it."""
    raw = os.environ.get(NODES_ENV_VAR)
    if raw is None:
        return min(DEFAULT_NODES, _max_nodes(dims))
    try:
        m = int(raw)
    except ValueError as exc:
        raise PreconditionError(f"{NODES_ENV_VAR} must be an integer, got {raw!r}") from exc
    if not 2 <= m <= MAX_NODES:
        raise PreconditionError(f"{NODES_ENV_VAR} must lie in [2, {MAX_NODES}], got {m}")
    return m


@dataclass
class QuadratureGrid:
    """Tensor-product Gauss-Hermite rule against exp(-((x - center)/scale)^2) per axis.

    ``offsets`` are the nodes relative to ``center``; ``nodes`` adds the two.
    ``weights`` integrate polynomials against the Gaussian (their sum is the
    total Gaussian mass); ``flat_weights`` carry the exp(+xi^2) correction and
    integrate raw functions of comparable decay.  The integrals evaluate f on
    blocks of QUAD_BLOCK nodes.
    """

    M: int
    dims: int
    center: np.ndarray
    scale: float
    offsets: np.ndarray
    weights: np.ndarray
    flat_weights: np.ndarray

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        return self.center + self.offsets

    def blocks(self):
        """(nodes, weights, flat_weights) over consecutive blocks of QUAD_BLOCK nodes."""
        n, dims = len(self.weights), self.dims
        offsets = self.offsets.reshape(-1)
        # the centre repeated once per node: one flat addition recentres a block
        shift = np.tile(self.center, min(QUAD_BLOCK, n))
        for s in range(0, n, QUAD_BLOCK):
            e = min(s + QUAD_BLOCK, n)
            nodes = (offsets[s * dims:e * dims] + shift[:(e - s) * dims]).reshape(e - s, dims)
            yield nodes, self.weights[s:e], self.flat_weights[s:e]

    def integrate(self, f: Callable) -> complex:
        """Plain Lebesgue integral of f over R^dims (f vectorized over (n, dims))."""
        return complex(sum((flat * np.asarray(f(x))).sum() for x, _, flat in self.blocks()))

    def integrate_weighted(self, f: Callable) -> complex:
        """Integral of f against the grid's own Gaussian weight."""
        return complex(sum((w * np.asarray(f(x))).sum() for x, w, _ in self.blocks()))


@functools.lru_cache(maxsize=16)
def _hermgauss_cached(M: int):
    x, w = hermgauss(M)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


_unit_grids: "OrderedDict[tuple, tuple]" = OrderedDict()


def _unit_grid(M: int, dims: int, scale: float) -> tuple:
    """Read-only (offsets, weights, flat_weights) of the rule centred at 0, kept
    per (M, dims, scale) while the kept grids fit in GRID_CACHE_BYTES."""
    key = (M, dims, scale)
    if key in _unit_grids:
        _unit_grids.move_to_end(key)
        return _unit_grids[key]
    x, w = _hermgauss_cached(M)
    # per-axis combined weights stay O(1): w_i ~ exp(-x_i^2)
    flat_axis = scale * w * np.exp(x * x)
    axis_w = scale * w
    n = M ** dims
    offsets = np.empty((n, dims))
    weights = np.ones(n)
    flat = np.ones(n)
    for j in range(dims):
        reps_outer = M ** j
        reps_inner = M ** (dims - 1 - j)
        offsets[:, j] = scale * np.repeat(np.tile(x, reps_outer), reps_inner)
        weights *= np.repeat(np.tile(axis_w, reps_outer), reps_inner)
        flat *= np.repeat(np.tile(flat_axis, reps_outer), reps_inner)
    mass = (scale * math.sqrt(math.pi)) ** dims
    if abs(float(np.sum(weights)) - mass) > 1e-12 * mass:
        raise RuntimeError("quadrature weights failed the Gaussian-mass invariant")
    grid = (offsets, weights, flat)
    for a in grid:
        a.setflags(write=False)
    size = sum(a.nbytes for a in grid)
    if size <= GRID_CACHE_BYTES:
        while _unit_grids and size + sum(a.nbytes for g in _unit_grids.values() for a in g) > GRID_CACHE_BYTES:
            _unit_grids.popitem(last=False)
        _unit_grids[key] = grid
    return grid


def gauss_hermite_grid(M: int, dims: int, center: Sequence[float] | None = None,
                       scale: float = 1.0) -> QuadratureGrid:
    """Build the rule; exact for polynomial degree <= 2M - 1 per axis."""
    if not 2 <= M <= MAX_NODES:
        raise PreconditionError(f"nodes per axis must lie in [2, {MAX_NODES}], got {M}")
    if dims < 1:
        raise ValueError("dims must be >= 1")
    if not (scale > 0):
        raise ValueError("scale must be positive")
    n = M ** dims
    if n > MAX_GRID_NODES:
        raise PreconditionError(
            f"{M} nodes per axis on {dims} axes is {n} nodes, over the budget of {MAX_GRID_NODES}; "
            f"at most {_max_nodes(dims)} nodes per axis fit")
    c = np.zeros(dims) if center is None else np.asarray(center, dtype=float)
    if c.shape != (dims,):
        raise DimensionMismatch(f"center of shape {c.shape} does not match dims={dims}")
    return QuadratureGrid(M, dims, c, float(scale), *_unit_grid(M, dims, float(scale)))


# ---------------------------------------------------------------------------
# complex-plane helpers
# ---------------------------------------------------------------------------

def _as_cvector(z, d: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if arr.shape != (d,):
        raise DimensionMismatch(f"point of shape {arr.shape} does not match dimension {d}")
    return arr


def to_complex(nodes: np.ndarray) -> np.ndarray:
    """Pair interleaved real coordinates (Re z1, Im z1, ...) into complex vectors
    (a view of ``nodes`` where they are C-contiguous floats)."""
    return np.ascontiguousarray(nodes, dtype=float).view(complex)


def complex_grid(M: int, d: int, center: Sequence[complex] | None = None,
                 scale: float = 1.0) -> QuadratureGrid:
    """Grid on R^(2d) for integrals over C^d (interleaved coordinates)."""
    if d > MAX_COMPLEX_DIM:
        raise PreconditionError(f"complex quadrature limited to d <= {MAX_COMPLEX_DIM}, got d={d}")
    if center is None:
        c = None
    else:
        cc = _as_cvector(center, d)
        c = np.empty(2 * d)
        c[0::2] = cc.real
        c[1::2] = cc.imag
    return gauss_hermite_grid(M, 2 * d, c, scale)


def _as_fn(x, cls: type, evaluate: Callable) -> Callable:
    """x as a function of the integration points: a ``cls`` container is bound
    as the first argument of ``evaluate``; a callable is passed through."""
    if isinstance(x, cls):
        return lambda *pts: evaluate(x, *pts)
    if callable(x):
        return x
    raise TypeError(f"expected {cls.__name__} or callable")


def _eval_diag(a: KernelCoeffs, w) -> np.ndarray:
    """The diagonal values a(w, w)."""
    return eval_kernel(a, w, w)


def _check_finite(vals: np.ndarray) -> np.ndarray:
    if not np.isfinite(vals).all():
        raise DomainError("integrand produced non-finite values")
    return vals


def _dim(d: int | None, a, F=None) -> int:
    """d if given, else the dimension of the symbol a or of the series F, else 1."""
    if d is not None:
        return d
    if isinstance(a, KernelCoeffs):
        return a.d2
    if isinstance(F, SeriesCoeffs):
        return F.d
    return 1


def _gaussian_integral(f: Callable, d: int, grid: QuadratureGrid, z: np.ndarray, w: np.ndarray) -> complex:
    """pi^(-d) integral f(u) exp(-(z - u, w - u)) dlambda(u) on the grid's complex nodes u."""
    if grid.dims != 2 * d:
        raise DimensionMismatch(f"grid dims {grid.dims} != 2*d = {2 * d}")

    def integrand(pts):
        u = to_complex(pts)
        # -(z - u, w - u) one axis at a time: numpy loops over whole columns
        vals = np.exp(sum((u[:, j] - z[j]) * np.conj(w[j] - u[:, j]) for j in range(d)))
        vals *= f(u)
        return _check_finite(vals)

    return grid.integrate(integrand) * math.pi ** (-d)


def _recentred_integral(f: Callable, d: int, z: np.ndarray, w: np.ndarray, M: int | None) -> complex:
    """The same integral on an M-node rule (default_nodes(2 * d) if M is None)
    centred at (z + w)/2, where |exp(-(z - u, w - u))| peaks."""
    return _gaussian_integral(f, d, complex_grid(M or default_nodes(2 * d), d, center=(z + w) / 2.0), z, w)


def integrate_gaussian_c(f: Callable, d: int, grid: QuadratureGrid) -> complex:
    """Integral of f against the normalized Gaussian measure on C^d."""
    return _gaussian_integral(f, d, grid, np.zeros(d), np.zeros(d))


# ---------------------------------------------------------------------------
# operator application and symbol smoothing
# ---------------------------------------------------------------------------

def wick_apply_quad(a, F, z, M: int | None = None, d: int | None = None) -> complex:
    """Operator with symbol a applied to F at z, through the defining integral.

    pi^(-d) integral a(z, w) F(w) exp((z, w) - |w|^2) dlambda(w), recentered
    at w = z/2, where |exp((z, w) - |w|^2)| peaks.
    """
    d = _dim(d, a, F)
    zz = _as_cvector(z, d)
    af, ff = _as_fn(a, KernelCoeffs, eval_kernel), _as_fn(F, SeriesCoeffs, eval_series)
    return _recentred_integral(lambda u: af(zz, u) * np.asarray(ff(u), dtype=complex), d, zz, np.zeros(d), M)


def antiwick_apply_quad(a_diag, F, z, M: int | None = None, d: int | None = None) -> complex:
    """Anti-Wick application: only the diagonal values a(w, w) enter the integrand; recentered at z/2."""
    d = _dim(d, a_diag, F)
    zz = _as_cvector(z, d)
    af, ff = _as_fn(a_diag, KernelCoeffs, _eval_diag), _as_fn(F, SeriesCoeffs, eval_series)
    return _recentred_integral(lambda u: af(u) * np.asarray(ff(u), dtype=complex), d, zz, np.zeros(d), M)


def berezin_transform_quad(a_diag, z, w, M: int | None = None, d: int | None = None) -> complex:
    """Gaussian smoothing of the diagonal symbol.

    pi^(-d) integral a(w1, w1) exp(-(z - w1, w - w1)) dlambda(w1), recentered
    at (z + w)/2.
    """
    d = _dim(d, a_diag)
    zz = _as_cvector(z, d)
    ww = _as_cvector(w, d)
    return _recentred_integral(_as_fn(a_diag, KernelCoeffs, _eval_diag), d, zz, ww, M)


# ---------------------------------------------------------------------------
# real-space transforms
# ---------------------------------------------------------------------------

def bargmann_kernel(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """pi^(-d/4) exp(-(1/2)(<z, z> + |y|^2) + sqrt(2) <z, y>), bilinear <., .>."""
    d = z.shape[-1]
    zz = np.sum(z * z, axis=-1)
    yy = np.sum(y * y, axis=-1)
    zy = np.sum(z * y, axis=-1)
    return math.pi ** (-d / 4.0) * np.exp(-0.5 * (zz + yy) + math.sqrt(2.0) * zy)


def bargmann_quad(f: Callable, z, M: int | None = None, d: int | None = None) -> complex:
    """Transform of a real-space function: integral of the Gaussian kernel against f.

    Recentered at y = sqrt(2) Re z, the stationary point of the kernel's
    Gaussian factor; scale sqrt(2) to match its width.
    """
    if d is None:
        d = np.atleast_1d(np.asarray(z)).shape[-1]
    zz = _as_cvector(z, d)
    grid = gauss_hermite_grid(M or default_nodes(d), d,
                              center=math.sqrt(2.0) * zz.real, scale=math.sqrt(2.0))

    def integrand(y):
        return _check_finite(bargmann_kernel(zz[np.newaxis, :], y) * np.asarray(f(y), dtype=complex))

    return grid.integrate(integrand)


def gaussian_window(y: np.ndarray) -> np.ndarray:
    """The normalized Gaussian window pi^(-d/4) exp(-|y|^2 / 2)."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y.reshape(-1, 1)
    d = y.shape[-1]
    return math.pi ** (-d / 4.0) * np.exp(-0.5 * np.sum(y * y, axis=-1))


def stft_gaussian_quad(f: Callable, x, xi, M: int | None = None) -> complex:
    """Short-time Fourier transform with the Gaussian window.

    (2 pi)^(-d/2) integral f(y) conj(window(y - x)) exp(-i <y, xi>) dy,
    recentered at y = x.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    xiv = np.atleast_1d(np.asarray(xi, dtype=float))
    if xv.shape != xiv.shape:
        raise DimensionMismatch("x and xi must have the same dimension")
    d = xv.shape[0]
    grid = gauss_hermite_grid(M or default_nodes(d), d, center=xv, scale=math.sqrt(2.0))

    def integrand(y):
        phase = np.exp(-1j * np.sum(y * xiv[np.newaxis, :], axis=-1))
        return _check_finite(np.asarray(f(y), dtype=complex) * gaussian_window(y - xv[np.newaxis, :]) * phase)

    return grid.integrate(integrand) * (2.0 * math.pi) ** (-d / 2.0)


def uv_map(F_value: complex, x, xi) -> complex:
    """Phase-space-to-complex change of picture, applied pointwise.

    Returns (2 pi)^(d/2) exp((|x|^2 + |xi|^2)/2) exp(-i <x, xi>) * F_value,
    where the caller supplies F_value = F(sqrt(2) x, -sqrt(2) xi).
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    xiv = np.atleast_1d(np.asarray(xi, dtype=float))
    d = xv.shape[0]
    pref = (2.0 * math.pi) ** (d / 2.0) * math.exp(0.5 * (np.dot(xv, xv) + np.dot(xiv, xiv)))
    return pref * cmath.exp(-1j * float(np.dot(xv, xiv))) * F_value


def uv_inv(F: Callable, x, xi) -> complex:
    """Inverse change of picture: evaluates F at (x - i xi)/sqrt(2) with its prefactor."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    xiv = np.atleast_1d(np.asarray(xi, dtype=float))
    d = xv.shape[0]
    pref = (2.0 * math.pi) ** (-d / 2.0) * math.exp(-0.25 * (np.dot(xv, xv) + np.dot(xiv, xiv)))
    z = (xv - 1j * xiv) / math.sqrt(2.0)
    return pref * cmath.exp(-0.5j * float(np.dot(xv, xiv))) * complex(F(z))


def _stft_basis_values(rows: np.ndarray, xs: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """Closed-form window transforms of the Hermite basis, one multi-index per row
    of ``rows``, on phase-space points."""
    d = xs.shape[-1]
    pref = (2.0 * math.pi) ** (-d / 2.0) * np.exp(
        -0.25 * (np.sum(xs * xs, axis=-1) + np.sum(xis * xis, axis=-1))
    ) * np.exp(-0.5j * np.sum(xs * xis, axis=-1))
    zpts = (xs - 1j * xis) / math.sqrt(2.0)
    return pref * _basis_rows(rows, rows.max(axis=0).tolist(), zpts)


def toeplitz_matrix_quad(symbol: Callable, N: int, M: int | None = None, d: int = 1) -> OperatorMatrix:
    """Localization-operator matrix in the Hermite basis by phase-space quadrature.

    M(j, k) = integral symbol(x, xi) V_k(x, xi) conj(V_j(x, xi)) dx dxi with
    V_k the window transform of the k-th Hermite function, evaluated in
    closed form.
    """
    if d > MAX_COMPLEX_DIM:
        raise PreconditionError(f"toeplitz quadrature limited to d <= {MAX_COMPLEX_DIM}")
    grid = gauss_hermite_grid(M or default_nodes(2 * d), 2 * d, scale=math.sqrt(2.0))
    index = enumerate_degree(d, N)
    rows = np.array(index)
    mat = np.zeros((len(index), len(index)), dtype=complex)
    for nodes, _, flat in grid.blocks():
        xs, xis = nodes[:, :d], nodes[:, d:]
        V = _stft_basis_values(rows, xs, xis)
        sym = _check_finite(np.asarray(symbol(xs, xis), dtype=complex))
        mat += (V * (flat * sym)[np.newaxis, :]) @ V.conj().T
    return OperatorMatrix(N, d, index, mat.T)


# ---------------------------------------------------------------------------
# composition and the rank-one fixture
# ---------------------------------------------------------------------------

def twisted_product_quad(a1, a2, z, w, M: int | None = None, d: int | None = None) -> complex:
    """Integral form of the symbol composition.

    pi^(-d) integral a1(z, u) a2(u, w) exp(-(z - u, w - u)) dlambda(u),
    recentered at (z + w)/2.
    """
    d = _dim(d, a1)
    zz = _as_cvector(z, d)
    ww = _as_cvector(w, d)
    f1, f2 = _as_fn(a1, KernelCoeffs, eval_kernel), _as_fn(a2, KernelCoeffs, eval_kernel)
    return _recentred_integral(lambda u: f1(zz, u) * np.asarray(f2(u, ww), dtype=complex), d, zz, ww, M)


def rank_one_check(alpha: Sequence[int], beta: Sequence[int], t: complex, z, w,
                   M: int | None = None) -> dict:
    """Both sides of the rank-one smoothing identity for basis symbols.

    lhs: pi^(-d) integral e_alpha(t0 w1) e_beta(t0 conj(w1)) exp(-(z-w1, w-w1)) dlambda(w1)
    rhs: sum_{g <= alpha, beta} sqrt(C(alpha,g) C(beta,g)) t^|g|
         e_{alpha-g}(t0 z) e_{beta-g}(t0 conj(w)),
    with t0 the principal square root of t.  Exact agreement is the
    numerical pin for the argument convention of the dual transition.
    """
    a = validate_index(alpha)
    b = validate_index(beta)
    if len(a) != len(b):
        raise DimensionMismatch("alpha and beta must share a dimension")
    if t == 0:
        raise PreconditionError("t must be nonzero")
    d = len(a)
    t0c = cmath.sqrt(t)
    zz = _as_cvector(z, d)
    ww = _as_cvector(w, d)
    lhs = _recentred_integral(lambda w1: eval_basis(a, t0c * w1) * eval_basis(b, t0c * np.conj(w1)), d, zz, ww, M)

    rhs = 0.0 + 0.0j
    gmax = tuple(min(ai, bi) for ai, bi in zip(a, b))
    tz = t0c * zz
    tw = t0c * np.conj(ww)
    tpow = [complex(1.0)]
    for _ in range(total_degree(gmax)):
        tpow.append(tpow[-1] * t)
    for g in itertools.product(*(range(m + 1) for m in gmax)):
        weight = math.sqrt(multi_binomial(a, g) * multi_binomial(b, g)) * tpow[total_degree(g)]
        ag = tuple(ai - gi for ai, gi in zip(a, g))
        bg = tuple(bi - gi for bi, gi in zip(b, g))
        rhs += weight * eval_basis(ag, tz) * eval_basis(bg, tw)
    return {"lhs": lhs, "rhs": complex(rhs)}
