"""Weight families and diagnostics for the coefficient-space hierarchy.

The growth order of a sequence space is indexed by the extended set
{zero} u (0, inf) u {flat(sigma): sigma > 0} u {inf}, ordered so that every
real order below 1/2 precedes every flat order, flat orders are ordered by
sigma, and every flat order precedes the real orders at or above 1/2.

Membership in the spaces built from these weights is an asymptotic notion;
at a fixed truncation only a diagnostic is possible.  :func:`classify`
therefore fits constants on a radius grid and reports trends, never
membership proper.  It and :func:`weighted_norm` with a ``WeightSpec`` read
the index arrays and share one weight evaluator, ``_log_theta``; only a
callable weight is handed the keys of ``entries``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import total_ordering
from typing import Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, PreconditionError
from .multiindex import log_multi_factorial, total_degree
from .series import KernelCoeffs, SeriesCoeffs


@total_ordering
class GrowthOrder:
    """Element of the extended order scale: zero, real(s), flat(sigma) or infinity."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: float | None = None):
        if kind not in ("zero", "real", "flat", "inf"):
            raise ValueError(f"unknown growth order kind {kind!r}")
        if kind in ("real", "flat"):
            if value is None or not 0 < value < math.inf:
                raise ValueError(f"{kind} order requires a finite positive parameter")
            value = float(value)
        else:
            value = None
        self.kind = kind
        self.value = value

    @classmethod
    def zero(cls) -> "GrowthOrder":
        return cls("zero")

    @classmethod
    def real(cls, s: float) -> "GrowthOrder":
        return cls("real", s)

    @classmethod
    def flat(cls, sigma: float) -> "GrowthOrder":
        return cls("flat", sigma)

    @classmethod
    def infinity(cls) -> "GrowthOrder":
        return cls("inf")

    @classmethod
    def parse(cls, text: str) -> "GrowthOrder":
        """Parse "zero", "inf", "real:<s>" or "flat:<sigma>"."""
        t = text.strip().lower()
        if t == "zero":
            return cls.zero()
        if t in ("inf", "infinity"):
            return cls.infinity()
        if ":" in t:
            kind, _, val = t.partition(":")
            if kind in ("real", "flat"):
                try:
                    value = float(val)
                except ValueError:
                    raise ValueError(f"cannot parse growth order {text!r}: {val!r} is not a number") from None
                return cls(kind, value)
        raise ValueError(f"cannot parse growth order {text!r}")

    def _sort_key(self) -> Tuple[int, float]:
        if self.kind == "zero":
            return (0, 0.0)
        if self.kind == "real":
            return (1, self.value) if self.value < 0.5 else (3, self.value)
        if self.kind == "flat":
            return (2, self.value)
        return (4, 0.0)

    def __eq__(self, other) -> bool:
        return isinstance(other, GrowthOrder) and self.kind == other.kind and self.value == other.value

    def __lt__(self, other) -> bool:
        if not isinstance(other, GrowthOrder):
            return NotImplemented
        return self._sort_key() < other._sort_key()

    def __hash__(self) -> int:
        return hash((self.kind, self.value))

    def __repr__(self) -> str:
        if self.value is None:
            return self.kind
        return f"{self.kind}:{self.value:g}"


@dataclass(frozen=True)
class WeightSpec:
    """A single-radius index weight: order plus radius r > 0."""

    order: GrowthOrder
    r: float

    def __post_init__(self):
        if not (self.r > 0):
            raise ValueError("radius r must be positive")


def _log_theta(order: GrowthOrder, r: float, n, log_fact):
    """log theta_{r,order} of an index of total degree n and log(alpha!) = log_fact, on
    scalars and arrays alike; +inf encodes the infinite branch of the zero order."""
    if order.kind == "real":  # libm's power once per distinct degree, as numpy's may differ in the last bit
        degrees, at = np.unique(n, return_inverse=True)
        return r * np.array([k ** (1.0 / (2.0 * order.value)) for k in degrees.tolist()])[at].reshape(np.shape(n))
    if order.kind == "flat":
        return n * math.log(r) + log_fact / (2.0 * order.value)
    if order.kind == "inf":
        return 0.5 * r * np.log1p(n * n)
    # zero order: indicator of |alpha| <= r (finite at equality)
    return np.where(n <= r, 0.0, math.inf)


def log_theta_weight(w: WeightSpec, alpha: Sequence[int]) -> float:
    """log of the index weight; +inf encodes the infinite branch of the zero order."""
    return float(_log_theta(w.order, w.r, total_degree(alpha), log_multi_factorial(alpha)))


def _exp(x: float) -> float:
    """exp(x), or +inf where it leaves float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _pow(x: float, p: float) -> float:
    """x ** p for x >= 0, or +inf where it leaves float range."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


def theta_weight(w: WeightSpec, alpha: Sequence[int]) -> float:
    """Index weight value; may overflow to +inf for extreme parameters by design."""
    return _exp(log_theta_weight(w, alpha))


def log_omega_weight(
    s1: GrowthOrder, s2: GrowthOrder, r1: float, r2: float,
    alpha2: Sequence[int], alpha1: Sequence[int],
) -> float:
    num = log_theta_weight(WeightSpec(s2, r2), alpha2)
    den = log_theta_weight(WeightSpec(s1, r1), alpha1)
    if math.isinf(num) or math.isinf(den):
        raise DomainError("mixed weight undefined: infinite factor")
    return num - den


def omega_weight(
    s1: GrowthOrder, s2: GrowthOrder, r1: float, r2: float,
    alpha2: Sequence[int], alpha1: Sequence[int],
) -> float:
    """Quotient weight theta_{r2,s2}(alpha2) / theta_{r1,s1}(alpha1); +inf past float range."""
    return _exp(log_omega_weight(s1, s2, r1, r2, alpha2, alpha1))


def kappa_weight(kind: int, zero_variant: bool, r: float, s: GrowthOrder, z) -> float:
    """Pointwise radial growth envelope on C^d, evaluated at |z|.

    kind 1 bounds kernels of operators acting on the small spaces, kind 2
    the dual direction; the zero variant replaces the s = 1/2 case by
    exp(r |z|^2).  Returns +inf past float range.
    """
    if kind not in (1, 2):
        raise PreconditionError(f"kind must be 1 or 2, got {kind}")
    if not (r > 0):
        raise PreconditionError("r must be positive")
    az = math.hypot(*np.abs(np.atleast_1d(np.asarray(z, dtype=complex))).tolist())
    bracket = math.hypot(1.0, az)

    if zero_variant and s.kind == "real" and s.value == 0.5:
        return _exp(r * az * az)

    if s.kind == "real":
        sv = s.value
        if sv < 0.5:
            if kind == 2:
                raise PreconditionError("kind-2 envelope undefined for real orders below 1/2")
            return _exp(r * _pow(math.log(bracket), 1.0 / (1.0 - 2.0 * sv)))
        # |z|^2 / 2 -+ r |z|^p with p = 1/s <= 2, as |z|^p (|z|^(2-p) / 2 -+ r): never inf - inf
        p = 1.0 / sv
        lead = 0.5 * _pow(az, 2.0 - p) + (-r if kind == 1 else r)
        return _exp(_pow(az, p) * lead) if lead else 1.0
    if s.kind == "flat":
        sigma = s.value
        if kind == 1:
            return _exp(r * _pow(az, 2.0 * sigma / (sigma + 1.0)))
        if sigma <= 1.0:
            raise PreconditionError("kind-2 envelope requires flat order sigma > 1")
        return _exp(r * _pow(az, 2.0 * sigma / (sigma - 1.0)))
    if s.kind == "inf":
        expo = -r if kind == 1 else r
        return _exp(0.5 * az * az + expo * math.log(bracket))
    raise PreconditionError("envelope undefined for the zero order")


# ---------------------------------------------------------------------------
# weighted norms
# ---------------------------------------------------------------------------

def _log_norm(logs, p: float) -> float:
    """log of the l^p norm of exp(logs); p = inf gives the max, no entries -inf.

    Entries of -inf add nothing and an entry of +inf makes the norm +inf.
    """
    logs = np.asarray(logs, dtype=float)
    m = float(np.maximum.reduce(logs, initial=-math.inf))
    if p == math.inf or math.isinf(m):
        return m
    return m + math.log(float(np.add.reduce(np.exp(p * (logs - m))))) / p


def weighted_norm(c: Union[SeriesCoeffs, KernelCoeffs], weight, p: float) -> float:
    """l^p norm of the weighted entries; p = inf gives the weighted sup.

    Weights are combined in log space so factorial-type weights stay usable
    up to total degree 64 without overflow.  A ``WeightSpec`` weighs the
    indices of a series, all at once; a callable weight is called on each key
    of ``entries`` of a series or a kernel, in order.  An infinite weight
    meeting a nonzero entry raises DomainError.
    """
    if not (p > 0):
        raise ValueError("p must lie in (0, inf]")
    index, values = c.arrays()
    if isinstance(weight, WeightSpec):
        if not isinstance(c, SeriesCoeffs):
            raise TypeError("a WeightSpec weighs series indices; weigh a kernel with a callable")
        lw = _log_theta(weight.order, weight.r, index.sum(axis=1, dtype=float), _log_factorials(index))
        infinite = np.flatnonzero(np.isinf(lw))
        if len(infinite):
            raise DomainError(f"infinite weight on support at {tuple(index[infinite[0]].tolist())}")
    elif callable(weight):
        lw = []
        for key in c.entries:
            v = weight(key)
            if not (v > 0):
                raise DomainError(f"weight must be positive, got {v!r} at {key}")
            if v == math.inf:
                raise DomainError(f"infinite weight on support at {key}")
            lw.append(math.log(v))
    else:
        raise TypeError("weight must be a WeightSpec or a callable on index keys")
    log_c = list(map(math.log, np.hypot(values.real, values.imag).tolist()))  # libm's log(abs(v)), as per key
    return _exp(_log_norm(np.add(log_c, lw), p))


# ---------------------------------------------------------------------------
# space specifications and the classification diagnostic
# ---------------------------------------------------------------------------

# family -> (radius pattern, outer radius role, weight sign)
#   pattern "exists"/"forall": single-radius families (weight theta or 1/theta)
#   pattern "forall-exists"/"exists-forall": two-radius families on the
#   quotient weight; outer role names which of (r1, r2) carries the outer
#   quantifier.  sign +1 uses the weight itself, -1 its reciprocal.
_FAMILIES: Dict[str, Tuple[str, str, int]] = {
    "A": ("exists", "r", +1),
    "A0": ("forall", "r", +1),
    "Adual": ("forall", "r", -1),
    "A0dual": ("exists", "r", -1),
    "B": ("forall-exists", "r1", +1),
    "B0": ("forall-exists", "r2", +1),
    "Bstar": ("forall-exists", "r2", -1),
    "B0star": ("forall-exists", "r1", -1),
    "C": ("exists-forall", "r1", +1),
    "C0": ("exists-forall", "r2", +1),
    "Cstar": ("exists-forall", "r2", -1),
    "C0star": ("exists-forall", "r1", -1),
}

_POSITIVE_ORDER_FAMILIES = {"A0", "A0dual", "B0", "B0star", "C0", "C0star"}


@dataclass(frozen=True)
class SpaceSpec:
    """A space family together with its pair of growth orders."""

    family: str
    s1: GrowthOrder
    s2: GrowthOrder

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise PreconditionError(f"unknown family {self.family!r}; choose from {sorted(_FAMILIES)}")
        if self.family in _POSITIVE_ORDER_FAMILIES:
            if self.s1.kind == "zero" or self.s2.kind == "zero":
                raise PreconditionError(f"family {self.family} requires positive growth orders")

    def label(self) -> str:
        return f"{self.family}({self.s1!r},{self.s2!r})"


@dataclass
class DiagnosticReport:
    """Finite-truncation diagnostic: fitted constants on a radius grid plus a verdict."""

    space: SpaceSpec
    truncation: int
    r_grid: List[float]
    fitted_constants: Dict[Tuple[float, ...], float]
    verdict: str
    minimal_inner: Dict[float, float | None] = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        constants = []
        for key, v in sorted(self.fitted_constants.items()):
            rec: dict = {"constant": v if math.isfinite(v) else None}
            if len(key) == 1:
                rec["r"] = key[0]
            else:
                rec["r_outer"], rec["r_inner"] = key
            constants.append(rec)
        return {
            "space": self.space.label(),
            "truncation": self.truncation,
            "r_grid": list(self.r_grid),
            "constants": constants,
            "minimal_inner": {str(k): v for k, v in sorted(self.minimal_inner.items())},
            "verdict": self.verdict,
        }

    def csv_rows(self) -> List[str]:
        rows = ["r,constant"]
        for key, v in sorted(self.fitted_constants.items()):
            label = key[0] if len(key) == 1 else f"{key[0]}:{key[1]}"
            rows.append(f"{label},{v if math.isfinite(v) else 'inf'}")
        return rows


def _log_factorials(idx: np.ndarray) -> np.ndarray:
    """log(alpha!) of each row of an index array, one lgamma per distinct component."""
    vals, inv = np.unique(idx, return_inverse=True)
    return np.array([math.lgamma(v + 1.0) for v in vals.tolist()])[inv].reshape(idx.shape).sum(axis=1)


def _degree_profile(logs: np.ndarray, groups: List[Tuple[int, slice]], p: float) -> Tuple[Dict[int, float], float]:
    """Per-total-degree log masses and the overall fitted log constant.

    ``logs`` holds log|c| plus the log weight of every entry, sorted by total
    degree, and ``groups`` pairs each degree with its slice.  A log weight of
    -inf means the entry is annihilated (weight zero): it adds nothing, and a
    degree left without entries has no mass.  +inf means an infinite
    weighted entry and poisons the constant.
    """
    masses = {n: _log_norm(logs[sl], p) for n, sl in groups}
    masses = {n: m for n, m in masses.items() if m > -math.inf}
    return masses, _log_norm(list(masses.values()), p)


def _is_divergent(masses: Dict[int, float]) -> bool:
    """Degree-trend heuristic: weighted masses growing strictly into the truncation edge."""
    if any(math.isinf(v) for v in masses.values()):
        return True
    degrees = sorted(masses)
    if len(degrees) < 3:
        return False
    tail = degrees[len(degrees) // 2:]
    if len(tail) < 3:
        tail = degrees[-3:]
    vals = [masses[n] for n in tail]
    increasing = all(b > a for a, b in zip(vals, vals[1:]))
    return increasing and (vals[-1] - vals[0]) > math.log(1.5)


def classify(c: KernelCoeffs, space: SpaceSpec, r_grid: Sequence[float]) -> DiagnosticReport:
    """Heuristic membership diagnostic on a radius grid.

    For each value of the outer-quantified radius the report records the
    fitted sup constant (or l^2 constant for infinite orders) and, for
    forall/exists patterns, the minimal inner radius whose constant stays
    within 10x the median.  The verdict is Consistent when the quantifier
    pattern can be satisfied on the grid, Inconsistent when the weighted
    masses diverge monotonically for every grid combination, and
    Indeterminate otherwise.  Scaling c by a nonzero scalar leaves the
    verdict unchanged.
    """
    grid = sorted(float(r) for r in r_grid)
    if not grid or not all(0 < r < math.inf for r in grid):
        raise PreconditionError("r_grid must be a non-empty list of finite positive radii")
    truncation = c.support_degree()
    if not len(c):
        return DiagnosticReport(space, truncation, grid, {}, "Consistent")

    pattern, outer_role, sign = _FAMILIES[space.family]
    s1, s2 = space.s1, space.s2

    # infinite-order endpoints carry the fixed p = 2 convention
    p = 2.0 if (s1.kind == "inf" or s2.kind == "inf") else math.inf

    # a weight depends on an index only through |alpha| and log(alpha!): form
    # those once, sorted by total degree; each radius pair is then one array
    # expression.  alpha carries s2, beta carries s1.
    index, values = c.arrays()
    alpha, beta = index[:, :c.d2], index[:, c.d2:]
    n2, n1 = alpha.sum(axis=1, dtype=float), beta.sum(axis=1, dtype=float)  # n * n stays exact below 2^53
    order = np.argsort(n2 + n1, kind="stable")
    n2, n1 = n2[order], n1[order]
    lf2, lf1 = _log_factorials(alpha)[order], _log_factorials(beta)[order]
    log_c = np.log(np.abs(values))[order]
    degrees, starts = np.unique(n2 + n1, return_index=True)
    groups = [(int(n), slice(a, b)) for n, a, b in zip(degrees, starts, [*starts[1:], len(values)])]

    pair = pattern not in ("exists", "forall")
    if pair:
        combos = {(ro, ri): (ro, ri) if outer_role == "r1" else (ri, ro) for ro in grid for ri in grid}
    else:
        combos = {(r,): (r, r) for r in grid}
    constants: Dict[Tuple[float, ...], float] = {}
    divergent: Dict[Tuple[float, ...], bool] = {}
    with np.errstate(over="raise"):  # a log weight past float range raises, as in scalar code
        for key, (r1, r2) in combos.items():
            num, den = _log_theta(s2, r2, n2, lf2), _log_theta(s1, r1, n1, lf1)
            both = np.isinf(num) & np.isinf(den)
            den = np.where(both, 0.0, den)  # keeps inf - inf out of the quotient
            lw = sign * (num - den if pair else num + den)
            if pair:
                lw[both] = math.inf  # indeterminate quotient: fail the radius loudly
            masses, constants[key] = _degree_profile(log_c + lw, groups, p)
            divergent[key] = _is_divergent(masses)

    fitted = {k: _exp(v) for k, v in constants.items()}
    finite_vals = [v for v in fitted.values() if math.isfinite(v)]
    threshold = 10.0 * float(np.median(finite_vals)) if finite_vals else math.inf

    def within_cap(key: Tuple[float, ...]) -> bool:
        return fitted[key] <= threshold

    def passes(key: Tuple[float, ...]) -> bool:
        return (not divergent[key]) and within_cap(key)

    # reported inner radii use the constant cap alone; the verdict additionally
    # vetoes radius combinations whose degree trend diverges
    minimal_inner: Dict[float, float | None] = {}
    if pair:
        minimal_inner = {ro: min((ri for ri in grid if within_cap((ro, ri))), default=None) for ro in grid}
    if pattern == "exists":
        consistent = any(passes(k) for k in constants)
    elif pattern == "forall":
        consistent = all(passes(k) for k in constants)
    elif pattern == "forall-exists":
        consistent = all(any(passes((ro, ri)) for ri in grid) for ro in grid)
    else:  # exists-forall
        consistent = any(all(passes((ro, ri)) for ri in grid) for ro in grid)

    if consistent:
        verdict = "Consistent"
    elif all(divergent.values()):
        verdict = "Inconsistent"
    else:
        verdict = "Indeterminate"
    return DiagnosticReport(space, truncation, grid, fitted, verdict, minimal_inner)


def verify_pointwise_bound(f: Callable, bound: Callable, grid: Sequence, cap: float | None = None) -> dict:
    """Fit the constant in |f| <= C * bound over a point grid.

    Returns the maximal ratio and the grid points whose ratio exceeds
    ``cap`` (default: ten times the median ratio).  Non-finite evaluator
    output raises DomainError.
    """
    if not len(grid):
        raise PreconditionError("grid must be non-empty")
    ratios = []
    for pt in grid:
        fv = f(*pt) if isinstance(pt, tuple) else f(pt)
        bv = bound(*pt) if isinstance(pt, tuple) else bound(pt)
        if not np.isfinite(fv):
            raise DomainError(f"evaluator returned non-finite value at {pt!r}")
        if not (bv > 0) or not np.isfinite(bv):
            raise DomainError(f"bound must be finite and positive, got {bv!r} at {pt!r}")
        ratios.append(abs(fv) / bv)
    limit = cap if cap is not None else 10.0 * float(np.median(ratios))
    violations = [(pt, r) for pt, r in zip(grid, ratios) if r > limit]
    return {"constant": max(ratios), "violations": violations}
