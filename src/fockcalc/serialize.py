"""Coefficient file I/O.

Shared JSON schema for series and kernels:

    {"kind": "series", "d": 1, "max_degree": N,
     "entries": [{"alpha": [...], "re": x, "im": y}, ...]}

    {"kind": "kernel", "d2": 1, "d1": 1, "max_degree": N,
     "entries": [{"alpha": [...], "beta": [...], "re": x, "im": y}, ...]}

Entries are written in canonical (degree, lexicographic) order and
max_degree always equals the support degree, so serialization is
deterministic and round trips byte-identically.
"""

from __future__ import annotations

import json
import sys
from typing import Union

import numpy as np

from .errors import SchemaError
from .series import KernelCoeffs, SeriesCoeffs

Coeffs = Union[SeriesCoeffs, KernelCoeffs]


def _check_index(raw, d: int, max_degree: int, what: str) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{what} must be a non-empty list of integers")
    for a in raw:
        if not isinstance(a, int) or isinstance(a, bool) or a < 0:
            raise SchemaError(f"{what} entries must be non-negative integers, got {raw!r}")
    if len(raw) != d:
        raise SchemaError(f"{what} {raw!r} has dimension {len(raw)}, expected {d}")
    if sum(raw) > max_degree:
        raise SchemaError(f"{what} {raw!r} exceeds declared max_degree {max_degree}")
    return tuple(raw)


def _get_dim(doc: dict, field: str) -> int:
    v = doc.get(field)
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise SchemaError(f"field {field!r} must be a positive integer")
    return v


def coeffs_from_jsonable(doc) -> Coeffs:
    if not isinstance(doc, dict):
        raise SchemaError("coefficient document must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("series", "kernel"):
        raise SchemaError(f"field 'kind' must be 'series' or 'kernel', got {kind!r}")
    max_degree = doc.get("max_degree")
    if not isinstance(max_degree, int) or isinstance(max_degree, bool) or max_degree < 0:
        raise SchemaError("field 'max_degree' must be a non-negative integer")
    raw_entries = doc.get("entries")
    if not isinstance(raw_entries, list):
        raise SchemaError("field 'entries' must be a list")

    def value_of(rec) -> complex:
        re, im = rec.get("re", 0.0), rec.get("im", 0.0)
        # JSON numbers only (bool is not one); the comparison rejects NaN, infinities
        # and integers past float range
        if type(re) not in (int, float) or type(im) not in (int, float) or not (
                abs(re) <= sys.float_info.max and abs(im) <= sys.float_info.max):
            raise SchemaError(f"entry fields 're'/'im' must be finite numbers, got {re!r}, {im!r}")
        return complex(re, im)

    dims = (_get_dim(doc, "d"),) if kind == "series" else (_get_dim(doc, "d2"), _get_dim(doc, "d1"))
    entries = {}
    for rec in raw_entries:
        if not isinstance(rec, dict):
            raise SchemaError("entries must be objects")
        key = _check_index(rec.get("alpha"), dims[0], max_degree, "alpha")
        if kind == "kernel":
            key = (key, _check_index(rec.get("beta"), dims[1], max_degree, "beta"))
        if key in entries:
            raise SchemaError(f"duplicate index {key}")
        entries[key] = value_of(rec)
    return SeriesCoeffs(*dims, entries) if kind == "series" else KernelCoeffs(*dims, entries)


def coeffs_to_jsonable(c: Coeffs) -> dict:
    if isinstance(c, SeriesCoeffs):
        head, split = {"kind": "series", "d": c.d}, c.d
    elif isinstance(c, KernelCoeffs):
        head, split = {"kind": "kernel", "d2": c.d2, "d1": c.d1}, c.d2
    else:
        raise TypeError(f"cannot serialize {type(c)!r}")
    index, values = c.arrays()
    # canonical order: (|alpha|, alpha, |beta|, beta); a series has no beta columns
    parts = [p for p in (index[:, :split], index[:, split:]) if p.shape[1]]
    order = np.lexsort([k for p in parts for k in (p.sum(axis=1), *p.T)][::-1])
    alphas = parts[0][order].tolist()
    # -0.0 is written as 0.0
    re, im = (np.where(x == 0, 0.0, x).tolist() for x in (values.real[order], values.imag[order]))
    if len(parts) == 1:
        entries = [{"alpha": a, "re": x, "im": y} for a, x, y in zip(alphas, re, im)]
    else:
        betas = parts[1][order].tolist()
        entries = [{"alpha": a, "beta": b, "re": x, "im": y} for a, b, x, y in zip(alphas, betas, re, im)]
    return {**head, "max_degree": c.support_degree(), "entries": entries}


def load_coeffs(path: str) -> Coeffs:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return coeffs_from_jsonable(doc)


def save_coeffs(c: Coeffs, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(coeffs_to_jsonable(c), fh, indent=2)
        fh.write("\n")
