"""Coefficient file I/O.

Shared JSON schema for series and kernels:

    {"kind": "series", "d": 1, "max_degree": N,
     "entries": [{"alpha": [...], "re": x, "im": y}, ...]}

    {"kind": "kernel", "d2": 1, "d1": 1, "max_degree": N,
     "entries": [{"alpha": [...], "beta": [...], "re": x, "im": y}, ...]}

Entries are written in canonical (degree, lexicographic) order and
max_degree always equals the support degree, so serialization is
deterministic and round trips byte-identically.  The text is byte for byte
what ``json.dump(doc, fh, indent=2)`` followed by a newline writes; it is
formatted from one ``%`` template per entry shape and written in blocks of
_BLOCK entries.  The reader parses with ``json.load`` and checks the entries
field by field over all of them at once, then builds the container from
arrays.
"""

from __future__ import annotations

import json
import sys
from itertools import chain
from typing import Iterator, Union

import numpy as np

from .errors import SchemaError
from .series import KernelCoeffs, SeriesCoeffs, _first_seen

Coeffs = Union[SeriesCoeffs, KernelCoeffs]

_BLOCK = 1024  # entries formatted and written at a time


def _check_index(raw, d: int, max_degree: int, what: str) -> None:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{what} must be a non-empty list of integers")
    for a in raw:
        if not isinstance(a, int) or isinstance(a, bool) or a < 0:
            raise SchemaError(f"{what} entries must be non-negative integers, got {raw!r}")
    if len(raw) != d:
        raise SchemaError(f"{what} {raw!r} has dimension {len(raw)}, expected {d}")
    if sum(raw) > max_degree:
        raise SchemaError(f"{what} {raw!r} exceeds declared max_degree {max_degree}")


def _check_value(re, im) -> None:
    # JSON numbers only (bool is not one); the comparison rejects NaN, infinities
    # and integers past float range
    if type(re) not in (int, float) or type(im) not in (int, float) or not (
            abs(re) <= sys.float_info.max and abs(im) <= sys.float_info.max):
        raise SchemaError(f"entry fields 're'/'im' must be finite numbers, got {re!r}, {im!r}")


def _get_dim(doc: dict, field: str) -> int:
    v = doc.get(field)
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise SchemaError(f"field {field!r} must be a positive integer")
    return v


def _index_column(raws: list, d: int, max_degree: int, what: str) -> np.ndarray:
    """One index field of every entry as an int64 array of shape (len(raws), d).

    The rules of _check_index are tested over all entries at once; where one
    fails, _check_index names the first offending entry.
    """
    index = None
    if (all(issubclass(t, list) for t in set(map(type, raws))) and set(map(len, raws)) <= {d}
            and all(issubclass(t, int) and not issubclass(t, bool)
                    for t in set(map(type, chain.from_iterable(raws))))
            and max(map(sum, raws), default=0) <= max_degree):
        try:
            index = np.fromiter(chain.from_iterable(raws), np.int64, count=len(raws) * d).reshape(len(raws), d)
        except OverflowError:
            pass
    if index is None or index.min(initial=0) < 0:
        for raw in raws:
            _check_index(raw, d, max_degree, what)
        # only reachable when max_degree itself is 2**63 or more
        raise SchemaError(f"{what} components must be below 2**63")
    return index


def coeffs_from_jsonable(doc) -> Coeffs:
    if not isinstance(doc, dict):
        raise SchemaError("coefficient document must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("series", "kernel"):
        raise SchemaError(f"field 'kind' must be 'series' or 'kernel', got {kind!r}")
    max_degree = doc.get("max_degree")
    if not isinstance(max_degree, int) or isinstance(max_degree, bool) or max_degree < 0:
        raise SchemaError("field 'max_degree' must be a non-negative integer")
    recs = doc.get("entries")
    if not isinstance(recs, list):
        raise SchemaError("field 'entries' must be a list")

    if kind == "series":
        cls, dims, names = SeriesCoeffs, [_get_dim(doc, "d")], ("alpha",)
    else:
        cls, dims, names = KernelCoeffs, [_get_dim(doc, "d2"), _get_dim(doc, "d1")], ("alpha", "beta")
    if not all(issubclass(t, dict) for t in set(map(type, recs))):
        raise SchemaError("entries must be objects")
    index = np.hstack([_index_column([rec.get(name) for rec in recs], dim, max_degree, name)
                       for name, dim in zip(names, dims)])

    dup = np.flatnonzero(_first_seen(index) != np.arange(len(index)))
    if len(dup):
        rec = recs[int(dup[0])]
        key = tuple(tuple(rec[name]) for name in names)
        raise SchemaError(f"duplicate index {key if len(key) > 1 else key[0]}")

    res, ims = ([rec.get(f, 0.0) for rec in recs] for f in ("re", "im"))
    parts = res + ims
    if not (set(map(type, parts)) <= {int, float}
            and all(map(sys.float_info.max.__ge__, map(abs, parts)))):
        for re, im in zip(res, ims):
            _check_value(re, im)
    values = np.empty(len(recs), dtype=complex)
    values.real, values.imag = res, ims
    return cls._from_arrays(*dims, index, values)


def _template(fields) -> str:
    """One entry as json.dump(indent=2) writes it inside "entries": %d per
    index component and %r (float.__repr__, as json uses) per value."""
    lines = ["    {"]
    for name, dim in fields:
        lines += [f'      "{name}": [', ",\n".join(["        %d"] * dim), "      ],"]
    lines += ['      "re": %r,', '      "im": %r', "    }"]
    return "\n".join(lines)


def _chunks(c: Coeffs) -> Iterator[str]:
    """The file text of c in pieces: the head, blocks of _BLOCK entries, the tail."""
    if isinstance(c, SeriesCoeffs):
        dims, fields = {"kind": "series", "d": c.d}, [("alpha", c.d)]
    elif isinstance(c, KernelCoeffs):
        dims, fields = {"kind": "kernel", "d2": c.d2, "d1": c.d1}, [("alpha", c.d2), ("beta", c.d1)]
    else:
        raise TypeError(f"cannot serialize {type(c)!r}")
    head = json.dumps({**dims, "max_degree": c.support_degree(), "entries": []}, indent=2)
    index, values = c.arrays()
    if not len(values):
        yield head + "\n"
        return
    # canonical order: (|alpha|, alpha, |beta|, beta)
    parts = [index[:, s] for s in c._spans()]
    order = np.lexsort([k for p in parts for k in (p.sum(axis=1), *p.T)][::-1])
    # one row of Python ints and floats per entry; -0.0 is written as 0.0
    table = np.empty((len(order), index.shape[1] + 2), dtype=object)
    table[:, :-2] = index[order]
    table[:, -2], table[:, -1] = (np.where(x == 0, 0.0, x) for x in (values.real[order], values.imag[order]))
    yield head[:-len("]\n}")] + "\n"
    entry = _template(fields)
    block = ",\n".join([entry] * _BLOCK)
    for s in range(0, len(table), _BLOCK):
        rows = table[s:s + _BLOCK]
        text = block if len(rows) == _BLOCK else ",\n".join([entry] * len(rows))
        yield ("" if s == 0 else ",\n") + text % tuple(rows.ravel().tolist())
    yield "\n  ]\n}\n"


def coeffs_to_jsonable(c: Coeffs) -> dict:
    """The document that save_coeffs writes for c."""
    return json.loads("".join(_chunks(c)))


def load_coeffs(path: str) -> Coeffs:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return coeffs_from_jsonable(doc)


def save_coeffs(c: Coeffs, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_chunks(c))
