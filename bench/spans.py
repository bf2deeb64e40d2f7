"""Span tracing from outside the program, for the benchmark's traced run.

``install`` replaces selected public functions of each fockcalc module with
wrappers that record one span per call: name ``<layer>.<function>``, job id,
parent span, start and end.  A function is replaced in its own module and in
every fockcalc module that imported it by name, so a call that crosses a
layer boundary inside the program (``cli`` calling ``t0``, ``quadrature``
calling ``eval_kernel``) is attributed to the layer that does the work.  The
two container classes are traced through their ``__init__``.  ``uninstall``
restores every original binding; untraced runs never call ``install``.

Functions called millions of times per job (``multi_binomial``,
``index_add``) are deliberately not wrapped: their cost stays in the
calling span's self time.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

import numpy as np

LAYERS = ("multiindex", "series", "spaces", "binomial", "symbolcalc",
          "quadrature", "serialize", "verify", "cli")


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _n_entries(x) -> int:
    entries = getattr(x, "entries", None)
    if entries is not None:
        return len(entries)
    matrix = getattr(x, "matrix", None)
    return int(matrix.size) if matrix is not None else 0


def _in_out(args, kwargs, result):
    return {"entries_in": sum(_n_entries(a) for a in args), "entries_out": _n_entries(result)}


def _grid(args, kwargs, grid):
    arrays = (grid.nodes, grid.weights, grid.flat_weights)
    return {"nodes": int(grid.nodes.shape[0]), "grid_bytes": int(sum(a.nbytes for a in arrays))}


def _cases(args, kwargs, report):
    return {"cases": int(report["cases"])}


# layer -> {public name: counter(args, kwargs, result) -> {count name: increment}}
WRAPPED = {
    "multiindex": {"enumerate_degree": lambda a, k, r: {"indices": len(r)}},
    "series": {
        "KernelCoeffs": lambda a, k, r: {"entries_validated": len(_arg(a, k, 3, "entries") or {})},
        "SeriesCoeffs": lambda a, k, r: {"entries_validated": len(_arg(a, k, 2, "entries") or {})},
        "eval_basis": lambda a, k, r: {"points_evaluated": int(np.size(r))},
        "eval_series": None,
        "eval_kernel": None,
    },
    "spaces": {"classify": lambda a, k, r: {"entries": _n_entries(_arg(a, k, 0, "c"))}},
    "binomial": {name: _in_out for name in ("t0", "t0_star", "s0", "s0_inv", "l2_r_norm")},
    "symbolcalc": {name: _in_out for name in (
        "wick_to_kernel", "kernel_to_wick", "antiwick_to_wick", "wick_to_antiwick",
        "apply_operator", "compose_kernels", "twisted_product", "operator_matrix", "psd_check")},
    "quadrature": {
        "gauss_hermite_grid": _grid,
        **{name: None for name in (
            "complex_grid", "wick_apply_quad", "antiwick_apply_quad", "berezin_transform_quad",
            "twisted_product_quad", "rank_one_check", "toeplitz_matrix_quad")},
    },
    "serialize": {
        "load_coeffs": lambda a, k, r: {"bytes_read": os.path.getsize(_arg(a, k, 0, "path")),
                                        "entries": _n_entries(r)},
        "save_coeffs": lambda a, k, r: {"bytes_written": os.path.getsize(_arg(a, k, 1, "path")),
                                        "entries": _n_entries(_arg(a, k, 0, "c"))},
    },
    "verify": {
        "run_suite": None,
        **{name: _cases for name in (
            "suite_identities", "suite_quadrature", "suite_toeplitz", "suite_bounds", "suite_appendix_b")},
    },
    "cli": {"main": lambda a, k, r: {"nonzero_exits": int(r != 0)}},
}

# every count reported, so the metric set is the same on every workload
COUNTS = (
    "multiindex.indices", "series.entries_validated", "series.points_evaluated",
    "binomial.entries_in", "binomial.entries_out", "symbolcalc.entries_in", "symbolcalc.entries_out",
    "quadrature.nodes", "quadrature.grid_bytes", "serialize.bytes_read", "serialize.bytes_written",
    "serialize.entries", "spaces.entries", "verify.cases", "cli.nonzero_exits",
)


class Tracer:
    """In-memory span store.  Spans are recorded only while a job is active."""

    def __init__(self):
        # each span: [name, job id, parent index or -1, start, end, failed]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job: int | None = None
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn, counter):
        span_name = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            rec = [span_name, self.job, self._stack[-1] if self._stack else -1,
                   time.perf_counter(), 0.0, False]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[4] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, inc in counter(args, kwargs, result).items():
                    self.counts[f"{layer}.{key}"] += inc
            return result

        return traced

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, _, _, start, end, _), c in zip(self.spans, child)]


def install(fc, tracer: Tracer) -> list[tuple]:
    """Wrap every name in WRAPPED wherever a fockcalc layer module binds it."""
    modules = [getattr(fc, layer) for layer in LAYERS]
    patches = []
    for layer, names in WRAPPED.items():
        home = getattr(fc, layer)
        for name, counter in names.items():
            original = getattr(home, name)
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                patches.append((original, "__init__", init))
                setattr(original, "__init__", tracer.wrap(layer, name, init, counter))
                continue
            traced = tracer.wrap(layer, name, original, counter)
            for mod in modules:
                if mod.__dict__.get(name) is original:
                    patches.append((mod, name, original))
                    setattr(mod, name, traced)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer calls, self time, share of the workload's wall time, failures and counts."""
    calls, busy, failed = Counter(), Counter(), Counter()
    for (name, _, _, _, _, fail), own in zip(tracer.spans, tracer.self_times()):
        layer = name.split(".", 1)[0]
        calls[layer] += 1
        busy[layer] += own
        failed[layer] += int(fail)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.busy_s"] = (busy[layer], "s")
        out[f"{layer}.share"] = (busy[layer] / wall_s, "ratio")
        out[f"{layer}.failed"] = (failed[layer], "count")
    for name in COUNTS:
        unit = "B-computed" if name == "quadrature.grid_bytes" else "B" if "bytes" in name else "count"
        out[name] = (tracer.counts[name], unit)
    return out
