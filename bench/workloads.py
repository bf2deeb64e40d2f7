"""The benchmark's workloads: seeded inputs, jobs and their correctness checks.

A workload is built from ``fc``, a namespace holding the nine fockcalc layer
modules.  Jobs look library functions up through ``fc`` at call time, so the
traced run can replace them.  Every job has a reference that is computed
before timing starts and a check that compares the job's output with it
after the job's clock has stopped.

Why these workloads:

* ``coeff-dense`` runs the coefficient engine on dense boxes, the path the
  planned dense engine replaces; quadrature, serialize, spaces and cli sit
  idle.  The conversions are ``t0``/``t0_star`` at t = +-1, so at (2, 16) only
  ``wick_to_kernel`` runs: the other three would add ~6 s per round without
  reaching new code.  With it, the four heaviest jobs are 4 of the 35 per
  round, so the fixed p90 falls inside that cluster rather than on its edge.
  ``operator_matrix`` + ``psd_check`` runs once, on the largest matrix.
* ``quad-oracle`` is dominated by grid construction and integrand
  evaluation; binomial does little.  d = 2 uses explicit M in {12, 16}: the
  default of 64 nodes per axis is a known defect there (16.8M nodes, about
  0.8 GB of grid arrays), and d = 3 at the default would try to allocate
  about 4 TB, so neither is run.
* ``cli-files`` drives ``fockcalc.cli.main`` in process on files written at
  set-up: one dense 4 MB kernel and sparse high-degree symbols, which use
  binomial the opposite way from ``coeff-dense``.  Its robustness probe is the
  known overflow repro and runs once per run, outside the timed jobs.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

DENSE_GRID = ((1, 16), (1, 64), (2, 8), (2, 16), (3, 4))
CONVERSIONS = ("wick_to_kernel", "kernel_to_wick", "antiwick_to_wick", "wick_to_antiwick")
CONVERSION_SIZES = {(1, 16): CONVERSIONS, (1, 64): CONVERSIONS, (2, 8): CONVERSIONS, (3, 4): CONVERSIONS,
                    (2, 16): ("wick_to_kernel",)}
PSD_SIZE = (2, 16)
COMPOSE_GRID = ((1, 16), (2, 8), (3, 4))
TWISTED_GRID = ((1, 10), (2, 6))
QUAD_GRIDS = ((1, None), (2, 12), (2, 16))  # (d, M); None is the library default, 64
TOEPLITZ_N = 6
CLI_DENSE = (2, 16)
CLI_SPARSE = ((1, 64), (2, 64), (3, 24))  # (d, --out-degree)

TRANSITION_TOL = 1e-10   # suite_identities
APPLY_TOL = 1e-7         # suite_quadrature
SMOOTHING_TOL = 1e-6     # suite_appendix_b and suite_toeplitz
FILE_TOL = 1e-15


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    reference: Callable[[], object]
    check: Callable[[object, object], tuple[bool, float | None]]  # -> (passed, relative error)


@dataclass
class Workload:
    jobs: list[Job]
    warm_up: Callable[[], None]
    probe: Callable[[], tuple[bool, str]] | None = None


CONVERSION_REFERENCES = {
    "wick_to_kernel": (ref.raise_box, 1.0),
    "kernel_to_wick": (ref.raise_box, -1.0),
    "antiwick_to_wick": (ref.smooth_box, 1.0),
    "wick_to_antiwick": (ref.smooth_box, -1.0),
}


def _complex(rng, size=None):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _dense_values(rng, d: int, n: int) -> dict:
    idx = ref.canonical_indices(d, n)
    vals = _complex(rng, (len(idx), len(idx))).tolist()
    return {(a, b): vals[i][j] for i, a in enumerate(idx) for j, b in enumerate(idx)}


def _hermitian_values(rng, d: int, n: int) -> dict:
    """Entries of B B^H + m I, symmetrised so that the matrix is exactly Hermitian."""
    idx = ref.canonical_indices(d, n)
    b = _complex(rng, (len(idx), len(idx)))
    h = b @ b.conj().T + len(idx) * np.eye(len(idx))
    h = ((h + h.conj().T) / 2).tolist()
    return {(a, c): h[i][j] for i, a in enumerate(idx) for j, c in enumerate(idx)}


def _sparse_values(rng, d: int, degree: int, count: int, kernel: bool = True, support_seed: int | None = None) -> dict:
    """``count`` random entries of degree <= ``degree``; the support comes from
    ``support_seed`` when given, so that only the values depend on the workload seed."""
    idx = ref.canonical_indices(d, degree)
    count = min(count, len(idx) ** 2 if kernel else len(idx))
    pick = rng if support_seed is None else np.random.default_rng(support_seed)
    keys = set()
    while len(keys) < count:
        a = idx[pick.integers(len(idx))]
        keys.add((a, idx[pick.integers(len(idx))]) if kernel else a)
    return {key: complex(_complex(rng)) for key in sorted(keys)}


def _point(rng, d: int, radius: float) -> np.ndarray:
    return radius * np.exp(2j * np.pi * rng.uniform(size=d))


def _relative_check(tol: float):
    def check(out, want):
        err = ref.rel_error(out, want)
        return err <= tol, err
    return check


def _terms_check(tol: float):
    """Quadrature value against the sum of the coefficient route's terms."""
    def check(out, terms):
        err = ref.scaled_error(out, terms)
        return err <= tol, err
    return check


# ---------------------------------------------------------------------------
# coeff-dense
# ---------------------------------------------------------------------------

def coeff_dense(fc, rng, workdir: str, seed: int) -> Workload:
    t = cmath.rect(0.8, rng.uniform(0, 2 * math.pi))
    jobs: list[Job] = []

    def symbol_maker(d, n, vals):
        def build():
            idx = fc.multiindex.enumerate_degree(d, n)
            return fc.series.KernelCoeffs(d, d, {(a, b): vals[a, b] for a in idx for b in idx})
        return build

    def box_check(d, n):
        def check(out, want):
            got = ref.to_box(out.entries, d, n)
            if got is None:
                return False, None
            err = ref.rel_error(got, want)
            return err <= TRANSITION_TOL, err
        return check

    def transition(label, d, n, vals, op, reference):
        build = symbol_maker(d, n, vals)
        jobs.append(Job(f"{label} {d},{n}", lambda: op(build()), reference, box_check(d, n)))

    for d, n in DENSE_GRID:
        vals = _dense_values(rng, d, n)
        transition("t0", d, n, vals, lambda c, n=n: fc.binomial.t0(c, t, out_degree=n),
                   lambda d=d, n=n, v=vals: ref.raise_box(v, d, n, t))
        transition("t0_star", d, n, vals, lambda c: fc.binomial.t0_star(c, t),
                   lambda d=d, n=n, v=vals: ref.smooth_box(v, d, n, t))
        for label in CONVERSION_SIZES[d, n]:
            make, tt = CONVERSION_REFERENCES[label]
            transition(label, d, n, vals, lambda c, label=label: getattr(fc.symbolcalc, label)(c),
                       lambda d=d, n=n, v=vals, m=make, tt=tt: m(v, d, n, tt))

    pd, pn = PSD_SIZE
    herm = _hermitian_values(rng, pd, pn)
    build_h = symbol_maker(pd, pn, herm)

    def psd_job():
        m = fc.symbolcalc.operator_matrix(build_h(), pn)
        return m, fc.symbolcalc.psd_check(m, 1e-9)

    def psd_reference():
        idx = ref.canonical_indices(pd, pn)
        mat = ref.matrix(herm, idx)
        return mat, idx, float(np.linalg.eigvalsh(mat)[0])

    def psd_check(out, want):
        m, verdict = out
        mat, idx, min_eig = want
        placed = {(a, b): m.matrix[i, j] for i, a in enumerate(m.index) for j, b in enumerate(m.index)}
        err = abs(verdict["min_eigenvalue"] - min_eig) / abs(min_eig)
        return np.array_equal(ref.matrix(placed, idx), mat) and verdict["psd"] and err <= TRANSITION_TOL, err

    jobs.append(Job(f"operator_matrix+psd_check {pd},{pn}", psd_job, psd_reference, psd_check))

    for d, n in COMPOSE_GRID:
        v2, v1 = _dense_values(rng, d, n), _dense_values(rng, d, n)
        b2, b1 = symbol_maker(d, n, v2), symbol_maker(d, n, v1)

        def compose_reference(d=d, n=n, v2=v2, v1=v1):
            idx = ref.canonical_indices(d, n)
            return idx, ref.matrix(v2, idx) @ ref.matrix(v1, idx)

        def compose_check(out, want):
            idx, mat = want
            if not set(out.entries) <= {(a, b) for a in idx for b in idx}:
                return False, None
            err = ref.rel_error(ref.matrix(out.entries, idx), mat)
            return err <= TRANSITION_TOL, err

        jobs.append(Job(f"compose_kernels {d},{n}",
                        lambda b2=b2, b1=b1: fc.symbolcalc.compose_kernels(b2(), b1()),
                        compose_reference, compose_check))

    for d, n in TWISTED_GRID:
        v1, v2 = _dense_values(rng, d, n), _dense_values(rng, d, n)
        b1, b2 = symbol_maker(d, n, v1), symbol_maker(d, n, v2)
        points = [(_point(rng, d, 0.8), _point(rng, d, 0.8)) for _ in range(4)]

        def twisted_check(out, want, points=points):
            got = [ref.symbol_terms(out.entries, z, w).sum() for z, w in points]
            err = ref.rel_error(got, want)
            return err <= TRANSITION_TOL, err

        jobs.append(Job(f"twisted_product {d},{n}",
                        lambda b1=b1, b2=b2: fc.symbolcalc.twisted_product(b1(), b2()),
                        lambda d=d, v1=v1, v2=v2, p=points: [ref.wick_product_at(v1, v2, d, z, w) for z, w in p],
                        twisted_check))

    jobs.append(Job("suite_identities", lambda: fc.verify.suite_identities(seed, n_random=4),
                    lambda: None, lambda out, _: (bool(out["pass"]), None)))
    jobs.append(Job("suite_bounds", lambda: fc.verify.suite_bounds(seed, n_random=10),
                    lambda: None, lambda out, _: (bool(out["pass"]), None)))

    def warm_up():
        c = fc.series.KernelCoeffs(1, 1, {((1,), (1,)): 1.0})
        fc.binomial.t0_star(fc.binomial.t0(c, t, out_degree=4), t)

    return Workload(jobs, warm_up)


# ---------------------------------------------------------------------------
# quad-oracle
# ---------------------------------------------------------------------------

def quad_oracle(fc, rng, workdir: str, seed: int) -> Workload:
    jobs: list[Job] = []
    q, sc, se = fc.quadrature, fc.symbolcalc, fc.series

    for d, M in QUAD_GRIDS:
        # Only values and phases follow the seed: the accuracy at M = 12 depends far more on
        # the supports, on |z| for the applications and on |(z + w)/2| and |z - w| for the
        # smoothing integrals, so those are fixed.
        a1 = se.KernelCoeffs(d, d, _sparse_values(rng, d, 4, 12, support_seed=1))
        a2 = se.KernelCoeffs(d, d, _sparse_values(rng, d, 4, 12, support_seed=2))
        F = se.SeriesCoeffs(d, _sparse_values(rng, d, 4, 6, kernel=False, support_seed=3))
        x = _point(rng, d, 0.8)
        mid, half = _point(rng, d, 0.6), _point(rng, d, 0.4)
        z, w = mid + half, mid - half
        alpha = tuple(int(k) for k in rng.integers(0, 3, d))
        beta = tuple(int(k) for k in rng.integers(0, 3, d))
        t = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi))
        grid = f"d={d} M={M or 64}"

        def applied(symbol, F=F, x=x):
            K = sc.wick_to_kernel(symbol, out_degree=symbol.support_degree() + F.support_degree())
            return ref.series_terms(sc.apply_operator(K, F).entries, x)

        jobs += [
            Job(f"wick_apply_quad {grid}", lambda a1=a1, F=F, x=x, M=M: q.wick_apply_quad(a1, F, x, M=M),
                lambda a1=a1, f=applied: f(a1), _terms_check(APPLY_TOL)),
            Job(f"antiwick_apply_quad {grid}", lambda a1=a1, F=F, x=x, M=M: q.antiwick_apply_quad(a1, F, x, M=M),
                lambda a1=a1, f=applied: f(sc.antiwick_to_wick(a1)), _terms_check(APPLY_TOL)),
            Job(f"berezin_transform_quad {grid}", lambda a1=a1, z=z, w=w, M=M: q.berezin_transform_quad(a1, z, w, M=M),
                lambda a1=a1, z=z, w=w: ref.symbol_terms(sc.antiwick_to_wick(a1).entries, z, w),
                _terms_check(SMOOTHING_TOL)),
            Job(f"twisted_product_quad {grid}",
                lambda a1=a1, a2=a2, z=z, w=w, M=M: q.twisted_product_quad(a1, a2, z, w, M=M),
                lambda a1=a1, a2=a2, z=z, w=w: ref.symbol_terms(sc.twisted_product(a1, a2).entries, z, w),
                _terms_check(SMOOTHING_TOL)),
            Job(f"rank_one_check {grid}",
                lambda alpha=alpha, beta=beta, t=t, z=z, w=w, M=M: q.rank_one_check(alpha, beta, t, z, w, M=M),
                lambda alpha=alpha, beta=beta, t=t, z=z, w=w: ref.rank_one_terms(alpha, beta, t, z, w),
                lambda out, terms: _terms_check(SMOOTHING_TOL)(out["lhs"], terms)),
        ]

    c0, c1 = rng.uniform(0.5, 1.5, 2)

    def toeplitz_symbol(x, xi):
        return c0 + c1 * (x[:, 0] ** 2 + xi[:, 0] ** 2) / 2.0

    # the anti-Wick symbol |z|^2 is diagonal with entries k + 1 in the Hermite basis
    jobs.append(Job(f"toeplitz_matrix_quad N={TOEPLITZ_N}",
                    lambda: q.toeplitz_matrix_quad(toeplitz_symbol, TOEPLITZ_N),
                    lambda: np.diag(c0 + c1 * np.arange(1, TOEPLITZ_N + 2)),
                    lambda out, want: _relative_check(SMOOTHING_TOL)(out.matrix, want)))
    for suite in ("suite_quadrature", "suite_toeplitz", "suite_appendix_b"):
        jobs.append(Job(suite, lambda suite=suite: getattr(fc.verify, suite)(seed),
                        lambda: None, lambda out, _: (bool(out["pass"]), None)))

    def warm_up():
        for d, M in QUAD_GRIDS:
            q.complex_grid(M or q.default_nodes(), 1)

    return Workload(jobs, warm_up)


# ---------------------------------------------------------------------------
# cli-files
# ---------------------------------------------------------------------------

def cli_call(fc, argv: list[str]) -> tuple[int, str, str]:
    """One in-process ``fockcalc`` command: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fc.cli.main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def cli_files(fc, rng, workdir: str, seed: int) -> Workload:
    jobs: list[Job] = []
    se = fc.series

    def path(name):
        return os.path.join(workdir, name)

    def file_check(out_name):
        def check(out, want):
            code, _, _ = out
            if code != 0:
                return False, None
            _, got = ref.read_coeffs(path(out_name))
            err = ref.map_error(got, want.entries)
            return err <= FILE_TOL and set(got) == set(want.entries), err
        return check

    d, n = CLI_DENSE
    dense = _dense_values(rng, d, n)
    series = _sparse_values(rng, d, n, 40, kernel=False)
    ref.write_coeffs(path("dense.json"), d, dense, "kernel")
    ref.write_coeffs(path("series.json"), d, series, "series")
    K = se.KernelCoeffs(d, d, dense)
    F = se.SeriesCoeffs(d, series)

    jobs.append(Job("transform s0 dense",
                    lambda: cli_call(fc, ["transform", "-i", path("dense.json"), "-o", path("s0.json"), "--op", "s0"]),
                    lambda: fc.binomial.s0(K), file_check("s0.json")))
    jobs.append(Job("apply dense",
                    lambda: cli_call(fc, ["apply", "--kernel", path("dense.json"), "--series", path("series.json"),
                                          "-o", path("apply.json")]),
                    lambda: fc.symbolcalc.apply_operator(K, F), file_check("apply.json")))

    def classify_reference():
        s = fc.spaces.GrowthOrder.parse("flat:1")
        report = fc.spaces.classify(K, fc.spaces.SpaceSpec("A", s, s), [1.0, 2.0, 4.0])
        return json.loads(json.dumps(report.to_jsonable())), "\n".join(report.csv_rows()) + "\n"

    def classify_check(out, want):
        code, stdout, _ = out
        with open(path("classify.csv"), encoding="utf-8") as fh:
            csv = fh.read()
        return code == 0 and json.loads(stdout) == want[0] and csv == want[1], 0.0

    jobs.append(Job("classify dense",
                    lambda: cli_call(fc, ["classify", "-i", path("dense.json"), "--family", "A", "--s1", "flat:1",
                                          "--r-grid", "1,2,4", "--csv", path("classify.csv")]),
                    classify_reference, classify_check))

    for d, top in CLI_SPARSE:
        vals = _sparse_values(rng, d, 12, 4)
        name = f"sparse{d}.json"
        ref.write_coeffs(path(name), d, vals, "kernel")
        c = se.KernelCoeffs(d, d, vals)
        t = cmath.rect(rng.uniform(0.5, 1.0), rng.uniform(0, 2 * math.pi))
        tflag = f"{t.real!r},{t.imag!r}"
        for op, extra, lib in (
            ("t0", [f"--t={tflag}", "--out-degree", str(top)], lambda c=c, t=t, top=top: fc.binomial.t0(c, t, out_degree=top)),
            ("wick-to-kernel", ["--out-degree", str(top)], lambda c=c, top=top: fc.symbolcalc.wick_to_kernel(c, out_degree=top)),
            ("antiwick-to-wick", [], lambda c=c: fc.symbolcalc.antiwick_to_wick(c)),
            ("t0star", [f"--t={tflag}"], lambda c=c, t=t: fc.binomial.t0_star(c, t)),
        ):
            out_name = f"{op}-{d}.json"
            argv = ["transform", "-i", path(name), "-o", path(out_name), "--op", op, *extra]
            jobs.append(Job(f"transform {op} d={d} out-degree={top}",
                            lambda argv=argv: cli_call(fc, argv), lib, file_check(out_name)))

    ref.write_coeffs(path("probe.json"), 1, {((600,), (0,)): 1.0 + 0j}, "kernel")

    def probe() -> tuple[bool, str]:
        """Known overflow repro: passes only on a documented exit code with a JSON error."""
        argv = ["transform", "-i", path("probe.json"), "-o", path("probe-out.json"),
                "--op", "t0", "--t", "1", "--out-degree", "1200"]
        try:
            code, _, stderr = cli_call(fc, argv)
        except Exception as exc:
            return False, f"raised {type(exc).__name__}: {exc} (undocumented; known defect)"
        try:
            error = json.loads(stderr)["error"]
        except (ValueError, KeyError, TypeError):
            return False, f"exit {code} without a JSON error"
        return code in (1, 2, 3, 4), f"exit {code}, {error.get('kind')} error"

    ref.write_coeffs(path("warm.json"), 1, {((1,), (1,)): 1.0 + 0j}, "kernel")

    def warm_up():
        cli_call(fc, ["transform", "-i", path("warm.json"), "-o", path("warm-out.json"), "--op", "s0"])

    return Workload(jobs, warm_up, probe)


WORKLOADS = {"coeff-dense": coeff_dense, "quad-oracle": quad_oracle, "cli-files": cli_files}
