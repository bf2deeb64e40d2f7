"""Command-line front end.

Subcommands: ``transform`` (coefficient-level symbol/kernel conversions),
``apply`` (kernel action on a series), ``verify`` (named identity suites
with JSON reports) and ``classify`` (space-hierarchy diagnostics).

Exit codes: 0 success, 1 verification failure, 2 I/O, schema or argument
error, 3 dimension mismatch, 4 precondition failure, overflow or out of memory.
Errors are emitted as a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from typing import Sequence

from .binomial import s0, t0, t0_star
from .errors import DimensionMismatch, DomainError, PreconditionError, SchemaError
from .serialize import load_coeffs, save_coeffs
from .series import KernelCoeffs
from .spaces import GrowthOrder, SpaceSpec, classify
from .symbolcalc import antiwick_to_wick, apply_operator, kernel_to_wick, wick_to_antiwick, wick_to_kernel
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_SCHEMA = 2
EXIT_DIMENSION = 3
EXIT_PRECONDITION = 4

# op -> (the options it reads, call(c, t, out_degree)); an op that reads --t
# needs it, and an option the op does not read is an argument error.  Each
# lambda looks its function up when called, so a replaced module attribute
# (a tracing wrapper) is the one run
TRANSFORMS = {
    "wick-to-kernel": (("--out-degree",), lambda c, t, deg: wick_to_kernel(c, out_degree=deg)),
    "kernel-to-wick": (("--out-degree",), lambda c, t, deg: kernel_to_wick(c, out_degree=deg)),
    "antiwick-to-wick": ((), lambda c, t, deg: antiwick_to_wick(c)),
    "wick-to-antiwick": ((), lambda c, t, deg: wick_to_antiwick(c)),
    "t0": (("--t", "--out-degree"), lambda c, t, deg: t0(c, t, out_degree=deg)),
    "t0star": (("--t",), lambda c, t, deg: t0_star(c, t)),
    "s0": ((), lambda c, t, deg: s0(c)),
}


def _parse_complex(text: str) -> complex:
    try:  # complex() takes at most two parts
        value = complex(*map(float, text.split(",")))
    except (TypeError, ValueError):
        raise ValueError(f"cannot parse --t {text!r}; expected 're' or 're,im'") from None
    if not cmath.isfinite(value):
        raise ValueError(f"--t must be finite, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """An argument type, so that argparse's error names the argument."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _emit_error(code: int, kind: str, message: str) -> int:
    json.dump({"error": {"code": code, "kind": kind, "message": message}}, sys.stderr)
    sys.stderr.write("\n")
    return code


def _require_kernel(c) -> KernelCoeffs:
    if not isinstance(c, KernelCoeffs):
        raise PreconditionError("this operation requires a kernel coefficient file")
    return c


def cmd_transform(args: argparse.Namespace) -> int:
    reads, call = TRANSFORMS[args.op]
    # the engines' own out_degree check, made first so that it decides for every op
    if args.out_degree is not None and args.out_degree < 0:
        raise PreconditionError(f"out_degree must be >= 0, got {args.out_degree}")
    for flag, value in (("--t", args.t), ("--out-degree", args.out_degree)):
        if value is not None and flag not in reads:
            raise SchemaError(f"op {args.op} does not read {flag}")
    c = _require_kernel(load_coeffs(args.input))
    t = _parse_complex(args.t) if args.t is not None else None
    if "--t" in reads and t is None:
        raise PreconditionError(f"--t is required for op {args.op}")
    save_coeffs(call(c, t, args.out_degree), args.output)
    return EXIT_OK


def cmd_apply(args: argparse.Namespace) -> int:
    K = _require_kernel(load_coeffs(args.kernel))
    F = load_coeffs(args.series)
    if isinstance(F, KernelCoeffs):
        raise PreconditionError("--series must point at a series coefficient file")
    out = apply_operator(K, F)
    save_coeffs(out, args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(args.suite, args.seed)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    status = "pass" if report["pass"] else "FAIL"
    print(f"[{args.suite}] {status}  cases={report['cases']}  max_error={report['max_error']:.3e}")
    if not report["pass"]:
        for rec in report["failures"][:5]:
            print(f"  failing case: {json.dumps(rec)}")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    c = _require_kernel(load_coeffs(args.input))
    s1 = GrowthOrder.parse(args.s1)
    s2 = GrowthOrder.parse(args.s2) if args.s2 is not None else s1
    space = SpaceSpec(args.family, s1, s2)
    grid = [float(x) for x in args.r_grid.split(",") if x.strip()]
    report = classify(c, space, grid)
    # the file first, so that a path that cannot be written leaves stdout empty
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(report.csv_rows()) + "\n")
    json.dump(report.to_jsonable(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument errors become SchemaError, which main reports as one JSON
    error object (exit 2) in place of argparse's usage text; subcommand
    parsers are made from the same class."""

    def error(self, message: str):
        raise SchemaError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fockcalc",
        description="Coefficient-level operator calculus: conversions, composition, "
                    "diagnostics and numerical verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="apply a symbol/kernel transition to a coefficient file")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--op", required=True, choices=TRANSFORMS)
    p.add_argument("--t", default=None, help="complex flag 're' or 're,im' (e.g. '0.5,0.3')")
    p.add_argument("--out-degree", type=int, default=None)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("apply", help="apply a kernel operator to a series coefficient file")
    p.add_argument("--kernel", required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--report", default=None, help="path for the JSON report")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("classify", help="space-hierarchy diagnostic for a kernel file")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--s1", required=True, help="growth order: real:<s>, flat:<sigma>, inf or zero")
    p.add_argument("--s2", default=None, help="defaults to --s1")
    p.add_argument("--r-grid", default="1,2,4")
    p.add_argument("--csv", default=None, help="optional CSV export of the fitted constants")
    p.set_defaults(fn=cmd_classify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SchemaError as exc:
        return _emit_error(EXIT_SCHEMA, "schema", str(exc))
    except (OSError, json.JSONDecodeError) as exc:
        return _emit_error(EXIT_SCHEMA, "io", str(exc))
    except DimensionMismatch as exc:
        return _emit_error(EXIT_DIMENSION, "dimension", str(exc))
    except (PreconditionError, DomainError, ValueError) as exc:
        return _emit_error(EXIT_PRECONDITION, "precondition", str(exc))
    except ArithmeticError as exc:
        # e.g. a binomial weight beyond float range at a very high out-degree
        return _emit_error(EXIT_PRECONDITION, "arithmetic", str(exc))
    except MemoryError as exc:  # e.g. t0_star's binomial table at alpha = beta = 10^11 (11.6 TiB)
        message = str(exc) or "out of memory"
    # reported once the except block has released the failed call's frames and what they hold
    return _emit_error(EXIT_PRECONDITION, "memory", message)


if __name__ == "__main__":
    sys.exit(main())
