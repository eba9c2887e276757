"""Command-line interface.

Subcommands: bound, threshold, series, witt. Reports go to stdout,
diagnostics to stderr. Exit codes: 0 success, 2 validation failure,
3 internal consistency failure, 141 stdout closed by its reader before the
output was complete (128 + SIGPIPE, as a shell reports a process that
SIGPIPE ended; nothing is printed). All integers are emitted as exact decimal
strings of any length, and every output is byte-deterministic for a given
invocation.
"""

import argparse
import decimal
import functools
import json
import operator
import os
import sys

from .bounds import BoundInput, _sweep, threshold_debarre, threshold_lemma_p, torsion_bound
from .chern import _normal_series
from .combinatorics import _closed_forms, check_weight
from .errors import (InternalConsistencyError, ValidationError, check_cap, check_int,
                     check_routes, digits)
from .primes import next_prime
from .series import TruncatedSeries
from .witt import FiniteField, WittRing

CSV_COLUMNS = ("n", "c", "e", "degL", "p", "threshold", "deg_pex_paper", "deg_pex_dual",
               "deg_abelian", "bound_paper", "bound_dual", "flags")

EXIT_BROKEN_PIPE = 141

# Every admissible prime in a sweep range is a report row. From p = 31105,
# the shape (12, 6, (1,2,3,1,2,3), 2) gives 950 CSV rows in 0.013-0.015 s at
# width 10**4, 8,902 rows in 0.13-0.14 s at 10**5 and 77,428 rows in 1.3-1.8 s
# at 10**6 (2-vCPU Xeon, CPython 3.11.7, in-process, a noisy shared host).
MAX_SWEEP_WIDTH = 10**5


def integer(text, message="not an integer"):
    """The CLI's integer rule: an optional "-" then the ASCII digits 0-9, read as
    an int of any length; else ValidationError(message), which argparse reports
    as a bad type. It reads through decimal, which has no int-from-str digit limit."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValidationError(message)
    return int(decimal.Decimal(text))


def _int_list(text, what):
    message = f"{what} must be a comma-separated integer list"
    return tuple(integer(part, message) for part in text.split(","))


def _exponents(args):
    if args.e is not None and args.e_list is not None:
        raise ValidationError("give either --e or --e-list, not both")
    if args.e is not None:  # read once, after c is checked; range takes c of any size
        return (args.e for _ in range(args.c))
    if args.e_list is not None:
        return _int_list(args.e_list, "--e-list")
    raise ValidationError("one of --e or --e-list is required")


def report_json_dict(report):
    """Report as a dict of decimal strings, fixed key order."""
    return {
        "n": digits(report.n),
        "c": digits(report.c),
        "e": [digits(e) for e in report.exponents],
        "degL": digits(report.d),
        "p": report.p_request if report.p_request == "auto" else digits(report.p_request),
        "mode": report.mode,
        "threshold": digits(report.threshold),
        "prime_used": digits(report.prime_used),
        "deg_cotangent": digits(report.deg_cotangent),
        "w_table": [digits(w) for w in report.w_table],
        "inner_sums": [
            {
                "h": digits(t.h),
                "binom": digits(t.binom_coeff),
                "inner": digits(t.inner_sum),
                "term_paper": digits(t.term_paper),
                "term_dual": digits(t.term_dual),
            }
            for t in report.terms
        ],
        "deg_pex_paper": digits(report.deg_pex_paper),
        "deg_pex_dual": digits(report.deg_pex_dual),
        "deg_abelian": digits(report.deg_abelian),
        "bound_paper": digits(report.bound_paper),
        "bound_dual": digits(report.bound_dual),
        "flags": sorted(report.flags),
    }


def report_json_line(report):
    return json.dumps(report_json_dict(report), separators=(",", ":"))


# the last CSV row's shape fields (n, c, exponents, d, threshold) and their
# columns: the rows of a sweep hold its shape's objects, and a hit needs those
_csv_shape = ((object(),) * 5, None)


def report_csv_row(report):
    """Report as one CSV line, in CSV_COLUMNS order, read from its fields."""
    global _csv_shape
    r = report
    fields = (r.n, r.c, r.exponents, r.d, r.threshold)
    last, columns = _csv_shape
    if not all(map(operator.is_, fields, last)):
        columns = (f"{digits(r.n)},{digits(r.c)},{';'.join(map(digits, r.exponents))},"
                   f"{digits(r.d)},", digits(r.threshold))
        _csv_shape = (fields, columns)
    head, threshold = columns
    return (f"{head}{digits(r.prime_used)},{threshold},{digits(r.deg_pex_paper)},"
            f"{digits(r.deg_pex_dual)},{digits(r.deg_abelian)},{digits(r.bound_paper)},"
            f"{digits(r.bound_dual)},{';'.join(sorted(r.flags))}")


def report_table(report):
    lines = [
        "torsion bound report",
        f"  n: {digits(report.n)}   c: {digits(report.c)}   "
        f"e: {','.join(map(digits, report.exponents))}   "
        f"degL: {digits(report.d)}   mode: {report.mode}",
        f"  threshold: {digits(report.threshold)}   prime_used: {digits(report.prime_used)}",
        f"  deg_cotangent: {digits(report.deg_cotangent)}",
        f"  w_table: {', '.join(map(digits, report.w_table))}",
        "  h-terms:",
    ]
    rows = [("h", "binom", "inner", "term_paper", "term_dual")]
    for t in report.terms:
        rows.append(tuple(map(digits, (t.h, t.binom_coeff, t.inner_sum,
                                       t.term_paper, t.term_dual))))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    for r in rows:
        padded = "  ".join(cell.ljust(w) for cell, w in zip(r, widths))
        lines.append("    " + padded.rstrip())
    lines += [
        f"  deg_pex_paper: {digits(report.deg_pex_paper)}   "
        f"deg_pex_dual: {digits(report.deg_pex_dual)}",
        f"  deg_abelian: {digits(report.deg_abelian)}",
        f"  bound_paper: {digits(report.bound_paper)}   bound_dual: {digits(report.bound_dual)}",
        f"  flags: {', '.join(sorted(report.flags)) if report.flags else '(none)'}",
    ]
    return "\n".join(lines)


def _emit_reports(reports, fmt, out):
    if fmt == "json":
        for r in reports:
            out.write(report_json_line(r) + "\n")
    elif fmt == "csv":
        out.write(",".join(CSV_COLUMNS) + "\n")
        for r in reports:
            out.write(report_csv_row(r) + "\n")
    else:
        first = True
        for r in reports:
            if not first:
                out.write("\n")
            out.write(report_table(r) + "\n")
            first = False


def _cmd_bound(args):
    exps = _exponents(args)
    if args.sweep_p is not None:
        if args.p is not None:
            raise ValidationError("give either --p or --sweep-p, not both")
        parts = args.sweep_p.split(":")
        if len(parts) != 2:
            raise ValidationError("--sweep-p must look like FROM:TO")
        lo, hi = (integer(part, "--sweep-p bounds must be integers") for part in parts)
        if lo < 0 or hi < lo:
            raise ValidationError("--sweep-p needs 0 <= FROM <= TO")
        check_cap(hi - lo, MAX_SWEEP_WIDTH, "sweep range")
        reports = _sweep(args.n, args.c, exps, args.degL, lo, hi, args.mode)
        _emit_reports(reports, args.format, sys.stdout)
        return 0
    p = "auto" if args.p in (None, "auto") else integer(args.p, "--p must be an integer or 'auto'")
    inp = BoundInput(args.n, args.c, exps, args.degL, p=p, mode=args.mode)
    _emit_reports([torsion_bound(inp)], args.format, sys.stdout)
    return 0


def _refuse_unused(args, names, reader):
    # a flag in names was given, but reader never reads it: refuse the first
    for name in names:
        if getattr(args, name) is not None:
            raise ValidationError(f"--{name.replace('_', '-')} is not used by {reader}")


def _cmd_threshold(args):
    if args.kind == "debarre":
        for name in ("n", "c", "degL"):
            if getattr(args, name) is None:
                raise ValidationError(f"--{name} is required for --kind debarre")
        exps = _exponents(args)
        _refuse_unused(args, ("deg_omega",), "--kind debarre")
        t = threshold_debarre(args.n, args.c, exps, args.degL)
    else:
        if args.n is None or args.deg_omega is None:
            raise ValidationError("--n and --deg-omega are required for --kind lemma-p")
        _refuse_unused(args, ("c", "e", "e_list", "degL"), "--kind lemma-p")
        t = threshold_lemma_p(args.n, args.deg_omega)
    print(f"{digits(t)} {digits(next_prime(t))}")
    return 0


def _cmd_series_invert(args):
    coeffs = _int_list(args.coeffs, "--coeffs")
    check_int(args.order, "--order must be >= 0", low=0)
    series = TruncatedSeries(coeffs[: args.order + 1], order=args.order)
    inverse = series.invert()
    print(",".join(map(digits, inverse.coefficients)))
    return 0


def _cmd_series_table(args):
    # the inverse of (1 + t)**c or prod_j (1 + e_j t), checked against the recurrence
    if args.series_command == "wtable":
        m = check_weight(args.max_m, "--max-m must be >= 0")
        normal, table = _closed_forms(m, check_int(args.c, "c must be >= 1", low=1))
    else:
        exps = _int_list(args.e_list, "--e-list")
        m = check_weight(args.max_i, "--max-i must be >= 0")
        _, table = _closed_forms(m, len(exps), exps)
        normal = _normal_series(exps, m).coefficients  # the product, as bound_shape builds it
    check_routes(args.series_command, ("closed form", table),
                 ("recurrence", TruncatedSeries(normal).invert().coefficients), "t**{}")
    print(",".join(map(digits, table)))
    return 0


def _cmd_witt(args):
    ring = WittRing(FiniteField(args.p))

    def pair(text, flag):
        vals = _int_list(text, flag)
        if len(vals) != 2:
            raise ValidationError(f"{flag} must be two residues a0,a1")
        return ring.element(vals[0], vals[1])

    x = pair(args.a, "--a")
    if args.op in ("add", "mul", "sub"):
        if args.b is None:
            raise ValidationError(f"--b is required for op {args.op}")
        result = getattr(operator, args.op)(x, pair(args.b, "--b"))
    else:
        _refuse_unused(args, ("b",), f"op {args.op}")
        if args.op == "ghost":
            print(digits(x.ghost()))
            return 0
        result = -x if args.op == "neg" else getattr(x, args.op)()  # frobenius, verschiebung
    print(f"{digits(result.a0.lift())},{digits(result.a1.lift())}")
    return 0


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="torbound",
        description="Exact torsion-point bounds for complete intersections "
        "in abelian varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="full torsion-bound report")
    p_bound.add_argument("--n", type=integer, required=True)
    p_bound.add_argument("--c", type=integer, required=True)
    p_bound.add_argument("--e", type=integer, default=None,
                         help="single exponent, repeated c times")
    p_bound.add_argument("--e-list", default=None,
                         help="comma-separated exponent sequence of length c")
    p_bound.add_argument("--degL", type=integer, required=True)
    p_bound.add_argument("--p", default=None,
                         help="explicit prime above the threshold, or 'auto' (the default)")
    p_bound.add_argument("--mode", choices=["paper", "dual", "both"], default="both")
    p_bound.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p_bound.add_argument("--sweep-p", default=None, metavar="FROM:TO",
                         help="report every admissible prime in the range")
    p_bound.set_defaults(func=_cmd_bound)

    p_thresh = sub.add_parser("threshold", help="threshold and next admissible prime")
    p_thresh.add_argument("--kind", choices=["debarre", "lemma-p"], required=True)
    p_thresh.add_argument("--n", type=integer, default=None)
    p_thresh.add_argument("--c", type=integer, default=None)
    p_thresh.add_argument("--e", type=integer, default=None)
    p_thresh.add_argument("--e-list", default=None)
    p_thresh.add_argument("--degL", type=integer, default=None)
    p_thresh.add_argument("--deg-omega", type=integer, default=None)
    p_thresh.set_defaults(func=_cmd_threshold)

    p_series = sub.add_parser("series", help="series toolkit")
    series_sub = p_series.add_subparsers(dest="series_command", required=True)

    p_invert = series_sub.add_parser("invert", help="invert a truncated series")
    p_invert.add_argument("--coeffs", required=True,
                          help="comma-separated coefficients, constant term first")
    p_invert.add_argument("--order", type=integer, required=True)
    p_invert.set_defaults(func=_cmd_series_invert)

    p_wtable = series_sub.add_parser("wtable", help="inverse-power coefficient table")
    p_wtable.add_argument("--c", type=integer, required=True)
    p_wtable.add_argument("--max-m", type=integer, required=True)
    p_wtable.set_defaults(func=_cmd_series_table)

    p_ztable = series_sub.add_parser("ztable",
                                     help="inverse product-series coefficient table")
    p_ztable.add_argument("--e-list", required=True)
    p_ztable.add_argument("--max-i", type=integer, required=True)
    p_ztable.set_defaults(func=_cmd_series_table)

    p_witt = sub.add_parser("witt", help="length-2 Witt vector arithmetic")
    p_witt.add_argument("--p", type=integer, required=True)
    p_witt.add_argument("--op", required=True,
                        choices=["add", "mul", "sub", "neg",
                                 "frobenius", "verschiebung", "ghost"])
    p_witt.add_argument("--a", required=True, help="pair a0,a1")
    p_witt.add_argument("--b", default=None, help="pair b0,b1 (binary ops)")
    p_witt.set_defaults(func=_cmd_witt)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (say, `| head`): point stdout at devnull so
        # the flush at exit cannot fail again, and end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
