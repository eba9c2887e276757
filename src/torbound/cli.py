"""Command-line interface.

Subcommands: bound, threshold, series, witt. Reports go to stdout,
diagnostics to stderr. Exit codes: 0 success, 2 validation failure,
3 internal consistency failure. All integers are emitted as decimal
strings and every output is byte-deterministic for a given invocation.
"""

import argparse
import json
import sys

from .bounds import (
    BoundInput,
    bound_shape,
    threshold_debarre,
    threshold_lemma_p,
    torsion_bound,
)
from .combinatorics import check_weight, w_coeff, z_coeff
from .errors import InternalConsistencyError, ValidationError, check_int
from .primes import next_prime
from .series import TruncatedSeries
from .witt import FiniteField, WittRing

CSV_COLUMNS = (
    "n",
    "c",
    "e",
    "degL",
    "p",
    "threshold",
    "deg_pex_paper",
    "deg_pex_dual",
    "deg_abelian",
    "bound_paper",
    "bound_dual",
    "flags",
)


def _int_list(text, what):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"{what} must be a comma-separated integer list") from None


def _exponents(args):
    if args.e is not None and args.e_list is not None:
        raise ValidationError("give either --e or --e-list, not both")
    if args.e is not None:
        return (args.e,) * args.c
    if args.e_list is not None:
        return _int_list(args.e_list, "--e-list")
    raise ValidationError("one of --e or --e-list is required")


def _parse_p(text):
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise ValidationError("--p must be an integer or 'auto'") from None


def report_json_dict(report):
    """Report as a dict of decimal strings, fixed key order."""
    return {
        "n": str(report.n),
        "c": str(report.c),
        "e": [str(e) for e in report.exponents],
        "degL": str(report.d),
        "p": report.p_request if report.p_request == "auto" else str(report.p_request),
        "mode": report.mode,
        "threshold": str(report.threshold),
        "prime_used": str(report.prime_used),
        "deg_cotangent": str(report.deg_cotangent),
        "w_table": [str(w) for w in report.w_table],
        "inner_sums": [
            {
                "h": str(t.h),
                "binom": str(t.binom_coeff),
                "inner": str(t.inner_sum),
                "term_paper": str(t.term_paper),
                "term_dual": str(t.term_dual),
            }
            for t in report.terms
        ],
        "deg_pex_paper": str(report.deg_pex_paper),
        "deg_pex_dual": str(report.deg_pex_dual),
        "deg_abelian": str(report.deg_abelian),
        "bound_paper": str(report.bound_paper),
        "bound_dual": str(report.bound_dual),
        "flags": sorted(report.flags),
    }


def report_json_line(report):
    return json.dumps(report_json_dict(report), separators=(",", ":"))


def report_csv_row(report):
    values = {
        "n": str(report.n),
        "c": str(report.c),
        "e": ";".join(str(e) for e in report.exponents),
        "degL": str(report.d),
        "p": str(report.prime_used),
        "threshold": str(report.threshold),
        "deg_pex_paper": str(report.deg_pex_paper),
        "deg_pex_dual": str(report.deg_pex_dual),
        "deg_abelian": str(report.deg_abelian),
        "bound_paper": str(report.bound_paper),
        "bound_dual": str(report.bound_dual),
        "flags": ";".join(sorted(report.flags)),
    }
    return ",".join(values[col] for col in CSV_COLUMNS)


def report_table(report):
    lines = [
        "torsion bound report",
        f"  n: {report.n}   c: {report.c}   "
        f"e: {','.join(str(e) for e in report.exponents)}   "
        f"degL: {report.d}   mode: {report.mode}",
        f"  threshold: {report.threshold}   prime_used: {report.prime_used}",
        f"  deg_cotangent: {report.deg_cotangent}",
        f"  w_table: {', '.join(str(w) for w in report.w_table)}",
        "  h-terms:",
    ]
    rows = [("h", "binom", "inner", "term_paper", "term_dual")]
    for t in report.terms:
        rows.append(
            (str(t.h), str(t.binom_coeff), str(t.inner_sum),
             str(t.term_paper), str(t.term_dual))
        )
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    for r in rows:
        padded = "  ".join(cell.ljust(w) for cell, w in zip(r, widths))
        lines.append("    " + padded.rstrip())
    lines += [
        f"  deg_pex_paper: {report.deg_pex_paper}   deg_pex_dual: {report.deg_pex_dual}",
        f"  deg_abelian: {report.deg_abelian}",
        f"  bound_paper: {report.bound_paper}   bound_dual: {report.bound_dual}",
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
        parts = args.sweep_p.split(":")
        if len(parts) != 2:
            raise ValidationError("--sweep-p must look like FROM:TO")
        try:
            lo, hi = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValidationError("--sweep-p bounds must be integers") from None
        if lo < 0 or hi < lo:
            raise ValidationError("--sweep-p needs 0 <= FROM <= TO")
        threshold = threshold_debarre(args.n, args.c, exps, args.degL)
        primes = []
        p = next_prime(max(lo - 1, threshold))
        while p <= hi:
            primes.append(p)
            p = next_prime(p)
        reports = []
        if primes:
            # one verified shape; each prime is one evaluation of its rows
            shape = bound_shape(args.n, args.c, exps, args.degL)
            reports = [shape.report(q, args.mode) for q in primes]
        _emit_reports(reports, args.format, sys.stdout)
        return 0
    inp = BoundInput(args.n, args.c, exps, args.degL, p=_parse_p(args.p), mode=args.mode)
    _emit_reports([torsion_bound(inp)], args.format, sys.stdout)
    return 0


def _cmd_threshold(args):
    if args.kind == "debarre":
        for name in ("n", "c", "degL"):
            if getattr(args, name) is None:
                raise ValidationError(f"--{name} is required for --kind debarre")
        exps = _exponents(args)
        t = threshold_debarre(args.n, args.c, exps, args.degL)
    else:
        if args.n is None or args.deg_omega is None:
            raise ValidationError("--n and --deg-omega are required for --kind lemma-p")
        t = threshold_lemma_p(args.n, args.deg_omega)
    print(f"{t} {next_prime(t)}")
    return 0


def _cmd_series_invert(args):
    coeffs = _int_list(args.coeffs, "--coeffs")
    check_int(args.order, "--order must be >= 0", low=0)
    series = TruncatedSeries(coeffs[: args.order + 1], order=args.order)
    inverse = series.invert()
    print(",".join(str(a) for a in inverse.coefficients))
    return 0


def _cmd_series_wtable(args):
    check_weight(args.max_m, "--max-m must be >= 0")
    print(",".join(str(w_coeff(m, args.c)) for m in range(args.max_m + 1)))
    return 0


def _cmd_series_ztable(args):
    exps = _int_list(args.e_list, "--e-list")
    check_weight(args.max_i, "--max-i must be >= 0")
    c = len(exps)
    print(",".join(str(z_coeff(i, c, exps)) for i in range(args.max_i + 1)))
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
        y = pair(args.b, "--b")
        result = {"add": x + y, "mul": x * y, "sub": x - y}[args.op]
    elif args.op == "neg":
        result = -x
    elif args.op == "frobenius":
        result = x.frobenius()
    elif args.op == "verschiebung":
        result = x.verschiebung()
    else:  # ghost
        print(x.ghost())
        return 0
    print(f"{result.a0.lift()},{result.a1.lift()}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="torbound",
        description="Exact torsion-point bounds for complete intersections "
        "in abelian varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="full torsion-bound report")
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--c", type=int, required=True)
    p_bound.add_argument("--e", type=int, default=None,
                         help="single exponent, repeated c times")
    p_bound.add_argument("--e-list", default=None,
                         help="comma-separated exponent sequence of length c")
    p_bound.add_argument("--degL", type=int, required=True)
    p_bound.add_argument("--p", default="auto",
                         help="explicit prime above the threshold, or 'auto'")
    p_bound.add_argument("--mode", choices=["paper", "dual", "both"], default="both")
    p_bound.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p_bound.add_argument("--sweep-p", default=None, metavar="FROM:TO",
                         help="report every admissible prime in the range")
    p_bound.set_defaults(func=_cmd_bound)

    p_thresh = sub.add_parser("threshold", help="threshold and next admissible prime")
    p_thresh.add_argument("--kind", choices=["debarre", "lemma-p"], required=True)
    p_thresh.add_argument("--n", type=int, default=None)
    p_thresh.add_argument("--c", type=int, default=None)
    p_thresh.add_argument("--e", type=int, default=None)
    p_thresh.add_argument("--e-list", default=None)
    p_thresh.add_argument("--degL", type=int, default=None)
    p_thresh.add_argument("--deg-omega", type=int, default=None)
    p_thresh.set_defaults(func=_cmd_threshold)

    p_series = sub.add_parser("series", help="series toolkit")
    series_sub = p_series.add_subparsers(dest="series_command", required=True)

    p_invert = series_sub.add_parser("invert", help="invert a truncated series")
    p_invert.add_argument("--coeffs", required=True,
                          help="comma-separated coefficients, constant term first")
    p_invert.add_argument("--order", type=int, required=True)
    p_invert.set_defaults(func=_cmd_series_invert)

    p_wtable = series_sub.add_parser("wtable", help="inverse-power coefficient table")
    p_wtable.add_argument("--c", type=int, required=True)
    p_wtable.add_argument("--max-m", type=int, required=True)
    p_wtable.set_defaults(func=_cmd_series_wtable)

    p_ztable = series_sub.add_parser("ztable",
                                     help="inverse product-series coefficient table")
    p_ztable.add_argument("--e-list", required=True)
    p_ztable.add_argument("--max-i", type=int, required=True)
    p_ztable.set_defaults(func=_cmd_series_ztable)

    p_witt = sub.add_parser("witt", help="length-2 Witt vector arithmetic")
    p_witt.add_argument("--p", type=int, required=True)
    p_witt.add_argument("--op", required=True,
                        choices=["add", "mul", "sub", "neg",
                                 "frobenius", "verschiebung", "ghost"])
    p_witt.add_argument("--a", required=True, help="pair a0,a1")
    p_witt.add_argument("--b", default=None, help="pair b0,b1 (binary ops)")
    p_witt.set_defaults(func=_cmd_witt)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
