"""Command line interface.

Subcommands:
  ypq           enumerate quasi-regular first factors up to a bound
  join          build join records from (p, q) and a weight choice
  family        build a member of the quadratic sub-family
  verify-paper  re-derive both worked examples and the family against
                their recorded reference values
  profile       tabulate the Einstein profile of an exported record
  export        write a batch of records as JSON or CSV

Exit codes: 0 success, 1 verification or construction failure, or output
that cannot be written (an --out path, or standard output whose reader has
closed the pipe, as in ``sejoin ... | head -1``, which prints no
traceback), 2 usage error (including an input over one of the bounds
MAX_GRID, MAX_W_BOUND, MAX_FAMILY and MAX_YPQ below, and an F_coeffs list
of other than catalog.F_COEFFS entries).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional

from .catalog import (
    F_COEFFS,
    SERecord,
    enumerate_joins,
    enumerate_ypq,
    export_records,
    family_k2,
    family_record,
    record_to_dict,
    to_json,
    verify_paper_examples,
    weight_pairs,
    write_export,
    ypq_to_dict,
)
from .kernel import DomainError, Polynomial, fraction_to_decimal
from .metric import CalabiProfile
from .ypq import solve

# upper bound on profile --grid: the table is built in memory at about 0.5 KB
# per point, so 10^5 steps need about 60 MB
MAX_GRID = 10**5

# upper bound on --w-bound: the batch holds about 0.3*N^2 records, all built
# in memory before any is written, so 200 means about 12,000 records and
# 150 MB
MAX_W_BOUND = 200

# upper bound on ypq --max: the census tests about 0.3*N^2 pairs, so 10^4
# means about 3*10^7 square tests
MAX_YPQ = 10**4

# upper bound on export --family-t steps, built in memory at 3 ms and 15 KB each
MAX_FAMILY = 10**4


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError("not a rational number: %r" % (text,)) from exc


def _parse_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError("expected two comma-separated integers, got %r" % (text,))
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise DomainError("expected integers, got %r" % (text,)) from exc


def _parse_range(text: str):
    if ":" in text:
        lo, hi = text.split(":", 1)
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError as exc:
            raise DomainError("bad range %r" % (text,)) from exc
        if hi_i < lo_i:
            raise DomainError("empty range %r" % (text,))
        if hi_i - lo_i >= MAX_FAMILY:
            raise DomainError("--family-t must span at most %d steps" % MAX_FAMILY)
        return range(lo_i, hi_i + 1)
    try:
        return [int(text)]
    except ValueError as exc:
        raise DomainError("bad range %r" % (text,)) from exc


def _ypq_line(sol) -> str:
    return "p=%d q=%d  v2=(%d,%d) m2=%d a=%d I=%d" % (
        sol.p, sol.q, sol.v2_0, sol.v2_inf, sol.m2, sol.a, sol.fano_index)


def _render_record(rec: SERecord, digits: int) -> str:
    lines = [
        _ypq_line(rec.ypq),
        "w=(%d,%d) l=(%d,%d)" % (rec.w1, rec.w2, rec.l1, rec.l2),
    ]
    if rec.error is not None:
        lines.append("error: %s" % rec.error)
        return "\n".join(lines)
    if rec.ray.quasi_regular:
        lines.append(
            "ray: quasi-regular v3=(%d,%d) k=%s"
            % (rec.ray.v3_0, rec.ray.v3_inf, rec.k)
        )
    else:
        (lo, hi), (rlo, rhi) = rec.ray_cells(digits)
        lines.append("ray: irregular, k in [%s, %s]" % (lo, hi))
        lines.append("     ratio v3_inf/v3_0 in [%s, %s]" % (rlo, rhi))
    smooth_txt = "true" if rec.smooth else "false"
    if rec.smooth_witnesses:
        smooth_txt += "  witnesses %s" % (list(rec.smooth_witnesses),)
    lines.append("smooth: %s" % smooth_txt)
    if rec.quotient is not None:
        quo = rec.quotient
        lines.append(
            "quotient: s=%d m3=%d n=%d b=%d c=%d" % (quo.s, quo.m3, quo.n, quo.b, quo.c)
        )
        lines.append("m=%s" % (quo.m,))
        lines.append(
            "r3=%s ke1=%s ke2=%s log_fano=%s"
            % (rec.r3, str(rec.ke1).lower(), str(rec.ke2).lower(), str(rec.log_fano).lower())
        )
        if rec.torsion is not None:
            lines.append("H4 torsion: Z_%d + Z_%d" % (rec.torsion.A, rec.torsion.B))
        if rec.profile is not None:
            lines.append(
                "F coefficients: %s" % [str(cf) for cf in rec.profile.F.coeffs]
            )
    return "\n".join(lines)


def _cmd_ypq(args) -> int:
    if args.max > MAX_YPQ:
        raise DomainError("--max must be <= %d, got %d" % (MAX_YPQ, args.max))
    sols = enumerate_ypq(args.max)
    if args.json:
        rows = [dict(ypq_to_dict(s), m2_pair=[str(s.m2_0), str(s.m2_inf)]) for s in sols]
        print(to_json(rows))
        return 0
    # (p,q) = (1,0) is the round homogeneous structure; it sits outside the
    # p > q >= 1 enumeration and all its parameters are 1 by convention
    print("p=1 q=0  homogeneous case (excluded from enumeration; all parameters 1)")
    counts = {}
    for sol in sols:
        counts[sol.p] = counts.get(sol.p, 0) + 1
        print(_ypq_line(sol))
    if counts:
        summary = ", ".join("p=%d: %d" % (p, c) for p, c in sorted(counts.items()))
        print("ray counts per admissible p: %s" % summary)
    else:
        print("no quasi-regular pairs up to %d" % args.max)
    return 0


def _weight_source(args):
    """The weight flags of join and export that are given, parsed, as the
    keyword arguments of catalog.weight_pairs, which checks that there is
    exactly one.  A value that does not parse or a --w-bound above
    MAX_W_BOUND raises DomainError, before any record is built."""
    choice = {}
    if args.k is not None:
        choice["k"] = _parse_rational(args.k)
    if args.w is not None:
        choice["w"] = _parse_pair(args.w)
    if args.k_list is not None:
        choice["k_list"] = [_parse_rational(t) for t in args.k_list.split(",")]
    if args.w_bound is not None:
        if args.w_bound > MAX_W_BOUND:
            raise DomainError("--w-bound must be <= %d, got %d"
                              % (MAX_W_BOUND, args.w_bound))
        choice["w_bound"] = args.w_bound
    return choice


def _cmd_join(args) -> int:
    choice = _weight_source(args)
    if (args.p, args.q) == (1, 0):
        # round homogeneous structure; sits outside the p > q >= 1 theory,
        # so no record is built, but the weight flags are range-checked as
        # for any other join
        if choice:
            weight_pairs(**choice)
        if args.json:
            print(to_json({"homogeneous": True, "p": "1", "q": "0",
                           "note": "all parameters 1"}))
        else:
            print("p=1 q=0  homogeneous case: all parameters 1, torsion trivial")
        return 0
    records = enumerate_joins(solve(args.p, args.q), **choice)
    if args.json:
        sys.stdout.write(export_records(records, "json", args.digits))
    else:
        print("\n\n".join(_render_record(r, args.digits) for r in records))
    return 1 if any(r.error for r in records) else 0


def _cmd_family(args) -> int:
    if (args.t is None) == (args.k2 is None):
        raise DomainError("give exactly one of --t and --k2")
    k2 = family_k2(args.t) if args.t is not None else args.k2
    rec = family_record(k2)
    if args.json:
        print(to_json(record_to_dict(rec, args.digits)))
    else:
        print("k2=%d" % k2)
        print(_render_record(rec, args.digits))
    return 0


def _cmd_verify(args) -> int:
    report = verify_paper_examples(corrupt=args.corrupt)
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_profile(args) -> int:
    if args.grid > MAX_GRID:
        raise DomainError("--grid must be <= %d, got %d" % (MAX_GRID, args.grid))
    try:
        with open(args.record, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise RuntimeError("cannot read %s: %s" % (args.record, exc)) from exc
    except ValueError as exc:
        raise DomainError("%s is not valid JSON: %s" % (args.record, exc)) from exc
    if isinstance(data, list):
        if len(data) != 1:
            raise DomainError("record file must contain exactly one record, got %d" % len(data))
        data = data[0]
    if not isinstance(data, dict):
        raise DomainError("%s does not hold a record object" % args.record)
    coeffs = data.get("F_coeffs")
    r3 = data.get("r3")
    if coeffs is None or r3 is None:
        print("record has no Einstein profile", file=sys.stderr)
        return 1
    try:
        if not isinstance(coeffs, list) or len(coeffs) != F_COEFFS:
            raise DomainError("F_coeffs must be a list of %d entries" % F_COEFFS)
        # as exported: exact rationals written as strings, never JSON numbers
        if not all(isinstance(v, str) for v in [r3] + coeffs):
            raise DomainError("r3 and the F_coeffs entries must be strings")
        profile = CalabiProfile(r3=Fraction(r3), F=Polynomial([Fraction(cf) for cf in coeffs]))
        lines = ["F coefficients: %s" % [str(cf) for cf in profile.F.coeffs],
                 "%-12s %s" % ("z", "Theta(z)")]
        for z, theta in profile.grid(args.grid):
            if args.decimal:
                lines.append("%-12s %-24s %s"
                             % (z, theta, fraction_to_decimal(theta, 50)))
            else:
                lines.append("%-12s %s" % (z, theta))
    except DomainError:
        raise
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError("malformed record in %s: %s" % (args.record, exc)) from exc
    print("\n".join(lines))
    return 0


def _cmd_export(args) -> int:
    if args.family_t is not None:
        if any(v is not None for v in (args.p, args.q, args.k, args.w,
                                       args.k_list, args.w_bound)):
            raise DomainError("--family-t cannot be combined with join flags")
        records = [family_record(family_k2(t)) for t in _parse_range(args.family_t)]
    else:
        if args.p is None or args.q is None:
            raise DomainError("export needs --family-t or --p/--q with a weight choice")
        choice = _weight_source(args)
        records = enumerate_joins(solve(args.p, args.q), **choice)
    if args.out is None:
        sys.stdout.write(export_records(records, args.format, args.digits))
    else:
        write_export(records, args.format, args.out, args.digits)
    return 1 if any(r.error for r in records) else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one command-line parser, built on the first call.

    ``main`` parses every argv with it, so a process that calls ``main``
    many times builds it once.  Parsing leaves it unchanged; callers must
    not mutate it (no ``set_defaults`` or ``add_argument``), since every
    later call would see the change."""
    parser = argparse.ArgumentParser(
        prog="sejoin",
        description="Exact construction and enumeration of Sasaki-Einstein "
                    "7-manifold joins and their quotient orbifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ypq = sub.add_parser("ypq", help="enumerate quasi-regular first factors")
    p_ypq.add_argument(
        "--max", type=int, required=True,
        help="upper bound for p, at most %d; the homogeneous pair (1,0) is "
             "listed separately by convention with all parameters 1" % MAX_YPQ,
    )
    p_ypq.add_argument("--json", action="store_true")
    p_ypq.set_defaults(func=_cmd_ypq)

    def add_join_flags(sp):
        sp.add_argument("--p", type=int, default=None)
        sp.add_argument("--q", type=int, default=None)
        sp.add_argument("--k", default=None, help="rational k > 1, e.g. 2 or 3/2")
        sp.add_argument("--w", default=None, help="weights, e.g. 34,11")
        sp.add_argument("--k-list", dest="k_list", default=None,
                        help="comma-separated rationals")
        sp.add_argument("--w-bound", dest="w_bound", type=int, default=None,
                        help="enumerate all coprime weight pairs up to bound, "
                             "at most %d" % MAX_W_BOUND)
        sp.add_argument("--digits", type=int, default=40,
                        help="certified decimal digits for irrational values")

    p_join = sub.add_parser("join", help="build join records")
    add_join_flags(p_join)
    p_join.add_argument("--json", action="store_true")
    p_join.set_defaults(func=_cmd_join)

    p_fam = sub.add_parser("family", help="build a quadratic-family record")
    p_fam.add_argument("--t", type=int, default=None, help="family step (k2 = 255t+10)")
    p_fam.add_argument("--k2", type=int, default=None, help="family parameter directly")
    p_fam.add_argument("--digits", type=int, default=40)
    p_fam.add_argument("--json", action="store_true")
    p_fam.set_defaults(func=_cmd_family)

    p_ver = sub.add_parser(
        "verify-paper",
        help="re-derive the worked examples and family against reference values",
    )
    p_ver.add_argument("--corrupt", default=None, help=argparse.SUPPRESS)
    p_ver.set_defaults(func=_cmd_verify)

    p_prof = sub.add_parser("profile", help="tabulate an exported Einstein profile")
    p_prof.add_argument("--record", required=True, help="JSON record file")
    p_prof.add_argument("--grid", type=int, default=16,
                        help="number of grid steps, at most %d" % MAX_GRID)
    p_prof.add_argument("--decimal", action="store_true",
                        help="also render Theta at 50 decimal digits")
    p_prof.set_defaults(func=_cmd_profile)

    p_exp = sub.add_parser("export", help="write records as JSON or CSV")
    add_join_flags(p_exp)
    p_exp.add_argument("--family-t", dest="family_t", default=None,
                       help="family step or range, e.g. 3 or 1:10, at most %d "
                            "steps" % MAX_FAMILY)
    p_exp.add_argument("--format", required=True, choices=("json", "csv"))
    p_exp.add_argument("--out", default=None, help="output path (stdout if omitted)")
    p_exp.set_defaults(func=_cmd_export)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        # argparse drops an error of its own --help write and exits by
        # SystemExit, so the help is written here, where a closed pipe raises
        shown = io.StringIO()
        try:
            with contextlib.redirect_stdout(shown):
                args = parser.parse_args(argv)
        finally:
            sys.stdout.write(shown.getvalue())
            sys.stdout.flush()
        digits = getattr(args, "digits", 1)
        if digits < 1:
            raise DomainError("--digits must be >= 1, got %d" % digits)
        # decimals are printed from ints, and Python refuses to print an int
        # longer than this (0: no limit)
        limit = sys.get_int_max_str_digits()
        if limit and digits > limit:
            raise DomainError("--digits must be <= %d, got %d" % (limit, digits))
        code = args.func(args)
        # a closed pipe raises here, not in the flush at interpreter exit
        sys.stdout.flush()
        return code
    except DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to /dev/null, so
        # the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
