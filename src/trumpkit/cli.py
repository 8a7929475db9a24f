"""Command-line front end: batch decision queries over vector files.

Exit codes are uniform across subcommands: 0 = positive verdict
(convertible / verified / no violation), 1 = negative or undecided,
2 = input error.  All vectors are JSON arrays of exact literals: strings
("0.4", "2/5") or JSON numbers, each number read as the decimal it is
written as (0.4 is 2/5), so every comparison is an exact rational one.
"""

from __future__ import annotations

import argparse
import heapq
import json
import sys
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat

from . import catalysis, mlocc, renyi
from .majorize import majorizes
from .specvec import load_vector


def _common(sp, need_x=True):
    if need_x:
        sp.add_argument("--x", required=True, metavar="FILE",
                        help="source vector file")
    sp.add_argument("--y", required=True, metavar="FILE",
                    help="target vector file")
    sp.add_argument("--json", action="store_true", dest="as_json",
                    help="machine-readable output")


def _mlocc_args(sp):
    _common(sp)
    sp.add_argument("--k-max", type=int, default=8)


def _catalyst_args(sp):
    sp.add_argument("action",
                    choices=["build", "combine", "lift", "search", "scan"])
    _common(sp)
    sp.add_argument("--c", metavar="FILE", help="catalyst vector file "
                    "(combine/lift/scan)")
    sp.add_argument("--k", type=int, default=None,
                    help="copy count for build/combine (default: auto-scan)")
    sp.add_argument("--k-max", type=int, default=8)
    sp.add_argument("--n-copies", type=int, default=1, help="lift target")
    sp.add_argument("--m-max", type=int, default=8, help="scan range")
    sp.add_argument("--dim-c", type=int, default=2, help="search dimension")
    sp.add_argument("--budget", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--transcript", action="store_true",
                    help="print the verification transcript")


def _classify_args(sp):
    _common(sp, need_x=False)


def _rfilter_args(sp):
    _common(sp)
    sp.add_argument("--alpha-grid", default=None,
                    help="comma-separated orders overriding the default")


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, val in payload.items():
            print("%s: %s" % (key, val))


def _leading_prefix_masses(s, sc, count):
    """e_1, ..., e_count of s (x) sc, read from a lazy merge of the rows
    u * sc over the blocks (u, m) of s; the product is never built."""
    def row(u, m):
        return ((u * v, m * c) for v, c in zip(sc._int_vals, sc._counts))

    merged = heapq.merge(*(row(u, m) for u, m in zip(s._int_vals, s._counts)),
                         reverse=True)
    entries = chain.from_iterable(repeat(v, min(c, count)) for v, c in merged)
    scale = s._scale * sc._scale
    return [Fraction(e, scale) for e in accumulate(islice(entries, count))]


def cmd_majorize(args) -> int:
    x = load_vector(args.x)
    y = load_vector(args.y)
    rep = majorizes(x, y)
    _emit(rep.to_json(), args.as_json)
    return 0 if rep.holds else 1


def cmd_mlocc(args) -> int:
    x = load_vector(args.x)
    y = load_vector(args.y)
    scan = mlocc.scan_Mk(x, y, args.k_max)
    payload = scan.to_json()
    if scan.first_success is None:
        excluded = scan.short_circuited or scan.refuting_order is not None
        payload["flag"] = "not_member" if excluded else "unknown"
    _emit(payload, args.as_json)
    return 0 if scan.first_success is not None else 1


def cmd_catalyst(args) -> int:
    x = load_vector(args.x)
    y = load_vector(args.y)
    if args.action == "build":
        if args.k is None:
            scan = mlocc.scan_Mk(x, y, args.k_max)
            if scan.short_circuited:
                test = renyi._failed_endpoint(x, y)
                _emit({"error": "no k exists: the endpoint test fails "
                       "(%s)" % test, "failed_endpoint": test}, args.as_json)
                return 1
            if scan.refuting_order is not None:
                _emit({"error": "no k exists: the power sum of order %d "
                       "refutes every k" % scan.refuting_order,
                       "refuting_order": scan.refuting_order}, args.as_json)
                return 1
            k = scan.first_success
            if k is None:
                _emit({"error": "no multi-copy witness within k_max=%d"
                       % args.k_max}, args.as_json)
                return 1
            cert = catalysis._thm1_catalyst(x, y, k)
        else:
            cert = catalysis.build_catalyst_thm1(x, y, args.k)
    elif args.action == "combine":
        if args.c is None or args.k is None:
            raise ValueError("combine requires --c and --k")
        cp = load_vector(args.c)
        cert = catalysis.combine_catalysts(x, y, args.k, cp)
    elif args.action == "lift":
        if args.c is None:
            raise ValueError("lift requires --c")
        c = load_vector(args.c)
        cert = catalysis.lift_catalyst(x, y, c, args.n_copies)
    elif args.action == "search":
        cert = catalysis._search(x, y, args.dim_c, args.budget, args.seed)
        if isinstance(cert, str):
            _emit({"result": "none", "failed_endpoint": cert,
                   "note": "no catalyst of any dimension exists: the "
                           "endpoint test %s fails" % cert}, args.as_json)
            return 1
        if isinstance(cert, int):
            _emit({"result": "none", "refuting_order": cert,
                   "note": "no catalyst of any dimension exists: the "
                           "power sum of order %d refutes the pair"
                           % cert}, args.as_json)
            return 1
        if cert is None:
            _emit({"result": "absent",
                   "note": "no catalyst found within budget; absence is "
                           "not a proof of nonexistence"}, args.as_json)
            return 1
    else:  # scan
        if args.c is None:
            raise ValueError("scan requires --c")
        c = load_vector(args.c)
        result = catalysis.multicopy_catalyst_scan(x, y, c, args.m_max)
        _emit({str(m): ok for m, ok in sorted(result.items())},
              args.as_json)
        return 0 if any(result.values()) else 1
    payload = cert.to_json()
    if args.transcript:
        sc = catalysis.reduce_catalyst(cert.catalyst)
        count = min(x.dim * sc.total_count, 64) - 1
        ex = _leading_prefix_masses(x, sc, count)
        ey = _leading_prefix_masses(y, sc, count)
        payload["transcript"] = [
            {"l": l, "ex": str(a), "ey": str(b)}
            for l, (a, b) in enumerate(zip(ex, ey), 1)]
    _emit(payload, args.as_json)
    return 0 if cert.verified else 1


def cmd_classify(args) -> int:
    y = load_vector(args.y)
    verdict = mlocc.classify_usefulness(y)
    _emit(verdict.to_json(), args.as_json)
    return 0


def cmd_rfilter(args) -> int:
    x = load_vector(args.x)
    y = load_vector(args.y)
    grid = args.alpha_grid
    if grid is not None:  # an empty grid is r_filter's error, not the default
        grid = tuple(float(a) for a in grid.split(",")) if grid else ()
    verdict = renyi.r_filter(x, y, grid)
    _emit(verdict.to_json(), args.as_json)
    return 0 if not verdict.violated else 1


# name -> (help line, the function that adds its arguments, the command),
# in the order of the usage line's choice list
_SUBCOMMANDS = {
    "majorize": ("single-copy convertibility", _common, cmd_majorize),
    "mlocc": ("multiple-copy scan over k", _mlocc_args, cmd_mlocc),
    "catalyst": ("catalyst construction/search", _catalyst_args,
                 cmd_catalyst),
    "classify": ("is more than one copy ever useful for y?", _classify_args,
                 cmd_classify),
    "rfilter": ("Renyi-entropy dominance filter", _rfilter_args,
                cmd_rfilter),
}


def _build_parser(argv=None):
    """The parser for argv (sys.argv[1:] when None).

    When argv starts with a subcommand, only that one is registered: no
    top-level option comes before it, so argparse can dispatch nowhere
    else.  The metavar then spells out all five choices, so the usage
    line of an "unrecognized arguments" error is the full parser's.
    Every other argv registers all five and no metavar, since a metavar
    would rename the group in the "required: command" and invalid-choice
    errors.  Only the subcommand that argparse dispatches to gets its
    arguments: the first token of argv that does not start with "-".
    That token is the subcommand because the top-level parser has no
    option that takes a value; a token that argparse reads as a
    positional although it starts with "-" ("-1", "-") comes first and
    is rejected as an invalid choice before any subcommand parses.
    Nothing is kept between calls.
    """
    if argv is None:
        argv = sys.argv[1:]
    command = next((a for a in argv if not a.startswith("-")), None)
    alone = bool(argv) and argv[0] in _SUBCOMMANDS
    p = argparse.ArgumentParser(
        prog="trumpkit",
        description="Decision toolkit for single-copy, multiple-copy and "
                    "catalyst-assisted entanglement transformations.")
    sub = p.add_subparsers(
        dest="command", required=True,
        metavar="{%s}" % ",".join(_SUBCOMMANDS) if alone else None)
    for name, (help_line, add_arguments, _) in _SUBCOMMANDS.items():
        if alone and name != command:
            continue
        sp = sub.add_parser(name, help=help_line)
        if name == command:
            add_arguments(sp)
    return p


def main(argv=None) -> int:
    args = _build_parser(argv).parse_args(argv)
    try:
        return _SUBCOMMANDS[args.command][2](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
