"""Command-line front end: batch decision queries over vector files.

Exit codes are uniform across subcommands: 0 = positive verdict
(convertible / verified / no violation), 1 = negative or undecided,
2 = input error.  All vectors are JSON arrays of exact literals: strings
("0.4", "2/5") or JSON numbers, each number read as the decimal it is
written as (0.4 is 2/5), so every comparison is an exact rational one.

Every command is a function (x, y, args) -> (payload, holds) of the
loaded --x (None for classify, which takes none) and --y.  main is the
one exit: it loads the vectors, runs the command, prints the payload
once, as JSON or as "key: value" lines, and returns 0 if it holds, else
1; an input error on the way prints "error: ..." to stderr and returns
2.  The catalyst actions sit in one table (_ACTIONS), and the reason the
library hands over when it excludes a pair (mlocc._scan,
catalysis._search) is worded from one table (_EXCLUSIONS).

A process has one argparse parser: the first main call builds it, and
every later call in the process only parses.  A one-shot process
(``python -m trumpkit.cli``) pays for that one build.
"""

from __future__ import annotations

import argparse
import functools
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
    sp.add_argument("action", choices=list(_ACTIONS))
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


def cmd_majorize(x, y, args):
    rep = majorizes(x, y)
    return rep.to_json(), rep.holds


def cmd_mlocc(x, y, args):
    scan, reason = mlocc._scan(x, y, args.k_max)
    payload = scan.to_json()
    if scan.first_success is None:
        payload["flag"] = "unknown" if reason is None else "not_member"
    return payload, scan.first_success is not None


def _certificate(cert, x, y, args):
    """A certificate's payload and verdict; with --transcript, the payload
    also lists the leading prefix masses of x (x) c and y (x) c."""
    payload = cert.to_json()
    if args.transcript:
        sc = catalysis.reduce_catalyst(cert.catalyst)
        count = min(x.dim * sc.total_count, 64) - 1
        ex = _leading_prefix_masses(x, sc, count)
        ey = _leading_prefix_masses(y, sc, count)
        payload["transcript"] = [
            {"l": l, "ex": str(a), "ey": str(b)}
            for l, (a, b) in enumerate(zip(ex, ey), 1)]
    return payload, cert.verified


# the kind of an exclusion reason (renyi._exclusion: a label string or an
# order int) -> its JSON key, and how catalyst build and catalyst search
# word it
_EXCLUSIONS = {
    str: ("failed_endpoint", "the endpoint test fails (%s)",
          "the endpoint test %s fails"),
    int: ("refuting_order", "the power sum of order %d refutes every k",
          "the power sum of order %d refutes the pair"),
}


def _catalyst_build(x, y, args):
    if args.k is not None:
        cert = catalysis.build_catalyst_thm1(x, y, args.k)
        return _certificate(cert, x, y, args)
    scan, reason = mlocc._scan(x, y, args.k_max)
    if reason is not None:
        key, phrase, _ = _EXCLUSIONS[type(reason)]
        return {"error": "no k exists: " + phrase % reason,
                key: reason}, False
    if scan.first_success is None:
        return {"error": "no multi-copy witness within k_max=%d"
                % args.k_max}, False
    cert = catalysis._thm1_catalyst(x, y, scan.first_success)
    return _certificate(cert, x, y, args)


def _catalyst_combine(x, y, args):
    if args.c is None or args.k is None:
        raise ValueError("combine requires --c and --k")
    cert = catalysis.combine_catalysts(x, y, args.k, load_vector(args.c))
    return _certificate(cert, x, y, args)


def _catalyst_lift(x, y, args):
    if args.c is None:
        raise ValueError("lift requires --c")
    cert = catalysis.lift_catalyst(x, y, load_vector(args.c), args.n_copies)
    return _certificate(cert, x, y, args)


def _catalyst_search(x, y, args):
    cert, reason = catalysis._search(x, y, args.dim_c, args.budget,
                                     args.seed)
    if cert is not None:
        return _certificate(cert, x, y, args)
    if reason is None:
        return {"result": "absent",
                "note": "no catalyst found within budget; absence is "
                        "not a proof of nonexistence"}, False
    key, _, phrase = _EXCLUSIONS[type(reason)]
    return {"result": "none", key: reason,
            "note": "no catalyst of any dimension exists: " + phrase
            % reason}, False


def _catalyst_scan(x, y, args):
    if args.c is None:
        raise ValueError("scan requires --c")
    result = catalysis.multicopy_catalyst_scan(x, y, load_vector(args.c),
                                               args.m_max)
    return ({str(m): ok for m, ok in sorted(result.items())},
            any(result.values()))


def cmd_catalyst(x, y, args):
    return _ACTIONS[args.action](x, y, args)


def cmd_classify(x, y, args):
    return mlocc.classify_usefulness(y).to_json(), True


def cmd_rfilter(x, y, args):
    grid = args.alpha_grid
    if grid is not None:  # an empty grid is r_filter's error, not the default
        grid = tuple(float(a) for a in grid.split(",")) if grid else ()
    verdict = renyi.r_filter(x, y, grid)
    return verdict.to_json(), not verdict.violated


# catalyst action -> its command, in the order of the action choice list
_ACTIONS = {"build": _catalyst_build, "combine": _catalyst_combine,
            "lift": _catalyst_lift, "search": _catalyst_search,
            "scan": _catalyst_scan}

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


@functools.cache
def _parser():
    """The parser of all five subcommands with all their arguments, built
    once per process.  argparse reads the terminal width when it formats
    help or an error, not when it builds, so the cached parser prints what
    a fresh one would."""
    p = argparse.ArgumentParser(
        prog="trumpkit",
        description="Decision toolkit for single-copy, multiple-copy and "
                    "catalyst-assisted entanglement transformations.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in _SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        x = load_vector(args.x) if "x" in args else None
        payload, holds = _SUBCOMMANDS[args.command][2](
            x, load_vector(args.y), args)
        _emit(payload, args.as_json)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
