"""Renyi entropies and the entropy-dominance necessary-condition filter.

The one-parameter entropy family sgn(a)/(1-a) * log2(sum_i x_i^a), summed
over the nonzero entries only, with the four limit cases a -> 0, 1, +inf,
-inf.  A state convertible to y (with or without catalysts or extra
copies) must dominate y's whole entropy spectrum, so a single grid point
where the source's entropy dips below the target's disproves
convertibility.  The filter is one-sided: a finite grid can refute but
never certify dominance.

Every order it tests is Schur-concave on the pairs it tests it on, so a
pair already majorized at one copy (majorize._verdict, the exact
breakpoint walk) can have no dip, and r_filter answers it from the walk
without evaluating an order; see r_filter for the argument in each mode.

The exact order tests live here once.  One comparer (_first_excess)
compares integer power sums, both for r_filter's integer orders (_dips)
and for the runs of power_sum_refutation; one count rule (_count_mode)
says from the nonzero counts which orders count.  The exclusion rule
that mlocc, catalysis and the CLI share (_exclusion: the endpoint tests
of _failed_endpoint, then power_sum_refutation) sits beside them.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple, Optional, Union

from .majorize import _verdict
from .specvec import ProbVec, _check_dims, _ends

POS_INF = math.inf
NEG_INF = -math.inf

#: Default evaluation grid (limits and a=1 are always added on top).
DEFAULT_ALPHA_GRID = (-64.0, -32.0, -16.0, -8.0, -4.0, -2.0, -0.5,
                      0.0, 0.5, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


# Order 1 and the non-integer orders compare float entropies; a gap this
# small counts as a tie.
_FLOAT_TOL = 1e-12


def _power_terms(s: ProbVec, reciprocal: bool):
    """Numerators, counts and scale of the nonzero values of s, or of
    their reciprocals: 1 / (p / D) = D * (L // p) / L, L the lcm of the
    nonzero numerators."""
    vals, counts = ((s._int_vals, s._counts) if s._int_vals[-1]
                    else (s._int_vals[:-1], s._counts[:-1]))
    if not reciprocal:
        return vals, counts, s._scale
    lcm = math.lcm(*vals)
    return [s._scale * (lcm // p) for p in vals], counts, lcm


def _first_excess(tx, ty, first: int, last: int):
    """Least e in first..last with P_e(x) > P_e(y), or None: the one
    exact power-sum comparer.

    tx and ty are _power_terms of x and y, numerators u and w with counts
    m and n over the scales fu and fw; order e compares
    sum m_i u_i^e * fw^e with sum n_j w_j^e * fu^e.  The powers at first
    are taken with ** (at first = 1 they are the terms), every later one
    as a running product, and none past the answer."""
    (u, m, fu), (w, n, fw) = tx, ty
    e, gu, gw = first, fu ** first, fw ** first
    pu, pw = (u, w) if e == 1 else ([p ** e for p in u], [p ** e for p in w])
    while sum(map(mul, m, pu)) * gw <= sum(map(mul, n, pw)) * gu:
        if e == last:
            return None
        e += 1
        pu, pw = list(map(mul, pu, u)), list(map(mul, pw, w))
        gu, gw = gu * fu, gw * fw
    return e


def _count_mode(x: ProbVec, y: ProbVec) -> Optional[str]:
    """The one rule on nonzero counts that every exact order test reads.

    None when x has fewer nonzero entries than y, which order 0 refutes
    (S_0 is log2 of the count); "dims_equal" when the counts agree, the
    only case in which negative orders and -inf count; "dims_differ"
    when x has more, where they prove nothing."""
    d_x, d_y = x.nonzero_dim, y.nonzero_dim
    if d_x < d_y:
        return None
    return "dims_equal" if d_x == d_y else "dims_differ"


def power_sum_refutation(sx: ProbVec, sy: ProbVec) -> Optional[int]:
    """First integer order that proves no number of copies and no
    catalyst turns x into y, or None.

    The power sum P_a(v) = sum of v_i^a over the nonzero entries is
    multiplicative: P_a(x^(x)k) = P_a(x)^k and P_a(x (x) c) =
    P_a(x) P_a(c).  x majorized by y forces P_a(x) <= P_a(y) for every
    a > 1, since t^a is convex.  It also forces x to have at least as many
    nonzero entries as y (order 0), and when the counts are equal,
    P_a(x) <= P_a(y) for every a < 0: both supports are then a prefix of
    the same length that x's majorizes, and t^a is convex on t > 0.  So
    an order that breaks one of these at one copy breaks it at every k
    and with every catalyst of any dimension.

    Orders run 2..8, then -1..-8 when x and y have equally many nonzero
    entries, or 0 when x has fewer (with more, negative orders prove
    nothing): the count rule of _count_mode.  Of 100 pairs from the multicopy benchmark's mid slots (both
    endpoint tests pass, one copy fails) that do not convert at the slot's
    k, orders 2..8 and -1..-8 refuted 79 and orders 9..32 one more, so the
    list stops at 8.

    All arithmetic is on the vectors' integers.  With x's values p_i / D_x
    (counts m_i) and y's q_j / D_y (counts n_j), order a > 0 compares
    sum m_i p_i^a * D_y^a with sum n_j q_j^a * D_x^a, and a negative order
    compares the reciprocals the same way over the lcm of the numerators.
    The comparer (_first_excess) runs each of the two lists, and the
    first violation stops the test.
    """
    order = _first_excess(_power_terms(sx, False), _power_terms(sy, False),
                          2, 8)
    if order is not None:
        return order
    mode = _count_mode(sx, sy)
    if mode != "dims_equal":
        return 0 if mode is None else None
    order = _first_excess(_power_terms(sx, True), _power_terms(sy, True), 1, 8)
    return None if order is None else -order


def renyi_entropy(x: ProbVec, alpha) -> float:
    """Renyi entropy at any extended-real order.

    Integer orders go through exact integer power sums, on the terms of
    _power_terms (reciprocal for alpha < 0) raised to |alpha|, before the
    single log; non-integer orders evaluate in floating point
    (irrational powers have no exact representation), on the nonzero
    entries p / D as correctly rounded floats, summed entry by entry from
    the largest.  Where a term overflows or the sum underflows to 0, as
    at large |alpha|, the sum is taken in log space instead, shifted by
    its largest term's log2.
    """
    vals, counts, scale = _power_terms(x, False)
    if alpha == POS_INF:
        return -math.log2(vals[0] / scale)
    if alpha == NEG_INF:
        return math.log2(vals[-1] / scale)
    if alpha == 0:
        return math.log2(sum(counts))
    sgn = 1.0 if alpha >= 0 else -1.0
    if alpha != 1 and float(alpha) == int(alpha):
        a = abs(int(alpha))
        vals, counts, scale = _power_terms(x, alpha < 0)
        num, den = sum(m * p ** a for p, m in zip(vals, counts)), scale ** a
        g = math.gcd(num, den)
        # big-int-safe log2 in lowest terms: exact power sums overflow
        # float at large |alpha|
        log_s = math.log2(num // g) - math.log2(den // g)
    else:
        # p / D is correctly rounded, so it is float(Fraction(p, D))
        nz = [p / scale for p, m in zip(vals, counts) for _ in range(m)]
        if alpha == 1:
            return -sum(v * math.log2(v) for v in nz)
        a = float(alpha)
        try:
            total = sum(v ** a for v in nz)
        except OverflowError:
            total = math.inf
        if 0 < total < math.inf:
            log_s = math.log2(total)
        else:
            logs = [a * math.log2(v) for v in nz]
            top = max(logs)
            log_s = top + math.log2(sum(2.0 ** (t - top) for t in logs))
    return sgn / (1.0 - float(alpha)) * log_s


class RFilterVerdict(NamedTuple):
    status: str  # "violated" | "no_violation_found"
    violating_alpha: Optional[float] = None
    mode: str = "dims_equal"  # "dims_differ" | "dims_equal"
    grid_used: tuple = ()
    # the grid has non-integer orders, which go through floats; a = 1
    # (Shannon) does too but is not counted until it is certified (an open
    # ROADMAP.md item).  It describes the grid's orders, whether or not
    # they were evaluated: a pair the walk settles evaluates none.
    float_alphas_used: bool = False

    @property
    def violated(self) -> bool:
        return self.status == "violated"

    def to_json(self):
        va = self.violating_alpha
        if va is not None and math.isinf(va):
            va = "inf" if va > 0 else "-inf"
        return {
            "status": self.status,
            "violating_alpha": va,
            "mode": self.mode,
            "grid_used": ["inf" if math.isinf(a) and a > 0 else
                          "-inf" if math.isinf(a) else a
                          for a in self.grid_used],
            "float_alphas_used": self.float_alphas_used,
        }


def _dips(x: ProbVec, y: ProbVec, alpha) -> bool:
    """Is S(x) < S(y) at one order?

    Every order but 1 and the non-integer ones is a rational comparison
    on the vectors' integers: the nonzero counts at 0 (_count_mode), the
    largest values at +inf (S = -log2 max, read from specvec._ends), the
    smallest nonzero values at -inf (S = log2 min), and the power sums of
    the one comparer (_first_excess) at the other integers, whose order
    the entropy reverses at a > 1 and a < 0.  Order 1 and the non-integer
    orders use floats with a tolerance."""
    if alpha == POS_INF:
        x1, y1 = _ends(x, y)[0]
        return y1 < x1
    if alpha == NEG_INF:
        (u, _, fu), (w, _, fw) = _power_terms(x, False), _power_terms(y, False)
        return u[-1] * fw < w[-1] * fu
    if float(alpha) == int(alpha) and int(alpha) != 1:
        a = int(alpha)
        if a == 0:
            return _count_mode(x, y) is None
        tx, ty = _power_terms(x, a < 0), _power_terms(y, a < 0)
        return _first_excess(tx, ty, abs(a), abs(a)) is not None
    return renyi_entropy(x, alpha) - renyi_entropy(y, alpha) < -_FLOAT_TOL


def _failed_endpoint(x: ProbVec, y: ProbVec) -> Optional[str]:
    """The endpoint test that x -> y fails, "x_1 <= y_1" or "x_n >= y_n",
    or None.  Each is necessary at every k and with every catalyst.

    Both read one specvec._ends.  The head test is _dips at +inf; the
    tail test is not _dips at -inf: x_n >= y_n counts zero entries
    (x_n = 0 < y_n fails it), while -inf compares the smallest nonzero
    ones."""
    (x1, y1), (xn, yn) = _ends(x, y)
    if y1 < x1:
        return "x_1 <= y_1"
    if xn < yn:
        return "x_n >= y_n"
    return None


def _exclusion(x: ProbVec, y: ProbVec) -> Union[str, int, None]:
    """Why no k and no catalyst turns x into y: the endpoint test that
    fails (_failed_endpoint, a non-empty string), else the order of a
    refuting power sum (power_sum_refutation, an int, possibly 0), else
    None; callers test the answer with `is not None`.  mlocc, catalysis
    and the CLI all exclude pairs through it."""
    return _failed_endpoint(x, y) or power_sum_refutation(x, y)


def r_filter(x: ProbVec, y: ProbVec, grid=None) -> RFilterVerdict:
    """Entropy-dominance check of x against target y.

    With d_x > d_y only nonnegative orders are tested; with d_x = d_y the
    whole real line is.  d_x < d_y is an immediate violation (already
    visible at order 0, where entropy is log2 of the nonzero count).
    Reports the first grid order where x's entropy is strictly below y's;
    "no_violation_found" is not a membership certificate.

    A pair with x majorized by y at one copy (majorize._verdict does not
    fail) is answered "no_violation_found" by that walk alone, with the
    same mode, grid and float flag, and no order is evaluated.  This is
    exact: S_a is Schur-concave at every a >= 0 and at +inf, so x
    majorized by y gives S_a(x) >= S_a(y) there, which covers every
    order of "dims_differ" mode.  In "dims_equal" mode x and y have
    equally many nonzero entries d, and x's d nonzero entries are
    majorized by y's (both prefix sums reach 1 at d); t^a is convex on
    t > 0 for a < 0, so P_a(x) <= P_a(y), that is S_a(x) >= S_a(y), at
    every negative order, and x's smallest nonzero entry is at least
    y's, which is -inf.  Pairs the walk fails run the orders one by one,
    all but order 0, which only the count test above can fail.  Every
    grid order is read (for float_alphas_used) before the walk, so a
    grid the orders would refuse, such as one holding nan, raises on a
    walked pair too.
    """
    _check_dims(x, y)
    if grid is None:
        grid = DEFAULT_ALPHA_GRID
    if not grid:
        raise ValueError("empty alpha grid")
    mode = _count_mode(x, y)
    if mode is None:
        return RFilterVerdict("violated", violating_alpha=0.0,
                              mode="dims_differ", grid_used=(0.0,))
    alphas = [0, 1, POS_INF, NEG_INF, *grid]
    if mode == "dims_differ":  # negative orders prove nothing (_count_mode)
        alphas = [a for a in alphas if not a < 0]
    float_used = any(float(a) != int(a) for a in alphas if not math.isinf(a))
    if _verdict(x, y) == "fails":  # a majorized pair has no dip (above)
        for a in alphas:
            # order 0 dips only where mode is None, which returned above
            if a != 0 and _dips(x, y, a):
                return RFilterVerdict("violated", violating_alpha=float(a),
                                      mode=mode, grid_used=tuple(alphas),
                                      float_alphas_used=float_used)
    return RFilterVerdict("no_violation_found", mode=mode,
                          grid_used=tuple(alphas),
                          float_alphas_used=float_used)


def r_properties_check(x: ProbVec, y: ProbVec, grid=None) -> dict:
    """Structural consistency record for one pair: the endpoint conditions
    a dominance pass must imply, bidirectional grid passes, and the exact
    equality verdict."""
    _check_dims(x, y)
    forward = r_filter(x, y, grid)
    backward = r_filter(y, x, grid)
    (x1, y1), (xn, yn) = _ends(x, y)
    rec = {
        "head_ok": x1 <= y1,
        "tail_ok": yn <= xn,
        "forward_pass": not forward.violated,
        "backward_pass": not backward.violated,
    }
    rec["bidirectional_pass"] = rec["forward_pass"] and rec["backward_pass"]
    rec["exactly_equal"] = x == y
    # bidirectional grid passes on distinct vectors flag grid
    # insufficiency, not membership
    rec["grid_insufficient"] = (rec["bidirectional_pass"]
                                and not rec["exactly_equal"])
    return rec
