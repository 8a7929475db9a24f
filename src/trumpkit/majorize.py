"""Majorization predicates.

Standard majorization on sorted probability vectors, its strict-interior
and generalized-interior refinements, and the compressed-spectrum variant
used for tensor powers.  Three exact integer tests decide them:

* the position walk (_verdict) compares prefix sums at x's breakpoints
  only: between two of them e_l(sx) is linear and e_l(sy) concave in l,
  so the gap e_l(sy) - e_l(sx) is concave there, its minimum sits at an
  end, and a zero inside forces zeros at both ends.  Only an interval
  that fails at its right end, or is tight at both, is stepped through
  at every breakpoint of either vector, for the report's detail.
  spectrum_majorizes and majorizes build the full report -- verdict,
  equality positions, first violation.  in_Mk, scan_Mk and
  search_catalyst read only the bare verdict, for which the walk builds
  no report or Fraction;
* the value pass (_product_majorizes) gives the bare verdict for products
  sx (x) sc against sy (x) sc, as catalyst checks need, from one signed
  multiset of product values, without building either product;
* the end walk (_ends_refute) can only refute: it reads k-th powers
  lazily from both ends, within a read budget it is handed, and answers
  True when it finds a violation there, without building either power.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .specvec import (ProbVec, _add_products, _check_dims, _ends,
                      _power_blocks)


class MajReport(NamedTuple):
    """Outcome of a majorization comparison.

    verdict:
      strict_interior -- every interior prefix inequality strict
      boundary        -- x majorized by y, some interior equality
      fails           -- some prefix sum of x exceeds y's
    equality_indices: prefix positions l (1 <= l < n) with e_l(x) = e_l(y);
      for spectra these are breakpoint positions, and zero_segment marks a
      whole segment of equalities between two breakpoints.
    first_violation: (l, e_l(x), e_l(y)) at the least violating l.
    """
    verdict: str
    equality_indices: frozenset = frozenset()
    first_violation: Optional[tuple] = None
    zero_segment: bool = False

    @property
    def holds(self) -> bool:
        """True iff x is majorized by y."""
        return self.verdict != "fails"

    def to_json(self):
        fv = None
        if self.first_violation is not None:
            l, ex, ey = self.first_violation
            fv = {"l": str(l), "ex": str(ex), "ey": str(ey)}
        return {
            "verdict": self.verdict,
            "equality_indices": [str(i)
                                 for i in sorted(self.equality_indices)],
            "first_violation": fv,
        }


def majorizes(x: ProbVec, y: ProbVec) -> MajReport:
    """Compare x against y: does y majorize x (x ~ convertible to y)?

    Dimensions must already match; padding with zeros is the caller's
    explicit act (see pad_to) since it changes the answer.  The spectrum
    walk decides; its report is then widened to every equality position:
    those inside a zero segment, and the one just before a violation.
    """
    _check_dims(x, y)
    rep = spectrum_majorizes(x, y)
    equalities = set(rep.equality_indices)
    if rep.zero_segment:
        # a segment with both ends tight is zero all along; n is always
        # tight (equal masses), and a failing segment never ends there
        tight = equalities | {0, x.dim}
        bps = sorted({0, *x.breakpoints(), *y.breakpoints()})
        equalities.update(l for lo, hi in zip(bps, bps[1:])
                          if lo in tight and hi in tight
                          for l in range(lo + 1, hi))
    fv = rep.first_violation
    if fv is not None:
        # the gap is linear on the failing segment, so before l it can
        # be zero only at l - 1, which need not be a breakpoint
        l = fv[0]
        if l > 1 and (x._prefix(l - 1) * y._scale
                      == y._prefix(l - 1) * x._scale):
            equalities.add(l - 1)
    return MajReport(rep.verdict, frozenset(equalities), fv)


def spectrum_majorizes(sx: ProbVec, sy: ProbVec) -> MajReport:
    """Majorization evaluated only at breakpoints, with its full report
    (see _verdict); majorizes() checks the dimensions first and widens
    the report to every equality position."""
    return _verdict(sx, sy, True)


def _verdict(sx: ProbVec, sy: ProbVec, report: bool = False):
    """The walk behind spectrum_majorizes: 'fails', 'boundary' or
    'strict_interior', and with report set the MajReport instead.  The
    bare verdict builds no report, set or Fraction.

    It steps through x's blocks with a pointer into y's and compares the
    integer prefix masses, over one common scale, at x's breakpoints
    only.  Between two of them e_l(sx) is linear and e_l(sy) concave, so
    the gap e_l(sy) - e_l(sx) is concave: its minimum over the interval
    sits at an end, and a zero inside forces zeros at both ends.  So the
    first x-interval whose right end fails holds the first violation, and
    every equality and zero segment lies in an interval tight at both
    ends or in that failing one.  Only there does the walk step through
    the union of both breakpoint sets, from the state at the interval's
    left end: for the first violation, and for the equalities and zero
    segments that the report lists and the verdict reads.
    """
    if sx.total_count != sy.total_count:
        raise ValueError("total_count mismatch: %d vs %d"
                         % (sx.total_count, sy.total_count))
    scale = math.lcm(sx._scale, sy._scale)
    mx, my = scale // sx._scale, scale // sy._scale
    total = sx.total_count
    yv, yc = sy._int_vals, sy._counts
    j = ry = vy = l = ex = ey = 0
    equalities = []
    zero_segment = False
    tight = True  # the gap is zero at l
    for vx, cx in zip(sx._int_vals, sx._counts):
        vx *= mx
        j0 = j
        ry0 = ry
        vy0 = vy
        ey0 = ey
        need = cx
        while ry < need:
            ey += vy * ry
            need -= ry
            vy, ry, j = yv[j] * my, yc[j], j + 1
        ey += vy * need
        ry -= need
        ex_hi = ex + vx * cx
        if ex_hi < ey or ex_hi == ey and (cx == 1 or not tight):
            l += cx
            ex = ex_hi
            tight = ex == ey
            if tight and l < total:
                equalities.append(l)
            continue
        if not report and ex_hi > ey:
            return "fails"
        # the right end fails, or both ends are tight: the union detail
        j, ry, vy, ey = j0, ry0, vy0, ey0
        hi = l + cx
        while l < hi:
            if not ry:
                vy, ry, j = yv[j] * my, yc[j], j + 1
            step = hi - l if hi - l < ry else ry
            l += step
            ex += vx * step
            ey += vy * step
            if ex > ey:
                return _fail_report(scale, equalities, zero_segment,
                                    l - step, l, ex - vx * step,
                                    ey - vy * step, vx, vy)
            eq = ex == ey
            if eq and l < total:
                equalities.append(l)
            # zero at both ends of a segment: identically zero on it
            zero_segment |= eq and tight and step > 1
            tight = eq
            ry -= step
    verdict = ("boundary" if equalities or zero_segment
               else "strict_interior")
    if not report:
        return verdict
    return MajReport(verdict, frozenset(equalities),
                     zero_segment=zero_segment)


def _ends_refute(sx: ProbVec, sy: ProbVec, k: int, reads: int) -> bool:
    """Does x^(x)k fail to be majorized by y^(x)k, as seen from either end
    of the sorted powers?  True proves it; False only says that no
    violation was found within reads compositions.  Neither power is
    built.

    Both powers stream lazily (specvec._power_blocks), x's numerators
    times D_y and y's times D_x, so that all values share one scale.  From
    the top, a prefix excess e_l(x) > e_l(y) is a violation.  From the
    bottom, a suffix deficit is one: with N = n^k entries and equal total
    masses M, the last j entries of x hold M - e_(N-j)(x), so
    M - e_(N-j)(x) < M - e_(N-j)(y) is the prefix excess
    e_(N-j)(x) > e_(N-j)(y).  Between two breakpoints of either stream
    the gap is linear, so the breakpoints suffice.  The two ends take a
    breakpoint each in turn until one finds a violation, one runs through
    the whole power, or more than reads compositions have been read; the
    caller sets that budget (mlocc._sweep, from the growth the walk may
    spare).  sx and sy must carry equal counts, as the one-copy walk
    checks.
    """
    ends = (_excess_steps(_power_blocks(sx, k, True, sy._scale),
                          _power_blocks(sy, k, True, sx._scale)),
            _excess_steps(_power_blocks(sy, k, False, sx._scale),
                          _power_blocks(sx, k, False, sy._scale)))
    read = 0
    try:
        while read <= reads:
            for end in ends:
                read += next(end)
    except StopIteration as stop:
        return stop.value
    return False


def _excess_steps(u, w):
    """Walk two block streams of equal total count from their start, one
    breakpoint per step: yield the compositions read by each step, and
    return True at the first prefix excess of u over w, False when both
    streams run out."""
    ru = rw = eu = ew = 0
    while True:
        read = 0
        if not ru:
            block = next(u, None)
            if block is None:
                return False
            vu, ru, read = block
        if not rw:
            vw, rw, n = next(w)
            read += n
        step = ru if ru < rw else rw
        eu += vu * step
        ew += vw * step
        if eu > ew:
            return True
        ru -= step
        rw -= step
        yield read


def _product_majorizes(sx: ProbVec, sy: ProbVec, sc: ProbVec) -> bool:
    """Is sx (x) sc majorized by sy (x) sc?  Decided in value space; neither
    product is built.

    For p and q of equal length and mass, p is majorized by q exactly
    when G(t) = sum (q_i - t)^+ - sum (p_i - t)^+ >= 0 for every real t
    (Hardy-Littlewood-Polya).  G is piecewise linear with kinks only at
    the values of p and q, is 0 above the largest of them and, below the
    smallest, equals (sum q - sum p) - t * (len q - len p) = 0.  So G >= 0
    everywhere iff G >= 0 at every value v, where G(v) = A - v * B with
    A = sum delta(w) * w and B = sum delta(w) over the values w > v, and
    delta(w) is w's count in q minus its count in p.  Only the values with
    delta(v) > 0 need the test: G's slope is -B just above v and
    -(B + delta(v)) just below, so it rises through v only where
    delta(v) > 0.  Between two such values G is concave, so its minimum
    there sits at one of them, or at the largest or the smallest value,
    where G is 0.  Every delta still goes into A and B.

    All numerators share the scale sx._scale * sy._scale * sc._scale: a
    block (u, m) of sx and (v, c) of sc put -m * c at u * sy._scale * v, a
    block (w, n) of sy and (v, c) of sc put +n * c at w * sx._scale * v.
    One sort of the keys, one pass from the top, and the first negative
    G(v) at a value with delta(v) > 0 answers False.  Raises ValueError,
    as spectrum_majorizes on the products would, when their total counts
    differ.
    """
    nx, ny = sx.total_count * sc.total_count, sy.total_count * sc.total_count
    if nx != ny:
        raise ValueError("total_count mismatch: %d vs %d" % (nx, ny))
    delta = {}
    _add_products(delta, sx, sc, sy._scale, -1)
    _add_products(delta, sy, sc, sx._scale, 1)
    a = b = 0
    for v in sorted(delta, reverse=True):
        d = delta[v]
        if d > 0 and a < v * b:
            return False
        a += d * v
        b += d
    return True


def _fail_report(scale, equalities, zero_segment, lo, hi, ex_lo, ey_lo,
                 vx, vy):
    """Locate the least integer l in (lo, hi] with e_l(sx) > e_l(sy).

    On the segment the difference is linear with slope vx - vy (the block
    numerators), so the crossing point solves exactly in integer
    arithmetic; fall back to the breakpoint itself if the slope
    degenerates.  Only the reported prefix masses become Fractions.
    """
    slope = vx - vy
    if slope > 0:
        # the walk reached lo, so the gap there is at most 0
        l = min(lo + (ey_lo - ex_lo) // slope + 1, hi)
    else:
        l = hi
    ex = Fraction(ex_lo + vx * (l - lo), scale)
    ey = Fraction(ey_lo + vy * (l - lo), scale)
    return MajReport("fails", frozenset(equalities), (l, ex, ey),
                     zero_segment)


def is_interior(x: ProbVec, y: ProbVec) -> bool:
    """Strict interior of the majorization region: all interior prefix
    inequalities strict."""
    _check_dims(x, y)
    return _verdict(x, y) == "strict_interior"


def is_generalized_interior(x: ProbVec, y: ProbVec) -> bool:
    """Generalized interior membership: x majorized by y with strict head
    (x_1 < y_1) and strict tail (x_n > y_n); interior equalities allowed."""
    _check_dims(x, y)
    (x1, y1), (xn, yn) = _ends(x, y)
    return _verdict(x, y) != "fails" and x1 < y1 and yn < xn


def check_direct_sum_interior_condition(y: ProbVec, yp: ProbVec) -> bool:
    """Overlap condition under which interior points stay interior after a
    direct sum: y_1 > yp_n and yp_1 > y_m.  Undefined (raises) when either
    vector is uniform."""
    if y.is_uniform() or yp.is_uniform():
        raise ValueError("condition undefined for uniform vectors")
    (y1, p1), (yn, pn) = _ends(y, yp)
    return pn < y1 and yn < p1


def check_overlap_chain(ys) -> bool:
    """Chain overlap conditions for a list of (vector, repeat_count):
    (i) the first vector carries the maximal head, (ii) the last carries
    the minimal tail, (iii) consecutive vectors overlap (tail of i < head
    of i+1)."""
    vecs = [v for v, _ in ys]
    if not vecs:
        raise ValueError("empty chain")
    first, last = vecs[0], vecs[-1]
    for a, b in zip(vecs, vecs[1:]):
        (h0, h), _ = _ends(first, b)
        _, (t, tl) = _ends(a, last)
        (_, b1), (an, _) = _ends(a, b)
        if h0 < h or t < tl or an >= b1:
            return False
    return True
