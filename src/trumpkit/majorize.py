"""Majorization predicates.

Standard majorization on sorted probability vectors, its strict-interior
and generalized-interior refinements, and the compressed-spectrum variant
used for tensor powers.  Three exact integer tests decide them:

* the bare walk (_verdict) gives 'fails', 'boundary' or
  'strict_interior' in one pass over x's blocks with a pointer into y's,
  comparing prefix sums at x's breakpoints only: between two of them
  e_l(sx) is linear and e_l(sy) concave in l, so the gap
  e_l(sy) - e_l(sx) is concave there, its minimum sits at an end, and a
  zero inside forces zeros at both ends.  in_Mk, scan_Mk,
  search_catalyst, r_filter and the interior tests read it, and it
  builds no report or Fraction;
* the union walk (_steps) runs two block streams, lists or lazy, one
  breakpoint of either per step.  majorizes and spectrum_majorizes read
  their whole report from one such walk over the state lists (_report)
  -- verdict, equality positions, zero segments, first violation -- and
  never walk either vector again: majorizes lists every equality
  position, spectrum_majorizes only breakpoints.  The end walk
  (_ends_refute) runs it over k-th powers read lazily from both ends of
  the sorted powers, within a read budget it is handed.  It can only
  refute: it answers True when it finds a violation there, without
  building either power;
* the value pass (_product_majorizes) gives the bare verdict for products
  sx (x) sc against sy (x) sc, as catalyst checks need, from one signed
  multiset of product values, without building either product.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple, Optional

from .specvec import (ProbVec, _add_products, _check_dims, _ends,
                      _power_blocks)


class MajReport(NamedTuple):
    """Outcome of a majorization comparison.

    verdict:
      strict_interior -- every interior prefix inequality strict
      boundary        -- x majorized by y, some interior equality
      fails           -- some prefix sum of x exceeds y's
    equality_indices: prefix positions l (1 <= l < n) with e_l(x) = e_l(y),
      before the first violation; majorizes lists every one,
      spectrum_majorizes only those at breakpoints of either vector.
    first_violation: (l, e_l(x), e_l(y)) at the least violating l.
    zero_segment: the walk crossed a whole segment of equalities, two or
      more positions between two breakpoints of either vector; both
      functions set it alike.
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
    explicit act (see pad_to) since it changes the answer.  The report
    lists every equality position before the first violation, read from
    the one union walk (_report) as it goes.
    """
    _check_dims(x, y)
    return _report(x, y, True)


def spectrum_majorizes(sx: ProbVec, sy: ProbVec) -> MajReport:
    """Majorization evaluated only at breakpoints, with its full report:
    the equality positions listed are breakpoints of either vector, and
    zero_segment marks a whole segment of equalities between two of
    them.  Powers take this form, where one such segment can hold n^k
    positions; majorizes() lists every position instead.
    """
    return _report(sx, sy, False)


def _report(sx: ProbVec, sy: ProbVec, every: bool) -> MajReport:
    """The report of majorizes (every) or spectrum_majorizes, from one
    union walk and nothing else.

    _steps runs over both state lists, x's numerators times D_y and y's
    times D_x, and stops at every breakpoint of either vector.  A zero
    of the gap there is an equality.  A step longer than one entry with
    zeros at both ends is a zero segment: the gap is linear on a step, so
    it is zero all along, and with every set its interior positions are
    equalities too.  The failing step holds the first violation and, with
    every set, the one equality inside it (_fail_report).
    """
    _check_counts(sx.total_count, sy.total_count)
    total = sx.total_count
    equalities = []
    zero_segment = False
    tight = True  # the gap is zero at the last breakpoint
    for _, l, ex, ey, vx, vy, step in _steps(_state(sx, sy._scale),
                                             _state(sy, sx._scale)):
        if ex > ey:
            return _fail_report(sx._scale * sy._scale, equalities,
                                zero_segment, l, ex, ey, vx, vy,
                                step if every else 1)
        eq = ex == ey
        if eq and tight and step > 1:
            zero_segment = True
            if every:
                equalities.extend(range(l - step + 1, l))
        if eq and l < total:
            equalities.append(l)
        tight = eq
    verdict = ("boundary" if equalities or zero_segment
               else "strict_interior")
    return MajReport(verdict, frozenset(equalities),
                     zero_segment=zero_segment)


def _verdict(sx: ProbVec, sy: ProbVec) -> str:
    """The bare verdict of spectrum_majorizes: 'fails', 'boundary' or
    'strict_interior', with no report, set or Fraction built.

    One pass steps through x's blocks with a pointer into y's and
    compares the integer prefix masses, over one common scale, at x's
    breakpoints only.  Between two of them e_l(sx) is linear and e_l(sy)
    concave, so the gap e_l(sy) - e_l(sx) is concave: its minimum over
    the interval sits at an end, and a zero inside forces zeros at both
    ends.  So the first violation lies in the first interval whose right
    end fails, and an interior equality needs a tight x-breakpoint l < N,
    or a tight interval with no such breakpoint: the first one, ending at
    N, so x is uniform.  The gap is zero inside it only if it is linear
    there, that is when the interval lies inside y's first block.
    """
    _check_counts(sx.total_count, sy.total_count)
    scale = math.lcm(sx._scale, sy._scale)
    mx, my = scale // sx._scale, scale // sy._scale
    total = sx.total_count
    yv, yc = sy._int_vals, sy._counts
    j = ry = vy = l = ex = ey = 0
    verdict = "strict_interior"
    for vx, cx in zip(sx._int_vals, sx._counts):
        need = cx
        while ry < need:
            ey += vy * ry
            need -= ry
            vy, ry, j = yv[j] * my, yc[j], j + 1
        ey += vy * need
        ry -= need
        ex += vx * mx * cx
        l += cx
        if ex > ey:
            return "fails"
        if ex == ey and (l < total or cx > 1 and j == 1):
            verdict = "boundary"
    return verdict


def _ends_refute(sx: ProbVec, sy: ProbVec, k: int, reads: int) -> bool:
    """Does x^(x)k fail to be majorized by y^(x)k, as seen from either end
    of the sorted powers?  True proves it; False only says that no
    violation was found within reads compositions.  Neither power is
    built.

    Both powers stream lazily (specvec._power_blocks), x's numerators
    times D_y and y's times D_x, so that all values share one scale, and
    the union walk (_steps) runs over each end.  From the top, a prefix
    excess e_l(x) > e_l(y) is a violation.  From the bottom, a suffix
    deficit is one: with N = n^k entries and equal total masses M, the
    last j entries of x hold M - e_(N-j)(x), so M - e_(N-j)(x) <
    M - e_(N-j)(y) is the prefix excess e_(N-j)(x) > e_(N-j)(y).  Between
    two breakpoints of either stream the gap is linear, so the
    breakpoints suffice.  The two ends take a breakpoint each in turn
    until one finds a violation, one runs through the whole power, or
    more than reads compositions have been read; the caller sets that
    budget (mlocc._sweep, from the growth the walk may spare).  sx and
    sy must carry equal counts, as the one-copy walk checks.
    """
    ends = (_steps(_power_blocks(sx, k, True, sy._scale),
                   _power_blocks(sy, k, True, sx._scale)),
            _steps(_power_blocks(sy, k, False, sx._scale),
                   _power_blocks(sx, k, False, sy._scale)))
    read = 0
    while read <= reads:
        for end in ends:
            step = next(end, None)
            if step is None:
                return False
            if step[2] > step[3]:
                return True
            read += step[0]
    return False


def _steps(u, w):
    """The union walk: run two streams of (numerator, count, reads)
    blocks with equal total counts from their start, one breakpoint of
    either per step, and yield (reads, l, e_u, e_w, v_u, v_w, step) at
    each: the compositions the step read, its right end l, both prefix
    masses there, both block numerators over the step and its length.
    The first step with e_u > e_w is the last one yielded.
    """
    l = eu = ew = rw = 0
    for vu, ru, read in u:
        while ru:
            if not rw:
                vw, rw, n = next(w)
                read += n
            step = ru if ru < rw else rw
            l += step
            eu += vu * step
            ew += vw * step
            yield read, l, eu, ew, vu, vw, step
            if eu > ew:
                return
            read = 0
            ru -= step
            rw -= step


def _state(s: ProbVec, factor: int):
    """s's blocks as a stream for _steps, numerators times factor, with
    nothing read."""
    return zip([v * factor for v in s._int_vals], s._counts, repeat(0))


def _check_counts(nx: int, ny: int) -> None:
    """Raise unless two walked vectors hold equal total counts."""
    if nx != ny:
        raise ValueError("total_count mismatch: %d vs %d" % (nx, ny))


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
    _check_counts(sx.total_count * sc.total_count,
                  sy.total_count * sc.total_count)
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


def _fail_report(scale, equalities, zero_segment, l, ex, ey, vx, vy,
                 span):
    """The report of a walk whose step ending at l fails, with the least
    violating position; span is the step's length when the report lists
    every equality position (majorizes), else 1.

    On the step the excess e(sx) - e(sy) is linear with slope vx - vy
    (the block numerators).  The walk reached the step's left end with no
    excess and fails at l, so vx > vy, and the crossing lies within the
    step: the excess stays positive for back = (excess - 1) // slope
    positions before l, and l - back is the first violation.  Before it
    the excess is nonpositive, and zero only at l - back - 1, exactly
    when excess = slope * (back + 1); that position is an equality when
    it lies inside the step, off every breakpoint.  Only the reported
    prefix masses become Fractions.
    """
    back = (ex - ey - 1) // (vx - vy)
    if back + 1 < span and ex - ey == (vx - vy) * (back + 1):
        equalities.append(l - back - 1)
    return MajReport("fails", frozenset(equalities),
                     (l - back, Fraction(ex - vx * back, scale),
                      Fraction(ey - vy * back, scale)), zero_segment)


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
