"""Multiple-copy transformation analysis.

Membership in the k-copy convertibility set (x^(x)k majorized by y^(x)k)
and bounded scans over k, both answered by one k-sweep (_sweep), the
single-equality boundary criterion and its uniform-k corollary, interior
classification of the multi-copy region, the usefulness characterization
with its averaging witness, and the non-closedness perturbation witness.
A pair that fails at one copy is first put to renyi._exclusion, the one
exclusion rule, which catalysis and the CLI share; a pair it excludes
fails at every k, and no power is built.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Dict, NamedTuple, Optional

from .majorize import _ends_refute, _verdict
from .renyi import _exclusion
from .specvec import (_READ_COST, ProbVec, _check_dims, _ends,
                      _enumeration_cost, _from_counts, _grow, _growth_plan)

# The k-sweep's work policy.  specvec only estimates work (_growth_plan,
# _enumeration_cost, _READ_COST); _sweep alone sets, converts and spends
# budgets, by the two constants below.

# The end walk (_sweep, rule 3) runs only past this k: powers up to it
# grow by the cheap chain (specvec._grow), which leaves the walk little
# to spare.
_CHAIN_MAX_K = 3

# The end walk spends at most 1 / _END_WALK_SHARE of the work it may
# spare.  On failing k the first violation mostly sits within a few
# percent of the blocks at one end (12% at p90 on 212 failing k of 78 mid
# pairs, k = 4..16), and the share falls as k grows.  On multicopy
# benchmark rounds, shares of 1/4 and 1/2 cut the mean query time alike
# and a share of 1 cut it less.
_END_WALK_SHARE = 2


class MloccScan(NamedTuple):
    x: ProbVec
    y: ProbVec
    k_max: int
    results: Dict[int, str]  # k -> verdict
    first_success: Optional[int]
    short_circuited: bool = False  # endpoint filter excluded x outright
    # power-sum order that excludes x at every k (power_sum_refutation)
    refuting_order: Optional[int] = None

    def to_json(self):
        return {
            "k_max": self.k_max,
            "results": {str(k): v for k, v in sorted(self.results.items())},
            "first_success": self.first_success,
            "short_circuited": self.short_circuited,
            "refuting_order": self.refuting_order,
        }


class UsefulnessVerdict(NamedTuple):
    useful: bool
    witness_l: Optional[int] = None
    witness_x: Optional[ProbVec] = None

    def to_json(self):
        return {
            "useful": self.useful,
            "witness_l": self.witness_l,
            "witness_x": self.witness_x.to_json() if self.witness_x else None,
        }


def in_Mk(x: ProbVec, y: ProbVec, k: int) -> bool:
    """Whether k copies of x convert jointly to k copies of y.

    Exact facts settle most pairs without building x^(x)k: x majorized
    by y implies x^(x)k majorized by y^(x)k for every k; membership at
    any k needs x_1 <= y_1 and x_n >= y_n, and it needs the power sums
    that power_sum_refutation compares.  The checks run in this order:
    dimensions; k >= 1; the one-copy walk on x and y, which answers True
    when it holds; False at k = 1, or when the endpoint filter fails or
    a power sum refutes the pair (_exclusion).  Only then does the
    k-sweep (_sweep) run, asked for k's verdict alone: it answers True
    once k is a sum of members and otherwise settles k by its rules, from
    the last powers it grew.
    """
    _check_dims(x, y)
    if k < 1:
        raise ValueError("k must be >= 1")
    if _verdict(x, y) != "fails":
        return True
    if k == 1 or _exclusion(x, y) is not None:
        return False
    return _sweep(x, y, "fails", k, last_only=True)[k] != "fails"


def _sweep(x: ProbVec, y: ProbVec, verdict: str, k_max: int,
           last_only: bool = False) -> Dict[int, str]:
    """Verdicts of x^(x)k against y^(x)k for k = 1..k_max, given their
    one-copy verdict.

    Three facts settle a k from smaller ones.
      - Members are closed under addition.  If a and b are members,
        x^(x)(a+b) = x^(x)a (x) x^(x)b is majorized by y^(x)a (x) x^(x)b,
        which is majorized by y^(x)a (x) y^(x)b = y^(x)(a+b), because u
        majorized by v implies u (x) w majorized by v (x) w.
      - Strict interior at a plus membership at b gives strict interior
        at a + b, so a pair strictly interior at one copy is strictly
        interior at every k.  Proof: let u = x^(x)a be strictly interior
        to v = y^(x)a and w = x^(x)b be majorized by y^(x)b.  Strictness
        at l = 1 and l = n^a - 1 gives x_1 < y_1 and x_n > y_n >= 0, so
        w > 0.  Some top-l set of u (x) w is a staircase, s_j top entries
        of u against w_j, so e_l(u (x) w) = sum_j w_j e_(s_j)(u)
        <= sum_j w_j e_(s_j)(v) <= e_l(v (x) w).  Equality needs every
        s_j in {0, n^a}: whole columns J that are also a top-l set of
        v (x) w, so v_min w_j >= v_max w_j' for j in J, j' outside.  But
        of two neighbouring distinct values of w the smaller is at least
        x_n / x_1 times the larger, and x_n / x_1 > y_n / y_1
        >= v_min / v_max (v_min < v_max, as v is not uniform).  So
        e_l(x^(x)(a+b)) < e_l(y^(x)a (x) x^(x)b) <= e_l(y^(x)(a+b)) for
        0 < l < n^(a+b).
      - With x_1 = y_1 or x_n = y_n, every member is 'boundary': x_1^k =
        y_1^k is an equality at l = 1, x_n^k = y_n^k one at l = n^k - 1.
    The sums of members found (closed under adding each member as it is
    found), the strict k, and the sums of a strict k and a sum of members
    are kept as bits of three integers.  At each k > 1 the rules run in
    this order:
      1. 'strict_interior' when k is a strict plus a sum of members;
      2. 'boundary' when the pair has an endpoint tie and k is a sum of
         members;
      3. 'fails' when no k has converted yet, k > _CHAIN_MAX_K and a walk
         from both ends of the lazily streamed k-th powers finds a
         violation within its read budget: 1 / _END_WALK_SHARE of the
         estimated work of growing them from the last powers grown
         (specvec._growth_plan), at specvec._READ_COST block products
         per composition read (majorize._ends_refute: from the top
         a prefix excess of x; from the bottom a suffix deficit of x,
         which is the prefix excess e_(N-j)(x) > e_(N-j)(y) because both
         powers hold N = n^k entries of equal total mass).  Only 'fails'
         comes from the end walk.  It is not tried once some k converts,
         since later k then mostly convert too and the walk cannot
         refute them;
      4. otherwise x^(x)k and y^(x)k are grown from the last powers grown,
         or enumerated where that is cheaper (specvec._grow), and walked
         in full.
    Powers are grown only up to the last k walked in full.  (At n = 1
    every k is strictly interior, which rule 1 finds.)

    With last_only, only k_max's verdict is wanted, and the one-copy
    verdict must be 'fails'.  The sweep then returns as soon as k_max is
    a sum of members, with the verdict 'member' (boundary or strict
    interior, not told apart), and it skips straight to k_max:
      - once it passes k_max / 2 with no member found, since a sum of two
        or more members has one <= k_max / 2;
      - at k_max - 1, since 1 is not a member;
      - before growing the next power would take either side past the
        estimate for enumerating its k_max-th power, a k refuted by the
        end walk counting 1 / _END_WALK_SHARE of the growth it spared.
        An end walk that does not refute its k costs at most half the
        growth that follows, so an undecided pair spends at most 1.5
        times that estimate before k_max itself is settled.
    Returns the verdicts of the k settled, in increasing k, the given
    one-copy verdict first.
    """
    bases = held = (x, y)
    grown = 1  # the k of the powers held
    budgets = ([_enumeration_cost(len(b._counts), k_max) for b in bases]
               if last_only else None)
    spent = [0, 0]

    def growth(k):
        """Each side's estimated block products of growing S_k from the
        powers held (specvec._growth_plan, whose build _grow runs)."""
        return [_growth_plan(b, s, grown, k)[0] for b, s in zip(bases, held)]

    mask = (1 << (k_max + 1)) - 1
    # bit k set: k is a sum of members (bit 0: the empty sum) / strict / a
    # strict plus a sum of members
    sums, strict, strict_sums = 1, 0, 0
    results, k = {}, 1
    while True:
        results[k] = verdict
        if verdict != "fails":
            if sums == 1:  # the first member: rule 2 reads the tie from now
                (x1, y1), (xn, yn) = _ends(x, y)
                tie = x1 == y1 or xn == yn
            if not sums >> k & 1:  # close the sums under adding k
                step = k
                while step <= k_max:
                    sums |= sums << step & mask
                    step *= 2
            strict_sums |= strict << k
            if verdict == "strict_interior":
                strict |= 1 << k
                strict_sums |= sums << k
            if last_only and sums >> k_max & 1:
                return {k_max: "member"}
        k += 1
        if k > k_max:
            return results
        if last_only and (k == k_max - 1 or sums == 1 and 2 * k > k_max):
            k = k_max
        if strict_sums >> k & 1:
            verdict = "strict_interior"
            continue
        if sums >> k & 1 and tie:
            verdict = "boundary"
            continue
        costs = None
        if last_only and k < k_max:
            costs = growth(k)
            if any(s + c > b for s, c, b in zip(spent, costs, budgets)):
                k, costs = k_max, None
        if sums == 1 and k > _CHAIN_MAX_K:
            costs = costs or growth(k)
            reads = sum(costs) // (_READ_COST * _END_WALK_SHARE)
            if _ends_refute(*bases, k, reads):
                spent = [s + c // _END_WALK_SHARE
                         for s, c in zip(spent, costs)]
                verdict = "fails"
                continue
        if costs:
            spent = [s + c for s, c in zip(spent, costs)]
        held = [_grow(b, s, grown, k) for b, s in zip(bases, held)]
        grown = k
        verdict = _verdict(*held)


def scan_Mk(x: ProbVec, y: ProbVec, k_max: int) -> MloccScan:
    """Check every k up to k_max.  Success is not monotone in k, so every
    requested k gets a verdict.

    After the dimension and k_max checks, k = 1 is walked on x and y, as
    in in_Mk.  When it fails and the pair is excluded at every k
    (_exclusion), every k is marked 'fails' and no second power is built:
    short_circuited when an endpoint test fails, refuting_order when a
    power sum refutes the pair.  Otherwise the k-sweep (_sweep) settles
    every k > 1, from smaller k where its rules allow."""
    return _scan(x, y, k_max)[0]


def _scan(x: ProbVec, y: ProbVec, k_max: int):
    """scan_Mk's scan, paired with the reason that excludes the pair at
    every k (_exclusion: the failed endpoint label or the refuting
    order), else None.  is_interior_of_M and the CLI read the reason."""
    _check_dims(x, y)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    verdict = _verdict(x, y)
    reason = None if verdict != "fails" else _exclusion(x, y)
    if reason is not None:
        endpoint = isinstance(reason, str)
        return MloccScan(x, y, k_max,
                         dict.fromkeys(range(1, k_max + 1), "fails"), None,
                         endpoint, None if endpoint else reason), reason
    results = _sweep(x, y, verdict, k_max)
    first = next((k for k, v in results.items() if v != "fails"), None)
    return MloccScan(x, y, k_max, results, first), None


def lemma3_k_condition(y: ProbVec, d: int, k: int) -> bool:
    """Strict overlap condition y_d^k < y_1^{k-1} y_{d+1} and
    y_{d+1}^k > y_d y_n^{k-1}: exactly when every boundary point with a
    single prefix equality at d becomes strictly interior at k copies."""
    n = y.dim
    if not 1 < d < n - 1:
        raise ValueError("d must satisfy 1 < d < n-1")
    if k < 1:
        raise ValueError("k must be >= 1")
    bps, vals = y.breakpoints(), y._int_vals
    # position p lies in the first block whose breakpoint is >= p
    a, b = (vals[bisect_left(bps, p)] for p in (d, d + 1))
    return _overlaps(y, a, b, k)


def _overlaps(y: ProbVec, a: int, b: int, k: int) -> bool:
    """The strict overlap inequalities a^k < y_1^(k-1) b and
    a y_n^(k-1) < b^k on two numerators a and b of y: both sides of each
    carry the scale to the power k, which cancels."""
    y1, yn = y._int_vals[0], y._int_vals[-1]
    return a ** k < y1 ** (k - 1) * b and a * yn ** (k - 1) < b ** k


def corollary4_k_bound(y: ProbVec, k_max: int) -> Optional[int]:
    """Least k <= k_max whose single overlap condition covers the whole
    generalized interior at once (one k working for every boundary point):
    the overlap inequalities on a = y_(d_min), the largest value below
    y_1, and b = y_(d_max), the smallest value above y_n.  Returns None
    when no such k exists in range."""
    if y.is_uniform():
        raise ValueError("y must be non-uniform")
    if not classify_usefulness(y).useful:
        raise ValueError("usefulness condition fails for y")
    a, b = y._int_vals[1], y._int_vals[-2]
    return next((k for k in range(1, k_max + 1) if _overlaps(y, a, b, k)),
                None)


def is_interior_of_M(x: ProbVec, y: ProbVec, k_max: int) -> str:
    """Classify x against the multi-copy region of y within a bounded scan:
    'interior' / 'boundary' once membership is found (endpoints decide),
    'not_member' when the endpoint filter or a power sum excludes x at
    every k, else 'unknown'."""
    scan, reason = _scan(x, y, k_max)
    if reason is not None:
        return "not_member"
    if scan.first_success is None:
        return "unknown"
    (x1, y1), (xn, yn) = _ends(x, y)
    return "interior" if x1 < y1 and yn < xn else "boundary"


def classify_usefulness(y: ProbVec) -> UsefulnessVerdict:
    """Do extra copies ever help in producing y?

    Useful iff some l with 1 < l < n-1 has y_1 > y_l and y_{l+1} > y_n,
    that is, iff at least two entries lie strictly between y_1 and y_n:
    with c_1 copies of y_1 and c_n of y_n, iff c_1 + 1 + c_n < n.  The
    least such l, c_1 + 1, is the witness's.  The witness averages the
    first l and the last n-l components of y: it sits on the single-copy
    boundary (equality at l) yet is interior to the multi-copy region.
    """
    n, counts, vals = y.dim, y._counts, y._int_vals
    l = counts[0] + 1
    if not l + counts[-1] < n:
        return UsefulnessVerdict(False)
    # e_l = c_1 y_1 + y_(c_1 + 1); the two averages over D l (n - l)
    head = vals[0] * counts[0] + vals[1]
    witness = _from_counts({head * (n - l): l, (y._scale - head) * l: n - l},
                           y._scale * l * (n - l))
    return UsefulnessVerdict(True, l, witness)


def nonclosedness_witness(y: ProbVec) -> ProbVec:
    """Perturbation witness showing the multi-copy region is not closed:
    push the first non-maximal component up and the last non-minimal one
    down by the same margin.  The result strictly majorizes y, so it lies
    outside the region for every k, yet it is a limit of members.  On the
    blocks, one count of y_(d_min) moves up by the margin and one count of
    y_(d_max) down."""
    if not classify_usefulness(y).useful:
        raise ValueError("usefulness condition fails for y")
    v = y._int_vals
    delta = min(v[0] - v[1], v[-2] - v[-1])
    merged = Counter(dict(zip(v, y._counts)))
    for old, new in ((v[1], v[1] + delta), (v[-2], v[-2] - delta)):
        merged[old] -= 1
        merged[new] += 1
    return _from_counts(+merged, y._scale)
