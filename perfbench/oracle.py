"""Independent exact checks for benchmark verdicts.

Nothing here imports trumpkit: vectors arrive as lists of Fractions and
every answer is recomputed on plain integers.  Two deciders cover the
k-copy questions:

* ``brute_compare`` expands both k-fold products entry by entry and walks
  the prefix sums -- the oracle for small n**k;
* ``kernel_compare`` enumerates exponent vectors on integer numerators over
  a common denominator and walks the merged block lists segment by
  segment.  It answers large queries and is confirmed against the brute
  oracle on every small row a run meets.

Both return ``(verdict, first_violation_l)`` with verdict one of
``strict_interior``, ``boundary`` (some interior prefix equality) or
``fails``.
"""

from __future__ import annotations

import math
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate

BRUTE_LIMIT = 4096  # largest n**k the entrywise oracle expands


def to_ints(vals):
    """Integer numerators over the least common denominator."""
    den = math.lcm(*(Fraction(v).denominator for v in vals))
    return [int(Fraction(v) * den) for v in vals], den


def _walk(bx, by):
    """First violation / interior equality of two descending block lists
    [(value, count)] on one integer scale with equal totals."""
    total = sum(c for _, c in bx)
    i = j = 0
    rx, ry = bx[0][1], by[0][1]
    pos = diff = 0  # diff = e_pos(x) - e_pos(y), never positive here
    equality = False
    while pos < total:
        step = min(rx, ry)
        slope = bx[i][0] - by[j][0]
        if diff + step * slope > 0:
            # slope > 0 because diff <= 0: least t with diff + t*slope > 0
            return "fails", pos + (-diff) // slope + 1
        if slope == 0:
            equality |= diff == 0 and pos + 1 < total
        elif -diff % slope == 0 and 1 <= -diff // slope <= step:
            equality |= pos + (-diff) // slope < total
        diff += step * slope
        pos += step
        rx -= step
        ry -= step
        if rx == 0 and pos < total:
            i += 1
            rx = bx[i][1]
        if ry == 0 and pos < total:
            j += 1
            ry = by[j][1]
    return ("boundary" if equality else "strict_interior"), None


def power_counter(nums, k):
    """Multiset of k-fold products of integer numerators: {value: count}."""
    dist = sorted(Counter(nums).items(), reverse=True)
    d = len(dist)
    pows = [[v ** a for a in range(k + 1)] for v, _ in dist]
    mults = [[m ** a for a in range(k + 1)] for _, m in dist]
    fact = [math.factorial(a) for a in range(k + 1)]
    out = Counter()

    def rec(i, left, value, weight):
        if i == d - 1:
            out[value * pows[i][left]] += (weight * mults[i][left]
                                           // fact[left])
            return
        for a in range(left + 1):
            rec(i + 1, left - a, value * pows[i][a],
                weight * mults[i][a] // fact[a])

    rec(0, k, 1, fact[k])
    return out


def _rescaled_blocks(cx, dx, cy, dy):
    """Both counters on the common scale dx*dy, as descending lists."""
    bx = sorted(((v * dy, c) for v, c in cx.items()), reverse=True)
    by = sorted(((v * dx, c) for v, c in cy.items()), reverse=True)
    return bx, by


def kernel_compare(x, y, k):
    """Does x^(x)k majorize-below y^(x)k, by blockwise integer walk."""
    nx, dx = to_ints(x)
    ny, dy = to_ints(y)
    return _walk(*_rescaled_blocks(power_counter(nx, k), dx ** k,
                                   power_counter(ny, k), dy ** k))


def brute_products(vals, k):
    """All len(vals)**k products of integer entries, descending."""
    out = [1]
    for _ in range(k):
        out = [a * b for a in out for b in vals]
    out.sort(reverse=True)
    return out


def brute_compare(x, y, k):
    """Entrywise prefix-sum oracle on the expanded k-fold products."""
    nx, dx = to_ints(x)
    ny, dy = to_ints(y)
    px = [v * dy ** k for v in brute_products(nx, k)]
    py = [v * dx ** k for v in brute_products(ny, k)]
    return prefix_verdict(px, py)


def prefix_verdict(px, py):
    """Verdict of two equal-length descending integer lists of equal sum."""
    equality = False
    for l, (ex, ey) in enumerate(zip(accumulate(px), accumulate(py)), 1):
        if ex > ey:
            return "fails", l
        equality |= ex == ey and l < len(px)
    return ("boundary" if equality else "strict_interior"), None


def decide(x, y, k):
    """Reference verdict; rows small enough for the brute oracle are
    answered by both deciders, which must agree."""
    ref = kernel_compare(x, y, k)
    if len(x) ** k <= BRUTE_LIMIT and brute_compare(x, y, k) != ref:
        raise AssertionError("reference kernel disagrees with brute oracle "
                             "at k=%d" % k)
    return ref


def single_copy(x, y):
    """Single-copy verdict with interior equality positions."""
    ex = list(accumulate(Fraction(v) for v in x))
    ey = list(accumulate(Fraction(v) for v in y))
    eqs = set()
    for l in range(1, len(x)):
        if ex[l - 1] > ey[l - 1]:
            return "fails", l, eqs
        if ex[l - 1] == ey[l - 1]:
            eqs.add(l)
    return ("boundary" if eqs else "strict_interior"), None, eqs


def catalyst_works(x, y, c):
    """x (x) c majorized by y (x) c, checked on the expanded products."""
    nx, dx = to_ints(x)
    ny, dy = to_ints(y)
    nc, _ = to_ints(c)
    px = sorted((a * b * dy for a in nx for b in nc), reverse=True)
    py = sorted((a * b * dx for a in ny for b in nc), reverse=True)
    return prefix_verdict(px, py)[0] != "fails"


def tensor_counter(a, b):
    """Block multiset of a tensor product of two block multisets."""
    out = Counter()
    for u, cu in a.items():
        for v, cv in b.items():
            out[u * v] += cu * cv
    return out


def compare_counters(cx, dx, cy, dy):
    """Verdict of two block multisets with denominators dx and dy."""
    return _walk(*_rescaled_blocks(cx, dx, cy, dy))


def catalyst_power_works(x, y, c, m):
    """x (x) c^(x)m majorized by y (x) c^(x)m, on block counters."""
    nx, dx = to_ints(x)
    ny, dy = to_ints(y)
    cm = power_counter(to_ints(c)[0], m)
    return compare_counters(tensor_counter(Counter(nx), cm), dx,
                            tensor_counter(Counter(ny), cm), dy)[0] != "fails"


def is_probability_vector(vals):
    vals = [Fraction(v) for v in vals]
    return (bool(vals) and min(vals) >= 0 and sum(vals) == 1
            and vals == sorted(vals, reverse=True))


def same_multiset(vals, expected):
    return sorted(map(Fraction, vals)) == sorted(map(Fraction, expected))


def tensor_entries(a, b):
    return [Fraction(u) * Fraction(v) for u in a for v in b]


def power_entries(c, n):
    out = [Fraction(1)]
    for _ in range(n):
        out = tensor_entries(out, c)
    return out


def mixed_power_entries(x, y, k):
    """The Theorem-1 catalyst: (1/k) * direct sum of x^(k-1-i) (x) y^(i)."""
    return [v / k for i in range(k)
            for v in tensor_entries(power_entries(x, k - 1 - i),
                                    power_entries(y, i))]


def mixed_power_dim(n, k):
    """Raw dimension k * n^(k-1) of the Theorem-1 catalyst."""
    return k * n ** (k - 1)


def usefulness(y):
    """Least 1-based l with 1 < l < n-1, y_1 > y_l and y_{l+1} > y_n, with
    the averaging witness; (None, None) when extra copies never help."""
    y = [Fraction(v) for v in y]
    n = len(y)
    for l in range(2, n - 1):
        if y[l - 1] < y[0] and y[-1] < y[l]:
            head = sum(y[:l]) / l
            tail = sum(y[l:]) / (n - l)
            return l, [head] * l + [tail] * (n - l)
    return None, None


# --- Renyi entropy signs ------------------------------------------------

RENYI_TIE = 1e-9  # differences this small count as undecided


def _renyi_float(vals, alpha):
    nz = [float(v) for v in vals if v != 0]
    if alpha == math.inf:
        return -math.log2(max(nz))
    if alpha == -math.inf:
        return math.log2(min(nz))
    if alpha == 0:
        return math.log2(len(nz))
    if alpha == 1:
        return -math.fsum(v * math.log2(v) for v in nz)
    sgn = 1.0 if alpha >= 0 else -1.0
    return sgn * math.log2(math.fsum(v ** alpha for v in nz)) / (1.0 - alpha)


def _renyi_decimal(vals, alpha):
    """Renyi entropy over the nonzero entries in 40-digit decimals."""
    nz = [Decimal(v.numerator) / Decimal(v.denominator)
          for v in map(Fraction, vals) if v != 0]
    ln2 = Decimal(2).ln()
    if alpha == math.inf:
        return -max(nz).ln() / ln2
    if alpha == -math.inf:
        return min(nz).ln() / ln2
    if alpha == 0:
        return Decimal(len(nz)).ln() / ln2
    if alpha == 1:
        return -sum(v * v.ln() for v in nz) / ln2
    a = Decimal(repr(float(alpha)))
    s = sum((a * v.ln()).exp() for v in nz)
    sgn = 1 if alpha >= 0 else -1
    return sgn * s.ln() / ((1 - a) * ln2)


def renyi_sign(x, y, alpha):
    """Sign of S_alpha(x) - S_alpha(y); 0 marks a near tie that a float
    evaluation may resolve either way.  Floats decide clear cases, 40-digit
    decimals the close ones."""
    if alpha == 0:  # log2 of the nonzero counts: compare the counts
        dx = sum(1 for v in x if v != 0)
        dy = sum(1 for v in y if v != 0)
        return (dx > dy) - (dx < dy)
    d = _renyi_float(x, alpha) - _renyi_float(y, alpha)
    if abs(d) <= 1e-6:
        with localcontext() as ctx:
            ctx.prec = 40
            d = float(_renyi_decimal(x, alpha) - _renyi_decimal(y, alpha))
    if abs(d) <= RENYI_TIE:
        return 0
    return 1 if d > 0 else -1


def renyi_orders(x, y, grid):
    """Orders a dominance check must test: 0, 1 and +inf always, -inf and
    negative grid orders only when the nonzero counts agree."""
    dx = sum(1 for v in x if v != 0)
    dy = sum(1 for v in y if v != 0)
    orders = [0, 1, math.inf]
    if dx == dy:
        orders.append(-math.inf)
    orders += [a for a in grid if dx == dy or a >= 0]
    return dx, dy, orders


def renyi_verdict_ok(x, y, grid, violated, alpha):
    """Is a filter outcome consistent with exact entropy signs?  A reported
    violation must be one; a clean pass must have none.  Near ties accept
    either answer."""
    x = [Fraction(v) for v in x]
    y = [Fraction(v) for v in y]
    dx, dy, orders = renyi_orders(x, y, grid)
    if dx < dy:
        return violated
    if violated:
        return alpha in orders and renyi_sign(x, y, alpha) <= 0
    return all(renyi_sign(x, y, a) >= 0 for a in orders)
