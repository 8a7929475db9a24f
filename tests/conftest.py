"""Shared helpers: random rational vector generators and brute-force
oracles kept independent of the compressed code paths they check."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from trumpkit import ProbVec, make_probvec, power_sum_refutation

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus_path(name):
    return CORPUS / name


def random_rational_vec(rng, n, denom_max=40, positive=False):
    """Random sorted rational probability vector with denominator <= denom_max."""
    while True:
        denom = rng.randint(n, denom_max)
        lo = 1 if positive else 0
        cuts = sorted(rng.randint(0, denom) for _ in range(n - 1))
        parts = [a - b for a, b in zip(cuts + [denom], [0] + cuts)]
        if positive and min(parts) < lo:
            continue
        return make_probvec([Fraction(p, denom) for p in parts],
                            normalize=False)


def random_majorized_below(rng, y):
    """Random x with x majorized by y: mix y toward uniform, then apply a
    few mass-preserving Robin Hood moves.  Independent of the predicates
    under test."""
    n = y.dim
    t = Fraction(rng.randint(0, 8), 8)
    u = Fraction(1, n)
    vals = [t * v + (1 - t) * u for v in y.entries]
    for _ in range(rng.randint(0, 3)):
        vals.sort(reverse=True)
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        gap = vals[i] - vals[j]
        if gap > 0:
            move = gap * Fraction(rng.randint(0, 4), 8)
            vals[i] -= move
            vals[j] += move
    return ProbVec(vals)


def random_strict_interior(rng, y):
    """Random x strictly inside the majorization region of a non-uniform y:
    a proper mix of y with the uniform vector."""
    n = y.dim
    t = Fraction(rng.randint(1, 7), 8)
    u = Fraction(1, n)
    return ProbVec([t * v + (1 - t) * u for v in y.entries])


def brute_tensor(a, b):
    """Oracle: all pairwise products of the entries of a and b, sorted,
    as a plain list of Fractions."""
    return sorted((u * v for u in a.entries for v in b.entries),
                  reverse=True)


def brute_tensor_power(x, k):
    """Oracle: all n^k products, sorted, as a plain list of Fractions."""
    vals = [Fraction(1)]
    for _ in range(k):
        vals = [a * b for a in vals for b in x.entries]
    return sorted(vals, reverse=True)


def brute_power_majorizes(x, y, k):
    """Oracle: is x^(x)k majorized by y^(x)k, walked entry by entry over
    all n^k products?  The entries go over one common denominator first,
    so the products, the sorts and the prefix sums are plain integers."""
    den = math.lcm(*(v.denominator for v in x.entries + y.entries))

    def power(vs):
        nums, out = [v.numerator * (den // v.denominator) for v in vs], [1]
        for _ in range(k):
            out = [a * b for a in out for b in nums]
        return itertools.accumulate(sorted(out, reverse=True))

    return all(a <= b for a, b in zip(power(x.entries), power(y.entries)))


def brute_majorizes(xs, ys):
    """Oracle on plain sorted lists: (holds, first_violation_l)."""
    ex = Fraction(0)
    ey = Fraction(0)
    for l, (a, b) in enumerate(zip(xs, ys), start=1):
        ex += a
        ey += b
        if ex > ey:
            return False, l
    return True, None


def brute_majorization_report(xs, ys):
    """Oracle on plain sorted lists, one entry at a time: (verdict,
    equality positions l < n, first_violation (l, e_l(x), e_l(y)))."""
    ex = ey = Fraction(0)
    equalities = set()
    for l, (a, b) in enumerate(zip(xs[:-1], ys[:-1]), start=1):
        ex += a
        ey += b
        if ex > ey:
            return "fails", equalities, (l, ex, ey)
        if ex == ey:
            equalities.add(l)
    return ("boundary" if equalities else "strict_interior"), equalities, None


def power_blocks(x, k):
    """Oracle: x^(x)k as sorted (value, count) blocks, one per multiset of
    k distinct values of x, counted by multinomials; never expanded."""
    values = [(v, len(list(run))) for v, run in itertools.groupby(x.entries)]
    blocks = Counter()
    for combo in itertools.combinations_with_replacement(range(len(values)),
                                                         k):
        count, value = math.factorial(k), Fraction(1)
        for i, a in Counter(combo).items():
            v, m = values[i]
            count = count // math.factorial(a) * m ** a
            value *= v ** a
        blocks[value] += count
    return sorted(blocks.items(), reverse=True)


def least_interior_gap(x, y, k):
    """Oracle: the least e_l(y^(x)k) - e_l(x^(x)k) over 0 < l < n^k.
    Between two breakpoints of either power both prefix sums are linear
    in l, so the least gap sits at a breakpoint, or at l = 1 or
    l = n^k - 1 next to the excluded ends."""
    bx, by = power_blocks(x, k), power_blocks(y, k)
    n = x.dim ** k
    ends = (set(itertools.accumulate(c for _, c in bx))
            | set(itertools.accumulate(c for _, c in by)) | {1, n - 1})
    ends = sorted(l for l in ends if 0 < l < n)

    def prefix_masses(blocks):
        out, l, mass, blocks = [], 0, Fraction(0), iter(blocks)
        v, c = next(blocks)
        for end in ends:
            while l + c < end:
                l, mass = l + c, mass + v * c
                v, c = next(blocks)
            out.append(mass + v * (end - l))
        return out

    return min(b - a for a, b in zip(prefix_masses(bx), prefix_masses(by)))


def brute_strict_interior(xs, ys):
    ex = Fraction(0)
    ey = Fraction(0)
    for a, b in zip(xs[:-1], ys[:-1]):
        ex += a
        ey += b
        if ex >= ey:
            return False
    return True


def power_sum(x, order):
    """Oracle: the sum of x_i^order over the nonzero entries, in
    Fractions."""
    return sum((v ** order for v in x.entries if v), Fraction(0))


def power_sum_refutes(x, y, order):
    """Does an order that power_sum_refutation reported really exclude x
    -> y?  Rechecked with Fraction power sums: order 0 needs fewer nonzero
    entries in x, other orders a larger power sum of x, negative orders
    only on equally many nonzero entries."""
    px, py = power_sum(x, order), power_sum(y, order)
    if order == 0:
        return px < py
    if order < 0 and x.nonzero_dim != y.nonzero_dim:
        return False
    return px > py


def random_mid_pair(rng, n, denom_max=24):
    """Random x, y whose multi-copy question is open at one copy: both
    endpoint tests pass, x is not majorized by y (checked entry by entry)
    and no power sum refutes the pair.  Needs n >= 4."""
    while True:
        x = random_rational_vec(rng, n, denom_max)
        y = random_rational_vec(rng, n, denom_max)
        if (x.entries[0] <= y.entries[0] and x.entries[-1] >= y.entries[-1]
                and not brute_majorizes(x.entries, y.entries)[0]
                and power_sum_refutation(x, y) is None):
            return x, y
