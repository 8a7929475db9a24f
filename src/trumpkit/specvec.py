"""Probability vectors, held as their compressed spectra.

A ProbVec is a sorted (nonincreasing) probability vector: the Schmidt
coefficient vector identifying a bipartite pure state, or a vector built
from such ones, such as a k-fold tensor power.  It is held as its
spectrum, the distinct values with arbitrary-precision multiplicities,
so x^(x)k at n=4, k=30 stays at a few thousand blocks instead of 4^30
entries.  A vector and a built product are the same kind of object, and
their Fraction views are built only when read.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import mul


class ProbVec:
    """Immutable probability vector, entries sorted nonincreasing.

    The state every computation runs on is a list of strictly decreasing
    numerators (``_int_vals``), their counts (``_counts``) and one common
    ``_scale``: block i holds ``_counts[i]`` copies of
    ``_int_vals[i] / _scale``, and ``_total`` is the sum of the counts.
    The entries are nonnegative and sum to exactly 1: the constructor
    checks that (_checked_numerators), and every builder keeps it, so the
    numerators times their counts sum to the scale.  Numerators and
    scale are plain integers, so building, merging, sorting and prefix
    walks never normalize a rational.  Two read-only Fraction views are
    built on first read, and no decision reads either: ``blocks``, the
    ``(value, count)`` tuple, and ``entries``, the sorted tuple of
    entries.  Two vectors are equal exactly when their sorted entries
    are, and hash, pickles and copies follow; repr, hash, bool and ==
    never read the entries, so a huge power prints and compares in
    O(blocks).
    """

    __slots__ = ("_int_vals", "_counts", "_scale", "_total", "_blocks",
                 "_entries")

    def __init__(self, raw):
        """The vector of raw entries (see _parse for what is accepted),
        which must be nonnegative and sum to exactly 1."""
        nums, scale = _checked_numerators(raw)
        merged = Counter(nums)
        vals = sorted(merged, reverse=True)
        self._set(vals, [merged[v] for v in vals], scale)

    def _set(self, vals, counts, scale):
        """Fill the state."""
        put = object.__setattr__
        put(self, "_int_vals", vals)
        put(self, "_counts", counts)
        put(self, "_scale", scale)
        put(self, "_total", sum(counts))
        put(self, "_blocks", None)
        put(self, "_entries", None)
        return self

    def __setattr__(self, *a):
        raise AttributeError("ProbVec is immutable")

    def __reduce__(self):
        return _from_counts, (dict(zip(self._int_vals, self._counts)),
                              self._scale)

    @property
    def blocks(self):
        """The (Fraction value, count) tuple, built on first read."""
        if self._blocks is None:
            object.__setattr__(self, "_blocks", tuple(
                (Fraction(v, self._scale), c)
                for v, c in zip(self._int_vals, self._counts)))
        return self._blocks

    @property
    def entries(self):
        """The sorted Fraction entries, built on first read."""
        if self._entries is None:
            object.__setattr__(self, "_entries", tuple(chain.from_iterable(
                repeat(v, c) for v, c in self.blocks)))
        return self._entries

    @property
    def dim(self) -> int:
        return self._total

    # a vector's length and a power's entry count are one number; the
    # benchmark reads it by both names
    total_count = dim

    @property
    def nonzero_dim(self) -> int:
        """d_x: number of nonzero entries (zeros are retained, not stripped,
        because trailing zeros change classification)."""
        return self._total - (0 if self._int_vals[-1] else self._counts[-1])

    def total_mass(self):
        """The sum of the entries, from the state: 1 for every vector
        built right."""
        return Fraction(sum(map(mul, self._int_vals, self._counts)),
                        self._scale)

    def prefix_mass(self, l: int):
        """e_l: mass of the l largest entries, blockwise."""
        return Fraction(self._prefix(l), self._scale)

    def _prefix(self, l: int) -> int:
        """The numerator of e_l over the scale."""
        l = int(l)
        if not 0 <= l <= self._total:
            raise ValueError("prefix position out of range")
        num = 0
        for v, c in zip(self._int_vals, self._counts):
            if not l:  # all l positions are taken
                break
            take = c if c < l else l
            num += v * take
            l -= take
        return num

    def breakpoints(self):
        """Cumulative count boundaries (excluding 0)."""
        return list(accumulate(self._counts))

    def __eq__(self, other):
        """Equal counts and values; the values compare as numerators,
        each times the other vector's scale."""
        if not isinstance(other, ProbVec):
            return NotImplemented  # let a factored catalyst compare itself
        return (self._counts == other._counts
                and [u * other._scale for u in self._int_vals]
                == [v * self._scale for v in other._int_vals])

    def __hash__(self):
        return hash(self.blocks)

    def __bool__(self):
        return True  # never empty, and len() overflows on huge powers

    def __len__(self):
        return self._total

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return "ProbVec(%s)" % ", ".join(
            str(v) if c == 1 else "%s x%d" % (v, c) for v, c in self.blocks)

    def is_uniform(self) -> bool:
        return len(self._counts) == 1

    def to_json(self):
        return [str(v) for v in self.entries]


def _from_counts(merged, scale) -> ProbVec:
    """Trusted constructor: the vector of a {numerator: count} map over one
    scale, counts >= 1, whose numerators times counts sum to the scale."""
    vals = sorted(merged, reverse=True)
    return object.__new__(ProbVec)._set(vals, [merged[v] for v in vals],
                                        scale)


# The plain literals [+-]digits, [+-]digits/digits and [+-]digits.digits,
# ASCII digits only: _parse reads these straight to integers, and hands
# every other string (exponents, underscores, padding, other digits,
# junk) to Fraction, so the strings accepted, their values and the
# errors are Fraction's.
_PLAIN = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def _parse(raw):
    """One exact entry from an int, a Fraction or a string such as "0.4"
    or "2/5", as an integer numerator and a positive denominator, not
    necessarily in lowest terms.  Bare floats are rejected, since their
    binary value is almost never the decimal meant; so is every other
    type (bool, None, lists), and a string that is no number or has a
    zero denominator."""
    if isinstance(raw, float):
        raise ValueError("float literal %r not allowed; pass a string like "
                         "'0.4' or '2/5'" % (raw,))
    if isinstance(raw, bool) or not isinstance(raw, (str, int, Fraction)):
        raise ValueError("entry %r is not a number literal" % (raw,))
    if isinstance(raw, str):
        m = _PLAIN.fullmatch(raw)
        if m:
            # the int() calls of Fraction's own string path, in its
            # order, so a literal past int's digit limit fails alike
            sign, whole, den, dec = m.groups()
            n, d = int(whole), (int(den) if den else 1)
            if dec:
                d = 10 ** len(dec)
                n = n * d + int(dec)
            if d:
                return (-n if sign == "-" else n), d
        try:
            raw = Fraction(raw)
        except ZeroDivisionError:
            raise ValueError("entry %r has a zero denominator"
                             % (raw,)) from None
    return raw.numerator, raw.denominator


def _numerators(pairs):
    """The numerators of (numerator, denominator) pairs over one scale,
    and that scale: over the lcm of the denominators, then divided by
    the gcd of the scale and every numerator, so the scale is the lcm of
    the entries' reduced denominators.  The one pass from parsed entries
    to the integer state."""
    scale = math.lcm(*(d for _, d in pairs))
    nums = [n * (scale // d) for n, d in pairs]
    g = math.gcd(scale, *nums)
    if g > 1:
        nums, scale = [u // g for u in nums], scale // g
    return nums, scale


def _checked_numerators(raw, normalize: bool = False):
    """The one validation of raw entries, behind ProbVec(raw) and
    make_probvec: each entry parsed (_parse), none negative, not all 0,
    and all put over one scale (_numerators), which is returned with the
    numerators.  Unless normalize is set, the numerators must sum to the
    scale, that is the entries to exactly 1."""
    pairs = tuple(map(_parse, raw))
    if not pairs:
        raise ValueError("empty input")
    for n, d in pairs:
        if n < 0:
            raise ValueError("negative entry %s" % (Fraction(n, d),))
    nums, scale = _numerators(pairs)
    mass = sum(nums)
    if mass == 0:
        raise ValueError("zero total mass")
    if not normalize and mass != scale:
        raise ValueError("entries sum to %s, not 1 (pass normalize=True "
                         "to rescale)" % (Fraction(mass, scale),))
    return nums, scale


def make_probvec(raw, normalize: bool = False) -> ProbVec:
    """Build a ProbVec from raw entries, checked as ProbVec(raw) checks
    them (_checked_numerators).  With normalize set the entries are
    divided by their sum, as integer numerators over the numerators' sum
    (_normalized); otherwise the sum must already be exactly 1."""
    if not normalize:
        return ProbVec(raw)
    return _normalized(_checked_numerators(raw, True)[0])


def _normalized(nums) -> ProbVec:
    """The vector of nonnegative integers, not all 0, divided by their
    sum, in lowest terms: divided by their gcd first, the sum is the
    scale."""
    g = math.gcd(*nums)
    if g > 1:
        nums = [u // g for u in nums]
    return _from_counts(Counter(nums), sum(nums))


def pad_to(x: ProbVec, n: int) -> ProbVec:
    """Append zeros up to dimension n.  Padding is always an explicit caller
    act: it changes classification (appending a zero to (0.5,0.25,0.25)
    makes multi-copy transformations useful)."""
    if n < x.dim:
        raise ValueError("cannot pad to a smaller dimension")
    merged = Counter(dict(zip(x._int_vals, x._counts)))
    merged[0] += n - x.dim  # a zero block, or more of the one x has
    return _from_counts(+merged, x._scale)


def _check_dims(x: ProbVec, y: ProbVec) -> None:
    """Raise unless x and y have the same dimension; padding with zeros
    is the caller's explicit act (pad_to), since it changes answers."""
    if x.dim != y.dim:
        raise ValueError("dimension mismatch: %d vs %d (pad explicitly)"
                         % (x.dim, y.dim))


def _ends(x: ProbVec, y: ProbVec):
    """(x_1, y_1) and (x_n, y_n) as integers over one common scale: the
    end numerators of the vectors, each times the other's scale.  Every
    head and tail test reads them; x and y may differ in dimension."""
    u, v, fx, fy = x._int_vals, y._int_vals, y._scale, x._scale
    return (u[0] * fx, v[0] * fy), (u[-1] * fx, v[-1] * fy)


def spectrum_tensor(a: ProbVec, b: ProbVec) -> ProbVec:
    """Tensor product a (x) b: numerators multiply pairwise
    (_add_products), and so do the scales."""
    merged = {}
    _add_products(merged, a, b, 1, 1)
    return _from_counts(merged, a._scale * b._scale)


def _add_products(acc, a, b, factor, sign):
    """Add sign * m * c to acc[u * factor * v] for every block (u, m) of
    a and (v, c) of b; the inner loop runs over the longer block list."""
    get = acc.get
    if len(a._counts) <= len(b._counts):
        outer, inner = a, b
    else:
        outer, inner = b, a
    iv, ic = inner._int_vals, inner._counts
    for u, m in zip(outer._int_vals, outer._counts):
        u *= factor
        m *= sign
        for v, c in zip(iv, ic):
            key = u * v
            acc[key] = get(key, 0) + m * c


def spectrum_direct_sum(parts) -> ProbVec:
    """The vector (1/k) * (p_1 (+) ... (+) p_k), k = len(parts): the
    multiset union of the parts over the lcm of their scales, every value
    divided by k."""
    scale = math.lcm(*(p._scale for p in parts))
    merged = {}
    for p in parts:
        m = scale // p._scale
        for v, c in zip(p._int_vals, p._counts):
            v *= m
            merged[v] = merged.get(v, 0) + c
    return _from_counts(merged, scale * len(parts))


# A chain step multiplies d * |S_(k-1)| block pairs; enumerating S_k
# visits C(d+k-1, d-1) compositions, each about this many times dearer.
# Measured once, when the chain was first weighed against the enumeration
# and before the end walk existed: on 3-5 distinct values, k up to 40, the
# two break even near 3.  The roadmap's one measured cost model for the
# sweep re-measures it.
_COMPOSITION_COST = 3

# A composition read by the end walk (majorize._ends_refute, over
# _power_blocks) costs about this many block products.  Measured once,
# when the end walk was added: 1.8-2.8 us against 0.2-0.4 us a product,
# on 3-5 distinct values at k = 12-60.  The roadmap's one measured cost
# model for the sweep re-measures it.
_READ_COST = 8


def _enumeration_cost(d: int, k: int) -> int:
    """Estimated work of enumerating S_k over d distinct values, in the
    unit of one block product of a chain step."""
    return _COMPOSITION_COST * math.comb(d + k - 1, d - 1)


def tensor_powers(x: ProbVec, k_max: int):
    """Yield x^(x)1, ..., x^(x)k_max, each grown from the previous one by
    _grow; S_1 is x itself."""
    s = x
    for k in range(1, k_max + 1):
        if k > 1:
            s = _grow(x, s, k - 1, k)
        yield s


def _chain_cost(base: ProbVec, s: ProbVec, j: int, k: int) -> int:
    """Estimated block products of the k - j chain steps from s = S_j to
    S_k.  The step from S_i costs d * |S_i|, and |S_i| is taken to grow
    as the C(d+i-1, d-1) compositions do, times the share of them that
    s keeps distinct; the compositions of i = j..k-1 add up to
    C(d+k-1, d) - C(d+j-1, d)."""
    d = len(base._counts)
    return (d * len(s._counts)
            * (math.comb(d + k - 1, d) - math.comb(d + j - 1, d))
            // math.comb(d + j - 1, d - 1))


def _growth_plan(base: ProbVec, s: ProbVec, j: int, k: int):
    """How _grow builds S_k from s = S_j, and at what estimated price in
    block products: (price, True) to enumerate S_k once where the chain
    would cost more (_chain_cost against _enumeration_cost), else
    (price, False) to chain; a tie chains, as False < True."""
    return min((_chain_cost(base, s, j, k), False),
               (_enumeration_cost(len(base._counts), k), True))


def _grow(base: ProbVec, s: ProbVec, j: int, k: int) -> ProbVec:
    """S_k, the k-th power of base, given s = S_j, j <= k.

    S_k is the chain of k - j steps spectrum_tensor(S_i, base), integer
    numerators over the scale D^k, unless _growth_plan prices that chain
    above enumerating S_k once (both estimates are properties of the
    input, not settings).  Where products of the values rarely collide,
    S_i grows as fast as the compositions and the enumeration wins.  A
    single step costs d * |s| exactly, d being the number of distinct
    values of base, and from s = base the chain is cheaper exactly for
    k <= 3 when d >= 2."""
    if _growth_plan(base, s, j, k)[1]:
        return _enumerate(base, k)
    for _ in range(j, k):
        s = spectrum_tensor(s, base)
    return s


def tensor_power_spectrum(x: ProbVec, k: int) -> ProbVec:
    """x^(x)k, compressed, grown by _grow from S_1 = x; k = 1 is x
    itself.

    Measured per power on bases of 2 to 72 distinct values, the chain is
    1.1-8x faster than the enumeration at k = 2 and 3; the crossover lies
    at k = 4-5, later where products collide often.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _grow(x, x, 1, k)


def _enumerate(base: ProbVec, k: int) -> ProbVec:
    """The k-th power of base, k >= 2, by enumerating exponent vectors
    a over its *distinct* values, so the block count is bounded by
    C(d-1+k, d-1) with d the number of distinct values.  With the
    distinct values p_i / D (multiplicities m_i), the composition a
    gives the value prod p_i^a_i / D^k with count
    multinomial(k; a) * prod m_i^a_i; the counts sum to n^k.  Values and
    counts are running products over precomputed power tables, and the
    compositions are walked with an explicit stack, so any number of
    distinct values is enumerated without recursion.  At d = 2 the k + 1
    blocks p_1^a p_2^(k-a), a = k..0, are distinct and already in order,
    so they are written straight into the state; a zero p_2 leaves two,
    p_1^k and 0.  At d = 1 the power is the one block p_1^k.
    """
    nums, mults = base._int_vals, base._counts
    scale = base._scale ** k
    # pw[i][a] = p_i^a and mw[i][a] = m_i^a, a = 0..k, running products
    pw = [list(accumulate(repeat(p, k), mul, initial=1)) for p in nums]
    mw = [list(accumulate(repeat(m, k), mul, initial=1)) for m in mults]
    if len(nums) == 2:
        (p1, p2), (m1, m2) = pw, mw
        if nums[1]:  # a = k..0, and C(k, a) = C(k, k - a)
            vals = list(map(mul, reversed(p1), p2))
            counts = list(map(mul, map(math.comb, repeat(k), range(k + 1)),
                              map(mul, reversed(m1), m2)))
        else:
            vals = [p1[k], 0]
            counts = [m1[k], base.total_count ** k - m1[k]]
        return object.__new__(ProbVec)._set(vals, counts, scale)
    if len(nums) == 1:
        return object.__new__(ProbVec)._set([pw[0][k]], [mw[0][k]], scale)
    merged, tails, last = {}, {}, len(nums) - 2
    get = merged.get
    # (i, r, v, c): the exponents of the values before i are set, with
    # value v and count c, and r units are left for the values from i on
    stack = [(0, k, 1, 1)]
    while stack:
        i, r, v, c = stack.pop()
        if not r:  # every later exponent is 0
            merged[v] = get(v, 0) + c
        elif i == last:
            # the last two values share the remainder r as (a, r - a)
            tail = tails.get(r)
            if tail is None:
                (p1, p2), (m1, m2) = pw[-2:], mw[-2:]
                tail = tails[r] = [
                    (p1[a] * p2[r - a], math.comb(r, a) * m1[a] * m2[r - a])
                    for a in range(r + 1)]
            for tv, tc in tail:
                key = v * tv
                merged[key] = get(key, 0) + c * tc
        else:
            p, m = pw[i], mw[i]
            stack += [(i + 1, r - a, v * p[a], c * math.comb(r, a) * m[a])
                      for a in range(r + 1)]
    return _from_counts(merged, scale)


def _power_blocks(base: ProbVec, k: int, top: bool, factor: int):
    """Stream the blocks of the k-th power of base lazily, as
    (numerator over (factor * base._scale) ** k, count, compositions read)
    triples: values decreasing from the top end, or increasing from the
    bottom end when top is False.

    The blocks are those of tensor_power_spectrum, each numerator times
    factor ** k: a composition a of k over base's distinct numerators p_i
    (counts m_i) has the value prod (factor * p_i)^a_i and the count
    multinomial(k; a) * prod m_i^a_i.  Moving one unit from index i to
    i + 1 lowers the value, so a best-first heap from (k, 0, ..., 0) pops
    the compositions in decreasing order, and equal values pop together
    and merge into one block.  A composition with last nonzero index h has
    one parent, itself with a unit moved from h back to h - 1; so its
    children move a unit from i to i + 1 for i in {h - 1, h} only, each
    composition is pushed exactly once with no visited set, and a pop
    pushes at most 2.  A child's value is v * p_(i+1) / p_i and its count
    c * a_i * m_(i+1) / ((a_(i+1) + 1) * m_i), both exact integer
    divisions.  Those moves read only h, a_(h-1) and a_h, and a child's
    last nonzero index is i + 1, so the heap keeps these three in place
    of the composition.  The bottom end runs the same walk over the
    numerators in reverse order.  A zero numerator is never divided by:
    its block holds the n^k - (n - m_0)^k products with a zero factor,
    n the total count and m_0 the zero count, and it is given directly,
    last from the top and first from the bottom.
    """
    nums, mults = [p * factor for p in base._int_vals], list(base._counts)
    zeros = 0
    if not nums[-1]:
        n = base.total_count
        zeros = n ** k - (n - mults.pop()) ** k
        nums.pop()
    if not top:
        if zeros:
            yield 0, zeros, 1
        nums.reverse()
        mults.reverse()
    # heapq pops the least key first: the keys are the values, negated
    # from the top.  An entry is (key, count, h, a_(h-1), a_h): the
    # children of a composition need nothing else of it.
    sign, last = (-1 if top else 1), len(nums) - 1
    heap = [(sign * nums[0] ** k, mults[0] ** k, 0, 0, k)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        key, c, h, prev, cur = pop(heap)
        total = read = 0
        while True:
            total += c
            read += 1
            if prev:  # a unit from h - 1 to h
                push(heap, (key * nums[h] // nums[h - 1],
                            c * prev * mults[h] // ((cur + 1) * mults[h - 1]),
                            h, prev - 1, cur + 1))
            if h < last:  # a unit from h to h + 1
                push(heap, (key * nums[h + 1] // nums[h],
                            c * cur * mults[h + 1] // mults[h],
                            h + 1, cur - 1, 1))
            if not heap or heap[0][0] != key:
                break
            key, c, h, prev, cur = pop(heap)
        yield sign * key, total, read
    if top and zeros:
        yield 0, zeros, 1


# --- vector literal I/O -----------------------------------------------------

def parse_vector_literal(text: str) -> ProbVec:
    """Parse the shared JSON vector format: an array of strings ("0.4",
    "2/5") or of JSON numbers.  A number is read as the decimal it is
    written as (0.1 is 1/10, not its binary float), so either form is
    exact."""
    data = json.loads(text, parse_float=Fraction)
    if not isinstance(data, list):
        raise ValueError("vector literal must be a JSON array")
    return make_probvec(data)


def load_vector(path) -> ProbVec:
    with open(path) as fh:
        return parse_vector_literal(fh.read())
