"""Property tests of the integer kernel against the brute-force
oracles in conftest: tensor powers, spectrum tensor products and the
breakpoint walk, on ties, trailing zeros, n=1, uniform vectors and
denominators near 1e4, plus majorizes against a per-entry Fraction walk,
the catalyst constructions built on the kernel against their Fraction
definitions, the incremental power chain against direct enumeration,
the growth of a power from any smaller one against the plain chain and
which powers chain and which enumerate,
in_Mk's one-copy pre-decision and scan_Mk against the per-k walk, the
power-sum refutation against brute k-copy walks, in_Mk's sweep over
sums of smaller members against direct enumeration on mid pairs, the two
facts that settle scan_Mk verdicts from smaller k against brute walks,
scan_Mk against the per-k walk on benchmark-style pairs up to
k_max = 20, the galloping catalyst scan against the per-m walk and its
probe bound, chained small powers against brute products, lifted
catalysts against an expanded n-copy check, and the value pass that
checks catalysts (x (x) c majorized by y (x) c, neither product built)
against the walk on built products and the brute Fraction walk, the
lazy block streams of a power against its spectrum, the end walk's
refutations against brute walks and the full walk, the position walk's
report against the brute Fraction walk field by field, the callers
of its bare verdict, which build no report, the two-value enumeration
against the chain, the catalyst search on integer spectra against a
loop that builds every candidate as a ProbVec, and the unit total mass
that every builder keeps, pickled and copied too."""

import copy
import math
import pickle
import random
from fractions import Fraction as F
from itertools import accumulate, groupby, islice
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trumpkit import (LiftedCatalyst, ProbVec, build_catalyst_thm1,
                      catalysis, classify_usefulness, combine_catalysts,
                      in_Mk, is_generalized_interior, is_interior,
                      lift_catalyst, majorize, majorizes, make_probvec,
                      mlocc, multicopy_catalyst_scan, nonclosedness_witness,
                      pad_to, power_sum_refutation, renyi, scan_Mk,
                      search_catalyst, spectrum_majorizes, spectrum_tensor,
                      tensor_power_spectrum)
from trumpkit.catalysis import _mixed_power_catalyst, _powers
from trumpkit import specvec
from trumpkit.majorize import _ends_refute, _product_majorizes, _verdict
from trumpkit.specvec import (_power_blocks, load_vector,
                              spectrum_direct_sum, tensor_powers)

from conftest import (brute_majorization_report, brute_majorizes,
                      brute_strict_interior, brute_tensor, brute_tensor_power,
                      corpus_path, power_sum_refutes, random_mid_pair,
                      random_rational_vec)

# small parts give ties, zeros and uniform vectors; parts near 2000 give
# denominators near 1e4 once normalized
PART = st.one_of(st.integers(0, 6), st.integers(1900, 2100))
PROPS = settings(max_examples=60, deadline=None, derandomize=True)


def parts(n):
    return st.lists(PART, min_size=n, max_size=n).filter(any)


def vec(raw):
    return make_probvec([F(a) for a in raw], normalize=True)


@st.composite
def pair_and_k(draw):
    """Same-dimension x, y and a k with n^k small enough to expand."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, {1: 6, 2: 6, 3: 4, 4: 3}[n]))
    x = draw(parts(n))
    y = draw(st.one_of(parts(n), st.just(x), st.just([1] * n)))
    return vec(x), vec(y), k


def flat(s):
    return [v for v, c in s.blocks for _ in range(c)]


@PROPS
@given(pair_and_k())
def test_tensor_power_expands_to_brute(case):
    x, _, k = case
    s = tensor_power_spectrum(x, k)
    assert flat(s) == brute_tensor_power(x, k)
    assert s.total_count == x.dim ** k
    assert s.total_mass() == 1


@PROPS
@given(pair_and_k(), parts(2))
def test_spectrum_tensor_is_sorted_products(case, c):
    x, _, k = case
    c = vec(c)
    got = spectrum_tensor(tensor_power_spectrum(x, k), c)
    want = sorted((u * v for u in brute_tensor_power(x, k) for v in c),
                  reverse=True)
    assert flat(got) == want
    assert got.total_mass() == 1


@PROPS
@given(pair_and_k())
def test_walk_matches_brute(case):
    x, y, k = case
    sx, sy = tensor_power_spectrum(x, k), tensor_power_spectrum(y, k)
    rep = spectrum_majorizes(sx, sy)
    xs, ys = brute_tensor_power(x, k), brute_tensor_power(y, k)
    ex, ey = [0] + list(accumulate(xs)), [0] + list(accumulate(ys))
    holds, first_l = brute_majorizes(xs, ys)
    assert rep.holds == holds
    if holds:
        assert rep.first_violation is None
        assert (rep.verdict == "strict_interior") == \
            brute_strict_interior(xs, ys)
    else:
        assert rep.first_violation == (first_l, ex[first_l], ey[first_l])
    # equalities are reported at the breakpoints walked before a violation
    stop = first_l if first_l is not None else len(xs)
    bps = set(sx.breakpoints()) | set(sy.breakpoints())
    assert rep.equality_indices == {l for l in bps
                                    if l < stop and ex[l] == ey[l]}


@st.composite
def vector_pair(draw):
    """Same-dimension x, y with n <= 8, often tied, zero-tailed or equal."""
    n = draw(st.integers(1, 8))
    x = draw(parts(n))
    y = draw(st.one_of(parts(n), st.just(x), st.just([1] * n)))
    return vec(x), vec(y)


@PROPS
@given(vector_pair())
def test_majorizes_matches_per_entry_oracle(pair):
    x, y = pair
    rep = majorizes(x, y)
    verdict, equalities, first = brute_majorization_report(x.entries,
                                                           y.entries)
    assert rep.verdict == verdict
    assert rep.equality_indices == equalities
    assert rep.first_violation == first


@st.composite
def walk_case(draw):
    """x, y and k <= 4 for the position walk: free draws (zeros, ties),
    equal pairs, a uniform x (a single block), and pairs that share a head
    block of two or more entries, so that the walk crosses a zero segment
    before it holds or fails."""
    kind = draw(st.sampled_from(["free", "equal", "uniform", "head"]))
    n = draw(st.integers(4 if kind == "head" else 1, 5))
    k = draw(st.integers(1, 4 if n <= 3 else 3))
    x = draw(parts(n))
    y = draw(parts(n)) if kind == "free" else x
    if kind == "uniform":
        x = [1] * n
    elif kind == "head":
        # one to four units move between two tail entries, both below h
        h, r = draw(st.integers(2, 6)), draw(st.integers(2, n - 2))
        tail = draw(st.lists(st.integers(1, h - 1), min_size=n - r,
                             max_size=n - r))
        i, j = draw(st.permutations(range(n - r)))[:2]
        d = draw(st.integers(1, min(h - tail[i], tail[j], 4)))
        moved = list(tail)
        moved[i] += d
        moved[j] -= d
        x, y = [h] * r + tail, [h] * r + moved
        if draw(st.booleans()):
            x, y = y, x
    return vec(x), vec(y), k


@settings(PROPS, max_examples=200)
@given(walk_case())
@example((vec([1, 1, 1]), vec([1, 1, 1]), 2))
@example((vec([1, 1, 1, 1]), vec([4, 3, 2, 1]), 2))
@example((vec([3, 3, 3, 1, 0]), vec([3, 3, 2, 2, 0]), 1))
@example((vec([3, 3, 1, 1]), vec([3, 3, 2, 0]), 2))
def test_walk_report_matches_brute_field_by_field(case):
    x, y, k = case
    sx, sy = tensor_power_spectrum(x, k), tensor_power_spectrum(y, k)
    rep = spectrum_majorizes(sx, sy)
    xs, ys = brute_tensor_power(x, k), brute_tensor_power(y, k)
    verdict, equalities, first = brute_majorization_report(xs, ys)
    gap = [b - a for a, b in zip(accumulate([0] + xs), accumulate([0] + ys))]
    bps = sorted({0, *sx.breakpoints(), *sy.breakpoints()})
    # the walk reports on the segments between breakpoints of either
    # spectrum that lie before the one holding the first violation
    stop = first[0] if first else len(xs) + 1
    walked = [(lo, hi) for lo, hi in zip(bps, bps[1:]) if hi < stop]
    assert rep.verdict == verdict
    assert rep.first_violation == first
    assert rep.equality_indices == equalities & set(bps)
    assert rep.zero_segment == any(hi - lo > 1 and gap[lo] == gap[hi] == 0
                                   for lo, hi in walked)
    assert _verdict(sx, sy) == rep.verdict
    if k == 1:
        full = majorizes(x, y)
        assert (full.verdict, full.equality_indices,
                full.first_violation) == (verdict, equalities, first)


def test_exact_kernel_makes_fractions_only_for_reports(monkeypatch):
    x = make_probvec(["0.4", "0.4", "0.1", "0.1"])
    y = make_probvec(["0.5", "0.25", "0.25", "0"])
    c = make_probvec(["0.6", "0.4"])
    made = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    assert spectrum_majorizes(
        spectrum_tensor(tensor_power_spectrum(x, 3), c),
        spectrum_tensor(tensor_power_spectrum(y, 3), c)).holds
    assert made == []
    assert not spectrum_majorizes(tensor_power_spectrum(x, 2),
                                  tensor_power_spectrum(y, 2)).holds
    # a failing walk reports e_l(x) and e_l(y), nothing else
    assert len(made) == 2


@PROPS
@given(pair_and_k(), st.integers(1, 3).flatmap(parts))
def test_single_copy_verification_matches_brute(case, c):
    x, y, _ = case
    c = vec(c)
    assert _product_majorizes(x, y, c) == brute_majorizes(
        brute_tensor(x, c), brute_tensor(y, c))[0]


def fraction_mixed_power(x, y, k):
    """(1/k) * direct-sum of x^(k-1-i) (x) y^(i), built entry by entry."""
    terms = [[u * v for u in brute_tensor_power(x, k - 1 - i)
              for v in brute_tensor_power(y, i)] for i in range(k)]
    return ProbVec([v / k for t in terms for v in t])


@PROPS
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(parts(n), parts(n))),
       st.integers(1, 4))
def test_mixed_power_catalyst_matches_fractions(xy, k):
    x, y = map(vec, xy)
    c = _mixed_power_catalyst(_powers(x, k - 1), _powers(y, k - 1))
    want = fraction_mixed_power(x, y, k)
    assert c.entries == want.entries
    assert c == want


def reference_search(x, y, dim_c, budget, seed):
    """search_catalyst as a plain loop: every candidate of the stream
    becomes a normalized ProbVec, checked on the built products."""
    for comp in islice(catalysis._candidates(dim_c, seed),
                       1 if dim_c == 1 else budget):
        c = make_probvec(comp, normalize=True)
        if brute_majorizes(brute_tensor(x, c), brute_tensor(y, c))[0]:
            return catalysis.CatalystCert(
                c, "search(seed=%d, dim=%d)" % (seed, dim_c), True)
    return None


def test_search_matches_reference_loop():
    # seeded pairs: random ones, which often hold at one copy or are
    # excluded, and mid pairs, open at one copy, which never convert at
    # dim_c = 1
    rng, outcomes = random.Random(2024), set()
    for i in range(90):
        n = rng.randint(2, 4)
        if i % 2:
            x, y = random_mid_pair(rng, 4)
            dim_c = rng.randint(2, 3)
        else:
            x, y = (random_rational_vec(rng, n) for _ in range(2))
            dim_c = rng.randint(1, 3)
        budget = rng.randint(0, 60)
        seed = rng.randrange(1000)
        got = search_catalyst(x, y, dim_c, budget, seed)
        want = reference_search(x, y, dim_c, budget, seed)
        assert got == want, (x, y, dim_c, budget, seed)
        if got is not None:
            assert got.to_json() == want.to_json()
            assert got.catalyst.entries == want.catalyst.entries
        outcomes.add((got is None, i % 2))
    assert len(outcomes) == 4  # hits and misses among both kinds


def test_trial_spectrum_is_the_normalized_candidate():
    # lattice points with repeated entries, and unnormalized draws
    for dim_c in (1, 2, 3, 4):
        for comp in islice(catalysis._candidates(dim_c, 11), 80):
            assert all(type(a) is int and a > 0 for a in comp), comp
            want = ProbVec([F(a, sum(comp)) for a in comp])
            got = specvec._normalized(comp)
            assert got == want and got.total_mass() == 1, comp
            assert state(got) == state(want), comp


@PROPS
@given(st.integers(1, 4).flatmap(parts), st.integers(1, 3))
def test_lifted_catalyst_is_its_tensor_power(c, n):
    c = vec(c)
    lifted = LiftedCatalyst(c, n)
    full = ProbVec(brute_tensor_power(c, n))
    assert not hasattr(lifted, "entries")
    assert lifted.dim == full.dim == c.dim ** n
    assert lifted.expand() == full
    assert lifted == full and full == lifted
    assert lifted.to_json() == full.to_json()


def state(s):
    return s._int_vals, s._counts, s._scale


@PROPS
@given(st.integers(1, 6).flatmap(parts), st.integers(1, 8))
def test_power_chain_is_direct_enumeration(x, k_max):
    # up to six distinct values and k = 8: collision-free inputs reach the
    # steps that enumerate instead of tensoring
    x = vec(x)
    chain = list(tensor_powers(x, k_max))
    assert len(chain) == k_max
    for k, s in enumerate(chain, 1):
        direct = tensor_power_spectrum(x, k)
        assert state(s) == state(direct)
        assert s.total_mass() == 1


def chain(base, k):
    """S_k by k - 1 plain chain steps from base, with no growth choice."""
    s = base
    for _ in range(k - 1):
        s = spectrum_tensor(s, base)
    return s


@PROPS
@given(st.integers(1, 6).flatmap(parts), st.integers(1, 8), st.integers(1, 8))
@example([5], 1, 8)  # one distinct value
@example([2, 2, 2], 2, 7)
@example([3, 1, 0, 0], 1, 8)  # zero entries, six powers skipped
@example([1999, 2003, 2011, 2017, 0], 2, 6)
def test_grow_from_any_smaller_power_is_the_power(x, a, b):
    # from S_j, 1 <= j <= k, _grow gives S_k whether it chains or
    # enumerates
    x, (j, k) = vec(x), sorted((a, b))
    want = state(chain(x, k))
    assert state(specvec._grow(x, chain(x, j), j, k)) == want
    assert state(tensor_power_spectrum(x, k)) == want


@PROPS
@given(st.integers(1, 2100), st.integers(0, 2100), st.integers(1, 4),
       st.integers(1, 4), st.integers(2, 12))
@example(3, 0, 2, 3, 12)  # a zero value
@example(2, 1, 1, 1, 2)
def test_two_value_enumeration_is_the_chain(p, q, m1, m2, k):
    # the k + 1 blocks written in order, no merge, against chain steps
    assume(p != q)
    base = vec([p] * m1 + [q] * m2)
    assert len(base._counts) == 2
    got = specvec._enumerate(base, k)
    assert state(got) == state(chain(base, k))
    assert sum(got._counts) == got.total_count == (m1 + m2) ** k


@PROPS
@given(st.integers(1, 6).flatmap(parts), st.integers(1, 8))
def test_only_powers_past_three_are_enumerated(x, k):
    x = vec(x)
    enumerated = []
    real = specvec._enumerate

    def counted(b, m):
        enumerated.append(m)
        return real(b, m)

    with mock.patch.object(specvec, "_enumerate", counted):
        tensor_power_spectrum(x, k)
    if k <= 3:
        assert enumerated == []
    elif len(x._counts) >= 2:
        assert enumerated == [k]


@PROPS
@given(st.integers(1, 8).flatmap(parts))
def test_spectrum_of_matches_distinct_blocks(x):
    x = vec(x)
    runs = [(v, len(list(run))) for v, run in groupby(x.entries)]
    want = ProbVec([v for v, c in runs for _ in range(c)])
    assert x.blocks == tuple(runs)
    assert x == want
    assert state(x) == state(want)


@st.composite
def pair_and_big_k(draw):
    """Same-dimension x, y and a k with n^k <= 4096, often tied,
    zero-tailed, equal or uniform."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, {1: 12, 2: 12, 3: 7, 4: 6, 5: 5, 6: 4}[n]))
    x = draw(parts(n))
    y = draw(st.one_of(parts(n), st.just(x), st.just([1] * n)))
    return vec(x), vec(y), k


PAPER = (vec([4, 4, 1, 1]), vec([2, 1, 1, 0]))


@PROPS
@given(pair_and_big_k())
@example((*PAPER, 2))
@example((*PAPER, 3))
@example((*PAPER[::-1], 3))
def test_in_Mk_matches_enumeration_and_brute(case):
    x, y, k = case
    got = in_Mk(x, y, k)
    assert got == spectrum_majorizes(tensor_power_spectrum(x, k),
                                     tensor_power_spectrum(y, k)).holds
    assert got == brute_majorizes(brute_tensor_power(x, k),
                                  brute_tensor_power(y, k))[0]


@PROPS
@given(pair_and_k(), st.integers(1, 6))
@example((*PAPER, 1), 4)
def test_scan_Mk_matches_per_k_walk(case, k_max):
    x, y, _ = case
    scan = scan_Mk(x, y, k_max)
    want = {k: spectrum_majorizes(tensor_power_spectrum(x, k),
                                  tensor_power_spectrum(y, k)).verdict
            for k in range(1, k_max + 1)}
    assert scan.results == want
    assert scan.first_success == next(
        (k for k, v in want.items() if v != "fails"), None)


# (x, y) pairs that one integer order refutes: order 2, order -1 on equal
# supports, order 0 on a smaller support
REFUTED = [(vec([12, 6, 1, 1]), vec([12, 5, 2, 1])),
           (vec([7, 6, 2, 1]), vec([8, 4, 3, 1])),
           (vec([4, 3, 3, 0, 0]), vec([5, 2, 2, 1, 0]))]


@st.composite
def oriented_pair(draw):
    """Same-dimension x, y (up to 6 entries), swapped so that the pair
    is refuted when either direction is."""
    n = draw(st.integers(2, 6))
    x, y = vec(draw(parts(n))), vec(draw(parts(n)))
    if power_sum_refutation(x, y) is None:
        x, y = y, x
    return x, y


@settings(max_examples=40, deadline=None, derandomize=True)
@given(oriented_pair())
@example(REFUTED[0])
@example(REFUTED[1])
@example(REFUTED[2])
def test_refuted_pairs_are_never_members(pair):
    # brute walks wherever n^k <= 4096, then the per-k walk of scan_Mk
    # with the refutation switched off, up to k = 12
    x, y = pair
    order = power_sum_refutation(x, y)
    if order is None:
        return
    assert power_sum_refutes(x, y, order)
    k = 1
    while x.dim ** k <= 4096:
        assert not brute_majorizes(brute_tensor_power(x, k),
                                   brute_tensor_power(y, k))[0]
        k += 1
    with mock.patch.object(renyi, "power_sum_refutation",
                           lambda sx, sy: None):
        scan = scan_Mk(x, y, 12)
    # the patch bites: only a failed endpoint test still excludes the pair
    assert scan.refuting_order is None
    assert scan.first_success is None
    assert scan_Mk(x, y, 12).results == scan.results


@st.composite
def mid_pair_and_k(draw):
    """A pair open at one copy (both endpoint tests pass, one copy fails,
    no power sum refutes), n from 4 to 6, and k from 4 to 16.  At n <= 3
    the endpoint tests imply one-copy majorization."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    x, y = random_mid_pair(rng, draw(st.integers(4, 6)))
    return x, y, draw(st.integers(4, 16))


@PROPS
@given(mid_pair_and_k())
@example((*PAPER, 6))
@example((*PAPER, 5))
@example((vec([4, 3, 1, 1]), vec([6, 2, 2, 1]), 8))
def test_in_Mk_on_mid_pairs_matches_enumeration(case):
    # the paper pair at k = 6 is decided by the sweep; at k = 5, and the
    # third pair (its sweep runs out of budget), by enumeration
    x, y, k = case
    assert in_Mk(x, y, k) == spectrum_majorizes(
        tensor_power_spectrum(x, k), tensor_power_spectrum(y, k)).holds


def mixed(vals, t):
    """vals moved a share 1 - t of the way to their own average."""
    return [t * v + (1 - t) * sum(vals) / len(vals) for v in vals]


# fails at one copy, strictly interior at two and three
MID_STRICT = (vec([6, 4, 1, 1]), vec([3, 1, 1, 0]))


@st.composite
def pair_and_two_k(draw):
    """x, y and a, b >= 1 with n^(a+b) <= 4096.  x and y are drawn on
    their own (with ties and zeros), or x is y mixed toward uniform
    (strictly interior to y when y is not uniform), or y with its head or
    its tail kept and the rest mixed (an endpoint tie), or the pair is
    open at one copy (random_mid_pair); then x and y may swap."""
    shape = draw(st.sampled_from(["free", "mixed", "head", "tail", "mid"]))
    if shape == "mid":
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        x, y = random_mid_pair(rng, draw(st.integers(4, 6)))
    else:
        n = draw(st.integers(1, 6))
        y = vec(draw(parts(n)))
        ys, t = list(y.entries), F(draw(st.integers(1, 7)), 8)
        if shape == "free":
            x = vec(draw(parts(n)))
        elif shape == "mixed":
            x = ProbVec(mixed(ys, t))
        elif shape == "head":
            x = ProbVec(ys[:1] + mixed(ys[1:], t))
        else:
            x = ProbVec(mixed(ys[:-1], t) + ys[-1:])
    if draw(st.booleans()):
        x, y = y, x
    top = {1: 12, 2: 12, 3: 7, 4: 6, 5: 5, 6: 4}[x.dim]
    a = draw(st.integers(1, top - 1))
    return x, y, a, draw(st.integers(1, top - a))


@PROPS
@given(pair_and_two_k())
@example((*PAPER, 3, 3))
@example((*MID_STRICT, 2, 2))
@example((*MID_STRICT, 2, 3))
@example((vec([41, 20, 20, 19]), vec([60, 25, 10, 5]), 1, 4))
@example((vec([60, 25, 10, 5]), vec([60, 30, 5, 5]), 2, 3))
def test_strict_plus_member_is_strict_and_endpoint_ties_are_boundary(case):
    # brute walks only: a strict interior at a and a member at b give a
    # strict interior at a + b; with x_1 = y_1 or x_n = y_n (n > 1) every
    # member is boundary; members are closed under addition
    x, y, a, b = case
    va, vb, vab = (brute_majorization_report(brute_tensor_power(x, k),
                                             brute_tensor_power(y, k))[0]
                   for k in (a, b, a + b))
    tie = x.entries[0] == y.entries[0] or x.entries[-1] == y.entries[-1]
    if tie and x.dim > 1:
        assert "strict_interior" not in (va, vb, vab)
    if va != "fails" and vb != "fails":
        assert vab != "fails"
        if "strict_interior" in (va, vb):
            assert vab == "strict_interior"


PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
POWERS_OF_TWO = [2 ** j for j in range(9)]


def family_vector(rng, n, d, pool):
    """n entries taking d distinct values p_i / D, the p_i from pool."""
    nums = rng.sample(pool, d)
    return vec(nums + [rng.choice(nums) for _ in range(n - d)])


@st.composite
def family_pair_and_k_max(draw):
    """Benchmark-style pair and k_max up to 20: n from 3 to 5 entries
    taking d <= 4 distinct values, numerators from primes (products
    rarely collide) or powers of two (they collide), ordered so that
    x_1 <= y_1 where one order allows it.  Half the pairs are open at
    one copy (n >= 4 and d >= 3: both endpoint tests pass, one copy
    fails), drawn by rejection."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    pool = draw(st.sampled_from([PRIMES, POWERS_OF_TWO]))
    mid = draw(st.booleans())
    n = draw(st.integers(4 if mid else 3, 5))
    d = draw(st.integers(3 if mid else 2, min(n, 4)))
    while True:
        x, y = family_vector(rng, n, d, pool), family_vector(rng, n, d, pool)
        if x.entries[0] > y.entries[0]:
            x, y = y, x
        if not mid or (x.entries[-1] >= y.entries[-1]
                       and not brute_majorizes(x.entries, y.entries)[0]):
            return x, y, draw(st.integers(1, 20))


@PROPS
@given(family_pair_and_k_max())
@example((*PAPER, 20))
@example((*MID_STRICT, 20))
@example((vec([41, 20, 20, 19]), vec([60, 25, 10, 5]), 20))
@example((vec([60, 25, 10, 5]), vec([60, 30, 5, 5]), 20))
@example((vec([6, 6, 1, 1]), vec([4, 2, 1, 0]), 8))
def test_scan_Mk_matches_per_k_walk_up_to_20(case):
    # the last pair is boundary at one and two copies with no endpoint
    # tie and strictly interior from three copies on
    x, y, k_max = case
    scan = scan_Mk(x, y, k_max)
    want = {k: spectrum_majorizes(tensor_power_spectrum(x, k),
                                  tensor_power_spectrum(y, k)).verdict
            for k in range(1, k_max + 1)}
    assert scan.results == want
    assert scan.first_success == next(
        (k for k, v in want.items() if v != "fails"), None)


@st.composite
def scan_case(draw):
    """x, y, a catalyst of 1-4 dims and m_max <= 20.  Near-uniform
    two-value catalysts on the paper pair first work at m = 1, 3, 4, 5,
    8, 11 or 20, or not at all; drawn parts add zeros and ties."""
    x, y, _ = draw(st.one_of(pair_and_k(), st.just((*PAPER, 1))))
    near_uniform = st.integers(1, 14).map(lambda j: [50 + j, 50 - j])
    c = draw(st.one_of(st.integers(1, 4).flatmap(parts), near_uniform,
                       near_uniform.map(lambda c: c + [0])))
    return x, y, vec(c), draw(st.integers(1, 20))


def per_m_scan(x, y, c, m_max):
    """Reference: one value pass for every m on the power chain."""
    return {m: _product_majorizes(x, y, s)
            for m, s in enumerate(tensor_powers(c, m_max), 1)}


SCAN_EXAMPLES = [(*PAPER, vec([3, 2, 2]), 8), (*PAPER, vec([11, 9]), 8),
                 (*PAPER, vec([11, 9]), 20), (*PAPER, vec([53, 47]), 20),
                 (*PAPER, vec([54, 46]), 11), (*PAPER, vec([54, 46]), 20),
                 (*PAPER, vec([56, 44]), 20), (*PAPER, vec([51, 49]), 20)]


def with_examples(test):
    for case in SCAN_EXAMPLES:
        test = example(case)(test)
    return test


@PROPS
@given(scan_case())
@with_examples
def test_galloping_scan_matches_per_m_walk(case):
    x, y, c, m_max = case
    got = multicopy_catalyst_scan(x, y, c, m_max)
    want = per_m_scan(x, y, c, m_max)
    assert got == want
    assert list(got) == list(want)


@PROPS
@given(scan_case())
@with_examples
def test_galloping_scan_probe_bound(case):
    x, y, c, m_max = case
    probes = []
    real = catalysis.tensor_power_spectrum

    def counted(c, m):
        probes.append(m)
        return real(c, m)

    with mock.patch.object(catalysis, "tensor_power_spectrum", counted):
        result = multicopy_catalyst_scan(x, y, c, m_max)
    least = next((m for m, ok in result.items() if ok), None)
    assert len(probes) <= 2 * math.ceil(math.log2(m_max)) + 2
    assert max(probes) <= (2 * least if least else m_max)
    assert least is None or least in probes


@PROPS
@given(st.integers(1, 8).flatmap(parts), st.integers(1, 3))
def test_chained_small_powers_match_brute(x, k):
    x = vec(x)
    s = tensor_power_spectrum(x, k)
    brute = brute_tensor_power(x, k)
    assert s.blocks == tuple((v, brute.count(v))
                             for v in sorted(set(brute), reverse=True))
    assert s._scale == x._scale ** k
    assert s.total_mass() == 1


@st.composite
def lift_case(draw):
    """x, y, a catalyst c and n with (dim x * dim c)^n <= 4096, so the
    n-copy check can be expanded entry by entry."""
    n = draw(st.integers(1, 4))
    dc = draw(st.integers(1, 4))
    n_copies = draw(st.integers(1, int(math.log(4096, max(2, n * dc)))))
    x = draw(parts(n))
    y = draw(st.one_of(parts(n), st.just(x), st.just([1] * n)))
    return vec(x), vec(y), vec(draw(parts(dc))), n_copies


@PROPS
@given(lift_case())
@example((*PAPER, vec([3, 2]), 2))
@example((*PAPER, vec([3, 2]), 3))
@example((*PAPER, vec([3, 2, 2]), 2))
@example((*PAPER, vec([11, 9]), 2))
def test_lift_matches_expanded_check(case):
    x, y, c, n_copies = case
    if not brute_majorizes(brute_tensor(x, c), brute_tensor(y, c))[0]:
        with pytest.raises(ValueError, match="not a catalyst"):
            lift_catalyst(x, y, c, n_copies)
        return
    cert = lift_catalyst(x, y, c, n_copies)
    full = brute_tensor_power(c, n_copies)
    xs, ys = (sorted((u * v for u in brute_tensor_power(p, n_copies)
                      for v in full), reverse=True)
              for p in (x, y))
    assert cert.verified == brute_majorizes(xs, ys)[0]
    assert cert.to_json() == {"catalyst": [str(v) for v in full],
                              "source": "lifted(n=%d)" % n_copies,
                              "verified": cert.verified,
                              "dim_bound_ok": True}


@st.composite
def product_case(draw):
    """x^k, y^k and a catalyst spectrum: a power c^m of drawn parts or
    a mixed-power catalyst of x and y (with or without a c'), so the
    products carry zeros, ties, n = 1, uniform factors and denominators
    near 1e4.  The fourth item is the length of x^k (x) catalyst."""
    x, y, k = draw(pair_and_k())
    c = vec(draw(st.integers(1, 4).flatmap(parts)))
    m = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["power", "mixed", "mixed_with_c"]))
    if kind == "power":
        sc = tensor_power_spectrum(c, m)
    else:
        sc = _mixed_power_catalyst(_powers(x, m - 1), _powers(y, m - 1))
        if kind == "mixed_with_c":
            sc = spectrum_tensor(sc, c)
    sx, sy = tensor_power_spectrum(x, k), tensor_power_spectrum(y, k)
    return sx, sy, sc, sx.total_count * sc.total_count


@PROPS
@given(product_case())
@example((*PAPER, vec([3, 2]), 8))
@example((*(tensor_power_spectrum(v, 3) for v in PAPER),
          vec([3, 2]), 128))
def test_value_pass_matches_product_walk(case):
    sx, sy, sc, _ = case
    assert _product_majorizes(sx, sy, sc) == spectrum_majorizes(
        spectrum_tensor(sx, sc), spectrum_tensor(sy, sc)).holds


@PROPS
@given(product_case().filter(lambda case: case[3] <= 4096))
def test_value_pass_matches_brute_walk(case):
    sx, sy, sc, _ = case
    xs, ys, cs = flat(sx), flat(sy), flat(sc)
    brute = brute_majorizes(sorted((u * v for u in xs for v in cs),
                                   reverse=True),
                            sorted((u * v for u in ys for v in cs),
                                   reverse=True))[0]
    assert _product_majorizes(sx, sy, sc) == brute


def test_catalyst_checks_build_no_product_and_walk_none():
    x, y = PAPER
    c96 = catalysis.combine_catalysts(x, y, 3, vec([11, 9])).catalyst
    assert c96.dim == 96

    def forbidden(*args):
        raise AssertionError("product built or walked")

    with mock.patch.object(catalysis, "spectrum_tensor", forbidden), \
            mock.patch.object(catalysis, "_verdict", forbidden):
        for n in (2, 3):
            cert = lift_catalyst(x, y, c96, n)
            assert cert.verified
            assert cert.source == "lifted(n=%d)" % n
            assert cert.catalyst == LiftedCatalyst(c96, n)
        with pytest.raises(ValueError, match="not a catalyst"):
            lift_catalyst(y, x, c96, 2)
        assert multicopy_catalyst_scan(x, y, c96, 4) == dict.fromkeys(
            range(1, 5), True)
        for c, m_max, least in [([11, 9], 20, 8), ([53, 47], 20, 20),
                                ([3, 2, 2], 8, 2), ([51, 49], 20, None)]:
            assert multicopy_catalyst_scan(x, y, vec(c), m_max) == {
                m: least is not None and m >= least
                for m in range(1, m_max + 1)}


def test_value_pass_rejects_count_and_mass_mismatch():
    x, c = PAPER[0], vec([3, 2])
    with pytest.raises(ValueError, match="^total_count mismatch: 8 vs 6$"):
        _product_majorizes(x, vec([1, 1, 1]), c)
    # a vector of mass 2 is refused when it is built, so the pass never
    # meets unequal masses
    with pytest.raises(ValueError, match="^entries sum to 2, not 1 "):
        ProbVec([F(1), F(1, 2), F(1, 2), F(0)])


@st.composite
def stream_case(draw):
    """A vector over 1-5 distinct nonzero numerators, from primes, powers
    of two (their products collide) or 1..6, with ties and zeros, and
    k <= 8."""
    pool = draw(st.sampled_from([PRIMES, POWERS_OF_TWO, list(range(1, 7))]))
    nums = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5,
                         unique=True))
    ties = draw(st.lists(st.sampled_from(nums), max_size=3))
    zeros = draw(st.integers(0, 2))
    return vec(nums + ties + [0] * zeros), draw(st.integers(1, 8))


@PROPS
@given(stream_case(), st.integers(1, 3))
@example((vec([4, 2, 2, 1, 0]), 8), 1)
@example((vec([1]), 5), 2)
def test_lazy_streams_drain_to_the_power_spectrum(case, factor):
    x, k = case
    s = tensor_power_spectrum(x, k)
    want = [(v * factor ** k, c) for v, c in zip(s._int_vals, s._counts)]
    top = list(_power_blocks(x, k, True, factor))
    bottom = list(_power_blocks(x, k, False, factor))
    assert [(v, c) for v, c, _ in top] == want
    assert [(v, c) for v, c, _ in bottom] == want[::-1]
    # each composition over the nonzero values is read exactly once; the
    # zero block is given as one read
    nonzero = sum(1 for v in x._int_vals if v)
    reads = math.comb(nonzero + k - 1, k) + (nonzero < len(x._counts))
    assert sum(r for *_, r in top) == sum(r for *_, r in bottom) == reads


def enumeration_reads(sx, sy, k):
    """The read budget the sweep hands an end walk at k that may spare
    enumerating both k-th powers."""
    work = sum(specvec._enumeration_cost(len(s._counts), k) for s in (sx, sy))
    return work // (specvec._READ_COST * mlocc._END_WALK_SHARE)


# fails at every k up to 60, first from the top after a few compositions
CENSUS = (vec([17, 13, 5, 4, 1]), vec([20, 8, 8, 3, 1]))
# fails at k = 8, from an end after 17 compositions
UNDECIDED = (vec([4, 3, 1, 1]), vec([6, 2, 2, 1]))


@PROPS
@given(pair_and_big_k())
@example((*CENSUS, 5))
@example((*UNDECIDED, 5))
@example((*PAPER, 2))
def test_end_walk_fails_agree_with_brute(case):
    # with no budget an end runs through the whole power, so the walk
    # then decides every k
    x, y, k = case
    holds = brute_majorizes(brute_tensor_power(x, k),
                            brute_tensor_power(y, k))[0]
    assert not (_ends_refute(x, y, k, enumeration_reads(x, y, k)) and holds)
    assert _ends_refute(x, y, k, 10 ** 12) == (not holds)


@PROPS
@given(mid_pair_and_k())
@example((*CENSUS, 16))
@example((*UNDECIDED, 8))
def test_end_walk_fails_agree_on_mid_pairs(case):
    x, y, k = case
    holds = spectrum_majorizes(tensor_power_spectrum(x, k),
                               tensor_power_spectrum(y, k)).holds
    if x.dim ** k <= 4096:
        assert holds == brute_majorizes(brute_tensor_power(x, k),
                                        brute_tensor_power(y, k))[0]
    if _ends_refute(x, y, k, enumeration_reads(x, y, k)):
        assert not holds


def test_census_pair_needs_no_large_power(monkeypatch):
    # powers up to _CHAIN_MAX_K grow by the cheap chain, where the end
    # walk does not run; every larger k is refuted from the ends
    real = specvec._grow

    def chain_only(base, s, j, k):
        if k > mlocc._CHAIN_MAX_K:
            raise AssertionError("grew power %d" % k)
        return real(base, s, j, k)

    def refuse(*a, **kw):
        raise AssertionError("enumerated a power")
    monkeypatch.setattr(mlocc, "_grow", chain_only)
    monkeypatch.setattr(specvec, "_enumerate", refuse)
    assert not in_Mk(*CENSUS, 60)
    scan = scan_Mk(*CENSUS, 60)
    assert scan.results == {k: "fails" for k in range(1, 61)}
    assert scan.first_success is None and scan.refuting_order is None


def test_end_walk_gets_the_spared_growth_as_reads(monkeypatch):
    # each end walk is handed both sides' estimated growth of S_k from
    # the powers last grown, over the price of a read and the walk's share
    held = {}  # base -> (j, S_j), the last power grown
    calls = []
    real_grow, real_refute = mlocc._grow, mlocc._ends_refute

    def grow(base, s, j, k):
        s = real_grow(base, s, j, k)
        held[id(base)] = k, s
        return s

    def refute(sx, sy, k, reads):
        work = 0
        for b in sx, sy:
            j, s = held.get(id(b), (1, b))
            work += specvec._growth_plan(b, s, j, k)[0]
        calls.append((k, reads, work))
        return real_refute(sx, sy, k, reads)
    monkeypatch.setattr(mlocc, "_grow", grow)
    monkeypatch.setattr(mlocc, "_ends_refute", refute)
    assert not in_Mk(*CENSUS, 60)
    # k = 4..30, then straight to 60 past k / 2 with no member found
    assert [k for k, _, _ in calls] == [*range(4, 31), 60]
    for k, reads, work in calls:
        assert reads == work // (specvec._READ_COST * mlocc._END_WALK_SHARE)


def test_verdict_only_callers_build_no_report():
    # in_Mk, scan_Mk, search_catalyst, is_interior and
    # is_generalized_interior read the bare verdict of each walk, so no
    # MajReport, and no Fraction for a violation, is built
    mid = (load_vector(corpus_path("x_0.425_0.325_0.125_0.1_0.025.json")),
           load_vector(corpus_path("y_0.5_0.2_0.2_0.075_0.025.json")))
    tied = (load_vector(corpus_path("y_0.6_0.25_0.1_0.05.json")),
            load_vector(corpus_path("x_0.6_0.3_0.05_0.05.json")))
    strict = (load_vector(corpus_path("x_0.41_0.2_0.2_0.19.json")),
              load_vector(corpus_path("y_0.6_0.25_0.1_0.05.json")))

    def forbidden(*args, **kwargs):
        raise AssertionError("report built")

    with mock.patch.object(majorize, "_fail_report", forbidden), \
            mock.patch.object(majorize, "MajReport", forbidden):
        assert not in_Mk(*mid, 60)
        assert scan_Mk(*mid, 20).results == dict.fromkeys(range(1, 21),
                                                           "fails")
        assert in_Mk(*tied, 7)
        assert scan_Mk(*tied, 10).results == dict.fromkeys(range(1, 11),
                                                           "boundary")
        assert search_catalyst(*tied[::-1], 2, 100) is None
        assert [is_interior(*p) for p in (mid, tied, strict)] == [
            False, False, True]
        assert [is_generalized_interior(*p) for p in (mid, tied, strict)] == [
            False, False, True]
        with pytest.raises(AssertionError, match="report built"):
            spectrum_majorizes(*mid)


def assert_unit_mass(s):
    """The invariant ProbVec(raw) checks and every builder keeps, in
    place of a mass check downstream: strictly decreasing nonnegative
    numerators with positive counts, summing to the scale."""
    assert s._int_vals == sorted(set(s._int_vals), reverse=True)
    assert s._int_vals[-1] >= 0 and min(s._counts) >= 1
    assert sum(u * c for u, c in zip(s._int_vals, s._counts)) == s._scale
    assert s.total_mass() == 1


@st.composite
def unit_mass_case(draw):
    """y of dimension 1-4, x = y mixed toward uniform (so x is majorized
    by y and every catalyst precondition holds), a second vector c, a
    power k and copy count n."""
    y = draw(st.integers(1, 4).flatmap(parts))
    t = draw(st.sampled_from([F(0), F(1, 2), F(1)]))
    ys = [F(a, sum(y)) for a in y]
    x = make_probvec([t * v + (1 - t) / len(y) for v in ys])
    c = draw(st.integers(1, 3).flatmap(parts))
    return x, vec(y), vec(c), draw(st.integers(1, 4)), draw(
        st.integers(2, 3))


@PROPS
@given(unit_mass_case())
@example((vec([1, 1]), vec([1, 1]), vec([1]), 3, 2))  # d = 1
@example((vec([3, 2]), vec([4, 1]), vec([3, 2]), 4, 3))  # d = 2
@example((vec([2, 1, 1]), vec([2, 1, 0]), vec([3, 0]), 4, 2))  # zero tails
@example((vec([1, 1]), vec([1, 0]), vec([3, 2]), 3, 2))  # d = 2, zero tail
def test_every_builder_keeps_unit_mass(case):
    x, y, c, k, n = case
    built = [x, y, c, spectrum_tensor(x, c), spectrum_direct_sum([x, y, c]),
             tensor_power_spectrum(y, k), chain(y, k), pad_to(y, y.dim + 2),
             specvec._normalized([3 * u for u in y._int_vals] + [0])]
    if k > 1:
        built.append(specvec._enumerate(y, k))
    usefulness = classify_usefulness(y)
    if usefulness.useful:
        built += [usefulness.witness_x, nonclosedness_witness(y)]
    built += [build_catalyst_thm1(x, y, k).catalyst,
              combine_catalysts(x, y, k, c).catalyst]
    lifted = lift_catalyst(x, y, c, n).catalyst
    built += [lifted.expand(), pickle.loads(pickle.dumps(lifted)).expand()]
    for s in built:
        assert_unit_mass(s)
        for again in (pickle.loads(pickle.dumps(s)), copy.copy(s),
                      copy.deepcopy(s)):
            assert state(again) == state(s)
            assert_unit_mass(again)
