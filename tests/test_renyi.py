import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trumpkit import (DEFAULT_ALPHA_GRID, majorizes,
                      make_probvec, power_sum_refutation, r_filter,
                      r_properties_check, renyi, renyi_entropy,
                      spectrum_tensor, tensor_power_spectrum)
from trumpkit.renyi import NEG_INF, POS_INF, _first_excess, _power_terms

from conftest import (power_sum, power_sum_refutes, random_majorized_below,
                      random_rational_vec)

F = Fraction


def fv(*args):
    return make_probvec([F(a) for a in args])


PAPER_X = fv("0.4", "0.4", "0.1", "0.1")
PAPER_Y = fv("0.5", "0.25", "0.25", "0")

ALL_ORDERS = list(DEFAULT_ALPHA_GRID) + [1, POS_INF, NEG_INF]


class TestRenyiEntropy:
    def test_uniform_two_vector_flat_spectrum(self):
        # sign convention: +1 on nonnegative orders, -1 on negative ones
        # (matching the log2-of-smallest-entry limit)
        x = fv("0.5", "0.5")
        for a in ALL_ORDERS:
            neg = a < 0 or a == NEG_INF
            expected = -1.0 if neg else 1.0
            assert renyi_entropy(x, a) == pytest.approx(expected, abs=1e-12)

    def test_uniform_at_large_non_integer_orders(self):
        # the float power sum overflows (negative orders) or underflows
        # to 0 (positive ones) here, and is summed in log space instead
        for n in (2, 3, 5):
            x = make_probvec([F(1, n)] * n)
            for a in (2000.5, 1100.5, -200.5, -2000.5):
                want = math.log2(n) if a > 0 else -math.log2(n)
                assert renyi_entropy(x, a) == pytest.approx(want, rel=1e-12)

    def test_alpha_zero_counts_nonzeros(self):
        assert renyi_entropy(PAPER_Y, 0) == pytest.approx(math.log2(3))

    def test_pos_inf_is_min_entropy(self):
        assert renyi_entropy(PAPER_X, POS_INF) == pytest.approx(
            -math.log2(0.4))

    def test_neg_inf_uses_smallest_nonzero(self):
        assert renyi_entropy(PAPER_Y, NEG_INF) == pytest.approx(
            math.log2(0.25))

    def test_shannon_at_one(self):
        x = fv("0.5", "0.25", "0.25")
        assert renyi_entropy(x, 1) == pytest.approx(1.5)

    def test_limit_consistency_near_one(self):
        rng = random.Random(107)
        for _ in range(10):
            x = random_rational_vec(rng, 4, positive=True)
            h = renyi_entropy(x, 1)
            assert renyi_entropy(x, 1 + 1e-6) == pytest.approx(h, abs=1e-4)
            assert renyi_entropy(x, 1 - 1e-6) == pytest.approx(h, abs=1e-4)

    def test_limit_consistency_at_large_alpha(self):
        rng = random.Random(109)
        for _ in range(10):
            x = random_rational_vec(rng, 4, positive=True)
            assert renyi_entropy(x, 1e3) == pytest.approx(
                renyi_entropy(x, POS_INF), abs=1e-2)
            assert renyi_entropy(x, -1e3) == pytest.approx(
                renyi_entropy(x, NEG_INF), abs=1e-2)

    def test_additivity_under_tensor(self):
        rng = random.Random(113)
        for _ in range(10):
            x = random_rational_vec(rng, 3, positive=True)
            c = random_rational_vec(rng, 2, positive=True)
            xc = spectrum_tensor(x, c)
            for a in ALL_ORDERS:
                assert renyi_entropy(xc, a) == pytest.approx(
                    renyi_entropy(x, a) + renyi_entropy(c, a), abs=1e-9)

    def test_paper_y_special_orders(self):
        assert PAPER_Y.nonzero_dim == 3
        assert renyi_entropy(PAPER_Y, 0) == pytest.approx(math.log2(3))
        assert renyi_entropy(PAPER_Y, POS_INF) == pytest.approx(1.0)


def entries_renyi_entropy(x, alpha):
    """Reference: the Renyi entropy read from the Fraction entries, each
    nonzero entry turned into a float by float(), the integer orders
    through Fraction power sums in lowest terms."""
    nz = [v for v in x.entries if v]
    if alpha == POS_INF:
        return -math.log2(float(max(nz)))
    if alpha == NEG_INF:
        return math.log2(float(min(nz)))
    if alpha == 0:
        return math.log2(len(nz))
    if alpha == 1:
        return -sum(float(v) * math.log2(float(v)) for v in nz)
    sgn = 1.0 if alpha >= 0 else -1.0
    if float(alpha) == int(alpha):
        s = sum((v ** int(alpha) for v in nz), F(0))
        log_s = math.log2(s.numerator) - math.log2(s.denominator)
    else:
        log_s = math.log2(sum(float(v) ** float(alpha) for v in nz))
    return sgn / (1.0 - float(alpha)) * log_s


# small parts give ties, zeros and uniform vectors; parts near 2000 give
# denominators near 1e4 once normalized
RENYI_PARTS = st.lists(st.one_of(st.integers(0, 6), st.integers(1900, 2100)),
                       min_size=1, max_size=8).filter(any)
ORDERS = st.one_of(st.sampled_from([POS_INF, NEG_INF, 0, 1, 0.5, -0.5]),
                   st.integers(-12, 12),
                   st.floats(-16, 16, allow_nan=False))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(RENYI_PARTS, ORDERS)
def test_renyi_entropy_bit_identical_to_entries(parts, alpha):
    x = make_probvec(parts, normalize=True)
    assert (renyi_entropy(x, alpha).hex()
            == entries_renyi_entropy(x, alpha).hex()), (x, alpha)


@pytest.mark.parametrize("alpha", [2, -3])
def test_integer_orders_read_blocks_only(alpha):
    # p^(x)20 has 21 blocks and 2^20 entries; an integer order reads the
    # blocks' power sum, so its peak allocation stays far below one float
    # per entry (about 34 MB as a list)
    base = make_probvec(["0.6", "0.4"])
    p = tensor_power_spectrum(base, 20)
    assert len(p._counts) == 21
    tracemalloc.start()
    try:
        got = renyi_entropy(p, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    # Renyi entropy is additive over tensor products
    assert got == pytest.approx(20 * renyi_entropy(base, alpha), rel=1e-12)


class TestSchurConcavity:
    def test_majorized_pairs_dominate_everywhere(self):
        # convertible source must dominate the target's entire spectrum
        rng = random.Random(127)
        for _ in range(40):
            n = rng.randint(2, 4)
            y = random_rational_vec(rng, n, positive=True)
            x = random_majorized_below(rng, y)
            for a in ALL_ORDERS:
                dx = renyi_entropy(x, a) - renyi_entropy(y, a)
                assert dx >= -1e-9, (x, y, a)


class TestRFilter:
    def test_paper_pair_forward_no_violation(self):
        v = r_filter(PAPER_X, PAPER_Y)
        assert not v.violated
        assert v.mode == "dims_differ"

    def test_paper_pair_reversed_violated(self):
        v = r_filter(PAPER_Y, PAPER_X)
        assert v.violated
        # the min-entropy limit already refutes it
        assert renyi_entropy(PAPER_Y, POS_INF) < \
            renyi_entropy(PAPER_X, POS_INF) - 1e-9

    def test_equal_vectors_pass(self):
        v = r_filter(PAPER_Y, PAPER_Y)
        assert not v.violated
        assert v.mode == "dims_equal"

    def test_fewer_nonzeros_is_immediate_violation(self):
        v = r_filter(PAPER_Y, PAPER_X)
        assert v.violated
        assert v.violating_alpha == 0.0

    def test_violating_alpha_reproducible(self):
        rng = random.Random(131)
        for _ in range(30):
            n = rng.randint(2, 4)
            x = random_rational_vec(rng, n, positive=True)
            y = random_rational_vec(rng, n, positive=True)
            v = r_filter(x, y)
            if v.violated:
                a = v.violating_alpha
                assert renyi_entropy(x, a) < renyi_entropy(y, a) + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            r_filter(fv("1"), fv("0.5", "0.5"))

    def test_custom_grid(self):
        v = r_filter(PAPER_X, PAPER_Y, grid=(0.0, 2.0))
        assert not v.violated


# the rfilter grids of the decision-batch benchmark workload
BENCH_GRIDS = [(0.0, 2.0, 4.0), (-2.0, 0.5, 2.0, 8.0),
               (-8.0, -1.0, 3.0, 16.0), (0.5, 2.0, 32.0)]


@st.composite
def majorized_pairs(draw):
    """x majorized by y, of equal length.  y has small integer parts, so
    ties and zero tails are common; x is y after a few moves of at most
    half the gap from an entry to a smaller one (T-transforms, each
    keeping x majorized by y).  A move into y's zero tail widens x's
    support ("dims_differ"); moves between equal entries leave x == y."""
    parts = draw(st.lists(st.integers(0, 6), min_size=2, max_size=6)
                 .filter(any))
    y = sorted((8 * p for p in parts), reverse=True)
    x = list(y)
    n = len(x)
    for i, j, t in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1),
                                           st.integers(1, 4)),
                                 min_size=1, max_size=4)):
        x.sort(reverse=True)
        i, j = min(i, j), max(i, j)
        move = (x[i] - x[j]) * t // 8
        x[i] -= move
        x[j] += move
    return (make_probvec(x, normalize=True),
            make_probvec(y, normalize=True))


def is_exact_order(a):
    # every order _dips compares on integers: 0, +-inf and the integers
    # but 1
    return math.isinf(a) or (a == int(a) and a != 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(majorized_pairs(), st.sampled_from([None] + BENCH_GRIDS))
@example((fv("0.3", "0.3", "0.2", "0.2"), PAPER_Y), None)
@example((PAPER_X, PAPER_X), None)
def test_walk_settles_majorized_pairs(pair, grid):
    # the walk's answer carries the fields of the order-by-order loop,
    # and that loop finds no dip at any exact order
    x, y = pair
    assert majorizes(x, y).holds
    got = r_filter(x, y, grid)
    walked = []
    with mock.patch.object(renyi, "_verdict",
                           lambda *a: walked.append(a) or "fails"):
        loop = r_filter(x, y, grid)
    assert walked  # the patch reached r_filter's walk
    assert got.status == "no_violation_found"
    assert ((got.mode, got.grid_used, got.float_alphas_used)
            == (loop.mode, loop.grid_used, loop.float_alphas_used))
    for a in loop.grid_used:
        if is_exact_order(a):
            assert not renyi._dips(x, y, a), (x, y, a)


@pytest.mark.parametrize("x, y", [
    (fv("0.3", "0.3", "0.2", "0.2"), PAPER_Y),  # dims_differ
    (PAPER_X, fv("0.6", "0.3", "0.05", "0.05")),  # dims_equal
    (PAPER_X, PAPER_X)])
def test_majorized_pair_evaluates_no_order(monkeypatch, x, y):
    def refuse(*a):
        raise AssertionError("evaluated an order")
    monkeypatch.setattr(renyi, "_dips", refuse)
    for grid in [None] + BENCH_GRIDS:
        assert r_filter(x, y, grid).status == "no_violation_found"
    # the patch bites on a pair the walk fails
    with pytest.raises(AssertionError, match="evaluated an order"):
        r_filter(PAPER_X, PAPER_Y)


def excess(x, y, a):
    """Is P_a(x) > P_a(y) at one integer order a, by the comparer?"""
    tx, ty = _power_terms(x, a < 0), _power_terms(y, a < 0)
    return _first_excess(tx, ty, abs(a), abs(a)) is not None


class TestPowerSums:
    def test_exact_values(self):
        # P_2 of (1/2, 1/2) is 1/2 with or without a zero tail; P_-1 of
        # PAPER_Y is 2 + 4 + 4 = 10, and of (2/5, 3/10, 3/10) 55/6
        half, third = fv("0.5", "0.5"), fv("0.4", "0.3", "0.3")
        assert not excess(half, fv("0.5", "0.5", "0"), 2)
        assert not excess(fv("0.5", "0.5", "0"), half, 2)
        assert excess(PAPER_Y, third, -1)
        assert not excess(third, PAPER_Y, -1)
        assert not excess(PAPER_Y, fv("0.5", "0.25", "0.25"), -1)
        rng = random.Random(131)
        for _ in range(30):
            x = random_rational_vec(rng, rng.randint(1, 5))
            y = random_rational_vec(rng, rng.randint(1, 5))
            for a in range(-8, 9):
                want = power_sum(x, a) > power_sum(y, a)
                assert excess(x, y, a) == want, (x, y, a)

    def test_equality_by_power_sums(self):
        assert r_properties_check(PAPER_Y, PAPER_Y)["exactly_equal"]
        assert not r_properties_check(PAPER_X, PAPER_Y)["exactly_equal"]

    def test_power_sum_equality_is_decisive(self):
        # Newton's identities: power sums at orders 1..n fix the multiset
        rng = random.Random(137)
        for _ in range(30):
            n = rng.randint(2, 4)
            x = random_rational_vec(rng, n)
            y = random_rational_vec(rng, n)
            same = not any(excess(x, y, a) or excess(y, x, a)
                           for a in range(1, n + 1))
            assert same == (x == y)


class TestRPropertiesCheck:
    def test_pass_implies_endpoints(self):
        rng = random.Random(139)
        for _ in range(30):
            n = rng.randint(2, 4)
            y = random_rational_vec(rng, n, positive=True)
            x = random_majorized_below(rng, y)
            rec = r_properties_check(x, y)
            if rec["forward_pass"]:
                assert rec["head_ok"] and rec["tail_ok"]

    def test_self_comparison(self):
        rec = r_properties_check(PAPER_Y, PAPER_Y)
        assert rec["bidirectional_pass"]
        assert rec["exactly_equal"]
        assert not rec["grid_insufficient"]

    def test_distinct_bidirectional_pass_is_flagged(self):
        rng = random.Random(149)
        for _ in range(40):
            n = rng.randint(2, 4)
            x = random_rational_vec(rng, n)
            y = random_rational_vec(rng, n)
            rec = r_properties_check(x, y)
            if rec["bidirectional_pass"] and x != y:
                assert rec["grid_insufficient"]


class TestExactLimitOrders:
    TINY = F(1, 10 ** 15)
    Y = fv("0.5", "0.25", "0.25")

    def test_pos_inf_compares_largest_entries(self):
        # every order differs by under 1e-12 in floats; +inf is exact
        x = make_probvec([F(1, 2) + self.TINY, F(1, 4), F(1, 4) - self.TINY])
        v = r_filter(x, self.Y, grid=(0.5,))
        assert v.violated
        assert v.violating_alpha == POS_INF
        assert v.to_json()["violating_alpha"] == "inf"

    def test_neg_inf_compares_smallest_nonzero_entries(self):
        x = make_probvec([F(1, 2), F(1, 4) + self.TINY, F(1, 4) - self.TINY])
        v = r_filter(x, self.Y, grid=(0.5,))
        assert v.violated
        assert v.violating_alpha == NEG_INF

    def test_order_zero_compares_nonzero_counts(self):
        x = make_probvec([F(1, 2), F(1, 2) - self.TINY, self.TINY, 0])
        y = fv("0.5", "0.5", "0", "0")
        assert r_filter(x, y, grid=(0.0,)).mode == "dims_differ"
        assert r_filter(y, x, grid=(0.0,)).violating_alpha == 0.0


# both endpoint tests pass and one copy fails in each of these pairs
MID_X, MID_Y = fv("0.6", "0.3", "0.05", "0.05"), fv("0.6", "0.25", "0.1",
                                                       "0.05")
NEG_X, NEG_Y = fv("7/16", "3/8", "1/8", "1/16"), fv("1/2", "1/4", "3/16",
                                                       "1/16")
ZERO_X = fv("0.4", "0.3", "0.3", "0", "0")
ZERO_Y = fv("0.5", "0.2", "0.2", "0.1", "0")


def refutation(x, y):
    return power_sum_refutation(x, y)


class TestPowerSumRefutation:
    @pytest.mark.parametrize("x, y, order", [
        (MID_X, MID_Y, 2),     # P_2 = 0.455 against 0.435
        (NEG_X, NEG_Y, -1),    # orders 2..8 pass, order -1 does not
        (ZERO_X, ZERO_Y, 0)])  # P_2 ties; x has three nonzeros, y four
    def test_first_refuting_order(self, x, y, order):
        assert not majorizes(x, y).holds
        assert refutation(x, y) == order
        assert power_sum_refutes(x, y, order)

    def test_members_not_refuted(self):
        assert refutation(MID_Y, MID_X) is None
        rng = random.Random(157)
        for _ in range(40):
            y = random_rational_vec(rng, rng.randint(2, 5))
            x = random_majorized_below(rng, y)
            assert refutation(x, y) is None

    def test_larger_support_skips_negative_orders(self):
        # the paper x has four nonzero entries against y's three, and a
        # larger order -1 power sum, yet three copies convert
        assert power_sum(PAPER_X, -1) > power_sum(PAPER_Y, -1)
        assert refutation(PAPER_X, PAPER_Y) is None

    def test_every_order_rechecked_in_fractions(self):
        rng = random.Random(151)
        orders = set()
        for _ in range(400):
            n = rng.randint(2, 6)
            x = random_rational_vec(rng, n)
            y = random_rational_vec(rng, n)
            order = refutation(x, y)
            if order is None:
                continue
            orders.add(order)
            assert power_sum_refutes(x, y, order), (x, y, order)
            # no earlier order in the list refutes the pair
            earlier = [a for a in range(2, 9) if a != order]
            if order <= 0:
                assert not any(power_sum_refutes(x, y, a) for a in earlier)
            else:
                assert not any(power_sum_refutes(x, y, a)
                               for a in range(2, order))
        assert {2, 0} <= orders and min(orders) < 0


@st.composite
def equal_length_pairs(draw):
    """x and y of one length up to 6, zero tails and ties common; y is x
    now and then."""
    n = draw(st.integers(1, 6))
    parts = st.lists(st.one_of(st.integers(0, 6), st.integers(1900, 2100)),
                     min_size=n, max_size=n).filter(any)
    x = draw(parts)
    y = draw(st.one_of(parts, st.just(x)))
    return (make_probvec(x, normalize=True), make_probvec(y, normalize=True))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(equal_length_pairs())
@example((MID_X, MID_Y))
@example((NEG_X, NEG_Y))
@example((ZERO_X, ZERO_Y))
@example((PAPER_X, PAPER_Y))
def test_one_comparer_and_one_count_rule(pair):
    # the comparer against Fraction power sums at every order -8..8, one
    # order at a time and as the runs power_sum_refutation takes
    x, y = pair
    for a in range(-8, 9):
        assert excess(x, y, a) == (power_sum(x, a) > power_sum(y, a)), a
    for recip, first in ((False, 2), (True, 1)):
        got = _first_excess(_power_terms(x, recip), _power_terms(y, recip),
                            first, 8)
        orders = range(first, 9) if not recip else range(-first, -9, -1)
        assert got == next((abs(a) for a in orders
                            if power_sum(x, a) > power_sum(y, a)), None)
    # power_sum_refutation is the first order of its list where _dips holds:
    # 2..8, then 0 on fewer nonzero entries or -1..-8 on equally many
    dx, dy = power_sum(x, 0), power_sum(y, 0)  # the nonzero counts
    orders = list(range(2, 9))
    if dx < dy:
        orders.append(0)
    elif dx == dy:
        orders += range(-1, -9, -1)
    assert power_sum_refutation(x, y) == next(
        (a for a in orders if renyi._dips(x, y, a)), None)
    # the head endpoint test is the order +inf
    head = renyi._failed_endpoint(x, y) == "x_1 <= y_1"
    assert head == renyi._dips(x, y, POS_INF) == (x.entries[0] > y.entries[0])
