import random
from fractions import Fraction
from itertools import accumulate, combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trumpkit import mlocc, renyi, specvec
from trumpkit import (ProbVec, classify_usefulness, corollary4_k_bound,
                      in_Mk, is_generalized_interior, is_interior_of_M,
                      lemma3_k_condition, majorizes, make_probvec,
                      nonclosedness_witness, scan_Mk, spectrum_majorizes,
                      tensor_power_spectrum)

from conftest import (brute_majorizes, brute_power_majorizes,
                      brute_strict_interior, brute_tensor_power,
                      least_interior_gap, random_rational_vec)

F = Fraction


def fv(*args):
    return make_probvec([F(a) for a in args])


PAPER_X = fv("0.4", "0.4", "0.1", "0.1")
PAPER_Y = fv("0.5", "0.25", "0.25", "0")


def fresh(*vecs):
    """New vectors equal to vecs, each built from its Fraction entries."""
    return [ProbVec(v.entries) for v in vecs]


def counting_builds(monkeypatch):
    """The entries, as Fractions, of every parsed-entries -> integer pass
    from now on: a vector's spectrum is built by one
    (specvec._numerators) when the vector is built, and never in a
    query."""
    built = []
    real = specvec._numerators

    def counting(pairs):
        built.append(tuple(F(n, d) for n, d in pairs))
        return real(pairs)
    monkeypatch.setattr(specvec, "_numerators", counting)
    return built


def boundary_with_single_equality(rng, y, d):
    """Random x majorized by y with a single prefix equality at d: mix each
    of the head/tail parts of y toward its own average, keeping the split
    mass fixed.  Requires y_1 > y_d and y_{d+1} > y_n."""
    n = y.dim
    head, tail = y.entries[:d], y.entries[d:]
    e_d = sum(head)
    avg_h = e_d / d
    avg_t = (1 - e_d) / (n - d)
    for _ in range(50):
        t = F(rng.randint(0, 3), 8)
        s = F(rng.randint(0, 3), 8)
        vals = ([t * v + (1 - t) * avg_h for v in head]
                + [s * v + (1 - s) * avg_t for v in tail])
        if vals != sorted(vals, reverse=True):
            continue
        x = ProbVec(vals)
        rep = majorizes(x, y)
        if rep.verdict == "boundary" and rep.equality_indices == {d}:
            return x
    return None


class TestInMk:
    def test_paper_pair(self):
        assert not in_Mk(PAPER_X, PAPER_Y, 1)
        assert not in_Mk(PAPER_X, PAPER_Y, 2)
        assert in_Mk(PAPER_X, PAPER_Y, 3)

    def test_reflexive(self):
        for k in (1, 2, 5):
            assert in_Mk(PAPER_Y, PAPER_Y, k)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            in_Mk(fv("0.5", "0.5"), fv("1"), 1)

    def test_endpoint_necessity(self):
        # whenever membership holds, x_1 <= y_1 and x_n >= y_n
        rng = random.Random(67)
        for _ in range(40):
            n = rng.randint(2, 4)
            x = random_rational_vec(rng, n)
            y = random_rational_vec(rng, n)
            k = rng.randint(1, 3)
            if in_Mk(x, y, k):
                assert x.entries[0] <= y.entries[0]
                assert x.entries[-1] >= y.entries[-1]

    def test_mutual_membership_forces_equality(self):
        rng = random.Random(71)
        for _ in range(40):
            n = rng.randint(2, 4)
            x = random_rational_vec(rng, n)
            y = random_rational_vec(rng, n)
            fwd = any(in_Mk(x, y, k) for k in (1, 2, 3))
            bwd = any(in_Mk(y, x, k) for k in (1, 2, 3))
            if fwd and bwd:
                assert x == y


class TestInMkPreDecision:
    # at one copy: HOLD_X is majorized by HOLD_Y; EARLY_X has the larger
    # head (fails at l = 1); LATE_X the smaller tail (fails at l = n - 1)
    HOLD_X, HOLD_Y = fv("0.3", "0.3", "0.2", "0.2"), fv("0.4", "0.3",
                                                        "0.2", "0.1")
    EARLY_X = fv("0.6", "0.2", "0.1", "0.1")
    LATE_X = fv("0.3", "0.3", "0.35", "0.05")

    def test_decided_pairs_never_enumerate(self, monkeypatch):
        scan = scan_Mk(PAPER_X, PAPER_Y, 4)

        def refuse(*a, **kw):
            raise AssertionError("enumerated")
        monkeypatch.setattr(specvec, "_enumerate", refuse)
        assert in_Mk(self.HOLD_X, self.HOLD_Y, 40)
        assert not in_Mk(self.EARLY_X, self.HOLD_Y, 40)
        assert not in_Mk(self.LATE_X, self.HOLD_Y, 40)
        assert scan_Mk(PAPER_X, PAPER_Y, 4) == scan

    def test_spectra_built_once(self, monkeypatch):
        built = counting_builds(monkeypatch)
        x, y = fresh(PAPER_X, PAPER_Y)
        assert in_Mk(x, y, 3)
        assert built == [x.entries, y.entries]

    def test_mass_mismatch_raises_before_endpoint_filter(self):
        # no pair question can meet unequal masses: the light vector of
        # (1/2, 1/2) against (3/10, 3/10) is rejected when it is built,
        # before any walk or endpoint test
        with pytest.raises(ValueError, match="^entries sum to 3/5, not 1 "):
            ProbVec([F(3, 10), F(3, 10)])

    def test_failed_endpoint_names_the_test(self):
        assert renyi._failed_endpoint(self.EARLY_X, self.HOLD_Y) == (
            "x_1 <= y_1")
        assert renyi._failed_endpoint(self.LATE_X, self.HOLD_Y) == (
            "x_n >= y_n")
        assert renyi._failed_endpoint(self.HOLD_X, self.HOLD_Y) is None
        half, tilted = fv("0.5", "0.5"), fv("0.6", "0.4")
        assert renyi._failed_endpoint(tilted, half) == "x_1 <= y_1"
        assert renyi._failed_endpoint(half, tilted) is None

    def test_errors_before_shortcuts(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            in_Mk(self.HOLD_X, fv("0.5", "0.5"), 2)
        with pytest.raises(ValueError, match="k must be >= 1"):
            in_Mk(self.HOLD_X, self.HOLD_Y, 0)


class TestPowerSumRefutationInMk:
    # both endpoint tests pass and one copy fails; P_2 is 0.455 against
    # 0.435, so no k converts
    MID_X = fv("0.6", "0.3", "0.05", "0.05")
    MID_Y = fv("0.6", "0.25", "0.1", "0.05")

    @staticmethod
    def refuse(*a, **kw):
        raise AssertionError("called")

    def test_refuted_pair_builds_no_power(self, monkeypatch):
        # every power past S_1 is grown by _grow, and every enumeration
        # goes through _enumerate
        monkeypatch.setattr(specvec, "_enumerate", self.refuse)
        monkeypatch.setattr(mlocc, "_grow", self.refuse)
        assert not in_Mk(self.MID_X, self.MID_Y, 40)
        scan = scan_Mk(self.MID_X, self.MID_Y, 40)
        assert scan.refuting_order == 2
        assert not scan.short_circuited
        assert scan.first_success is None
        assert scan.results == {k: "fails" for k in range(1, 41)}
        assert scan.to_json()["refuting_order"] == 2
        assert is_interior_of_M(self.MID_X, self.MID_Y, 3) == "not_member"

    def test_decided_pairs_never_refute(self, monkeypatch):
        monkeypatch.setattr(renyi, "power_sum_refutation", self.refuse)
        pre = TestInMkPreDecision
        assert in_Mk(pre.HOLD_X, pre.HOLD_Y, 40)
        assert not in_Mk(pre.EARLY_X, pre.HOLD_Y, 40)
        assert not in_Mk(pre.LATE_X, pre.HOLD_Y, 40)
        for x in (pre.HOLD_X, pre.EARLY_X, pre.LATE_X):
            assert scan_Mk(x, pre.HOLD_Y, 5).refuting_order is None
        # the patch bites on a pair that reaches the power sums
        with pytest.raises(AssertionError, match="called"):
            in_Mk(self.MID_X, self.MID_Y, 2)


class TestSumOfMembersInMk:
    # members of the paper pair are 3, 4, 5, ...: 6 = 3 + 3 and
    # 1000 = 4 * 250 are sums of members the sweep finds by j = 4, while
    # 5 is not a sum of 2 or 3 and takes the direct path
    # UNDECIDED fails at k = 8; its sweep stops at j = 5, past k / 2 with
    # no member, and the end walk then refutes it
    UNDECIDED = (fv(F(4, 9), F(1, 3), F(1, 9), F(1, 9)),
                 fv(F(6, 11), F(2, 11), F(2, 11), F(1, 11)), 8)
    # DEEP fails at every k up to 30 and at 60; its sweep runs out of
    # budget at j = 21, before k / 2
    DEEP = (fv(*(F(p, 10655) for p in (2741, 2741, 2411, 1381, 1381))),
            fv(*(F(q, 9097) for q in (2591, 2591, 1399, 1399, 1117))), 60)

    # GAP fails at one and two copies, is strictly interior at three,
    # fails at four and five and is strictly interior from six on; found
    # by a seeded search (random.Random(3), random_rational_vec pairs of
    # dimension 4 or 5 with denominators up to 60, scanned to k_max = 12)
    GAP = (fv(F(12, 23), F(6, 23), F(3, 23), F(1, 23), F(1, 23)),
           fv(F(2, 3), F(4, 33), F(1, 11), F(1, 11), F(1, 33)))

    @staticmethod
    def direct(x, y, k):
        return spectrum_majorizes(tensor_power_spectrum(x, k),
                                  tensor_power_spectrum(y, k)).holds

    @staticmethod
    def count_walks(monkeypatch):
        """Record the entry count n^j of each pair of powers walked."""
        walked = []
        real = mlocc._verdict

        def counting(sx, sy, *a):
            walked.append(sx.total_count)
            return real(sx, sy, *a)
        monkeypatch.setattr(mlocc, "_verdict", counting)
        return walked

    def test_sums_of_members_never_enumerate_k(self, monkeypatch):
        def refuse(*a, **kw):
            raise AssertionError("enumerated the k-th power")
        monkeypatch.setattr(specvec, "_enumerate", refuse)
        assert in_Mk(PAPER_X, PAPER_Y, 6)
        assert in_Mk(PAPER_X, PAPER_Y, 1000)

    def test_sweep_builds_no_spectrum_twice(self, monkeypatch):
        built = counting_builds(monkeypatch)
        x, y = fresh(PAPER_X, PAPER_Y)
        assert in_Mk(x, y, 6)
        assert built == [x.entries, y.entries]

    def test_unreached_k_falls_back(self, monkeypatch):
        want = self.direct(PAPER_X, PAPER_Y, 5)
        walked = self.count_walks(monkeypatch)
        assert in_Mk(PAPER_X, PAPER_Y, 5) == want is True
        # one copy, then j = 2; j = 3 is past k / 2 with no member found,
        # so k itself is walked in full
        assert walked == [4 ** j for j in (1, 2, 5)]
        walked.clear()
        x, y, k = self.UNDECIDED
        # the end walk refutes UNDECIDED (test_end_walk_refutes_undecided);
        # held at no verdict, it leaves k to a full walk
        monkeypatch.setattr(mlocc, "_ends_refute", lambda *a: False)
        assert not in_Mk(x, y, k)
        assert not self.direct(x, y, k)
        assert walked == [4 ** j for j in (1, 2, 3, 4, k)]

    def test_budget_stops_the_sweep_before_half_k(self, monkeypatch):
        monkeypatch.setattr(mlocc, "_ends_refute", lambda *a: False)
        grown = []  # the k of each power grown, per side
        real = mlocc._grow

        def counted(base, s, j, k):
            grown.append(k)
            return real(base, s, j, k)
        monkeypatch.setattr(mlocc, "_grow", counted)
        walked = self.count_walks(monkeypatch)
        x, y, k = self.DEEP
        assert not in_Mk(x, y, k)
        assert walked[-1] == x.dim ** k
        # both sides grow S_k last, straight from the highest power grown
        # before it
        assert grown[-2:] == [k, k]
        assert 3 < max(grown[:-2]) < k // 2
        assert max(walked[:-1]) == x.dim ** max(grown[:-2])

    def test_strict_plus_member_below_k_is_not_walked(self, monkeypatch):
        x, y = self.GAP
        verdicts = scan_Mk(x, y, 7).results.values()
        assert "".join(v[0] for v in verdicts) == "ffsffss"
        walked = self.count_walks(monkeypatch)
        # 10 = 3 + 7; on the way, j = 6 = 3 + 3 is a strict plus a member,
        # settled without growing or walking S_6
        assert in_Mk(x, y, 10)
        assert walked == [5 ** j for j in (1, 2, 3, 4, 5, 7)]

    def test_end_walk_refutes_undecided(self, monkeypatch):
        def refuse(*a, **kw):
            raise AssertionError("enumerated the k-th power")
        monkeypatch.setattr(specvec, "_enumerate", refuse)
        x, y, k = self.UNDECIDED
        assert not in_Mk(x, y, k)

    def test_undecided_sweep_stays_within_direct_estimate(self,
                                                          monkeypatch):
        # block products of chain steps and weighted compositions of
        # enumerated steps below k, per side, against the estimate for
        # S_k; the end walk, held at no verdict, leaves k to an
        # enumeration of S_k
        monkeypatch.setattr(mlocc, "_ends_refute", lambda *a: False)
        x, y, k = self.UNDECIDED
        bases, work, steps = [], {}, []  # steps: n^j of each power grown
        calls = []  # the k of each enumeration of S_k
        real_sweep = mlocc._sweep
        real_tensor = specvec.spectrum_tensor
        real_enum = specvec._enumerate

        def sweep(x, y, *a, **kw):
            bases.extend((x, y))
            return real_sweep(x, y, *a, **kw)

        def chain_step(a, b):
            work[id(b)] = work.get(id(b), 0) + len(a._counts) * len(b._counts)
            steps.append(a.total_count * b.total_count)
            return real_tensor(a, b)

        def enumeration(base, j):
            if j == k:
                calls.append(j)
                return real_enum(base, j)
            work[id(base)] = work.get(id(base), 0) + \
                specvec._enumeration_cost(len(base._counts), j)
            steps.append(base.total_count ** j)
            return real_enum(base, j)
        monkeypatch.setattr(mlocc, "_sweep", sweep)
        monkeypatch.setattr(specvec, "spectrum_tensor", chain_step)
        monkeypatch.setattr(specvec, "_enumerate", enumeration)
        assert not in_Mk(x, y, k)
        assert calls == [k, k]
        # the sweep stopped short of j = k - 2
        assert 0 < max(steps) < x.dim ** (k - 2)
        for s in bases:
            assert 0 < work[id(s)] <= specvec._enumeration_cost(
                len(s._counts), k)


class TestScanMk:
    def test_paper_pair_first_success(self):
        scan = scan_Mk(PAPER_X, PAPER_Y, 4)
        assert scan.first_success == 3
        assert scan.results[1] == "fails"
        assert scan.results[2] == "fails"
        assert scan.results[3] != "fails"
        assert set(scan.results) == {1, 2, 3, 4}

    def test_identity_first_success_one(self):
        scan = scan_Mk(PAPER_Y, PAPER_Y, 2)
        assert scan.first_success == 1

    def test_membership_is_not_monotone_in_k(self):
        # fails at k = 1, 2 and 4 but converts at 3 and from 5 on; neither
        # 4 nor 5 is a sum of smaller members, so the sweep walks both
        x = make_probvec([F(v, 100) for v in (35, 31, 14, 13, 7)])
        y = make_probvec([F(v, 100) for v in (39, 23, 23, 14, 1)])
        want = {1: "fails", 2: "fails", 3: "strict_interior", 4: "fails",
                **dict.fromkeys(range(5, 9), "strict_interior")}
        assert scan_Mk(x, y, 8).results == want
        assert [in_Mk(x, y, k) for k in range(1, 9)] == [
            v != "fails" for v in want.values()]
        for k in range(1, 7):  # 5^6 = 15,625 entries at k = 6
            xs, ys = brute_tensor_power(x, k), brute_tensor_power(y, k)
            assert brute_majorizes(xs, ys)[0] == (want[k] != "fails")
            assert brute_strict_interior(xs, ys) == (
                want[k] == "strict_interior")

    def test_endpoint_filter_short_circuit(self):
        x = fv("0.6", "0.2", "0.1", "0.1")
        scan = scan_Mk(x, PAPER_Y, 5)
        assert scan.short_circuited
        assert scan.first_success is None
        assert all(v == "fails" for v in scan.results.values())


class TestScanMkSettlesFromSmallerK:
    # STRICT_X is strictly interior to STRICT_Y at one copy; TIE_X -> TIE_Y
    # holds at one copy with x_1 = y_1; MID_X fails at one copy and is
    # strictly interior at two and three copies, so every k >= 4 is a
    # strict plus a member
    STRICT_X = fv("0.41", "0.2", "0.2", "0.19")
    STRICT_Y = fv("0.6", "0.25", "0.1", "0.05")
    TIE_X, TIE_Y = STRICT_Y, fv("0.6", "0.3", "0.05", "0.05")
    MID_X = fv(F(1, 2), F(1, 3), F(1, 12), F(1, 12))
    MID_Y = fv(F(3, 5), F(1, 5), F(1, 5), 0)
    # boundary at one and two copies with no endpoint tie, strict at three
    LATE_X = fv(F(3, 7), F(3, 7), F(1, 14), F(1, 14))
    LATE_Y = fv(F(4, 7), F(2, 7), F(1, 7), 0)

    @staticmethod
    def counting_powers(monkeypatch, limit=None):
        """Patch mlocc._grow to record the k of each power it grows past
        the given S_1, refusing any k above `limit`."""
        grown = []
        real = specvec._grow

        def counted(base, s, j, k):
            if limit is not None and k > limit:
                raise AssertionError("grew power %d" % k)
            grown.append(k)
            return real(base, s, j, k)
        monkeypatch.setattr(mlocc, "_grow", counted)
        return grown

    def test_strict_at_one_copy_is_strict_at_every_k(self, monkeypatch):
        grown = self.counting_powers(monkeypatch, limit=1)
        scan = scan_Mk(self.STRICT_X, self.STRICT_Y, 40)
        assert scan.results == {k: "strict_interior" for k in range(1, 41)}
        assert scan.first_success == 1
        assert grown == []

    def test_endpoint_tie_member_is_boundary_at_every_k(self, monkeypatch):
        assert self.TIE_X.entries[0] == self.TIE_Y.entries[0]
        grown = self.counting_powers(monkeypatch, limit=1)
        scan = scan_Mk(self.TIE_X, self.TIE_Y, 40)
        assert scan.results == {k: "boundary" for k in range(1, 41)}
        assert scan.first_success == 1
        assert grown == []

    def test_mid_pair_strict_at_two_and_three_builds_no_fourth_power(
            self, monkeypatch):
        grown = self.counting_powers(monkeypatch)
        scan = scan_Mk(self.MID_X, self.MID_Y, 12)
        assert scan.results == {1: "fails", **{k: "strict_interior"
                                               for k in range(2, 13)}}
        assert scan.first_success == 2
        assert sorted(grown) == [2, 2, 3, 3]

    def test_boundary_members_plus_a_later_strict_are_strict(
            self, monkeypatch):
        # 2 = 1 + 1 is a member but, with no tie, is walked; 4 = 1 + 3 and
        # 5 = 2 + 3 are a member plus the strict 3
        grown = self.counting_powers(monkeypatch)
        scan = scan_Mk(self.LATE_X, self.LATE_Y, 12)
        assert scan.results == {1: "boundary", 2: "boundary",
                                **{k: "strict_interior" for k in range(3, 13)}}
        assert sorted(grown) == [2, 2, 3, 3]


class TestLemma3Condition:
    def test_paper_target_needs_two_copies(self):
        # at d=2: left inequality holds for every k, right only from k=2 on
        for k in (2, 3, 4, 6):
            assert lemma3_k_condition(PAPER_Y, 2, k)
        assert not lemma3_k_condition(PAPER_Y, 2, 1)

    def test_uniform_never_satisfies(self):
        u = fv("0.25", "0.25", "0.25", "0.25")
        for k in (1, 2, 5):
            assert not lemma3_k_condition(u, 2, k)

    def test_k1_never_strictifies(self):
        assert not lemma3_k_condition(fv("0.4", "0.3", "0.2", "0.1"), 2, 1)

    def test_d_out_of_range(self):
        with pytest.raises(ValueError):
            lemma3_k_condition(PAPER_Y, 1, 2)
        with pytest.raises(ValueError):
            lemma3_k_condition(PAPER_Y, 3, 2)

    def test_iff_against_spectrum_interior(self):
        # the condition must agree exactly with the k-copy interior verdict
        # for boundary points with a single equality at d
        rng = random.Random(73)
        checked = 0
        while checked < 30:
            y = random_rational_vec(rng, 4)
            d = 2
            if not (y.entries[0] > y.entries[d - 1]
                    and y.entries[d] > y.entries[-1]):
                continue
            x = boundary_with_single_equality(rng, y, d)
            if x is None:
                continue
            for k in (1, 2, 3, 4):
                cond = lemma3_k_condition(y, d, k)
                rep = spectrum_majorizes(tensor_power_spectrum(x, k),
                                         tensor_power_spectrum(y, k))
                assert cond == (rep.verdict == "strict_interior"), \
                    (y, x, k)
            checked += 1


class TestManyCopiesNeeded:
    """The paper's headline, on one known answer: a pair that needs 15
    copies, so no small fixed number of copies can be assumed.

    y = (1000, 993, 900, 400)/3293 first meets Lemma 3's overlap
    condition at d = 2 for K = 15, so its averaging witness x, which has
    e_2(x) = e_2(y), is strictly interior at K copies.  Moving mass
    eps (e_1 - e_4) changes the entries of x^(x)K by at most
    (1 + 2 eps)^K - 1 in total, so x' = x + eps (e_1 - e_4) stays inside
    at K while that is below the least interior gap of x^(x)K against
    y^(x)K (the conftest oracle); eps = 1e-15 sits below gap / (2K),
    about 4.5e-15.  For j < K, x' is outside: j <= 8 is checked against
    the brute walk over all 4^j entries, while 9 <= j <= 14 rest on the
    k-sweep alone."""

    Y = make_probvec([F(v, 3293) for v in (1000, 993, 900, 400)])
    X = make_probvec([F(1993, 6586)] * 2 + [F(1300, 6586)] * 2)
    EPS = F(1, 10 ** 15)
    K = 15

    def perturbed(self):
        x = self.X.entries
        return make_probvec([x[0] + self.EPS, x[1], x[2], x[3] - self.EPS])

    def test_fifteen_copies_convert_and_no_fewer(self):
        assert classify_usefulness(self.Y).witness_x == self.X
        assert [k for k in range(1, self.K + 1)
                if lemma3_k_condition(self.Y, 2, k)] == [self.K]
        gap = least_interior_gap(self.X, self.Y, self.K)
        assert (1 + 2 * self.EPS) ** self.K - 1 < gap
        xp = self.perturbed()
        assert in_Mk(xp, self.Y, self.K)
        scan = scan_Mk(xp, self.Y, self.K + 2)
        assert scan.first_success == self.K
        assert [k for k, v in scan.results.items() if v == "fails"] == list(
            range(1, self.K))
        assert not any(in_Mk(xp, self.Y, j) for j in range(1, self.K))

    def test_fewer_copies_fail_by_the_brute_walk(self):
        xp = self.perturbed()
        for j in range(1, 9):
            assert not brute_power_majorizes(xp, self.Y, j), j


class TestCorollary4Bound:
    def test_zero_tail_bound_is_two(self):
        # a = b = 1/4, and y_n = 0 meets the second inequality at every
        # k >= 2, as Lemma 3 at d = 2 says
        assert corollary4_k_bound(PAPER_Y, 10) == 2
        assert lemma3_k_condition(PAPER_Y, 2, 2)

    def test_distinct_components_bound_is_three(self):
        # a = 0.3, b = 0.2: 0.027 < 0.032 and 0.003 < 0.008 first at k = 3
        y = fv("0.4", "0.3", "0.2", "0.1")
        assert corollary4_k_bound(y, 10) == 3

    def test_close_components_bound_is_five(self):
        y = fv("0.30", "0.28", "0.22", "0.20")
        assert corollary4_k_bound(y, 12) == 5
        assert corollary4_k_bound(y, 4) is None

    def test_uniform_rejected(self):
        with pytest.raises(ValueError):
            corollary4_k_bound(fv("0.5", "0.5"), 4)

    def test_useless_target_rejected(self):
        with pytest.raises(ValueError):
            corollary4_k_bound(fv("0.5", "0.25", "0.25"), 4)


@st.composite
def useful_y(draw, sizes=(4, 5)):
    """A useful y: integer parts over their sum with y_1 > y_2 and
    y_(n-1) > y_n, so at least two entries lie strictly between y_1 and
    y_n.  The middle steps may be 0 (ties) and y_n may be 0."""
    n = draw(st.sampled_from(sizes))
    steps = [draw(st.integers(1, 8))]
    steps += [draw(st.integers(0, 8)) for _ in range(n - 3)]
    steps.append(draw(st.integers(1, 8)))
    parts = accumulate(steps, initial=draw(st.integers(0, 40)))
    return make_probvec(list(parts)[::-1], normalize=True)


def block_averages(y):
    """Every vector that averages y over the blocks between cuts at a
    subset of the positions 2..n-2: each is majorized by y, with
    equalities at the cuts."""
    n, ys = y.dim, y.entries
    for r in range(n - 2):
        for cuts in combinations(range(2, n - 1), r):
            ends = [0, *cuts, n]
            yield ProbVec([sum(ys[a:b]) / (b - a) for a, b in
                           zip(ends, ends[1:]) for _ in range(a, b)])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(useful_y())
@example(PAPER_Y)
@example(fv("0.30", "0.28", "0.22", "0.20"))
def test_corollary4_bound_covers_every_block_average(y):
    k = corollary4_k_bound(y, 40)
    assume(k is not None)
    if y.dim == 4:
        assert k == next(j for j in range(1, 41)
                         if lemma3_k_condition(y, 2, j))
    for x in block_averages(y):
        if is_generalized_interior(x, y):
            assert in_Mk(x, y, k), (y, x, k)


def _needs_exactly_k(y, k_max, d=2):
    """A pair (x, K) for a y with y_1 > y_d and y_(d+1) > y_n, or None
    when no k <= k_max meets Lemma 3's condition at d.

    K is the least k with lemma3_k_condition(y, d, k), and x is y's block
    average with one cut at d (equality at l = d; at n = 4 and d = 2 the
    averaging witness of classify_usefulness) moved by eps (e_1 - e_n),
    eps = gap / (4K) with gap the least interior gap of the average's
    K-th power against y's.  That moves the entries of x^(x)K by at most
    (1 + 2 eps)^K - 1 < gap in total (see TestManyCopiesNeeded), so x
    stays a member at K, while e_d(x) > e_d(y) makes one copy fail."""
    k = next((j for j in range(1, k_max + 1) if lemma3_k_condition(y, d, j)),
             None)
    if k is None:
        return None
    n, ys = y.dim, y.entries
    head = sum(ys[:d])
    w = make_probvec([head / d] * d + [(1 - head) / (n - d)] * (n - d))
    gap = least_interior_gap(w, y, k)
    eps = gap / (4 * k)
    assert (1 + 2 * eps) ** k - 1 < gap
    x = make_probvec([w[0] + eps, *w[1:-1], w[-1] - eps])
    return x, k


def _assert_needs_exactly(x, y, k, brute_max):
    """x -> y converts at k copies and at no fewer: by the sweep, by in_Mk,
    and for every j < k with n^j <= brute_max by the brute walk."""
    assert scan_Mk(x, y, k + 2).first_success == k
    assert in_Mk(x, y, k)
    assert not any(in_Mk(x, y, j) for j in range(1, k))
    for j in range(1, k):
        if x.dim ** j > brute_max:
            break
        assert not brute_power_majorizes(x, y, j), (y, j)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(useful_y(sizes=(4,)))
@example(make_probvec([40, 38, 28, 27], normalize=True))  # K = 10
def test_generated_pair_needs_exactly_least_k(y):
    case = _needs_exactly_k(y, 10)
    assume(case is not None)
    x, k = case
    _assert_needs_exactly(x, y, k, 4 ** 6)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(useful_y(sizes=(5,)), st.sampled_from([2, 3]))
@example(make_probvec([55, 40, 14, 13, 12], normalize=True), 2)  # K = 8
@example(make_probvec([53, 50, 39, 32, 31], normalize=True), 3)  # K = 8
def test_five_entry_pair_needs_exactly_least_k(y, d):
    # the least k over a cut at d = 2 or 3 of a five-entry y, K <= 8
    case = _needs_exactly_k(y, 8, d)
    assume(case is not None)
    x, k = case
    _assert_needs_exactly(x, y, k, 10 ** 5)


class TestInteriorOfM:
    def test_paper_pair_interior(self):
        assert is_interior_of_M(PAPER_X, PAPER_Y, 4) == "interior"

    def test_self_boundary(self):
        assert is_interior_of_M(PAPER_Y, PAPER_Y, 2) == "boundary"

    def test_excluded_by_filter(self):
        x = fv("0.6", "0.2", "0.1", "0.1")
        assert is_interior_of_M(x, PAPER_Y, 3) == "not_member"

    def test_undecided_within_kmax(self):
        assert is_interior_of_M(PAPER_X, PAPER_Y, 2) == "unknown"


class TestClassifyUsefulness:
    def test_three_dim_never_useful(self):
        assert not classify_usefulness(fv("0.5", "0.25", "0.25")).useful

    def test_zero_padding_flips_the_answer(self):
        v = classify_usefulness(PAPER_Y)
        assert v.useful
        assert v.witness_l == 2
        assert v.witness_x == fv("0.375", "0.375", "0.125", "0.125")

    def test_uniform_not_useful(self):
        assert not classify_usefulness(fv("0.25", "0.25", "0.25",
                                          "0.25")).useful

    def test_witness_on_boundary_with_interior_endpoints(self):
        rng = random.Random(79)
        found = 0
        while found < 15:
            y = random_rational_vec(rng, rng.randint(4, 5))
            v = classify_usefulness(y)
            if not v.useful:
                continue
            rep = majorizes(v.witness_x, y)
            assert rep.verdict == "boundary"
            assert rep.equality_indices == {v.witness_l}
            assert v.witness_x.entries[0] < y.entries[0]
            assert v.witness_x.entries[-1] > y.entries[-1]
            found += 1

    def test_witness_enters_interior_at_some_k(self):
        v = classify_usefulness(PAPER_Y)
        # the single-equality sweep says k=2 suffices for this target
        assert lemma3_k_condition(PAPER_Y, v.witness_l, 2)
        assert is_interior_of_M(v.witness_x, PAPER_Y, 2) == "interior"

    def test_not_useful_means_endpoints_suffice(self):
        # when extra copies never help, the two endpoint inequalities alone
        # already imply single-copy convertibility
        rng = random.Random(83)
        checked = 0
        while checked < 20:
            y = random_rational_vec(rng, rng.randint(2, 4))
            if classify_usefulness(y).useful:
                continue
            x = random_rational_vec(rng, y.dim)
            if (x.entries[0] <= y.entries[0]
                    and x.entries[-1] >= y.entries[-1]):
                assert majorizes(x, y).holds
            checked += 1


class TestNonclosednessWitness:
    def test_paper_target(self):
        w = nonclosedness_witness(PAPER_Y)
        assert w == make_probvec(["0.5", "0.5", "0", "0"])

    def test_distinct_components(self):
        w = nonclosedness_witness(fv("0.4", "0.3", "0.2", "0.1"))
        assert w == fv("0.4", "0.4", "0.1", "0.1")

    def test_witness_strictly_above_and_outside(self):
        for y in (PAPER_Y, fv("0.4", "0.3", "0.2", "0.1")):
            w = nonclosedness_witness(y)
            assert majorizes(y, w).holds
            assert not majorizes(w, y).holds
            for k in range(1, 7):
                assert not in_Mk(w, y, k)

    def test_requires_usefulness(self):
        with pytest.raises(ValueError):
            nonclosedness_witness(fv("0.5", "0.25", "0.25"))
