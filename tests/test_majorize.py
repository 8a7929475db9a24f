import random
from fractions import Fraction

import pytest

from trumpkit import (ProbVec, check_direct_sum_interior_condition,
                      check_overlap_chain, is_generalized_interior,
                      is_interior, majorizes, make_probvec,
                      spectrum_majorizes, spectrum_tensor,
                      tensor_power_spectrum)
from trumpkit import majorize
from trumpkit.specvec import spectrum_direct_sum

from conftest import (brute_majorizes, brute_strict_interior,
                      brute_tensor_power, random_majorized_below,
                      random_rational_vec, random_strict_interior)

F = Fraction


def fv(*args):
    return make_probvec([F(a) for a in args])


PAPER_X = ("0.4", "0.4", "0.1", "0.1")
PAPER_Y = ("0.5", "0.25", "0.25", "0")
# l = 1 lies inside both tied blocks, off every breakpoint
ZERO_SEGMENT = (("0.3", "0.3", "0.3", "0.1"), ("0.3", "0.3", "0.2", "0.2"))
# the gap is zero at l = 3, inside the failing segment (2, 4]
EQUALITY_BEFORE = (["1/4"] * 4 + ["0"] * 4,
                   ("3/8", "1/4", "1/8", "1/8", "1/8", "0", "0", "0"))
TIED = (("0.3", "0.3", "0.2", "0.2"),) * 2


class _Passes(list):
    """A state list that counts the passes made over it."""
    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


class TestMajorizes:
    def test_paper_pair_fails_at_2(self):
        rep = majorizes(fv(*PAPER_X), fv(*PAPER_Y))
        assert rep.verdict == "fails"
        assert rep.first_violation == (2, F(4, 5), F(3, 4))

    def test_reflexive_is_boundary(self):
        x = fv(*PAPER_X)
        rep = majorizes(x, x)
        assert rep.verdict == "boundary"
        assert rep.equality_indices == frozenset({1, 2, 3})

    def test_json_lists_equalities_in_numeric_order(self):
        u = ProbVec([F(1, 12)] * 12)
        rep = majorizes(u, u)
        assert rep.verdict == "boundary"
        assert rep.to_json()["equality_indices"] == [
            str(l) for l in range(1, 12)]

    def test_uniform_below_everything(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(1, 4)
            u = ProbVec([F(1, n)] * n)
            y = random_rational_vec(rng, n)
            assert majorizes(u, y).holds

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            majorizes(fv("0.5", "0.5"), fv("1"))

    def test_unequal_mass_raises(self):
        # at construction: no pair of unequal masses reaches the walk,
        # since the light vector is rejected by its constructor
        with pytest.raises(ValueError, match="^entries sum to 3/5, not 1 "):
            ProbVec([F(3, 10)] * 2)

    def test_zero_segment_before_violation(self):
        rep = majorizes(*(fv(*v) for v in ZERO_SEGMENT))
        assert rep.equality_indices == frozenset({1, 2})
        assert rep.first_violation == (3, F(9, 10), F(4, 5))

    def test_equality_just_before_violation(self):
        rep = majorizes(*(fv(*v) for v in EQUALITY_BEFORE))
        assert rep.equality_indices == frozenset({3})
        assert rep.first_violation == (4, F(1), F(7, 8))

    @pytest.mark.parametrize("pair", [ZERO_SEGMENT, EQUALITY_BEFORE, TIED],
                             ids=["zero_segment", "equality_before", "tied"])
    def test_report_is_one_union_walk(self, monkeypatch, pair):
        # the whole report, equalities off the breakpoints included, comes
        # from one _steps walk: each state list is read once, and neither
        # breakpoints nor prefix masses are asked for
        x, y = (fv(*v) for v in pair)
        lists = []
        for v in (x, y):
            for name in ("_int_vals", "_counts"):
                lists.append(_Passes(getattr(v, name)))
                object.__setattr__(v, name, lists[-1])
        walks = []
        steps = majorize._steps

        def counted(u, w):
            walks.append(1)
            return steps(u, w)

        def forbidden(*args):
            raise AssertionError("second pass over a vector")

        monkeypatch.setattr(majorize, "_steps", counted)
        monkeypatch.setattr(ProbVec, "breakpoints", forbidden)
        monkeypatch.setattr(ProbVec, "prefix_mass", forbidden)
        rep = majorizes(x, y)
        assert rep.equality_indices  # each pair has an equality to find
        assert len(walks) == 1
        assert [l.passes for l in lists] == [1, 1, 1, 1]

    def test_verdict_iff_violation(self):
        rng = random.Random(29)
        for _ in range(50):
            n = rng.randint(2, 4)
            x = random_rational_vec(rng, n)
            y = random_rational_vec(rng, n)
            rep = majorizes(x, y)
            assert (rep.verdict == "fails") == (rep.first_violation
                                                is not None)
            holds, first_l = brute_majorizes(list(x), list(y))
            assert rep.holds == holds
            if not holds:
                assert rep.first_violation[0] == first_l


class TestSpectrumMajorizes:
    def test_paper_pair_k3_holds(self):
        sx = tensor_power_spectrum(fv(*PAPER_X), 3)
        sy = tensor_power_spectrum(fv(*PAPER_Y), 3)
        assert spectrum_majorizes(sx, sy).holds

    def test_paper_pair_k2_fails(self):
        sx = tensor_power_spectrum(fv(*PAPER_X), 2)
        sy = tensor_power_spectrum(fv(*PAPER_Y), 2)
        assert not spectrum_majorizes(sx, sy).holds

    def test_equal_spectra_boundary(self):
        s = tensor_power_spectrum(fv(*PAPER_Y), 2)
        rep = spectrum_majorizes(s, s)
        assert rep.verdict == "boundary"

    def test_failing_report_keeps_zero_segment(self):
        rep = spectrum_majorizes(fv("0.3", "0.3", "0.3", "0.1"),
                                 fv("0.3", "0.3", "0.2", "0.2"))
        assert not rep.holds
        assert rep.zero_segment is True

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            spectrum_majorizes(fv("1"), fv("0.5", "0.5"))

    def test_oracle_equivalence(self):
        # compressed verdicts must match brute-force expansion verdicts
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 4)
            x = random_rational_vec(rng, n)
            y = random_rational_vec(rng, n)
            k = rng.randint(1, 4)
            rep = spectrum_majorizes(tensor_power_spectrum(x, k),
                                     tensor_power_spectrum(y, k))
            xs = brute_tensor_power(x, k)
            ys = brute_tensor_power(y, k)
            holds, first_l = brute_majorizes(xs, ys)
            assert rep.holds == holds
            if not holds:
                assert rep.first_violation[0] == first_l
            else:
                strict = brute_strict_interior(xs, ys)
                assert (rep.verdict == "strict_interior") == strict


class TestInterior:
    def test_strict_example(self):
        assert is_interior(fv("0.4", "0.3", "0.3"), fv("0.5", "0.3", "0.2"))

    def test_self_not_interior(self):
        x = fv(*PAPER_Y)
        assert not is_interior(x, x)

    def test_uniform_vs_nonuniform(self):
        rng = random.Random(37)
        for _ in range(20):
            n = rng.randint(2, 4)
            y = random_rational_vec(rng, n)
            if y.is_uniform():
                continue
            u = ProbVec([F(1, n)] * n)
            assert is_interior(u, y)


class TestGeneralizedInterior:
    def test_averaging_witness(self):
        x = fv("0.375", "0.375", "0.125", "0.125")
        assert is_generalized_interior(x, fv(*PAPER_Y))

    def test_self_not_generalized_interior(self):
        y = fv(*PAPER_Y)
        assert not is_generalized_interior(y, y)

    def test_uniform_is_generalized_interior(self):
        y = fv("0.5", "0.3", "0.2")
        u = fv("1/3", "1/3", "1/3")
        assert is_generalized_interior(u, y)


class TestDirectSumInteriorCondition:
    def test_uniform_input_rejected(self):
        with pytest.raises(ValueError):
            check_direct_sum_interior_condition(fv("0.6", "0.4"),
                                                fv("0.5", "0.5"))

    def test_overlapping_pair(self):
        assert check_direct_sum_interior_condition(fv("0.6", "0.4"),
                                                   fv("0.55", "0.45"))

    def test_disjoint_ranges(self):
        # every entry of yp at or above y's head: condition must fail, and a
        # prefix equality must appear for interior operands
        y = fv("0.3", "0.25", "0.25", "0.2")
        yp = fv("0.35", "0.33", "0.32")
        assert not check_direct_sum_interior_condition(y, yp)
        rng = random.Random(2)
        x = random_strict_interior(rng, y)
        xp = random_strict_interior(rng, yp)
        rep = majorizes(spectrum_direct_sum([x, xp]),
                        spectrum_direct_sum([y, yp]))
        assert rep.verdict == "boundary"

    def test_condition_predicts_interior_sums(self):
        rng = random.Random(41)
        checked = 0
        while checked < 25:
            y = random_rational_vec(rng, rng.randint(2, 3))
            yp = random_rational_vec(rng, rng.randint(2, 3))
            if y.is_uniform() or yp.is_uniform():
                continue
            cond = check_direct_sum_interior_condition(y, yp)
            x = random_strict_interior(rng, y)
            xp = random_strict_interior(rng, yp)
            sum_x = spectrum_direct_sum([x, xp])
            sum_y = spectrum_direct_sum([y, yp])
            if cond:
                assert is_interior(sum_x, sum_y)
            else:
                # some prefix equality must appear: e_m or e_n is tight
                rep = majorizes(sum_x, sum_y)
                assert rep.verdict != "strict_interior"
            checked += 1


class TestOverlapChain:
    def test_singleton_chain(self):
        assert check_overlap_chain([(fv("0.6", "0.4"), 1)])

    def test_binomial_chain(self):
        # mixed powers of the head/tail split of (0.5,0.25,0.25,0) at d=2
        yh = make_probvec(["0.5", "0.25"], normalize=True)
        yt = make_probvec(["0.25", "0"], normalize=True)
        k = 3
        chain = []
        for i in range(k + 1):
            parts = []
            if k - i:
                parts.append(tensor_power_spectrum(yh, k - i))
            if i:
                parts.append(tensor_power_spectrum(yt, i))
            v = parts[0] if len(parts) == 1 else spectrum_tensor(*parts)
            chain.append((v, 1))
        # head split is non-uniform with a zero tail block: chain (iii)
        # requires tail_i < head_{i+1}, which the zero in yt breaks
        assert not check_overlap_chain(chain)

    def test_gapped_chain(self):
        big = fv("0.7", "0.3")
        small = fv("0.2", "0.2", "0.2", "0.2", "0.2")
        # small's head 0.2 < big's tail 0.3: condition (iii) violated
        assert not check_overlap_chain([(big, 1), (small, 1)])

    def test_valid_two_link_chain(self):
        assert check_overlap_chain([(fv("0.6", "0.4"), 1),
                                    (fv("0.5", "0.3", "0.2"), 2)])


class TestMajorizationOrderProperties:
    def test_proposition_sum_and_product(self):
        rng = random.Random(43)
        for _ in range(25):
            n = rng.randint(2, 4)
            y = random_rational_vec(rng, n)
            yp = random_rational_vec(rng, rng.randint(2, 4))
            x = random_majorized_below(rng, y)
            xp = random_majorized_below(rng, yp)
            assert majorizes(spectrum_direct_sum([x, xp]),
                             spectrum_direct_sum([y, yp])).holds
            assert majorizes(spectrum_tensor(x, xp),
                             spectrum_tensor(y, yp)).holds

    def test_interior_preserved_under_tensor(self):
        rng = random.Random(47)
        checked = 0
        while checked < 20:
            y = random_rational_vec(rng, rng.randint(2, 4))
            yp = random_rational_vec(rng, rng.randint(2, 4))
            if y.is_uniform() or yp.is_uniform():
                continue
            x = random_strict_interior(rng, y)
            xp = random_strict_interior(rng, yp)
            assert is_interior(spectrum_tensor(x, xp), spectrum_tensor(y, yp))
            checked += 1

    def test_repeat_sum_interior_iff(self):
        rng = random.Random(53)
        checked = 0
        while checked < 15:
            y = random_rational_vec(rng, rng.randint(2, 4))
            if y.is_uniform():
                continue
            x = random_strict_interior(rng, y)
            for k in (2, 3):
                assert is_interior(spectrum_direct_sum([x] * k),
                                   spectrum_direct_sum([y] * k))
            # and a boundary point stays boundary
            b = random_majorized_below(rng, y)
            if not is_interior(b, y):
                b2 = spectrum_direct_sum([b, b])
                y2 = spectrum_direct_sum([y, y])
                assert not is_interior(b2, y2)
            checked += 1

    def test_transitivity(self):
        rng = random.Random(59)
        for _ in range(25):
            n = rng.randint(2, 4)
            z = random_rational_vec(rng, n)
            y = random_majorized_below(rng, z)
            x = random_majorized_below(rng, y)
            assert majorizes(x, z).holds

    def test_antisymmetry(self):
        rng = random.Random(61)
        for _ in range(40):
            n = rng.randint(2, 4)
            x = random_rational_vec(rng, n)
            y = random_rational_vec(rng, n)
            if majorizes(x, y).holds and majorizes(y, x).holds:
                assert x == y
