import random
from fractions import Fraction

import pytest

from trumpkit import (LiftedCatalyst, ProbVec, build_catalyst_thm1,
                      combine_catalysts, in_Mk,
                      lift_catalyst, majorizes, make_probvec,
                      multicopy_catalyst_scan, r_filter, scan_Mk,
                      search_catalyst, spectrum_tensor)
from trumpkit import catalysis, renyi, specvec
from trumpkit.catalysis import reduce_catalyst

from conftest import (brute_majorizes, brute_tensor, brute_tensor_power,
                      random_rational_vec)

F = Fraction


def fv(*args):
    return make_probvec([F(a) for a in args])


PAPER_X = fv("0.4", "0.4", "0.1", "0.1")
PAPER_Y = fv("0.5", "0.25", "0.25", "0")
Z = fv("0.6", "0.4")
Z_PRIME = fv("0.55", "0.45")


def incomparable_multicopy_pairs(rng, count, k_hi=3):
    """Random pairs with x not majorized by y but some k-copy witness."""
    found = []
    while len(found) < count:
        n = rng.randint(3, 4)
        x = random_rational_vec(rng, n)
        y = random_rational_vec(rng, n)
        if majorizes(x, y).holds:
            continue
        for k in range(2, k_hi + 1):
            if in_Mk(x, y, k):
                found.append((x, y, k))
                break
    return found


class TestBuildCatalystThm1:
    def test_paper_pair_k3(self):
        cert = build_catalyst_thm1(PAPER_X, PAPER_Y, 3)
        assert cert.catalyst.dim == 3 * 4 ** 2 == 48
        assert cert.verified
        assert cert.dim_bound_ok

    def test_k1_trivial_catalyst(self):
        cert = build_catalyst_thm1(PAPER_Y, PAPER_Y, 1)
        assert cert.catalyst == fv("1")
        assert cert.verified

    def test_precondition_guarded(self):
        with pytest.raises(ValueError):
            build_catalyst_thm1(PAPER_X, PAPER_Y, 2)

    def test_random_witnesses_always_verify(self):
        rng = random.Random(89)
        for x, y, k in incomparable_multicopy_pairs(rng, 8):
            cert = build_catalyst_thm1(x, y, k)
            assert cert.verified
            assert cert.catalyst.dim == k * x.dim ** (k - 1)

    def test_scaling_invariance(self):
        # the 1/k normalization cannot affect the comparison: both sides
        # scale identically under c -> c/k
        cert = build_catalyst_thm1(PAPER_X, PAPER_Y, 3)
        c = cert.catalyst
        scaled = [v * 3 for v in c.entries]
        lhs = sorted((a * b for a in PAPER_X for b in scaled), reverse=True)
        rhs = sorted((a * b for a in PAPER_Y for b in scaled), reverse=True)
        ex = F(0)
        ey = F(0)
        for l in range(len(lhs) - 1):
            ex += lhs[l]
            ey += rhs[l]
            assert ex <= ey

    def test_reduce_view_merges_values(self):
        cert = build_catalyst_thm1(PAPER_X, PAPER_Y, 3)
        view = reduce_catalyst(cert.catalyst)
        assert view.total_count == 48
        assert len(view.blocks) < 48


class TestCombineCatalysts:
    def test_trivial_cprime_reduces_to_thm1(self):
        cert = combine_catalysts(PAPER_X, PAPER_Y, 3, fv("1"))
        assert cert.verified
        assert cert.catalyst.dim == 48

    def test_k1_returns_cprime(self):
        cert = combine_catalysts(PAPER_X, PAPER_Y, 1, Z)
        assert cert.catalyst == Z
        assert cert.verified

    def test_bad_cprime_rejected(self):
        with pytest.raises(ValueError):
            combine_catalysts(PAPER_X, PAPER_Y, 1, Z_PRIME)

    def test_random_premises_always_verify(self):
        rng = random.Random(97)
        done = 0
        pairs = incomparable_multicopy_pairs(rng, 10)
        for x, y, k in pairs:
            cp = random_rational_vec(rng, 2)
            from trumpkit import spectrum_majorizes, tensor_power_spectrum
            sx = spectrum_tensor(tensor_power_spectrum(x, k), cp)
            sy = spectrum_tensor(tensor_power_spectrum(y, k), cp)
            if not spectrum_majorizes(sx, sy).holds:
                continue
            assert combine_catalysts(x, y, k, cp).verified
            done += 1
        assert done >= 5


class TestLiftCatalyst:
    def test_paper_catalyst_two_copies(self):
        cert = lift_catalyst(PAPER_X, PAPER_Y, Z, 2)
        assert cert.verified
        assert cert.catalyst.dim == 4

    def test_single_copy_unchanged(self):
        cert = lift_catalyst(PAPER_X, PAPER_Y, Z, 1)
        assert cert.catalyst == Z

    def test_invalid_catalyst_rejected(self):
        with pytest.raises(ValueError):
            lift_catalyst(PAPER_X, PAPER_Y, Z_PRIME, 2)

    def test_random_lifts_always_verify(self):
        rng = random.Random(101)
        for x, y, k in incomparable_multicopy_pairs(rng, 5):
            c = build_catalyst_thm1(x, y, k).catalyst
            for n_copies in (2, 3):
                assert lift_catalyst(x, y, c, n_copies).verified


class TestSearchCatalyst:
    def test_paper_pair_finds_dim2_catalyst(self):
        cert = search_catalyst(PAPER_X, PAPER_Y, 2, 10_000, seed=0)
        assert cert is not None
        assert cert.verified
        c = cert.catalyst
        assert brute_majorizes(brute_tensor(PAPER_X, c),
                               brute_tensor(PAPER_Y, c))[0]

    def test_filter_excludes_immediately(self):
        x = fv("0.6", "0.2", "0.1", "0.1")
        assert search_catalyst(x, PAPER_Y, 2, 100, seed=0) is None

    def test_dim1_is_vacuous(self):
        assert search_catalyst(PAPER_X, PAPER_Y, 1, 10, seed=0) is None
        ok = search_catalyst(fv("0.375", "0.375", "0.125", "0.125"),
                             PAPER_Y, 1, 10, seed=0)
        assert ok is not None and ok.verified

    def test_deterministic_given_seed(self):
        a = search_catalyst(PAPER_X, PAPER_Y, 2, 5_000, seed=3)
        b = search_catalyst(PAPER_X, PAPER_Y, 2, 5_000, seed=3)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.catalyst == b.catalyst


class TestSearchRefutation:
    # both endpoint tests pass and one copy fails; P_2 is 0.455 against
    # 0.435, so no catalyst of any dimension exists
    MID_X = fv("0.6", "0.3", "0.05", "0.05")
    MID_Y = fv("0.6", "0.25", "0.1", "0.05")

    def test_refuted_pair_runs_no_trial(self, monkeypatch):
        def refuse(*a, **kw):
            raise AssertionError("ran a trial")
        monkeypatch.setattr(catalysis, "_candidates", refuse)
        for dim_c in (2, 3):
            assert search_catalyst(self.MID_X, self.MID_Y, dim_c, 10_000,
                                   seed=0) is None

    def test_mass_mismatch_still_raises(self):
        # at construction: the light vector of (3/10) x4 against
        # (3/10 x3, 1/10) is rejected before any search can see it
        with pytest.raises(ValueError, match="^entries sum to 6/5, not 1 "):
            ProbVec([F(3, 10)] * 4)


class TestSearchTrialSequence:
    # census pair: neither endpoint test nor a power sum excludes it, and
    # Shannon entropy refutes it (H(x) < H(y)), so no catalyst of any
    # dimension exists and every search runs all of its trials
    X = make_probvec([F(v, 40) for v in (20, 15, 3, 2)])
    Y = make_probvec([F(v, 40) for v in (22, 11, 6, 1)])

    def trials(self, monkeypatch, dim_c, budget, seed=0):
        """The candidates one search takes from its stream, in order."""
        seen = []
        real = catalysis._candidates

        def recording(dim_c, seed):
            for vals in real(dim_c, seed):
                seen.append(list(vals))
                yield vals
        monkeypatch.setattr(catalysis, "_candidates", recording)
        assert search_catalyst(self.X, self.Y, dim_c, budget, seed) is None
        return seen

    def test_lattices_then_seeded_draws(self, monkeypatch):
        # each candidate is given by integers that a trial divides by
        # their sum: a / r and (r - a) / r on the lattices, draws over 10^4
        lattice = [[a, r - a]
                   for r in (10, 20) for a in range(r - 1, r // 2 - 1, -1)]
        rng = random.Random(7)
        draws = []
        for _ in range(25):
            raw = sorted((rng.random(), rng.random()), reverse=True)
            draws.append([max(1, round(v * 10 ** 4)) for v in raw])
        assert self.trials(monkeypatch, 2, 40, seed=7) == lattice + draws
        for budget in (0, 1, 5, 15):
            assert self.trials(monkeypatch, 2, budget, 7) == lattice[:budget]

    def test_budget_counts_every_trial(self, monkeypatch):
        # 8 + 33 lattice points of dimension 3, then seeded draws
        for budget in (0, 8, 41, 50):
            assert len(self.trials(monkeypatch, 3, budget)) == budget

    def test_dim1_runs_one_trial_at_any_budget(self, monkeypatch):
        for budget in (0, 1, 10):
            assert self.trials(monkeypatch, 1, budget) == [[10]]


class TestSearchSizes:
    @pytest.mark.parametrize("dim_c, budget, message", [
        (1, -5, "budget must be >= 0"), (2, -1, "budget must be >= 0"),
        (0, 10, "dim_c must be >= 1")])
    def test_bad_sizes_raise(self, dim_c, budget, message):
        with pytest.raises(ValueError, match=message):
            search_catalyst(PAPER_X, PAPER_Y, dim_c, budget)


def fresh(*vecs):
    """New vectors equal to vecs, each built from its Fraction entries."""
    return [ProbVec(v.entries) for v in vecs]


class TestOneSpectrumPerVector:
    # a vector's spectrum is built by the one parsed-entries -> integer
    # pass (specvec._numerators) when the vector is built, and never in a
    # query; each pass is recorded as the Fractions of the pairs it got
    @staticmethod
    def counting_builds(monkeypatch):
        built = []
        real = specvec._numerators

        def counting(pairs):
            built.append(tuple(F(n, d) for n, d in pairs))
            return real(pairs)
        monkeypatch.setattr(specvec, "_numerators", counting)
        return built

    def test_combine_builds_three(self, monkeypatch):
        built = self.counting_builds(monkeypatch)
        x, y, cp = fresh(PAPER_X, PAPER_Y, Z_PRIME)
        assert combine_catalysts(x, y, 3, cp).verified
        assert built == [x.entries, y.entries, cp.entries]

    def test_build_builds_two(self, monkeypatch):
        built = self.counting_builds(monkeypatch)
        x, y = fresh(PAPER_X, PAPER_Y)
        assert build_catalyst_thm1(x, y, 3).verified
        assert built == [x.entries, y.entries]

    def test_lift_builds_three(self, monkeypatch):
        built = self.counting_builds(monkeypatch)
        x, y, c = fresh(PAPER_X, PAPER_Y, Z)
        cert = lift_catalyst(x, y, c, 3)
        assert cert.verified
        assert built == [x.entries, y.entries, c.entries]
        lifted = cert.catalyst
        assert lifted.expand() is lifted.expand() is lifted._spectrum
        assert built == [x.entries, y.entries, c.entries]

    def test_unlifted_spectrum_is_built_once_and_kept(self, monkeypatch):
        lifted = LiftedCatalyst(Z, 3)
        assert lifted._spectrum is None
        first = lifted.expand()

        def refuse(*a):
            raise AssertionError("rebuilt c^(x)n")
        monkeypatch.setattr(catalysis, "tensor_power_spectrum", refuse)
        assert lifted.expand() is first
        assert first == ProbVec(brute_tensor_power(Z, 3))

    # the paper pair (open at one copy, converts at k = 3), a pair refuted
    # by a power sum, and a pair that holds at one copy
    PAIRS = [(PAPER_X, PAPER_Y),
             (fv("0.6", "0.3", "0.05", "0.05"),
              fv("0.6", "0.25", "0.1", "0.05")),
             (fv("0.3", "0.3", "0.2", "0.2"), PAPER_X)]

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("query", [
        lambda x, y: in_Mk(x, y, 6), lambda x, y: in_Mk(x, y, 40),
        lambda x, y: scan_Mk(x, y, 8)])
    def test_multicopy_decisions_build_two(self, monkeypatch, pair, query):
        built = self.counting_builds(monkeypatch)
        x, y = fresh(*pair)
        query(x, y)
        assert built == [x.entries, y.entries]

    def test_catalyst_scan_builds_three(self, monkeypatch):
        for pair in self.PAIRS:
            built = self.counting_builds(monkeypatch)
            x, y, c = fresh(*pair, Z_PRIME)
            multicopy_catalyst_scan(x, y, c, 8)
            assert built == [x.entries, y.entries, c.entries]

    @pytest.mark.parametrize("pair, reads", [
        (PAIRS[0], 2),
        # Shannon entropy refutes it, before any integer order is read
        (PAIRS[1], 0),
        # majorized at one copy: the walk settles it, and no order is read
        (PAIRS[2], 0)])
    def test_r_filter_builds_at_most_one_per_vector(self, monkeypatch, pair,
                                                    reads):
        # the two builds are the vectors' own: r_filter makes none.  reads:
        # how many of the two spectra an integer power sum reads, seen at
        # the one power-sum comparer (limits and floats read the terms too)
        built = self.counting_builds(monkeypatch)
        x, y = fresh(*pair)
        read = []
        real = renyi._first_excess

        def reading(tx, ty, first, last):
            read.extend(t for t in (tx, ty) if t not in read)
            return real(tx, ty, first, last)
        monkeypatch.setattr(renyi, "_first_excess", reading)
        r_filter(x, y)
        assert built == [x.entries, y.entries]
        terms = [renyi._power_terms(s, False) for s in (x, y)]
        assert read == terms[:reads]

    def test_combine_grows_each_power_once(self, monkeypatch):
        products = []
        real = specvec.spectrum_tensor

        def counting(a, b):
            products.append((len(a._counts), len(b._counts)))
            return real(a, b)
        monkeypatch.setattr(specvec, "spectrum_tensor", counting)
        monkeypatch.setattr(catalysis, "spectrum_tensor", counting)
        cert = combine_catalysts(PAPER_X, PAPER_Y, 3, Z_PRIME)
        # x^(x)2, x^(x)3, y^(x)2, y^(x)3; the three mixed terms; c (x) c'
        assert len(products) == 8
        terms = [brute_tensor_power(PAPER_X, 2),
                 brute_tensor(PAPER_X, PAPER_Y),
                 brute_tensor_power(PAPER_Y, 2)]
        c = ProbVec([v / 3 for t in terms for v in t])
        assert list(cert.catalyst.entries) == brute_tensor(c, Z_PRIME)
        assert cert.verified

    @pytest.mark.parametrize("pair, hit", [
        ((PAPER_X, PAPER_Y), True),
        ((TestSearchTrialSequence.X, TestSearchTrialSequence.Y), False)])
    def test_search_builds_two_and_no_trial_probvec(self, monkeypatch,
                                                    pair, hit):
        built = self.counting_builds(monkeypatch)
        x, y = fresh(*pair)
        made = []
        real = catalysis._normalized

        def recording(comp):
            made.append((comp, real(comp)))
            return made[-1][1]
        monkeypatch.setattr(catalysis, "_normalized", recording)
        cert = search_catalyst(x, y, 2, 40, seed=3)
        assert built == [x.entries, y.entries]
        assert all(type(a) is int for comp, _ in made for a in comp)
        # a hit's catalyst is the vector of the last trial's spectrum,
        # with no entries built
        assert (cert is not None) is hit
        if hit:
            comp, s = made[-1]
            assert cert.catalyst is s
            assert cert.catalyst._entries is None
            assert list(cert.catalyst) == [F(a, sum(comp)) for a in comp]


class TestDimensionChecks:
    X4 = fv("0.4", "0.3", "0.2", "0.1")
    Y5 = fv("0.4", "0.3", "0.1", "0.1", "0.1")

    def test_combine_rejects_unequal_dimensions(self):
        with pytest.raises(ValueError, match="dimension mismatch: 4 vs 5"):
            combine_catalysts(self.X4, self.Y5, 2, Z)

    def test_multicopy_scan_rejects_unequal_dimensions(self):
        with pytest.raises(ValueError, match="dimension mismatch: 4 vs 5"):
            multicopy_catalyst_scan(self.X4, self.Y5, Z, 3)

    def test_search_checks_dimensions_before_the_endpoint_filter(self):
        x = fv("0.7", "0.1", "0.1", "0.1")  # x_1 > y_1
        with pytest.raises(ValueError, match="dimension mismatch: 4 vs 5"):
            search_catalyst(x, self.Y5, 2, 10, seed=0)


class TestMulticopyCatalystScan:
    def test_paper_eight_copies(self):
        result = multicopy_catalyst_scan(PAPER_X, PAPER_Y, Z_PRIME, 8)
        assert result[1] is False
        assert result[8] is True
        assert set(result) == set(range(1, 9))

    def test_good_catalyst_all_m(self):
        result = multicopy_catalyst_scan(PAPER_X, PAPER_Y, Z, 2)
        assert result == {1: True, 2: True}

    @staticmethod
    def counting_powers(monkeypatch):
        grown = []
        real = catalysis.tensor_power_spectrum

        def counted(c, m):
            grown.append(m)
            return real(c, m)
        monkeypatch.setattr(catalysis, "tensor_power_spectrum", counted)
        return grown

    def test_excluded_pair_builds_no_power(self, monkeypatch):
        # both endpoint tests pass and one copy fails; the order-2 power
        # sum refutes the pair, so no m works and no c^(x)m past m = 1 is
        # built
        x = fv("0.6", "0.3", "0.05", "0.05")
        y = fv("0.6", "0.25", "0.1", "0.05")
        real = catalysis.tensor_power_spectrum

        def first_only(c, m):
            if m >= 2:
                raise AssertionError("built c^(x)%d" % m)
            return real(c, m)
        monkeypatch.setattr(catalysis, "tensor_power_spectrum", first_only)
        result = multicopy_catalyst_scan(x, y, Z, 2000)
        assert result == dict.fromkeys(range(1, 2001), False)
        assert list(result) == list(range(1, 2001))

    def test_unequal_masses_raise_before_the_exclusion(self):
        # at construction: the light vector of (1/2, 1/2) against
        # (3/10, 3/10) never reaches the scan
        with pytest.raises(ValueError, match="^entries sum to 3/5, not 1 "):
            ProbVec([F(3, 10)] * 2)

    def test_stops_growing_after_first_success(self, monkeypatch):
        # c fails at one copy and works at two: x (x) c^(x)m majorized by
        # y (x) c^(x)m carries over to every larger m
        c = fv(F(3, 7), F(2, 7), F(2, 7))
        grown = self.counting_powers(monkeypatch)
        result = multicopy_catalyst_scan(PAPER_X, PAPER_Y, c, 8)
        assert result == {1: False, **{m: True for m in range(2, 9)}}
        assert list(result) == list(range(1, 9))
        assert grown == [1, 2]


class TestUniformCatalystIsVacuous:
    def test_uniform_catalyst_implies_plain_majorization(self):
        rng = random.Random(103)
        for _ in range(20):
            n = rng.randint(2, 4)
            x = random_rational_vec(rng, n)
            y = random_rational_vec(rng, n)
            for dim_c in (2, 3):
                u = ProbVec([F(1, dim_c)] * dim_c)
                assisted = majorizes(spectrum_tensor(x, u),
                                     spectrum_tensor(y, u)).holds
                assert assisted == majorizes(x, y).holds


class TestFactoredLift:
    def test_lift_is_factored_and_equals_its_expansion(self):
        lifted = lift_catalyst(PAPER_X, PAPER_Y, Z, 3).catalyst
        assert isinstance(lifted, LiftedCatalyst)
        assert (lifted.base, lifted.n_copies) == (Z, 3)
        full = ProbVec(brute_tensor_power(Z, 3))
        z2 = ProbVec(brute_tensor_power(Z, 2))
        assert lifted.expand() == full
        assert lifted == full and full == lifted
        assert lifted != z2 and lifted != Z_PRIME
        assert lifted == LiftedCatalyst(Z, 3)
        assert lifted != LiftedCatalyst(Z, 2)
        assert lifted != LiftedCatalyst(Z_PRIME, 3)
        assert LiftedCatalyst(Z, 2) == LiftedCatalyst(z2, 1)
        assert reduce_catalyst(lifted) == reduce_catalyst(full)

    def test_paper_96_cubed_lift_is_never_expanded(self, monkeypatch):
        c2 = combine_catalysts(PAPER_X, PAPER_Y, 3, Z_PRIME).catalyst
        assert c2.dim == 96

        def refuse(self):
            raise AssertionError("the 96^3 lift was expanded")
        # expand() builds c^(x)3 compressed; its entries are never read
        monkeypatch.setattr(ProbVec, "entries", property(refuse))
        cert = lift_catalyst(PAPER_X, PAPER_Y, c2, 3)
        assert cert.verified
        assert cert.catalyst.dim == 96 ** 3
        assert not hasattr(cert.catalyst, "entries")
        assert cert.catalyst.base == c2

    def test_lift_keeps_the_spectrum_it_built(self, monkeypatch):
        cert = lift_catalyst(PAPER_X, PAPER_Y, Z, 3)
        lifted = cert.catalyst
        want = reduce_catalyst(LiftedCatalyst(Z, 3))

        def refuse(*a, **kw):
            raise AssertionError("rebuilt c^(x)n")
        monkeypatch.setattr(catalysis, "tensor_power_spectrum", refuse)
        assert reduce_catalyst(lifted) is lifted._spectrum
        assert reduce_catalyst(lifted) == want
        assert lifted.to_json() == want.to_json()
        # the kept spectrum is neither compared nor shown
        assert lifted == LiftedCatalyst(Z, 3)
        assert repr(lifted) == repr(LiftedCatalyst(Z, 3))
