import copy
import math
import pickle
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trumpkit import (ProbVec, make_probvec, pad_to, spectrum_tensor,
                      tensor_power_spectrum)
from trumpkit import specvec
from trumpkit.specvec import (parse_vector_literal, spectrum_direct_sum,
                              tensor_powers)

from conftest import brute_tensor, brute_tensor_power, random_rational_vec


F = Fraction


def fv(*args):
    return make_probvec([F(a) for a in args])


class TestMakeProbvec:
    def test_sorts_nonincreasing(self):
        x = make_probvec(["0.1", "0.4", "0.1", "0.4"])
        assert x.entries == (F(2, 5), F(2, 5), F(1, 10), F(1, 10))

    def test_one_dimensional_identity(self):
        assert make_probvec(["1"]).entries == (F(1),)

    def test_normalize_scales_by_sum(self):
        x = make_probvec([2, 1, 1], normalize=True)
        assert x.entries == (F(1, 2), F(1, 4), F(1, 4))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            make_probvec(["-0.1", "1.1"])

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            make_probvec([0, 0], normalize=True)

    def test_unnormalized_without_flag_rejected(self):
        with pytest.raises(ValueError):
            make_probvec(["0.5", "0.4"])

    def test_float_literal_rejected_in_exact_mode(self):
        with pytest.raises(ValueError):
            make_probvec([0.4, 0.6])

    def test_zeros_retained(self):
        x = make_probvec(["0.5", "0.25", "0.25", "0"])
        assert x.dim == 4
        assert x.nonzero_dim == 3


class TestOneValidation:
    """ProbVec(raw) and make_probvec(raw) check raw entries alike: a
    vector is a probability vector from the moment it is built."""

    BUILD = pytest.mark.parametrize("build", [ProbVec, make_probvec],
                                    ids=["ProbVec", "make_probvec"])

    @BUILD
    @pytest.mark.parametrize("raw, message", [
        (["3/10", "3/10"], "^entries sum to 3/5, not 1 "),
        ([F(3, 10)] * 2, "^entries sum to 3/5, not 1 "),
        (["3/2", "-1/2"], "^negative entry -1/2$"),
        ([F(3, 2), F(-1, 2)], "^negative entry -1/2$"),
        ([0.5, 0.5], "^float literal 0.5 not allowed"),
        ([True], "^entry True is not a number literal$"),
        ([None, 1], "^entry None is not a number literal$"),
        (["1/0", "1"], "^entry '1/0' has a zero denominator$"),
        ([], "^empty input$"),
        (["0", "0"], "^zero total mass$"),
    ], ids=["sum-str", "sum-fraction", "negative-str", "negative-fraction",
            "float", "bool", "none", "zero-denominator", "empty", "zeros"])
    def test_rejects(self, build, raw, message):
        with pytest.raises(ValueError, match=message):
            build(raw)

    @BUILD
    def test_accepts_exact_literals(self, build):
        want = (F(2, 5), F(2, 5), F(1, 5))
        for raw in (["0.4", "2/5", "0.2"], [F(2, 5), "0.4", F(1, 5)],
                    iter(["1/5", "0.4", "2/5"])):
            assert build(raw).entries == want
        assert build([1]).entries == (F(1),)
        assert build(["1/2", "1/2"]) == make_probvec(["0.5", "0.5"])

    def test_one_helper_behind_both(self, monkeypatch):
        seen = []
        real = specvec._checked_numerators

        def recording(raw, normalize=False):
            seen.append(normalize)
            return real(raw, normalize)
        monkeypatch.setattr(specvec, "_checked_numerators", recording)
        ProbVec(["0.5", "0.5"])
        make_probvec(["0.5", "0.5"])
        make_probvec([1, 1], normalize=True)
        assert seen == [False, False, True]


def fraction_state(raws, normalize=False):
    """Reference for the state (_int_vals, _counts, _scale) that
    ProbVec(raws), or make_probvec(raws, normalize=True), builds: each
    entry read by Fraction(raw), a zero denominator reported in the
    library's words; none negative, not all zero; the numerators over
    the lcm of the reduced denominators, summing to it, or, normalized,
    divided by their gcd over their sum."""
    vals = []
    for raw in raws:
        try:
            vals.append(Fraction(raw))
        except ZeroDivisionError:
            raise ValueError("entry %r has a zero denominator"
                             % (raw,)) from None
    if not vals:
        raise ValueError("empty input")
    for v in vals:
        if v < 0:
            raise ValueError("negative entry %s" % (v,))
    scale = math.lcm(*(v.denominator for v in vals))
    nums = [v.numerator * (scale // v.denominator) for v in vals]
    if not any(nums):
        raise ValueError("zero total mass")
    if normalize:
        g = math.gcd(*nums)
        nums = [u // g for u in nums]
        scale = sum(nums)
    elif sum(nums) != scale:
        raise ValueError("entries sum to %s, not 1 (pass normalize=True "
                         "to rescale)" % (F(sum(nums), scale),))
    counts = Counter(nums)
    vals = sorted(counts, reverse=True)
    return vals, [counts[v] for v in vals], scale


def outcome(fn, *args):
    """fn's result, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


DIGITS = st.text("0123456789", min_size=1, max_size=40)
SIGN = st.sampled_from(["", "+", "-"])
ZEROS = st.text("0", max_size=3)
# the plain literals _parse reads to integers itself: signs, leading
# zeros, long digit runs, 0/d, unreduced and zero denominators
PLAIN = st.one_of(
    st.builds("{}{}{}".format, SIGN, ZEROS, DIGITS),
    st.builds("{}{}{}/{}{}".format, SIGN, ZEROS, DIGITS, ZEROS, DIGITS),
    st.builds("{}{}{}.{}".format, SIGN, ZEROS, DIGITS, DIGITS),
    st.builds("{}{}/{}".format, SIGN, st.integers(0, 10 ** 6),
              st.integers(0, 9)),
    st.builds(lambda n, d, k: "%d/%d" % (n * k, d * k),
              st.integers(-9, 9), st.integers(1, 9), st.integers(1, 99)))


def decimal(v, places):
    """v >= 0, whose denominator divides 10**places, as "whole.frac"."""
    whole, frac = divmod(v.numerator * 10 ** places // v.denominator,
                         10 ** places)
    return "%d.%s" % (whole, str(frac).zfill(places))


@st.composite
def rendered_vectors(draw, normalize):
    """Entries each kept as a Fraction or written in a drawn form: p/q,
    p/q times k/k, with a sign and leading zeros, an int or an integer
    literal, a decimal with trailing zeros.  A probability vector unless
    normalize, when nonnegative entries not all zero are drawn."""
    weights = draw(st.lists(st.integers(0, 10 ** 4), min_size=1,
                            max_size=8).filter(any))
    total = draw(st.integers(1, 10 ** 4)) if normalize else sum(weights)
    raws = []
    for w in weights:
        v = F(w, total)
        k = draw(st.integers(1, 50))
        forms = [v, str(v), "+0" + str(v),
                 "%d/%d" % (v.numerator * k, v.denominator * k)]
        if v.denominator == 1:
            forms += [v.numerator, "00" + str(v)]
        places = next((m for m in range(7) if 10 ** m % v.denominator == 0),
                      None)
        if places is not None:
            forms.append(decimal(v, places + 1 + k % 4))
        raws.append(draw(st.sampled_from(forms)))
    return raws


class TestParse:
    # a plain literal is read straight to integers, every other string
    # by Fraction(raw), and either way the pair, the vector's state and
    # every error are what reading each entry by Fraction gives

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(PLAIN)
    # past int's digit limit, in one part or only in both together
    @example("1" * 5000)
    @example("-" + "1" * 4301 + "/3")
    @example("1/" + "1" * 4301)
    @example("0." + "1" * 4301)
    @example("9" * 3000 + "." + "9" * 3000)
    def test_plain_literal_pair_is_fractions_value(self, raw):
        try:
            want = Fraction(raw)
        except ZeroDivisionError:
            want = (ValueError, "entry %r has a zero denominator" % (raw,))
        except ValueError as exc:  # past int's digit limit
            want = (ValueError, str(exc))
        else:
            # read without building a Fraction, to a pair of its value
            def refuse(*a):
                raise AssertionError("built a Fraction")
            with mock.patch.object(specvec, "Fraction", refuse):
                n, d = specvec._parse(raw)
            assert type(n) is int and type(d) is int and d > 0
            assert F(n, d) == want
            return
        assert outcome(specvec._parse, raw) == want

    @pytest.mark.parametrize("raw", [
        "1e-1", " 0.4 ", "1_0/2_0", "1.2.3", "1/ 2", "+.5", ".5", "5.",
        "2.5E+1", "\u0663/\u0664", "\u0660.\u0665", "\uff11\uff12", "1/0",
        "-3/0", "0/0", "abc", "", "/5", "1/-2", "1.5/2", "nan", "inf",
        "0x10", "--1", "+", ".", "1__0", "1/2\n", "\t3"])
    def test_other_strings_read_by_fraction(self, raw):
        try:
            f = Fraction(raw)
        except ZeroDivisionError:
            want = (ValueError, "entry %r has a zero denominator" % (raw,))
        except ValueError as exc:
            want = (ValueError, str(exc))
        else:
            want = (f.numerator, f.denominator)
        assert outcome(specvec._parse, raw) == want

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rendered_vectors(normalize=False))
    def test_vector_state_is_the_fraction_routes(self, raws):
        want = fraction_state(raws)
        assert state(ProbVec(raws)) == state(make_probvec(raws)) == want

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rendered_vectors(normalize=True), st.lists(PLAIN, max_size=2))
    def test_normalized_state_is_the_fraction_routes(self, raws, extra):
        # the extra plain literals bring negative entries and zero
        # denominators, whose errors must read alike too
        raws = raws + extra
        assert (outcome(lambda: state(make_probvec(raws, normalize=True)))
                == outcome(fraction_state, raws, True))


class TestJsonNumbers:
    # a JSON number is read as the decimal it is written as
    @pytest.mark.parametrize("text, want", [
        ("[0.4, 1e-1, 5e-1]", (F(1, 2), F(2, 5), F(1, 10))),
        ("[0.25, 2.5E-1, 50e-2, 0.0]", (F(1, 2), F(1, 4), F(1, 4), 0)),
        ('[1, 0, "0"]', (1, 0, 0))])
    def test_json_numbers_read_as_written(self, text, want):
        assert parse_vector_literal(text).entries == want

    @pytest.mark.parametrize("text, message", [
        ("[0.4, 1e-1, 5]", "^entries sum to 11/2, not 1 "),
        ("[-0.5, 1.5]", "^negative entry -1/2$"),
        ("[0.0, 0e5]", "^zero total mass$")])
    def test_json_numbers_keep_the_errors(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_vector_literal(text)


class TestTensorAndDirectSum:
    # the vectors of spectrum_tensor and spectrum_direct_sum
    def test_tensor_direct_expansion(self):
        a = fv("0.6", "0.4")
        assert spectrum_tensor(a, a).entries == (
            F(9, 25), F(6, 25), F(6, 25), F(4, 25))

    def test_tensor_identity_element(self):
        x = fv("0.4", "0.4", "0.1", "0.1")
        assert spectrum_tensor(x, fv("1")) == x

    def test_tensor_uneven_dims(self):
        got = spectrum_tensor(fv("0.5", "0.5"), fv("0.5", "0.25", "0.25"))
        assert got.entries == (F(1, 4), F(1, 4), F(1, 8), F(1, 8),
                               F(1, 8), F(1, 8))

    def test_direct_sum_renormalized(self):
        got = spectrum_direct_sum([fv("0.6", "0.4"), fv("0.5", "0.5")])
        assert got.entries == (F(3, 10), F(1, 4), F(1, 4), F(1, 5))

    def test_direct_sum_self(self):
        x = fv("0.6", "0.4")
        got = spectrum_direct_sum([x, x])
        assert got.entries == (F(3, 10), F(3, 10), F(1, 5), F(1, 5))

    def test_direct_sum_trivial(self):
        got = spectrum_direct_sum([fv("1"), fv("1")])
        assert got.entries == (F(1, 2), F(1, 2))

    def test_mass_preserved(self):
        rng = random.Random(7)
        for _ in range(20):
            a = random_rational_vec(rng, rng.randint(1, 4))
            b = random_rational_vec(rng, rng.randint(1, 4))
            assert spectrum_tensor(a, b).total_mass() == 1
            assert spectrum_direct_sum([a, b]).total_mass() == 1


class TestTensorPowerSpectrum:
    def test_uniform_vector(self):
        s = tensor_power_spectrum(fv("0.5", "0.5"), 3)
        assert s.blocks == ((F(1, 8), 8),)
        assert s.total_count == 8

    def test_binomial_expansion(self):
        s = tensor_power_spectrum(fv("0.6", "0.4"), 2)
        assert s.blocks == ((F(9, 25), 1), (F(6, 25), 2), (F(4, 25), 1))

    def test_paper_vector_cubed(self):
        # frozen from the brute-force expansion of all 4^3 products
        s = tensor_power_spectrum(fv("0.4", "0.4", "0.1", "0.1"), 3)
        assert s.blocks == ((F(8, 125), 8), (F(2, 125), 24),
                            (F(1, 250), 24), (F(1, 1000), 8))
        assert s.total_count == 64

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            tensor_power_spectrum(fv("1"), 0)

    def test_matches_bruteforce_expansion(self):
        rng = random.Random(11)
        for _ in range(30):
            x = random_rational_vec(rng, rng.randint(1, 4))
            k = rng.randint(1, 4)
            s = tensor_power_spectrum(x, k)
            flat = []
            for v, c in s.blocks:
                flat.extend([v] * c)
            assert flat == brute_tensor_power(x, k)

    def test_block_count_bound(self):
        rng = random.Random(13)
        for _ in range(30):
            x = random_rational_vec(rng, rng.randint(1, 4))
            k = rng.randint(1, 5)
            d = len(x.blocks)
            s = tensor_power_spectrum(x, k)
            assert len(s.blocks) <= math.comb(d - 1 + k, d - 1)

    def test_total_mass_one(self):
        s = tensor_power_spectrum(fv("0.4", "0.4", "0.1", "0.1"), 5)
        assert s.total_mass() == 1

    def test_more_distinct_values_than_the_recursion_limit(self):
        # from S_1 the chain of d * |S_1| = d^2 block products is priced
        # below 3 * C(d + 1, 2) compositions, so S_2 is one
        # spectrum_tensor step; the enumeration walks its compositions
        # with an explicit stack, so it builds S_2 too, at any d
        d = 1200
        x = make_probvec([F(i) for i in range(1, d + 1)], normalize=True)
        want = spectrum_tensor(x, x)
        for s in tensor_power_spectrum(x, 2), specvec._enumerate(x, 2):
            assert (s._int_vals, s._counts, s._scale) == (
                want._int_vals, want._counts, want._scale)
        assert want.total_count == d ** 2


class TestPrefixMass:
    def test_paper_target(self):
        s = fv("0.5", "0.25", "0.25", "0")
        assert s.prefix_mass(2) == F(3, 4)

    def test_zero_prefix(self):
        s = fv("0.6", "0.4")
        assert s.prefix_mass(0) == 0

    def test_partial_block(self):
        # frozen: brute-force sort of all 64 products puts 0.064 first 8 times
        s = tensor_power_spectrum(fv("0.4", "0.4", "0.1", "0.1"), 3)
        assert s.prefix_mass(5) == F(8, 125) * 5

    def test_out_of_range(self):
        s = fv("1")
        with pytest.raises(ValueError):
            s.prefix_mass(2)

    @pytest.mark.parametrize("l", [2.9, 2.0, "3", True, None],
                             ids=repr)
    def test_non_integer_position(self, l):
        # refused, not truncated: int(2.9) would read e_2
        s = fv("0.4", "0.3", "0.2", "0.1")
        with pytest.raises(ValueError, match="must be an int"):
            s.prefix_mass(l)

    def test_monotone_and_concave(self):
        rng = random.Random(17)
        for _ in range(10):
            x = random_rational_vec(rng, rng.randint(2, 4))
            s = tensor_power_spectrum(x, 3)
            prev = F(0)
            incs = []
            for l in range(1, s.total_count + 1):
                cur = s.prefix_mass(l)
                incs.append(cur - prev)
                assert cur >= prev
                prev = cur
            assert incs == sorted(incs, reverse=True)


class TestSpectrumTensor:
    def test_matches_probvec_tensor(self):
        rng = random.Random(19)
        for _ in range(15):
            a = random_rational_vec(rng, rng.randint(1, 4))
            b = random_rational_vec(rng, rng.randint(1, 4))
            assert spectrum_tensor(a, b) == ProbVec(brute_tensor(a, b))


class TestSerialization:
    def test_vector_literal_roundtrip(self):
        x = parse_vector_literal('["0.4", "2/5", "0.1", "1/10"]')
        assert x.entries == (F(2, 5), F(2, 5), F(1, 10), F(1, 10))
        assert parse_vector_literal(str(x.to_json()).replace("'", '"')) == x

    def test_bad_literal(self):
        with pytest.raises(ValueError):
            parse_vector_literal('{"not": "a vector"}')

    @pytest.mark.parametrize("x, k", [(fv("0.5", "0.3", "0.2"), 5),
                                      (fv("0.5", "0.25", "0.25", "0"), 3)])
    def test_spectrum_pickles_and_copies(self, x, k):
        # rebuilt from its integer state; a power with a zero entry too
        s = tensor_power_spectrum(x, k)
        for again in (pickle.loads(pickle.dumps(s)), copy.copy(s),
                      copy.deepcopy(s)):
            assert again == s
            assert ((again._int_vals, again._counts, again._scale)
                    == (s._int_vals, s._counts, s._scale))
            assert again.total_count == s.total_count


# Fraction vectors with zeros and repeated values: few distinct parts
REPR_PARTS = st.lists(st.sampled_from([0, 1, 1, 2, 3, 7, 1999]),
                      min_size=1, max_size=6).filter(any)
REPR = settings(max_examples=60, deadline=None, derandomize=True)


def fractions_of(parts):
    """The parts over their sum, in the drawn (unsorted) order."""
    return [F(a, sum(parts)) for a in parts]


def state(s):
    return s._int_vals, s._counts, s._scale


class TestRepresentation:
    """A ProbVec is its integer spectrum; blocks and entries are Fraction
    views."""

    @REPR
    @given(REPR_PARTS)
    def test_entries_and_spectrum_of_the_input(self, parts):
        vals = fractions_of(parts)
        for x in (ProbVec(vals), make_probvec(parts, normalize=True),
                  make_probvec(vals)):
            assert x.entries == tuple(sorted(vals, reverse=True))
            runs = sorted(Counter(vals).items(), reverse=True)
            assert x.blocks == tuple(runs)
            assert x.total_count == x.dim == len(vals)
            assert x.nonzero_dim == sum(1 for v in vals if v)
            assert x.total_mass() == 1 and x.is_uniform() == (len(runs) == 1)
            assert [x.prefix_mass(l) for l in range(x.dim + 1)] == [
                sum(x.entries[:l], F(0)) for l in range(x.dim + 1)]
        # the three builds share one state: lowest terms over one scale
        assert len({repr(state(x)) for x in (
            ProbVec(vals), make_probvec(parts, normalize=True),
            make_probvec(vals))}) == 1

    @REPR
    @given(REPR_PARTS.filter(lambda p: len(p) <= 4), st.integers(1, 3))
    def test_expanded_power_is_the_brute_power(self, parts, k):
        x = ProbVec(fractions_of(parts))
        got = tensor_power_spectrum(x, k)
        # a power is a vector, and builds no entries until read
        assert got.dim == x.dim ** k
        assert got._entries is None
        brute = brute_tensor_power(x, k)
        assert list(got.entries) == brute
        assert got == ProbVec(brute) and hash(got) == hash(ProbVec(brute))

    def test_huge_power_reads_only_its_blocks(self, monkeypatch):
        # 2^70 entries in 71 blocks: more than len() can return
        x = make_probvec(["0.6", "0.4"])
        s = tensor_power_spectrum(x, 70)
        again = tensor_power_spectrum(ProbVec(x.entries), 70)

        def refuse(self):
            raise AssertionError("read the entries of a 2^70-entry power")
        monkeypatch.setattr(ProbVec, "entries", property(refuse))
        assert s.dim == 2 ** 70 and len(s.blocks) == 71
        a, b = F(3, 5), F(2, 5)
        text = repr(s)
        assert text.startswith("ProbVec(%s, %s x70, " % (a ** 70,
                                                          a ** 69 * b))
        assert text.endswith(" x70, %s)" % (b ** 70,))
        assert bool(s)
        assert s == again and hash(s) == hash(again)
        assert s != tensor_power_spectrum(x, 69)

    @REPR
    @given(REPR_PARTS)
    def test_pickles_and_copies_round_trip(self, parts):
        x = ProbVec(fractions_of(parts))
        for again in (pickle.loads(pickle.dumps(x)),
                      pickle.loads(pickle.dumps(x, protocol=2)),
                      copy.copy(x), copy.deepcopy(x)):
            assert again == x and hash(again) == hash(x)
            assert again.entries == x.entries
            assert state(again) == state(x)


class TestPadTo:
    def test_pads_with_zeros(self):
        y = pad_to(fv("0.5", "0.25", "0.25"), 4)
        assert y.entries == (F(1, 2), F(1, 4), F(1, 4), F(0))

    def test_shrink_rejected(self):
        with pytest.raises(ValueError):
            pad_to(fv("0.5", "0.5"), 1)


class TestTensorPowerSpectrumOneCopy:
    def test_many_distinct_values_need_no_enumeration(self):
        # k = 1 is x itself: nothing is chained or enumerated
        x = make_probvec([F(i) for i in range(1, 1201)], normalize=True)
        s = tensor_power_spectrum(x, 1)
        assert s is x
        assert len(s.blocks) == s.total_count == 1200


class TestTensorPowers:
    def test_collision_free_steps_switch_to_enumeration(self, monkeypatch):
        # six prime numerators: no product collisions, so S_k grows as
        # fast as the compositions and the late steps enumerate
        x = make_probvec([13, 11, 7, 5, 3, 2], normalize=True)
        want = [state(tensor_power_spectrum(x, k)) for k in range(1, 9)]
        calls = {"tensor": 0, "enumerate": 0}
        for name, key in (("spectrum_tensor", "tensor"),
                          ("_enumerate", "enumerate")):
            def counting(*a, _f=getattr(specvec, name), _k=key):
                calls[_k] += 1
                return _f(*a)
            monkeypatch.setattr(specvec, name, counting)
        assert [state(s) for s in tensor_powers(x, 8)] == want
        assert calls["tensor"] and calls["enumerate"]

    def test_colliding_values_never_enumerate(self, monkeypatch):
        x = make_probvec([8, 4, 2, 1, 1], normalize=True)
        want = [state(tensor_power_spectrum(x, k)) for k in range(1, 21)]

        def refuse(*a):
            raise AssertionError("enumerated")
        monkeypatch.setattr(specvec, "_enumerate", refuse)
        assert [state(s) for s in tensor_powers(x, 20)] == want

    def test_zero_length_chain(self):
        assert list(tensor_powers(fv("0.6", "0.4"), 0)) == []

    def test_s1_is_the_kept_spectrum_and_not_rebuilt(self, monkeypatch):
        x = make_probvec([13, 11, 7, 5, 3, 2], normalize=True)
        want = [state(s) for s in tensor_powers(ProbVec(x.entries), 8)]

        def refuse(*a):
            raise AssertionError("built S_1 again")
        monkeypatch.setattr(specvec, "_numerators", refuse)
        chain = list(tensor_powers(x, 8))
        assert chain[0] is x
        assert tensor_power_spectrum(x, 1) is x
        assert [state(s) for s in chain] == want
