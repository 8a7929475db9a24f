"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every verdict is exact, at zero tolerance; only Renyi entropy
values, which are floats, are compared within a stated tolerance.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from trumpkit import (DEFAULT_ALPHA_GRID, ProbVec, build_catalyst_thm1,
                      combine_catalysts, in_Mk, lift_catalyst, majorizes,
                      make_probvec, multicopy_catalyst_scan,
                      classify_usefulness, nonclosedness_witness, r_filter,
                      renyi_entropy, spectrum_majorizes, spectrum_tensor,
                      tensor_power_spectrum)
from trumpkit.renyi import NEG_INF, POS_INF

from conftest import (brute_majorizes, brute_tensor_power,
                      random_majorized_below, random_rational_vec)

F = Fraction

X = make_probvec(["0.4", "0.4", "0.1", "0.1"])
Y = make_probvec(["0.5", "0.25", "0.25", "0"])
Y3 = make_probvec(["0.5", "0.25", "0.25"])
Z = make_probvec(["0.6", "0.4"])
Z_PRIME = make_probvec(["0.55", "0.45"])


def report(num, text):
    print("ACCEPTANCE %2d PASS: %s" % (num, text))


def test_criterion_01_single_copy_fails_at_l2():
    rep = majorizes(X, Y)
    assert rep.verdict == "fails"
    assert rep.first_violation == (2, F(4, 5), F(3, 4))
    report(1, "single copy fails with first violation at l=2 (0.8 vs 0.75)")


def test_criterion_02_multicopy_threshold_at_k3():
    assert not in_Mk(X, Y, 1)
    assert not in_Mk(X, Y, 2)
    assert in_Mk(X, Y, 3)
    report(2, "multi-copy membership false at k=1,2 and true at k=3")


def test_criterion_03_catalyst_z():
    assert majorizes(spectrum_tensor(X, Z), spectrum_tensor(Y, Z)).holds
    report(3, "z=(0.6,0.4) catalyzes the single-copy transformation")


def test_criterion_04_multicopy_catalyst_zprime():
    result = multicopy_catalyst_scan(X, Y, Z_PRIME, 8)
    assert result[1] is False
    assert result[8] is True
    report(4, "z'=(0.55,0.45) fails at m=1 and works at m=8 copies")


def test_criterion_05_constructed_catalyst_48_dim():
    cert = build_catalyst_thm1(X, Y, 3)
    assert cert.catalyst.dim == 48
    assert cert.dim_bound_ok
    assert cert.verified
    report(5, "constructed catalyst has 48 entries and verifies")


def test_criterion_06_usefulness_classification():
    assert not classify_usefulness(Y3).useful
    v = classify_usefulness(Y)
    assert v.useful and v.witness_l == 2
    assert v.witness_x == make_probvec(["0.375", "0.375", "0.125", "0.125"])
    rep = majorizes(v.witness_x, Y)
    assert rep.verdict == "boundary"
    assert rep.equality_indices == {2}
    assert v.witness_x.entries[0] < Y.entries[0]
    assert v.witness_x.entries[-1] > Y.entries[-1]
    report(6, "(0.5,0.25,0.25) not useful; padded target useful with the "
              "boundary witness (0.375,0.375,0.125,0.125)")


def test_criterion_07_nonclosedness_witness():
    w = nonclosedness_witness(Y)
    assert majorizes(Y, w).holds
    assert not majorizes(w, Y).holds
    for k in range(1, 7):
        assert not in_Mk(w, Y, k)
    report(7, "perturbation witness strictly above y and outside every "
              "tested k-copy set")


def test_criterion_08_oracle_equivalence_200():
    rng = random.Random(2024)
    agree = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        x = random_rational_vec(rng, n)
        y = random_rational_vec(rng, n)
        k = rng.randint(1, 4)
        rep = spectrum_majorizes(tensor_power_spectrum(x, k),
                                 tensor_power_spectrum(y, k))
        holds, first_l = brute_majorizes(brute_tensor_power(x, k),
                                         brute_tensor_power(y, k))
        assert rep.holds == holds
        if not holds:
            assert rep.first_violation is not None
            assert rep.first_violation[0] == first_l
        else:
            assert rep.first_violation is None
        agree += 1
    assert agree == 200
    report(8, "compressed vs brute-force majorization agrees in 200/200 "
              "random cases")


def _boundary_with_single_equality(rng, y, d):
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


def test_criterion_09_single_equality_condition_50():
    from trumpkit import lemma3_k_condition
    rng = random.Random(4099)
    checked = 0
    while checked < 50:
        y = random_rational_vec(rng, 4)
        d = 2
        if not (y.entries[0] > y.entries[1] and y.entries[2] > y.entries[3]):
            continue
        x = _boundary_with_single_equality(rng, y, d)
        if x is None:
            continue
        for k in (1, 2, 3, 4):
            cond = lemma3_k_condition(y, d, k)
            rep = spectrum_majorizes(tensor_power_spectrum(x, k),
                                     tensor_power_spectrum(y, k))
            assert cond == (rep.verdict == "strict_interior")
        checked += 1
    report(9, "overlap condition matches the k-copy interior verdict in "
              "50/50 boundary instances")


def test_criterion_10_renyi_coherence():
    rng = random.Random(5077)
    orders = list(DEFAULT_ALPHA_GRID) + [1, 0, POS_INF, NEG_INF]
    for _ in range(100):
        n = rng.randint(2, 4)
        y = random_rational_vec(rng, n, positive=True)
        x = random_majorized_below(rng, y)
        for a in orders:
            assert renyi_entropy(x, a) - renyi_entropy(y, a) >= -1e-9
    # additivity under tensor products
    for _ in range(20):
        x = random_rational_vec(rng, 3, positive=True)
        c = random_rational_vec(rng, 2, positive=True)
        xc = spectrum_tensor(x, c)
        for a in orders:
            assert abs(renyi_entropy(xc, a)
                       - renyi_entropy(x, a) - renyi_entropy(c, a)) <= 1e-9
    # reversed paper pair rejected, visibly at the min-entropy limit
    assert renyi_entropy(Y, POS_INF) < renyi_entropy(X, POS_INF) - 1e-9
    assert r_filter(Y, X).violated
    report(10, "entropy dominance holds for 100 majorized pairs, entropy is "
               "additive, and the reversed pair is rejected")


def test_criterion_11_combine_and_lift_25():
    rng = random.Random(6011)
    done = 0
    while done < 25:
        n = rng.randint(3, 4)
        x = random_rational_vec(rng, n)
        y = random_rational_vec(rng, n)
        if majorizes(x, y).holds:
            continue
        k = next((k for k in (2, 3) if in_Mk(x, y, k)), None)
        if k is None:
            continue
        cp = random_rational_vec(rng, 2)
        sx = spectrum_tensor(tensor_power_spectrum(x, k), cp)
        sy = spectrum_tensor(tensor_power_spectrum(y, k), cp)
        if not spectrum_majorizes(sx, sy).holds:
            continue
        cert = combine_catalysts(x, y, k, cp)
        assert cert.verified
        n_copies = rng.randint(2, 3)
        assert lift_catalyst(x, y, cert.catalyst, n_copies).verified
        done += 1
    report(11, "combined and lifted catalysts verify in 25/25 premised "
               "instances")


def test_criterion_12_performance_gate():
    # four distinct prime-numerator values: no product collisions, so the
    # block count hits the worst case C(33,3) = 5456
    x = make_probvec(["7/17", "5/17", "3/17", "2/17"])
    y = make_probvec(["8/17", "4/17", "3/17", "2/17"])
    s = tensor_power_spectrum(x, 30)
    assert len(s.blocks) == math.comb(33, 3)
    t0 = time.monotonic()
    in_Mk(x, y, 30)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(12, "n=4, k=30 membership check finished in %.2fs "
               "(brute force would need 4^30 entries)" % elapsed)


def test_criterion_12_enumeration_gate():
    # in_Mk settles the criterion-12 pair at one copy (x is majorized by
    # y, hence at every k), so this gate times the k=30 enumeration and
    # walk themselves on the same pair and bound
    x = make_probvec(["7/17", "5/17", "3/17", "2/17"])
    y = make_probvec(["8/17", "4/17", "3/17", "2/17"])
    t0 = time.monotonic()
    sx, sy = tensor_power_spectrum(x, 30), tensor_power_spectrum(y, 30)
    rep = spectrum_majorizes(sx, sy)
    elapsed = time.monotonic() - t0
    assert len(sx.blocks) == math.comb(33, 3)
    assert rep.holds
    assert elapsed < 10.0
    report(12, "n=4, k=30 enumeration and walk finished in %.2fs" % elapsed)
