"""Every public decision runs on the vectors' integers: with both
Fraction views, ProbVec.entries and ProbVec.blocks, patched to raise, on
vectors built before the patch, each returns what it returns unpatched.
The vectors hold zeros, ties, two-block and uniform vectors, at
n = 2..6."""

from fractions import Fraction as F
from itertools import product

import pytest

from trumpkit import (ProbVec, build_catalyst_thm1,
                      check_direct_sum_interior_condition,
                      check_overlap_chain, classify_usefulness,
                      combine_catalysts, corollary4_k_bound, in_Mk,
                      is_generalized_interior, is_interior, is_interior_of_M,
                      lemma3_k_condition, lift_catalyst, majorizes,
                      make_probvec, multicopy_catalyst_scan,
                      nonclosedness_witness, pad_to, r_filter,
                      r_properties_check, renyi_entropy, scan_Mk,
                      search_catalyst, spectrum_majorizes, spectrum_tensor,
                      tensor_power_spectrum)
from trumpkit.renyi import NEG_INF, POS_INF
from trumpkit.specvec import spectrum_direct_sum

VECTORS = [make_probvec(v) for v in (
    ["0.6", "0.4"], ["0.5", "0.5"], ["1", "0"],
    ["0.5", "0.25", "0.25"], ["0.5", "0.3", "0.2"], ["1/3"] * 3,
    ["0.5", "0.5", "0"],
    ["0.4", "0.4", "0.1", "0.1"], ["0.5", "0.25", "0.25", "0"],
    ["0.4", "0.3", "0.2", "0.1"], ["0.25"] * 4,
    ["0.6", "0.3", "0.05", "0.05"], ["0.6", "0.25", "0.1", "0.05"],
    ["0.41", "0.2", "0.2", "0.19"], ["0.3", "0.3", "0.3", "0.1"],
    ["0.3", "0.25", "0.25", "0.2"], ["0.35", "0.35", "0.2", "0.1"],
    ["0.4", "0.2", "0.2", "0.2"],
    ["0.425", "0.325", "0.125", "0.1", "0.025"],
    ["0.5", "0.2", "0.2", "0.075", "0.025"], ["0.2"] * 5,
    ["0.4", "0.2", "0.2", "0.2", "0"],
    ["0.3", "0.2", "0.2", "0.1", "0.1", "0.1"], ["1/6"] * 6,
    ["0.25", "0.25", "0.2", "0.15", "0.15", "0"])]
PAIRS = [(x, y) for x, y in product(VECTORS, repeat=2) if x.dim == y.dim]
Z, Z_PRIME = make_probvec(["0.6", "0.4"]), make_probvec(["0.55", "0.45"])
GRIDS = [None, (POS_INF, NEG_INF, 3, -2, 0.5, -0.5, 2.5), (1.5, 0, -7)]


def outcome(call, *args):
    """What call(*args) returns, or the type and message it raises."""
    try:
        return call(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def decisions():
    """Every public decision on the vectors above, as (name, call, args)."""
    for x, y in PAIRS:
        yield "majorizes", majorizes, (x, y)
        yield "spectrum_majorizes", spectrum_majorizes, (x, y)
        yield "spectrum_tensor", spectrum_tensor, (x, y)
        yield "spectrum_direct_sum", spectrum_direct_sum, ([x, y, x],)
        yield "is_interior", is_interior, (x, y)
        yield "is_generalized_interior", is_generalized_interior, (x, y)
        for k in (1, 2, 3, 5):
            yield "in_Mk", in_Mk, (x, y, k)
        yield "scan_Mk", scan_Mk, (x, y, 6)
        yield "is_interior_of_M", is_interior_of_M, (x, y, 6)
        for grid in GRIDS:
            yield "r_filter", r_filter, (x, y, grid)
        yield "r_properties_check", r_properties_check, (x, y)
        yield "build_catalyst_thm1", build_catalyst_thm1, (x, y, 3)
        yield "combine_catalysts", combine_catalysts, (x, y, 3, Z_PRIME)
        yield "lift_catalyst", lift_catalyst, (x, y, Z, 2)
        yield "multicopy_catalyst_scan", multicopy_catalyst_scan, (x, y, Z,
                                                                   8)
        yield "search_catalyst", search_catalyst, (x, y, 2, 30)
    for y, yp in product(VECTORS, repeat=2):
        yield ("check_direct_sum_interior_condition",
               check_direct_sum_interior_condition, (y, yp))
        yield "check_overlap_chain", check_overlap_chain, ([(y, 1), (yp, 2)],)
        yield "check_overlap_chain", check_overlap_chain, (
            [(y, 1), (yp, 1), (y, 1)],)
    for y in VECTORS:
        yield "classify_usefulness", classify_usefulness, (y,)
        yield "corollary4_k_bound", corollary4_k_bound, (y, 40)
        yield "nonclosedness_witness", nonclosedness_witness, (y,)
        yield "pad_to", pad_to, (y, 6)
        for k in (1, 2, 3, 5):
            yield "tensor_power_spectrum", tensor_power_spectrum, (y, k)
        for d, k in product(range(2, y.dim - 1), range(1, 9)):
            yield "lemma3_k_condition", lemma3_k_condition, (y, d, k)
        for a in (POS_INF, NEG_INF, 0, 1, 2, -3, 0.5, -2.5):
            yield "renyi_entropy", renyi_entropy, (y, a)


def test_decisions_never_read_entries(monkeypatch):
    calls = list(decisions())
    want = [outcome(call, *args) for _, call, args in calls]

    def refuse(self):
        raise AssertionError("a decision read a Fraction view")
    with monkeypatch.context() as patch:
        for view in ("entries", "blocks"):
            patch.setattr(ProbVec, view, property(refuse))
        got = [outcome(call, *args) for _, call, args in calls]
    for (name, _, args), g, w in zip(calls, got, want):
        assert g == w, (name, args)
    # both answers of every yes/no decision are seen
    for name in ("is_interior", "is_generalized_interior", "in_Mk",
                 "check_direct_sum_interior_condition",
                 "check_overlap_chain", "lemma3_k_condition"):
        assert {True, False} <= {w for (n, _, _), w in zip(calls, want)
                                 if n == name}, name
    reports = [w for (n, _, _), w in zip(calls, want) if n == "majorizes"]
    assert {r.verdict for r in reports} == {"fails", "boundary",
                                            "strict_interior"}
    # a failure with an equality just before it
    assert any(r.first_violation and r.first_violation[0] - 1
               in r.equality_indices for r in reports)
    assert {type(w) for (n, _, _), w in zip(calls, want)
            if n == "corollary4_k_bound"} == {int, tuple}


@pytest.mark.parametrize("raw", [["0.4", "0.4", "0.1", "0.1"],
                                 [F(1, 3)] * 3, ["1", "0"]])
def test_vectors_hold_no_entries_until_read(raw):
    x, y = make_probvec(raw), ProbVec([F(v) for v in raw])
    assert x._entries is None and y._entries is None
    assert x == y and x.entries == tuple(sorted(map(F, raw), reverse=True))
