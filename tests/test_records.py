"""The result records, pinned: repr, immutability, equality, hashing, JSON
and pickling for all six types; the input checks of the constructors and
scans that build them; and a fresh import of trumpkit, which builds
them, that pulls in none of the heavy standard-library modules."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import trumpkit
from trumpkit import (LiftedCatalyst, build_catalyst_thm1,
                      check_overlap_chain, classify_usefulness,
                      combine_catalysts, lemma3_k_condition, lift_catalyst,
                      majorizes, make_probvec, multicopy_catalyst_scan,
                      r_filter, scan_Mk)


def fv(*args):
    return make_probvec([Fraction(a) for a in args])


X = fv("0.4", "0.4", "0.1", "0.1")
Y = fv("0.5", "0.25", "0.25", "0")
Z = fv("0.6", "0.4")

# build, a field, repr, to_json(), hashable
RECORDS = [
    pytest.param(
        lambda: majorizes(X, Y), "verdict",
        "MajReport(verdict='fails', equality_indices=frozenset(), "
        "first_violation=(2, Fraction(4, 5), Fraction(3, 4)), "
        "zero_segment=False)",
        {"verdict": "fails", "equality_indices": [],
         "first_violation": {"l": "2", "ex": "4/5", "ey": "3/4"}},
        True, id="MajReport"),
    pytest.param(
        lambda: scan_Mk(X, Y, 3), "results",
        "MloccScan(x=ProbVec(2/5 x2, 1/10 x2), "
        "y=ProbVec(1/2, 1/4 x2, 0), k_max=3, "
        "results={1: 'fails', 2: 'fails', 3: 'strict_interior'}, "
        "first_success=3, short_circuited=False, refuting_order=None)",
        {"k_max": 3,
         "results": {"1": "fails", "2": "fails", "3": "strict_interior"},
         "first_success": 3, "short_circuited": False,
         "refuting_order": None},
        False, id="MloccScan"),
    pytest.param(
        lambda: classify_usefulness(Y), "useful",
        "UsefulnessVerdict(useful=True, witness_l=2, "
        "witness_x=ProbVec(3/8 x2, 1/8 x2))",
        {"useful": True, "witness_l": 2,
         "witness_x": ["3/8", "3/8", "1/8", "1/8"]},
        True, id="UsefulnessVerdict"),
    pytest.param(
        lambda: lift_catalyst(X, Y, Z, 1), "verified",
        "CatalystCert(catalyst=ProbVec(3/5, 2/5), source='lifted(n=1)', "
        "verified=True, dim_bound_ok=True)",
        {"catalyst": ["3/5", "2/5"], "source": "lifted(n=1)",
         "verified": True, "dim_bound_ok": True},
        True, id="CatalystCert"),
    pytest.param(
        lambda: lift_catalyst(X, Y, Z, 2), "catalyst",
        "CatalystCert(catalyst=LiftedCatalyst(base=ProbVec(3/5, 2/5), "
        "n_copies=2), source='lifted(n=2)', verified=True, "
        "dim_bound_ok=True)",
        {"catalyst": ["9/25", "6/25", "6/25", "4/25"],
         "source": "lifted(n=2)", "verified": True, "dim_bound_ok": True},
        False, id="CatalystCert-lifted"),
    pytest.param(
        lambda: r_filter(Y, X, (2, 0.5)), "status",
        "RFilterVerdict(status='violated', violating_alpha=0.0, "
        "mode='dims_differ', grid_used=(0.0,), float_alphas_used=False)",
        {"status": "violated", "violating_alpha": 0.0, "mode": "dims_differ",
         "grid_used": [0.0], "float_alphas_used": False},
        True, id="RFilterVerdict"),
    pytest.param(
        lambda: lift_catalyst(X, Y, Z, 2).catalyst, "base",
        "LiftedCatalyst(base=ProbVec(3/5, 2/5), n_copies=2)",
        ["9/25", "6/25", "6/25", "4/25"],
        False, id="LiftedCatalyst"),
]


@pytest.mark.parametrize("build, field, text, as_json, hashable", RECORDS)
def test_record_behaviour(build, field, text, as_json, hashable):
    rec = build()
    assert repr(rec) == text
    assert rec.to_json() == as_json
    for name in (field, "note"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    again = build()
    assert rec == again and not rec != again
    if hashable:
        assert hash(rec) == hash(again)
    else:
        with pytest.raises(TypeError):
            hash(rec)
    assert pickle.loads(pickle.dumps(rec)) == rec
    if isinstance(rec, LiftedCatalyst):
        # a factored catalyst answers as its expansion, and is no tuple
        assert rec == rec.expand() and rec.expand() == rec
        assert "_spectrum" not in text and rec._spectrum is not None
        with pytest.raises(TypeError):
            len(rec)


# a call, and the error it raises or the value it returns
INPUT_CHECKS = [
    pytest.param(lambda: build_catalyst_thm1(X, Y, 0),
                 ValueError("k must be >= 1"), id="build_catalyst_thm1-k0"),
    pytest.param(lambda: combine_catalysts(X, Y, 0, Z),
                 ValueError("k must be >= 1"), id="combine_catalysts-k0"),
    pytest.param(lambda: lift_catalyst(X, Y, Z, 0),
                 ValueError("n_copies must be >= 1"), id="lift_catalyst-n0"),
    pytest.param(lambda: multicopy_catalyst_scan(X, Y, Z, 0),
                 ValueError("m_max must be >= 1"),
                 id="multicopy_catalyst_scan-m0"),
    pytest.param(lambda: scan_Mk(X, Y, 0), ValueError("k_max must be >= 1"),
                 id="scan_Mk-k0"),
    pytest.param(lambda: lemma3_k_condition(Y, 2, 0),
                 ValueError("k must be >= 1"), id="lemma3_k_condition-k0"),
    pytest.param(lambda: check_overlap_chain([]), ValueError("empty chain"),
                 id="check_overlap_chain-empty"),
    pytest.param(lambda: setattr(X, "dim", 5),
                 AttributeError("ProbVec is immutable"), id="ProbVec-set"),
    # LiftedCatalyst.__eq__ answers NotImplemented to a non-vector, so
    # Python falls back to identity instead of reading other.dim
    pytest.param(lambda: LiftedCatalyst(Z, 2) == "text", False,
                 id="LiftedCatalyst-eq-text"),
]


@pytest.mark.parametrize("call, want", INPUT_CHECKS)
def test_input_checks(call, want):
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as info:
            call()
        assert str(info.value) == str(want)
    else:
        assert call() is want


HEAVY_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_import_pulls_in_no_heavy_module():
    # module sets only: import timings are too noisy to assert on
    src = str(Path(trumpkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = ("import sys; before = set(sys.modules); "
            "import trumpkit, trumpkit.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True,
                         timeout=60)
    added = set(out.stdout.split())
    assert "trumpkit.cli" in added
    assert not added & HEAVY_MODULES, sorted(added & HEAVY_MODULES)
