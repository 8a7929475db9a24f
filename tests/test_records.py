"""The result records, pinned: repr, immutability, equality, hashing, JSON
and pickling for all six types, and a fresh import of trumpkit, which
builds them, that pulls in none of the heavy standard-library modules."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import trumpkit
from trumpkit import (LiftedCatalyst, classify_usefulness, lift_catalyst,
                      majorizes, make_probvec, r_filter, scan_Mk)


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
