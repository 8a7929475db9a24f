"""Catalyst construction, verification, and heuristic search.

The central construction turns any k-copy witness (x^(x)k majorized by
y^(x)k) into an explicit single-copy catalyst: the normalized direct sum
of the k mixed powers x^(k-1-i) (x) y^(i).  Combination with an auxiliary
catalyst and lifting to multiple copies are both constructive; the random
search is an explicitly heuristic stand-in for exact fixed-dimension
algorithms and never interprets absence as nonexistence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from .majorize import majorizes, spectrum_majorizes
from .mlocc import endpoint_filter_passes, in_Mk
from .specvec import (ProbVec, Spectrum, make_probvec, spectrum_of,
                      spectrum_tensor, tensor, tensor_power,
                      tensor_power_spectrum)


@dataclass(frozen=True)
class CatalystCert:
    """A catalyst plus provenance and verification outcome."""
    catalyst: ProbVec
    source: str
    verified: bool
    dim_bound_ok: bool = True

    def to_json(self):
        return {
            "catalyst": self.catalyst.to_json(),
            "source": self.source,
            "verified": self.verified,
            "dim_bound_ok": self.dim_bound_ok,
        }


def reduce_catalyst(c: ProbVec) -> Spectrum:
    """Merged-value display view; the ProbVec itself keeps full length so
    dimension claims stay checkable."""
    return spectrum_of(c)


def _verify_single_copy(x: ProbVec, y: ProbVec, c: ProbVec) -> bool:
    return majorizes(tensor(x, c), tensor(y, c)).holds


def _mixed_power_catalyst(x: ProbVec, y: ProbVec, k: int) -> ProbVec:
    """(1/k) * direct-sum of x^(k-1-i) (x) y^(i), i = 0..k-1.  For k = 1
    this is the trivial scalar catalyst (1)."""
    be = x.backend
    if k == 1:
        return ProbVec([be.one()], be)
    terms = []
    for i in range(k):
        if i == 0:
            terms.append(tensor_power(x, k - 1))
        elif i == k - 1:
            terms.append(tensor_power(y, k - 1))
        else:
            terms.append(tensor(tensor_power(x, k - 1 - i),
                                tensor_power(y, i)))
    return ProbVec([v / k for t in terms for v in t.entries], be)


def build_catalyst_thm1(x: ProbVec, y: ProbVec, k: int) -> CatalystCert:
    """Explicit catalyst from a k-copy witness.

    c = (1/k) * direct-sum of x^(k-1-i) (x) y^(i) for i = 0..k-1, of raw
    dimension k * n^(k-1).  The 1/k normalization is harmless: scaling a
    catalyst by a positive constant scales both sides of every comparison
    identically.  k = 1 degenerates to the trivial scalar catalyst.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not in_Mk(x, y, k):
        raise ValueError("precondition fails: x^(x)%d not majorized by "
                         "y^(x)%d" % (k, k))
    be = x.backend
    c = _mixed_power_catalyst(x, y, k)
    raw_dim = c.dim
    dim_ok = raw_dim == k * x.dim ** (k - 1)
    verified = _verify_single_copy(x, y, c)
    return CatalystCert(c, "thm1_construction(k=%d)" % k, verified, dim_ok)


def combine_catalysts(x: ProbVec, y: ProbVec, k: int,
                      c_prime: ProbVec) -> CatalystCert:
    """Turn a k-copy catalyst-assisted witness into a single-copy catalyst
    c'' = c (x) c', with c the k-copy construction over (x, y)."""
    sx = spectrum_tensor(tensor_power_spectrum(x, k), spectrum_of(c_prime))
    sy = spectrum_tensor(tensor_power_spectrum(y, k), spectrum_of(c_prime))
    if not spectrum_majorizes(sx, sy).holds:
        raise ValueError("precondition fails: x^(x)%d (x) c' not majorized "
                         "by y^(x)%d (x) c'" % (k, k))
    c2 = tensor(_mixed_power_catalyst(x, y, k), c_prime)
    verified = _verify_single_copy(x, y, c2)
    return CatalystCert(c2, "thm2_combination(k=%d)" % k, verified)


def lift_catalyst(x: ProbVec, y: ProbVec, c: ProbVec,
                  n_copies: int) -> CatalystCert:
    """Lift a verified catalyst to n copies: c^(x)n certifies the n-copy
    transformation.  Verification runs on compressed spectra ((x (x) c)^(x)n
    never materializes)."""
    if n_copies < 1:
        raise ValueError("n_copies must be >= 1")
    if not _verify_single_copy(x, y, c):
        raise ValueError("precondition fails: c is not a catalyst for x -> y")
    if n_copies == 1:
        return CatalystCert(c, "lifted(n=1)", True)
    lifted = tensor_power(c, n_copies)
    # (x (x) c)^(x)n and x^(x)n (x) c^(x)n are the same multiset; the
    # factored form enumerates compositions over far fewer distinct values
    sc = tensor_power_spectrum(c, n_copies)
    sx = spectrum_tensor(tensor_power_spectrum(x, n_copies), sc)
    sy = spectrum_tensor(tensor_power_spectrum(y, n_copies), sc)
    verified = spectrum_majorizes(sx, sy).holds
    return CatalystCert(lifted, "lifted(n=%d)" % n_copies, verified)


def multicopy_catalyst_scan(x: ProbVec, y: ProbVec, c: ProbVec,
                            m_max: int) -> Dict[int, bool]:
    """For each m up to m_max: does borrowing m copies of c enable the
    single-copy transformation?  Compressed spectra keep dim(c)^m implicit."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    out = {}
    sx0 = spectrum_of(x)
    sy0 = spectrum_of(y)
    for m in range(1, m_max + 1):
        sc = tensor_power_spectrum(c, m)
        out[m] = spectrum_majorizes(spectrum_tensor(sx0, sc),
                                    spectrum_tensor(sy0, sc)).holds
    return out


def _lattice_candidates(dim_c: int, resolution: int):
    """Sorted rational points on the simplex with denominator `resolution`:
    nonincreasing positive integer compositions of the resolution."""
    def gen(total, parts, cap):
        if parts == 1:
            if 1 <= total <= cap:
                yield (total,)
            return
        lo = -(-total // parts)  # ceil: keep nonincreasing feasible
        for head in range(min(cap, total - parts + 1), lo - 1, -1):
            for rest in gen(total - head, parts - 1, head):
                yield (head,) + rest
    for comp in gen(resolution, dim_c, resolution):
        yield [Fraction(a, resolution) for a in comp]


def search_catalyst(x: ProbVec, y: ProbVec, dim_c: int, budget: int,
                    seed: int = 0) -> Optional[CatalystCert]:
    """Heuristic catalyst search: a coarse lattice pass then seeded random
    sampling of sorted simplex points (rationalized for the exact backend).
    Absence after `budget` trials is a normal outcome, never a proof of
    nonexistence."""
    if dim_c < 1:
        raise ValueError("dim_c must be >= 1")
    if not endpoint_filter_passes(x, y):
        return None
    be = x.backend
    if dim_c == 1:
        c = ProbVec([be.one()], be)
        if _verify_single_copy(x, y, c):
            return CatalystCert(c, "search(seed=%d, dim=1)" % seed, True)
        return None

    trials = 0

    def try_vals(vals):
        nonlocal trials
        trials += 1
        c = make_probvec(vals, normalize=True, backend=be)
        if _verify_single_copy(x, y, c):
            return CatalystCert(
                c, "search(seed=%d, dim=%d)" % (seed, dim_c), True)
        return None

    for resolution in (10, 20):
        for vals in _lattice_candidates(dim_c, resolution):
            if trials >= budget:
                return None
            hit = try_vals(vals if be.exact else [float(v) for v in vals])
            if hit:
                return hit

    rng = random.Random(seed)
    denom = 10 ** 4
    while trials < budget:
        raw = sorted((rng.random() for _ in range(dim_c)), reverse=True)
        if be.exact:
            vals = [Fraction(max(1, round(v * denom)), denom) for v in raw]
        else:
            vals = raw
        hit = try_vals(vals)
        if hit:
            return hit
    return None
