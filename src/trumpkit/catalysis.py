"""Catalyst construction, verification, and heuristic search.

The central construction turns any k-copy witness (x^(x)k majorized by
y^(x)k) into an explicit single-copy catalyst: the normalized direct sum
of the k mixed powers x^(k-1-i) (x) y^(i).  Combination with an auxiliary
catalyst and lifting to multiple copies are both constructive; the random
search is an explicitly heuristic stand-in for exact fixed-dimension
algorithms: absence after its trials is never read as nonexistence, and
only a failed endpoint test or an exact power-sum refutation
(renyi._exclusion) stops it before any trial.

Construction runs on the vectors' integers, and a lift to n copies is
returned factored (LiftedCatalyst), so c^(x)n is built only when its
expand() is called.  Every check x (x) c majorized by y (x) c is one
signed pass over the product values (majorize._product_majorizes):
x (x) c is never built.
"""

from __future__ import annotations

import random
from itertools import chain, islice
from typing import Dict, NamedTuple, Optional, Union

from .majorize import _product_majorizes, _verdict
from .mlocc import in_Mk
from .renyi import _exclusion
from .specvec import (ProbVec, _check_dims, _from_counts, _normalized,
                      spectrum_direct_sum, spectrum_tensor,
                      tensor_power_spectrum, tensor_powers)


class LiftedCatalyst:
    """c^(x)n kept factored as its base catalyst c and copy count n.

    ``dim``, ``==`` and ``to_json`` answer as the expanded vector would.
    ``expand()`` builds c^(x)n, compressed, on its first call and keeps
    it in ``_spectrum`` (left out of ``==``, repr and pickles), as
    ProbVec.blocks keeps its view; only reading that vector's entries
    builds its base.dim ** n_copies Fractions.  Immutable and unhashable,
    and not a sequence: ``len()`` raises, as a length would be read as
    the catalyst's dimension.
    """

    __slots__ = ("base", "n_copies", "_spectrum")

    def __init__(self, base: ProbVec, n_copies: int):
        for name, value in zip(self.__slots__, (base, n_copies, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("LiftedCatalyst is immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        return "LiftedCatalyst(base=%r, n_copies=%r)" % (self.base,
                                                         self.n_copies)

    def __reduce__(self):
        return LiftedCatalyst, (self.base, self.n_copies)

    @property
    def dim(self) -> int:
        return self.base.dim ** self.n_copies

    def expand(self) -> ProbVec:
        """The vector c^(x)n, built on the first call and kept."""
        if self._spectrum is None:
            object.__setattr__(self, "_spectrum", tensor_power_spectrum(
                self.base, self.n_copies))
        return self._spectrum

    def __eq__(self, other):
        if isinstance(other, LiftedCatalyst):
            if (other.base, other.n_copies) == (self.base, self.n_copies):
                return True
        elif not isinstance(other, ProbVec):
            return NotImplemented
        return other.dim == self.dim and self.expand() == other

    def to_json(self):
        return self.expand().to_json()


class CatalystCert(NamedTuple):
    """A catalyst plus provenance and verification outcome."""
    catalyst: Union[ProbVec, LiftedCatalyst]
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


def reduce_catalyst(c: Union[ProbVec, LiftedCatalyst]) -> ProbVec:
    """The vector of a catalyst, factored or not."""
    return c.expand() if isinstance(c, LiftedCatalyst) else c


_ONE = _from_counts({1: 1}, 1)


def _powers(x: ProbVec, k: int):
    """x^(x)0 = (1), x^(x)1, ..., x^(x)k, each grown from the one before
    (tensor_powers)."""
    return [_ONE, *tensor_powers(x, k)]


def _mixed_power_catalyst(px, py) -> ProbVec:
    """The catalyst (1/k) * direct-sum of x^(k-1-i) (x) y^(i), i = 0..k-1,
    from the powers px and py, 0..k-1, of x and y (_powers): the k terms
    merged over one common scale.  For k = 1 it is the trivial scalar
    catalyst (1)."""
    return spectrum_direct_sum([spectrum_tensor(a, b)
                                for a, b in zip(reversed(px), py)])


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
    return _thm1_catalyst(x, y, k)


def _thm1_catalyst(x: ProbVec, y: ProbVec, k: int) -> CatalystCert:
    """build_catalyst_thm1 without its premise check, for a k >= 1 that a
    scan (mlocc.scan_Mk) has already found to be a member, so the k-sweep
    does not run twice.  The certificate is still verified."""
    c = _mixed_power_catalyst(_powers(x, k - 1), _powers(y, k - 1))
    dim_ok = c.dim == k * x.dim ** (k - 1)
    verified = _product_majorizes(x, y, c)
    return CatalystCert(c, "thm1_construction(k=%d)" % k, verified, dim_ok)


def combine_catalysts(x: ProbVec, y: ProbVec, k: int,
                      c_prime: ProbVec) -> CatalystCert:
    """Turn a k-copy catalyst-assisted witness into a single-copy catalyst
    c'' = c (x) c', with c the k-copy construction over (x, y).  The
    powers 1..k of x and y are grown once: the k-th for the premise, the
    others for c."""
    _check_dims(x, y)
    if k < 1:
        raise ValueError("k must be >= 1")
    px, py = _powers(x, k), _powers(y, k)
    if not _product_majorizes(px[k], py[k], c_prime):
        raise ValueError("precondition fails: x^(x)%d (x) c' not majorized "
                         "by y^(x)%d (x) c'" % (k, k))
    c2 = spectrum_tensor(_mixed_power_catalyst(px[:k], py[:k]), c_prime)
    verified = _product_majorizes(x, y, c2)
    return CatalystCert(c2, "thm2_combination(k=%d)" % k, verified)


def lift_catalyst(x: ProbVec, y: ProbVec, c: ProbVec,
                  n_copies: int) -> CatalystCert:
    """Lift a verified catalyst to n copies: c^(x)n certifies the n-copy
    transformation.  For n_copies > 1 the catalyst is returned factored
    (a LiftedCatalyst), and verification runs on compressed powers:
    (x (x) c)^(x)n is never built.  x, y and c serve the premise check
    and are the bases of the three powers; the lift keeps the c^(x)n it
    built."""
    if n_copies < 1:
        raise ValueError("n_copies must be >= 1")
    _check_dims(x, y)
    if not _product_majorizes(x, y, c):
        raise ValueError("precondition fails: c is not a catalyst for x -> y")
    if n_copies == 1:
        return CatalystCert(c, "lifted(n=1)", True)
    # (x (x) c)^(x)n and x^(x)n (x) c^(x)n are the same multiset; the
    # factored form enumerates compositions over far fewer distinct values
    lifted = LiftedCatalyst(c, n_copies)
    verified = _product_majorizes(tensor_power_spectrum(x, n_copies),
                                  tensor_power_spectrum(y, n_copies),
                                  lifted.expand())
    return CatalystCert(lifted, "lifted(n=%d)" % n_copies, verified)


def multicopy_catalyst_scan(x: ProbVec, y: ProbVec, c: ProbVec,
                            m_max: int) -> Dict[int, bool]:
    """For each m up to m_max: does borrowing m copies of c enable the
    single-copy transformation?  Compressed powers keep dim(c)^m
    implicit.

    The answer is monotone in m: tensoring both sides of x (x) c^(x)m
    majorized by y (x) c^(x)m with c^(x)(m'-m) gives every m' > m.  So
    the result is fixed by its least working m, which a galloping search
    finds: m = 1, 2, 4, ... (the last probe capped at m_max) until one
    works, then bisection of the last gap.  That takes at most
    2 * ceil(log2 m_max) + 2 probes, and no c^(x)m is built past twice
    the least working m (past m_max when none works).  When the probe
    m = 1 fails and the pair is excluded (renyi._exclusion), no catalyst
    of any dimension works, and every m fails with no further power
    built."""
    _check_dims(x, y)
    if m_max < 1:
        raise ValueError("m_max must be >= 1")

    def works(m):
        return _product_majorizes(x, y, tensor_power_spectrum(c, m))

    lo, hi = 0, 1  # lo fails (0 stands for "none probed"); hi is probed
    while not works(hi):
        if hi == m_max or not lo and _exclusion(x, y) is not None:
            return dict.fromkeys(range(1, m_max + 1), False)
        lo, hi = hi, min(2 * hi, m_max)
    while hi - lo > 1:  # lo fails, hi works
        mid = (lo + hi) // 2
        if works(mid):
            hi = mid
        else:
            lo = mid
    return {m: m >= hi for m in range(1, m_max + 1)}


def _lattice_candidates(dim_c: int, resolution: int):
    """Sorted points on the simplex with denominator `resolution`, as
    their numerators: the nonincreasing positive integer compositions of
    the resolution."""
    def gen(total, parts, cap):
        if parts == 1:
            if 1 <= total <= cap:
                yield (total,)
            return
        lo = -(-total // parts)  # ceil: keep nonincreasing feasible
        for head in range(min(cap, total - parts + 1), lo - 1, -1):
            for rest in gen(total - head, parts - 1, head):
                yield (head,) + rest
    return gen(resolution, dim_c, resolution)


def _random_candidates(dim_c: int, seed: int):
    """Seeded sorted simplex points, without end: dim_c uniform draws,
    sorted nonincreasing, each given as a positive integer numerator over
    10^4 (a trial normalizes them)."""
    rng = random.Random(seed)
    while True:
        raw = sorted((rng.random() for _ in range(dim_c)), reverse=True)
        yield tuple(max(1, round(v * 10 ** 4)) for v in raw)


def _candidates(dim_c: int, seed: int):
    """The search's one candidate stream, as tuples of positive integers
    that a trial divides by their sum: the lattice points of resolution
    10, then of resolution 20, then seeded random points."""
    return chain(_lattice_candidates(dim_c, 10),
                 _lattice_candidates(dim_c, 20),
                 _random_candidates(dim_c, seed))


def search_catalyst(x: ProbVec, y: ProbVec, dim_c: int, budget: int,
                    seed: int = 0) -> Optional[CatalystCert]:
    """Heuristic catalyst search: `budget` trials (budget >= 0) from the
    candidate stream (_candidates); at dim_c = 1 the one point (1) is
    tried whatever the budget.  A trial tests the vector of the
    candidate's integers over their sum (specvec._normalized), and a hit
    returns that vector.
    Absence after the trials is a normal outcome, never a proof of
    nonexistence.  When the one-copy walk on x and y fails and the pair
    is excluded (_exclusion: a failed endpoint test or a refuting power
    sum), None comes back without a trial, since then no catalyst of any
    dimension exists."""
    found = _search(x, y, dim_c, budget, seed)
    return found if isinstance(found, CatalystCert) else None


def _search(x: ProbVec, y: ProbVec, dim_c: int, budget: int,
            seed: int) -> Union[CatalystCert, str, int, None]:
    """search_catalyst's answer, with the reason in place of None when the
    pair is excluded: the _exclusion label or order, which the CLI
    reports."""
    if dim_c < 1:
        raise ValueError("dim_c must be >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    _check_dims(x, y)
    if _verdict(x, y) == "fails":
        reason = _exclusion(x, y)
        if reason is not None:
            return reason
    trials = 1 if dim_c == 1 else budget
    for comp in islice(_candidates(dim_c, seed), trials):
        c = _normalized(comp)
        if _product_majorizes(x, y, c):
            return CatalystCert(c, "search(seed=%d, dim=%d)" % (seed, dim_c),
                                True)
    return None
