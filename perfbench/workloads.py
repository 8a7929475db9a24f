"""Seeded query generators for the three benchmark workloads.

Every workload is a sequence of rounds.  A round has a fixed composition
(operation, vector family, sizes and verdict class per slot); the seed
only draws the numbers.  Runs therefore see the same mix whatever the seed
and however many rounds fit in the measured window, which keeps the
percentiles steady.  Within a run no (operation, x, y, parameters) key is
issued twice, so a memo cache cannot win by replaying queries.

A query is drawn as Fractions by this module.  Its ``prepare`` step turns
them into program inputs (``ProbVec``s, vector files); that is set-up
work, timed for round 0 and kept out of every query latency.  ``run``
receives the prepared inputs; ``check`` receives the result.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from typing import Any, Callable

import oracle

F = Fraction

PAPER_X = [F(2, 5), F(2, 5), F(1, 10), F(1, 10)]
PAPER_Y = [F(1, 2), F(1, 4), F(1, 4), F(0)]
Z = [F(3, 5), F(2, 5)]
Z_PRIME = [F(11, 20), F(9, 20)]
# the acceptance criterion-12 pair: four prime numerators over 17
C12_X = [F(7, 17), F(5, 17), F(3, 17), F(2, 17)]
C12_Y = [F(8, 17), F(4, 17), F(3, 17), F(2, 17)]


@dataclass
class Query:
    op: str
    key: int  # hash of (operation, x, y, parameters)
    prepare: Callable[[], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any], bool]
    props: dict = field(default_factory=dict)


def _primes(lo, hi):
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\0\0"
    for i in range(2, int(hi ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [p for p in range(lo, hi + 1) if sieve[p]]


# numerator pools: distinct primes give collision-free products, powers of
# two collide heavily; "small" keeps denominators within 17..500, "large"
# puts them near 1e4.  Each pool holds enough vectors that every slot of
# MC_SLOTS finds a fresh pair of its class for hundreds of rounds.
NUMERATORS = {
    ("prime", "small"): _primes(2, 31),
    ("prime", "large"): _primes(1000, 4000),
    ("pow2", "small"): [2 ** j for j in range(9)],
    ("pow2", "large"): [2 ** j for j in range(5, 15)],
}


def family_vector(rng, n, d, kind, size):
    """Sorted n-vector with d distinct values p_i / D, p_i from a numerator
    pool and D the sum of the numerators with multiplicity."""
    nums = rng.sample(NUMERATORS[kind, size], d)
    mult = [1] * d
    for _ in range(n - d):
        mult[rng.randrange(d)] += 1
    den = sum(p * m for p, m in zip(nums, mult))
    vals = [F(p, den) for p, m in zip(nums, mult) for _ in range(m)]
    return sorted(vals, reverse=True)


def random_rational(rng, n, den_min, den_max):
    """Random sorted rational probability vector with a denominator drawn
    from [den_min, den_max]."""
    den = rng.randint(den_min, den_max)
    cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
    return sorted((F(b - a, den) for a, b in zip([0] + cuts, cuts + [den])),
                  reverse=True)


def pair_class(x, y):
    """Single-copy relation of a pair: hold (x majorized by y at one copy,
    hence at every k), early (x_1 > y_1: fails at position 1 for every k),
    late (tail x_n < y_n with the head fine) or mid (both endpoints pass,
    one copy fails: the multi-copy question proper)."""
    if oracle.single_copy(x, y)[0] != "fails":
        return "hold"
    if x[0] > y[0]:
        return "early"
    if x[-1] < y[-1]:
        return "late"
    return "mid"


def verdict_class(verdict, first_l, total):
    if verdict != "fails":
        return "hold"
    return "fail_early" if 2 * first_l <= total else "fail_late"


def literal(v):
    return "%d/%d" % (v.numerator, v.denominator)


def catalyst_entries(cat):
    """Entries of a small returned catalyst, expanding a factored form."""
    vals = getattr(cat, "entries", None)
    return vals if vals is not None else cat.expand().entries


def lift_matches(cat, base, copies):
    """Is a lifted catalyst exactly base^(x)copies?

    The lift can hold 96^3 entries, so the check keeps no second copy of
    it: the entries are streamed as runs of equal values against the
    sorted multiset of copies-fold products of base's integer numerators.
    A factored lift (``base`` and ``n_copies`` attributes) is checked on
    its factors; another form without ``entries`` is expanded."""
    factor = getattr(cat, "base", None)
    if getattr(cat, "entries", None) is None and factor is not None:
        return (list(catalyst_entries(factor)) == list(base)
                and getattr(cat, "n_copies", None) == copies)
    nums, den = oracle.to_ints(base)
    scale = den ** copies
    want = iter(sorted(oracle.power_counter(nums, copies).items(),
                       reverse=True))
    for v, run in groupby(catalyst_entries(cat)):
        w = next(want, None)
        if (w is None or v.numerator * scale != w[0] * v.denominator
                or sum(1 for _ in run) != w[1]):
            return False
    return next(want, None) is None


class Workload:
    """Round factory shared by the three workloads."""

    name = ""

    def __init__(self, tk, seed, root, workdir):
        self.tk = tk
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.seen = set()

    def rng(self, tag):
        return random.Random("%s/%d/%s" % (self.name, self.seed, tag))

    def fresh(self, key):
        """Claim a query key; False when it was already issued."""
        h = hash(key)
        if h in self.seen:
            return False
        self.seen.add(h)
        return True

    def probvecs(self, *vecs):
        """A prepare step: one ProbVec per drawn vector."""
        mk = self.tk.make_probvec
        return lambda: [mk([literal(v) for v in vals]) for vals in vecs]

    def warmup(self):
        """Seed-independent queries run during set-up, never measured."""
        raise NotImplementedError

    def round(self, index):
        raise NotImplementedError


# --- multicopy-scan -----------------------------------------------------

# (op, distinct values d, n, k or k_max, family kind, size, pair class);
# d bounds k because enumeration costs C(d+k-1, d-1) per spectrum.  The
# sizes are chosen so that the slots around the 13th and the 22nd-24th
# costliest of the 25 have similar costs: p50 and p90 then fall inside a
# cluster of slots rather than in a gap between two of them.
MC_SLOTS = (
    [("in_Mk", 3, n, k, kind, size, cls) for n, k, kind, size, cls in [
        (4, 6, "prime", "small", "hold"), (5, 10, "pow2", "large", "early"),
        (4, 15, "prime", "large", "late"), (5, 20, "pow2", "small", "mid"),
        (4, 28, "prime", "small", "early"), (5, 42, "pow2", "large", "hold"),
        (4, 45, "pow2", "small", "late"), (5, 60, "prime", "large", "mid")]]
    + [("in_Mk", 4, n, k, kind, size, cls) for n, k, kind, size, cls in [
        (4, 5, "pow2", "small", "early"), (5, 8, "prime", "large", "hold"),
        (4, 12, "pow2", "large", "hold"), (5, 16, "prime", "small", "late"),
        (4, 20, "prime", "small", "mid"), (5, 28, "pow2", "large", "mid"),
        (4, 30, "prime", "large", "early")]]
    + [("in_Mk", 5, 5, k, kind, size, cls) for k, kind, size, cls in [
        (5, "prime", "large", "mid"), (9, "pow2", "small", "hold"),
        (11, "prime", "small", "early"), (16, "pow2", "large", "late")]]
    + [("scan_Mk", d, n, k, kind, size, cls)
       for d, n, k, kind, size, cls in [
           (3, 4, 20, "prime", "small", "mid"),
           (3, 5, 30, "pow2", "large", "hold"),
           (4, 4, 10, "prime", "large", "mid"),
           (4, 5, 14, "pow2", "small", "hold"),
           (5, 5, 8, "prime", "small", "mid"),
           (3, 5, 12, "prime", "large", "early")]]
)


class MulticopyScan(Workload):
    name = "multicopy-scan"

    def pair(self, rng, op, d, n, k, kind, size, cls):
        for _ in range(100000):
            x = family_vector(rng, n, d, kind, size)
            y = family_vector(rng, n, d, kind, size)
            if pair_class(x, y) != cls and pair_class(y, x) == cls:
                x, y = y, x
            if (x != y and pair_class(x, y) == cls
                    and self.fresh((op, tuple(x), tuple(y), k))):
                return x, y
        raise RuntimeError("no fresh %s pair for slot %r"
                           % (cls, (op, d, n, k)))

    def query(self, op, x, y, k, props):
        tk = self.tk
        n = len(x)
        if op == "in_Mk":
            def run(v):
                return tk.in_Mk(v[0], v[1], k)

            def check(got):
                verdict, first = oracle.decide(x, y, k)
                props["verdict"] = verdict_class(verdict, first, n ** k)
                return got == (verdict != "fails")
        else:
            def run(v):
                return tk.scan_Mk(v[0], v[1], k)

            def check(got):
                filtered = not (x[0] <= y[0] and x[-1] >= y[-1])
                want = {kk: "fails" if filtered else oracle.decide(x, y, kk)[0]
                        for kk in range(1, k + 1)}
                if not filtered:
                    verdict, first = oracle.decide(x, y, k)
                    props["verdict"] = verdict_class(verdict, first, n ** k)
                else:
                    props["verdict"] = "fail_early"
                first_ok = next((kk for kk, v in want.items()
                                 if v != "fails"), None)
                return (dict(got.results) == want
                        and got.first_success == first_ok)
        prepare = self.probvecs(x, y)

        def checked(got):
            return check(got) and self.spectra_ok(x, min(k, 5))
        return Query(op, hash((op, tuple(x), tuple(y), k)), prepare, run,
                     checked, props)

    def spectra_ok(self, x, k):
        """Spectrum invariants, and blockwise agreement with the expanded
        products, wherever n**k is small enough to expand."""
        if len(x) ** k > oracle.BRUTE_LIMIT:
            return True
        s = self.tk.tensor_power_spectrum(self.probvecs(x)()[0], k)
        if s.total_count != len(x) ** k or s.total_mass() != 1:
            return False
        nums, den = oracle.to_ints(x)
        want = [F(v, den ** k) for v in oracle.brute_products(nums, k)]
        return [v for v, c in s.blocks for _ in range(c)] == want

    def warmup(self):
        out = [self.query("in_Mk", C12_X, C12_Y, 4, {}),
               self.query("scan_Mk", C12_X, C12_Y, 3, {})]
        for q in out:
            self.seen.add(q.key)
        return out

    def round(self, index):
        rng = self.rng(index)
        out = []
        for slot in MC_SLOTS:
            op, d, n, k, kind, size, cls = slot
            x, y = self.pair(rng, *slot)
            out.append(self.query(op, x, y, k, {
                "collision": kind == "pow2", "distinct_values": d}))
        rng.shuffle(out)
        return out


# --- catalyst-certify ---------------------------------------------------

# per premised instance: (combine k, build k, lift copies, scan m_max
# values, search budget).  k=2 combines give 16-dim catalysts, k=3 give
# 96-dim.  Of the 36 calls a round makes, 13 (searches, combines, one
# small build) cost less than the twelve scans, so the median falls in the
# middle of the scans; the six lifts (four 16^3, two 96^2) cost about the
# same and sit on top, so p90 falls among them rather than between the
# two dimension modes.
CC_SCANS = (10, 12)
CC_SLOTS = [(2, 2, 3, CC_SCANS, 20), (2, 4, 3, CC_SCANS, 20),
            (2, 4, 3, CC_SCANS, 20), (3, 5, 2, CC_SCANS, 20),
            (2, 5, 3, CC_SCANS, 20), (3, 4, 2, CC_SCANS, 20)]
CC_DENOMINATORS = (30, 40)
# least number of distinct values of the combined catalyst (16 and 72 are
# the most that x, y and c' can give); it keeps the cost of a lift alike
# across instances
CC_DISTINCT = {2: 16, 3: 60}


class CatalystCertify(Workload):
    name = "catalyst-certify"

    def instance(self, rng, k, kb):
        """Premised instance in the style of acceptance criterion 11: one
        copy fails, k and kb copies convert, and a 2-dim c' keeps the
        k-copy witness."""
        while True:
            x = random_rational(rng, 4, *CC_DENOMINATORS)
            y = random_rational(rng, 4, *CC_DENOMINATORS)
            cp = random_rational(rng, 2, *CC_DENOMINATORS)
            # x_1 <= y_1 and x_n >= y_n are necessary for every k
            if (x[0] > y[0] or x[-1] < y[-1]
                    or oracle.single_copy(x, y)[0] != "fails"
                    or any(oracle.kernel_compare(x, y, kk)[0] == "fails"
                           for kk in {k, kb})
                    or len(set(oracle.tensor_entries(
                        oracle.mixed_power_entries(x, y, k), cp)))
                    < CC_DISTINCT[k]):
                continue
            if (oracle.catalyst_works(oracle.power_entries(x, k),
                                      oracle.power_entries(y, k), cp)
                    and self.fresh((tuple(x), tuple(y)))):
                return x, y, cp

    def certificate_ok(self, cert, x, y, dim, base=None, copies=1):
        """Re-verify a returned catalyst from its entries: a probability
        vector of the stated size that really catalyzes x -> y.  A lift
        must be exactly base^(x)copies with base a catalyst of x -> y;
        majorization is preserved under tensor products, so that makes it
        a catalyst of the copies-fold pair."""
        cat = cert.catalyst
        if cat.dim != dim:
            return False
        if base is None:
            vals = catalyst_entries(cat)
            works = (oracle.is_probability_vector(vals)
                     and oracle.catalyst_works(x, y, vals))
        else:
            works = (lift_matches(cat, base, copies)
                     and oracle.catalyst_works(x, y, base))
        return works and bool(cert.verified)

    def queries(self, rng, x, y, cp, k, kb, copies, m_maxes, budget):
        tk = self.tk
        prepare = self.probvecs(x, y, cp)
        dim_kb = oracle.mixed_power_dim(len(x), kb)
        dim_c2 = oracle.mixed_power_dim(len(x), k) * len(cp)
        built = {}  # the combined catalyst, input of the lift
        out = []

        def add(op, params, run, check, dim):
            key = (op, tuple(x), tuple(y), params)
            if self.fresh(key):
                out.append(Query(op, hash(key), prepare, run, check,
                                 {"catalyst_dim": dim}))

        add("build_catalyst_thm1", kb,
            lambda v: tk.build_catalyst_thm1(v[0], v[1], kb),
            lambda c: self.certificate_ok(c, x, y, dim_kb), dim_kb)

        def combine(v):
            cert = tk.combine_catalysts(v[0], v[1], k, v[2])
            built["c2"] = cert.catalyst
            return cert
        add("combine_catalysts", (k, tuple(cp)), combine,
            lambda c: self.certificate_ok(c, x, y, dim_c2), dim_c2)

        def lift(v):
            if "c2" not in built:
                built["c2"] = tk.combine_catalysts(v[0], v[1], k,
                                                   v[2]).catalyst
            return tk.lift_catalyst(v[0], v[1], built["c2"], copies)

        def lift_ok(cert):
            return self.certificate_ok(cert, x, y, dim_c2 ** copies,
                                       catalyst_entries(built["c2"]), copies)
        add("lift_catalyst", (k, tuple(cp), copies), lift, lift_ok, dim_c2)

        for m_max in m_maxes:
            add("multicopy_catalyst_scan", (tuple(cp), m_max),
                lambda v, m_max=m_max: tk.multicopy_catalyst_scan(
                    v[0], v[1], v[2], m_max),
                lambda got, m_max=m_max: got == {
                    m: oracle.catalyst_power_works(x, y, cp, m)
                    for m in range(1, m_max + 1)}, len(cp))

        seed = rng.randrange(10 ** 6)

        def search_ok(cert):
            if cert is not None:
                return self.certificate_ok(cert, x, y, 2)
            # absence is legal, but only after the whole lattice pass
            # (15 points at resolutions 10 and 20) found nothing
            return budget < 15 or not any(
                oracle.catalyst_works(x, y, [F(a, r), F(r - a, r)])
                for r in (10, 20) for a in range(r // 2, r))
        add("search_catalyst", (2, budget, seed),
            lambda v: tk.search_catalyst(v[0], v[1], 2, budget, seed),
            search_ok, 2)
        return out

    def warmup(self):
        return self.queries(random.Random(0), C12_X, C12_Y, Z, 1, 1, 2, (4,),
                            20)

    def round(self, index):
        rng = self.rng(index)
        out = []
        if index == 0:
            # the paper pair with z' -- its lift is the one 96^3 = 884736
            # entry materialisation of the run
            out += self.queries(rng, PAPER_X, PAPER_Y, Z_PRIME, 3, 3, 3,
                                (16,), 200)
        for k, kb, copies, m_maxes, budget in CC_SLOTS:
            x, y, cp = self.instance(rng, k, kb)
            out += self.queries(rng, x, y, cp, k, kb, copies, m_maxes,
                                budget)
        return out


# --- decision-batch -----------------------------------------------------

CORPUS = {"x": "x_0.4_0.4_0.1_0.1.json", "y": "y_0.5_0.25_0.25_0.json",
          "z": "z_0.6_0.4.json", "zp": "zprime_0.55_0.45.json"}

# API calls per round: (op, n) -- microsecond-to-millisecond calls
DB_API = ([("make_probvec", n) for n in (2, 3, 5, 8)]
          + [("majorizes", n) for n in (2, 4, 6, 8)]
          + [("r_filter", n) for n in (3, 6)]
          + [("classify_usefulness", n) for n in (4, 7)]
          + [("in_Mk", n) for n in (3, 5)])
# CLI calls per round, one list per perturbed paper pair
DB_CLI = [["majorize", "mlocc", "classify", "rfilter", "catalyst build",
           "catalyst lift"],
          ["majorize", "mlocc", "classify", "rfilter", "catalyst scan",
           "catalyst search", "catalyst combine"]]
ALPHA_GRIDS = ["0,2,4", "-2,0.5,2,8", "-8,-1,3,16", "0.5,2,32"]


class DecisionBatch(Workload):
    name = "decision-batch"

    def __init__(self, tk, seed, root, workdir):
        super().__init__(tk, seed, root, workdir)
        self.corpus = os.path.join(root, "corpus")

    def api_query(self, op, x, y, k=0, raw=None, norm=False):
        tk = self.tk
        key = (op, tuple(x), tuple(y), k)
        self.fresh(key)
        props = {"distinct_values": len(set(x))}
        prepare = self.probvecs(x, y)
        if op == "make_probvec":
            def check(got):
                return list(got.entries) == x
            return Query(op, hash(key), lambda: raw,
                         lambda v: tk.make_probvec(v, normalize=norm),
                         check, props)
        if op == "majorizes":
            def check(rep):
                verdict, first, eqs = oracle.single_copy(x, y)
                fv = rep.first_violation
                return (rep.verdict == verdict and set(rep.equality_indices)
                        == eqs and (fv and fv[0]) == first)
            return Query(op, hash(key), prepare,
                         lambda v: tk.majorizes(v[0], v[1]), check, props)
        if op == "r_filter":
            return Query(op, hash(key), prepare,
                         lambda v: tk.r_filter(v[0], v[1]),
                         lambda got: oracle.renyi_verdict_ok(
                             x, y, tk.DEFAULT_ALPHA_GRID, got.violated,
                             got.violating_alpha), props)
        if op == "classify_usefulness":
            def check(got):
                l, witness = oracle.usefulness(y)
                return (got.useful == (l is not None)
                        and got.witness_l == l
                        and (witness is None
                             or list(got.witness_x.entries) == witness))
            return Query(op, hash(key), prepare,
                         lambda v: tk.classify_usefulness(v[1]), check,
                         props)
        return Query(op, hash(key), prepare,
                     lambda v: tk.in_Mk(v[0], v[1], k),
                     lambda got: got == (oracle.decide(x, y, k)[0]
                                         != "fails"), props)

    def draw_api(self, rng, op, n):
        while True:
            x = random_rational(rng, n, n + 1, 64)
            y = random_rational(rng, n, n + 1, 64)
            k = 1 + n % 3 if op == "in_Mk" else 0
            if op == "r_filter" and any(
                    a != 0 and oracle.renyi_sign(x, y, a) == 0
                    for a in oracle.renyi_orders(
                        x, y, self.tk.DEFAULT_ALPHA_GRID)[2]):
                continue  # near tie: a float evaluation may go either way
            if x != y and hash((op, tuple(x), tuple(y), k)) not in self.seen:
                break
        if op != "make_probvec":
            return self.api_query(op, x, y, k)
        # unnormalized literals half the time
        scale = F(rng.randint(2, 5), rng.randint(1, 3))
        norm = rng.random() < 0.5
        raw = [literal(v * scale if norm else v) for v in x]
        return self.api_query(op, x, y, raw=raw, norm=norm)

    def paper_like(self, rng):
        """Perturbed paper pair: one copy fails, three copies convert and
        z = (0.6, 0.4) catalyzes, so every catalyst subcommand applies."""
        while True:
            a, b, c, e = (F(rng.randint(-20, 20), 1000) for _ in range(4))
            x = sorted([F(2, 5) + a, F(2, 5) - a, F(1, 10) + b,
                        F(1, 10) - b], reverse=True)
            y = sorted([F(1, 2) + c, F(1, 4) - c + e, F(1, 4) - e, F(0)],
                       reverse=True)
            if (oracle.single_copy(x, y)[0] == "fails"
                    and oracle.decide(x, y, 3)[0] != "fails"
                    and oracle.catalyst_works(x, y, Z)
                    and self.fresh(("paper_like", tuple(x), tuple(y)))):
                return x, y

    def cli_expectation(self, rng, sub, x, y):
        """Extra argv for a subcommand and the check of (exit code, JSON)."""
        if sub == "majorize":
            verdict = oracle.single_copy(x, y)[0]
            return [], lambda rc, out: (
                rc == (1 if verdict == "fails" else 0)
                and out["verdict"] == verdict)
        if sub == "mlocc":
            k_max = rng.randint(2, 4)

            def expect(rc, out):
                want = {str(k): oracle.decide(x, y, k)[0]
                        for k in range(1, k_max + 1)}
                ok = any(v != "fails" for v in want.values())
                return rc == (0 if ok else 1) and out["results"] == want
            return ["--k-max", str(k_max)], expect
        if sub == "classify":
            l = oracle.usefulness(y)[0]
            return [], lambda rc, out: rc == 0 and out["witness_l"] == l
        if sub == "rfilter":
            grid = rng.choice(ALPHA_GRIDS)
            alphas = tuple(float(a) for a in grid.split(","))

            def expect(rc, out):
                violated = out["status"] == "violated"
                alpha = out["violating_alpha"]
                alpha = {"inf": math.inf, "-inf": -math.inf}.get(alpha, alpha)
                return (rc == (1 if violated else 0)
                        and oracle.renyi_verdict_ok(x, y, alphas, violated,
                                                    alpha))
            return ["--alpha-grid=" + grid], expect  # may start with "-"
        if sub == "catalyst build":
            kb = next(k for k in range(1, 5)
                      if oracle.decide(x, y, k)[0] != "fails")

            def expect(rc, out):
                cat = [F(v) for v in out["catalyst"]]
                return (rc == 0 and out["verified"]
                        and len(cat) == oracle.mixed_power_dim(len(x), kb)
                        and oracle.is_probability_vector(cat)
                        and oracle.catalyst_works(x, y, cat))
            return ["--k-max", "4"], expect
        if sub == "catalyst combine":
            def expect(rc, out):
                cat = [F(v) for v in out["catalyst"]]
                return (rc == 0 and out["verified"]
                        and len(cat) == 2 * oracle.mixed_power_dim(len(x), 3)
                        and oracle.catalyst_works(x, y, cat))
            return ["--c", self.corpus_file("zp"), "--k", "3"], expect
        if sub == "catalyst lift":
            copies = rng.randint(2, 3)

            def expect(rc, out):
                cat = [F(v) for v in out["catalyst"]]
                return (rc == 0 and out["verified"] and oracle.same_multiset(
                    cat, oracle.power_entries(Z, copies)))
            return ["--c", self.corpus_file("z"), "--n-copies",
                    str(copies)], expect
        if sub == "catalyst scan":
            m_max = rng.randint(2, 8)

            def expect(rc, out):
                want = {str(m): oracle.catalyst_power_works(x, y, Z_PRIME, m)
                        for m in range(1, m_max + 1)}
                return rc == (0 if any(want.values()) else 1) and out == want
            return ["--c", self.corpus_file("zp"), "--m-max",
                    str(m_max)], expect
        assert sub == "catalyst search"

        def expect(rc, out):
            if "catalyst" not in out:
                return rc == 1
            cat = [F(v) for v in out["catalyst"]]
            return rc == 0 and oracle.catalyst_works(x, y, cat)
        return ["--dim-c", "2", "--budget", str(rng.randint(20, 60)),
                "--seed", str(rng.randrange(10 ** 6))], expect

    def corpus_file(self, name):
        return os.path.join(self.corpus, CORPUS[name])

    def cli_queries(self, rng, tag, subs, x=None, y=None, as_json=True):
        """CLI queries on one pair: seeded files when x is None, else the
        corpus files of the paper pair."""
        if x is None:
            x, y = self.paper_like(rng)
            xf = os.path.join(self.workdir, "x%s.json" % tag)
            yf = os.path.join(self.workdir, "y%s.json" % tag)

            def prepare():
                for path, vals in ((xf, x), (yf, y)):
                    with open(path, "w") as fh:
                        json.dump([literal(v) for v in vals], fh)
        else:
            xf, yf = self.corpus_file("x"), self.corpus_file("y")

            def prepare():
                pass
        cli = self.tk.cli
        out = []
        for sub in subs:
            extra, expect = self.cli_expectation(rng, sub, x, y)
            files = ["--y", yf] if sub == "classify" else ["--x", xf,
                                                             "--y", yf]
            args = sub.split() + files + extra + (["--json"] if as_json
                                                  else [])
            key = ("cli", sub, as_json, tuple(extra), tuple(x), tuple(y))
            if not self.fresh(key):
                continue

            def run(_, args=args):
                buf = io.StringIO()
                with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                    try:
                        rc = cli.main(args)
                    except SystemExit as exc:  # argparse usage errors
                        rc = exc.code
                return rc, buf.getvalue()

            def check(got, expect=expect):
                rc, text = got
                return expect(rc, json.loads(text))
            out.append(Query("cli " + sub, hash(key), prepare, run, check,
                             {"distinct_values": len(set(x))}))
        return out

    def warmup(self):
        api = [self.api_query("majorizes", PAPER_Y, PAPER_X),
               self.api_query("r_filter", PAPER_Y, PAPER_X),
               self.api_query("classify_usefulness", PAPER_Y, PAPER_Y),
               self.api_query("in_Mk", PAPER_X, PAPER_Y, 2)]
        # plain-text output keeps these apart from the measured corpus calls
        return api + self.cli_queries(random.Random(0), "w",
                                      ["majorize", "classify"], PAPER_X,
                                      PAPER_Y, as_json=False)

    def round(self, index):
        rng = self.rng(index)
        out = [self.draw_api(rng, op, n) for op, n in DB_API]
        for i, subs in enumerate(DB_CLI):
            out += self.cli_queries(rng, "%d-%d" % (index, i), subs)
        if index == 0:
            # every subcommand once on the corpus files themselves
            out += self.cli_queries(rng, "c", sorted(set(sum(DB_CLI, []))),
                                    PAPER_X, PAPER_Y)
        rng.shuffle(out)
        return out


WORKLOADS = {w.name: w for w in (MulticopyScan, CatalystCertify,
                                 DecisionBatch)}
