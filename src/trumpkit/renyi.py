"""Renyi entropies and the entropy-dominance necessary-condition filter.

The one-parameter entropy family sgn(a)/(1-a) * log2(sum_i x_i^a), summed
over the nonzero entries only, with the four limit cases a -> 0, 1, +inf,
-inf.  A state convertible to y (with or without catalysts or extra
copies) must dominate y's whole entropy spectrum, so a single grid point
where the source's entropy dips below the target's disproves
convertibility.  The filter is one-sided: a finite grid can refute but
never certify dominance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .specvec import ProbVec

POS_INF = math.inf
NEG_INF = -math.inf

#: Default evaluation grid (limits and a=1 are always added on top).
DEFAULT_ALPHA_GRID = (-64.0, -32.0, -16.0, -8.0, -4.0, -2.0, -0.5,
                      0.0, 0.5, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def _nonzero(x: ProbVec):
    be = x.backend
    return [v for v in x.entries if not be.eq(v, 0)]


def power_sum(x: ProbVec, alpha: int) -> Fraction:
    """Exact sum of x_i^alpha over nonzero entries, for integer alpha.
    Exact-backend only; powers of rationals stay rational."""
    if not x.backend.exact:
        raise ValueError("exact power sums require the exact backend")
    return sum((v ** alpha for v in _nonzero(x)), Fraction(0))


def renyi_entropy(x: ProbVec, alpha) -> float:
    """Renyi entropy at any extended-real order.

    Integer orders go through exact power sums before the single log;
    non-integer orders evaluate in floating point even on the exact
    backend (irrational powers have no exact representation).
    """
    nz = _nonzero(x)
    d = len(nz)
    if alpha == POS_INF:
        return -math.log2(float(max(nz)))
    if alpha == NEG_INF:
        return math.log2(float(min(nz)))
    if alpha == 0:
        return math.log2(d)
    if alpha == 1:
        return -sum(float(v) * math.log2(float(v)) for v in nz)
    sgn = 1.0 if alpha >= 0 else -1.0
    if x.backend.exact and float(alpha) == int(alpha):
        s = power_sum(x, int(alpha))
        # big-int-safe log2: exact power sums overflow float at large |alpha|
        log_s = math.log2(s.numerator) - math.log2(s.denominator)
    else:
        log_s = math.log2(sum(float(v) ** float(alpha) for v in nz))
    return sgn / (1.0 - float(alpha)) * log_s


@dataclass(frozen=True)
class RFilterVerdict:
    status: str  # "violated" | "no_violation_found"
    violating_alpha: Optional[float] = None
    mode: str = "dims_equal"  # "dims_differ" | "dims_equal"
    grid_used: tuple = ()
    float_alphas_used: bool = False  # non-integer orders went through floats

    @property
    def violated(self) -> bool:
        return self.status == "violated"

    def to_json(self):
        va = self.violating_alpha
        if va is not None and math.isinf(va):
            va = "inf" if va > 0 else "-inf"
        return {
            "status": self.status,
            "violating_alpha": va,
            "mode": self.mode,
            "grid_used": ["inf" if math.isinf(a) and a > 0 else
                          "-inf" if math.isinf(a) else a
                          for a in self.grid_used],
            "float_alphas_used": self.float_alphas_used,
        }


def _entropy_diff_sign(x: ProbVec, y: ProbVec, alpha,
                       tol: float = 1e-12) -> int:
    """Sign of S(x) - S(y) at one order.  Integer orders on the exact
    backend compare power sums exactly (the log and prefactor only flip or
    keep orientation); everything else uses floats with a tolerance."""
    be = x.backend
    is_finite = not (isinstance(alpha, float) and math.isinf(alpha))
    if be.exact and is_finite and float(alpha) == int(alpha) \
            and int(alpha) not in (0, 1):
        a = int(alpha)
        px, py = power_sum(x, a), power_sum(y, a)
        # S-order vs power-sum order: reversed for a > 1 and a < 0,
        # preserved for 0 < a < 1
        flip = a > 1 or a < 0
        c = (px > py) - (px < py)
        return -c if flip else c
    dx = renyi_entropy(x, alpha) - renyi_entropy(y, alpha)
    if abs(dx) <= tol:
        return 0
    return 1 if dx > 0 else -1


def r_filter(x: ProbVec, y: ProbVec, grid=None) -> RFilterVerdict:
    """Entropy-dominance check of x against target y.

    With d_x > d_y only nonnegative orders are tested; with d_x = d_y the
    whole real line is.  d_x < d_y is an immediate violation (already
    visible at order 0, where entropy is log2 of the nonzero count).
    Reports the first grid order where x's entropy is strictly below y's;
    "no_violation_found" is not a membership certificate.
    """
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    if grid is None:
        grid = DEFAULT_ALPHA_GRID
    if not grid:
        raise ValueError("empty alpha grid")
    d_x, d_y = x.nonzero_dim, y.nonzero_dim
    if d_x < d_y:
        return RFilterVerdict("violated", violating_alpha=0.0,
                              mode="dims_differ", grid_used=(0.0,))
    mode = "dims_differ" if d_x > d_y else "dims_equal"
    alphas = [0, 1, POS_INF]
    if mode == "dims_equal":
        alphas.append(NEG_INF)
    for a in grid:
        if mode == "dims_differ" and a < 0:
            continue
        alphas.append(a)
    float_used = any(not math.isinf(a) and float(a) != int(a)
                     for a in alphas if not math.isinf(a))
    for a in alphas:
        if _entropy_diff_sign(x, y, a) < 0:
            return RFilterVerdict("violated", violating_alpha=float(a),
                                  mode=mode, grid_used=tuple(alphas),
                                  float_alphas_used=float_used)
    return RFilterVerdict("no_violation_found", mode=mode,
                          grid_used=tuple(alphas),
                          float_alphas_used=float_used)


def equal_by_power_sums(x: ProbVec, y: ProbVec) -> bool:
    """Decisive multiset-equality test on the exact backend: matching power
    sums at orders 1..n force equal sorted vectors (Newton's identities
    determine the elementary symmetric polynomials, hence the multiset)."""
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    n = x.dim
    return all(power_sum(x, a) == power_sum(y, a) for a in range(1, n + 1))


def r_properties_check(x: ProbVec, y: ProbVec, grid=None) -> dict:
    """Structural consistency record for one pair: the endpoint conditions
    a dominance pass must imply, bidirectional grid passes, and the exact
    equality verdict."""
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    be = x.backend
    forward = r_filter(x, y, grid)
    backward = r_filter(y, x, grid)
    rec = {
        "head_ok": be.le(x.entries[0], y.entries[0]),
        "tail_ok": be.le(y.entries[-1], x.entries[-1]),
        "forward_pass": not forward.violated,
        "backward_pass": not backward.violated,
    }
    rec["bidirectional_pass"] = rec["forward_pass"] and rec["backward_pass"]
    if be.exact:
        rec["exactly_equal"] = equal_by_power_sums(x, y)
        # bidirectional grid passes on distinct vectors flag grid
        # insufficiency, not membership
        rec["grid_insufficient"] = (rec["bidirectional_pass"]
                                    and not rec["exactly_equal"])
    return rec
