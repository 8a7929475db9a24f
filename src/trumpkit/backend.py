"""Scalar backends: exact big-rational arithmetic or floats with a tolerance.

Every quantity in the toolkit (vector entries, prefix sums, block values)
is a "scalar" owned by a backend.  The exact backend uses
:class:`fractions.Fraction` and never rounds, so boundary cases such as
e_2(x) = e_2(y) are detected reliably.  The float backend compares with a
configurable eps and is meant for quick scans only; all comparison
predicates are heuristic there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ScalarBackend:
    mode: str = "exact"  # "exact" | "float"
    float_eps: float = 1e-12

    def __post_init__(self):
        if self.mode not in ("exact", "float"):
            raise ValueError("mode must be 'exact' or 'float'")
        if self.mode == "float" and not self.float_eps > 0:
            raise ValueError("float_eps must be positive in float mode")

    @property
    def exact(self) -> bool:
        return self.mode == "exact"

    def parse(self, raw):
        """Convert a number or string literal into a backend scalar.

        Exact mode accepts ints, Fractions and strings like "0.4" or "2/5";
        bare floats are rejected there since their binary value is almost
        never the decimal the user meant.  Float mode takes anything float()
        accepts.
        """
        if self.exact:
            if isinstance(raw, float):
                raise ValueError(
                    "float literal %r not allowed in exact mode; "
                    "pass a string like '0.4' or '2/5'" % (raw,))
            return Fraction(raw)
        return float(Fraction(raw)) if isinstance(raw, str) else float(raw)

    def zero(self):
        return Fraction(0) if self.exact else 0.0

    def one(self):
        return Fraction(1) if self.exact else 1.0

    def cmp(self, a, b) -> int:
        """Three-way comparison: -1, 0, +1.  Float mode treats |a-b| <= eps
        as equality (heuristic)."""
        if self.exact:
            return (a > b) - (a < b)
        d = a - b
        if abs(d) <= self.float_eps:
            return 0
        return 1 if d > 0 else -1

    def eq(self, a, b) -> bool:
        return self.cmp(a, b) == 0

    def lt(self, a, b) -> bool:
        return self.cmp(a, b) < 0

    def le(self, a, b) -> bool:
        return self.cmp(a, b) <= 0

    def scaled(self, num, scale):
        """The scalar num / scale.  Exact mode takes integers and returns a
        Fraction; float mode divides."""
        return Fraction(num, scale) if self.exact else num / scale

    def format(self, a) -> str:
        return str(a)


EXACT = ScalarBackend("exact")


def float_backend(eps: float = 1e-12) -> ScalarBackend:
    return ScalarBackend("float", eps)
