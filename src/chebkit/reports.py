"""Small result carriers used by the checking and calculator operations.

Inequality checks return a ``BoundReport`` with both sides and the margin,
so tests and the CLI can inspect magnitudes instead of bare booleans.
Quantities that routinely overflow double precision (``exp(188)`` and
friends) are carried as ``PowerValue`` in natural-log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking ``lhs <= rhs``."""

    lhs: float
    rhs: float
    passed: bool
    label: str = ""
    heuristic: bool = False

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @staticmethod
    def compare(lhs: float, rhs: float, label: str = "",
                heuristic: bool = False) -> "BoundReport":
        return BoundReport(lhs=lhs, rhs=rhs, passed=bool(lhs <= rhs), label=label,
                           heuristic=heuristic)


@dataclass(frozen=True)
class PowerValue:
    """A positive quantity stored as its natural logarithm.

    ``value`` materializes the float when representable and returns ``inf``
    past the double-precision range; ``log`` is always exact to rounding.
    """

    log: float

    @property
    def value(self) -> float:
        if self.log > 709.0:  # exp overflows float64 just above 709.78
            return math.inf
        return math.exp(self.log)

    def scaled(self, constant: float) -> "PowerValue":
        if constant <= 0:
            raise ValueError("constant must be positive")
        return PowerValue(self.log + math.log(constant))

    @staticmethod
    def power(base: float, exponent: float) -> "PowerValue":
        if base <= 0:
            raise ValueError("base must be positive")
        return PowerValue(exponent * math.log(base))

    @staticmethod
    def sum(terms: "list[PowerValue]") -> "PowerValue":
        """log-sum-exp of several log-space terms."""
        if not terms:
            raise ValueError("need at least one term")
        m = max(t.log for t in terms)
        if math.isinf(m):
            return PowerValue(m)
        return PowerValue(m + math.log(sum(math.exp(t.log - m) for t in terms)))
