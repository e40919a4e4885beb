"""Calculators for the explicit analytic quantities: the logarithmic
complexity of an extension, zero-density and zero-repulsion thresholds,
Deuring-Heilbronn exclusion, the classical Brun-Titchmarsh constant, and
the x-range thresholds of the counting theorems.

These are formula evaluators, not theorem provers: implied constants are
exposed as explicit multiplier parameters (default 1) and quantities that
overflow doubles are returned in log space as :class:`PowerValue`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError
from .reports import PowerValue

# the repulsion/exclusion theorems assume the complexity is "sufficiently
# large"; below this value results are flagged as outside that regime
ASYMPTOTIC_REGIME_CUTOFF = 10.0


@dataclass(frozen=True)
class FieldInvariants:
    """Arithmetic invariants (n_K, D_K, Q, [L:K], ramified set, delta0)."""

    n_K: int
    D_K: float
    Q: float
    degree_LK: int = 1
    ramified_primes: frozenset = field(default_factory=frozenset)
    delta0: float = 1e-3

    def __post_init__(self):
        if self.n_K < 1:
            raise DomainError("n_K must be a positive integer")
        if self.D_K < 1 or self.Q < 1:
            raise DomainError("D_K and Q must be >= 1")
        if self.degree_LK < 1:
            raise DomainError("degree_LK must be >= 1")
        if not (0 < self.delta0 <= 0.01):
            raise DomainError("delta0 must lie in (0, 0.01]")
        object.__setattr__(self, "ramified_primes", frozenset(self.ramified_primes))


@dataclass(frozen=True)
class ComplexityResult:
    """Value of the logarithmic complexity with the branch that produced it."""

    value: float
    degree_dominated: bool    # True when n_K^(5 n_K/6) >= D_K^(4/3) Q^(4/9)
    asymptotic: bool          # False flags "outside the stated large-L regime"


def log_complexity(inv: FieldInvariants) -> ComplexityResult:
    """Two-case logarithmic complexity controlling all range thresholds.

    Degree-dominated case:
        (1/3+d0) log D_K + (19/36+d0) log Q + (5/12+d0) n_K log n_K
    otherwise:
        (1+d0) log D_K + (3/4+d0) log Q + d0 n_K log n_K
    """
    d0 = inv.delta0
    ld, lq = math.log(inv.D_K), math.log(inv.Q)
    nlogn = inv.n_K * math.log(inv.n_K)
    degree_dominated = (5.0 / 6.0) * nlogn >= (4.0 / 3.0) * ld + (4.0 / 9.0) * lq
    if degree_dominated:
        value = (1 / 3 + d0) * ld + (19 / 36 + d0) * lq + (5 / 12 + d0) * nlogn
    else:
        value = (1 + d0) * ld + (3 / 4 + d0) * lq + d0 * nlogn
    return ComplexityResult(value=value, degree_dominated=degree_dominated,
                            asymptotic=value >= ASYMPTOTIC_REGIME_CUTOFF)


def density_bound_from_L(L: float, n_K: int, sigma: float, T: float,
                         constant: float = 1.0) -> PowerValue:
    """Log-free zero-density bound (e^(162 L) T^(81 n_K + 162))^(1-sigma).

    sigma = 1 is admitted as the exponent-zero limit (the bound collapses
    to the implied constant there).
    """
    if not (0 < sigma <= 1):
        raise DomainError("density bound requires 0 < sigma <= 1")
    if T < 1:
        raise DomainError("density bound requires T >= 1")
    log_val = (1.0 - sigma) * (162.0 * L + (81.0 * n_K + 162.0) * math.log(T))
    return PowerValue(log_val).scaled(constant)


def density_bound(inv: FieldInvariants, sigma: float, T: float,
                  constant: float = 1.0) -> PowerValue:
    return density_bound_from_L(log_complexity(inv).value, inv.n_K, sigma, T, constant)


def low_lying_density_bound(lam: float, clamp: bool = False) -> PowerValue:
    """Count bound e^(162 lam + 188) on low-lying zeros within distance lam.

    With ``clamp`` the zero-free/repulsion facts cap the count at 1 for
    lam <= 0.0875 and at 2 for lam <= 0.2866.
    """
    if lam < 0:
        raise DomainError("lam must be nonnegative")
    if clamp:
        if lam <= 0.0875:
            return PowerValue(0.0)
        if lam <= 0.2866:
            return PowerValue(math.log(2.0))
    return PowerValue(162.0 * lam + 188.0)


def repulsion_threshold(lambda1: float, eta: float = 1e-2) -> float:
    """Best available lower bound on the next-zero distance min(lam', lam2).

    Always at least 0.2866; when a zero sits at lambda1 < 0.0875 the
    repulsion bounds 0.44 and, for eta <= lambda1, 0.2103*log(1/lambda1)
    become available and the largest applicable value is returned.
    """
    if lambda1 <= 0:
        raise DomainError("lambda1 must be positive")
    if eta <= 0:
        raise DomainError("eta must be positive")
    if lambda1 >= 0.0875:
        return 0.2866
    if eta <= lambda1:
        return max(0.44, 0.2103 * math.log(1.0 / lambda1))
    return 0.44


def deuring_heilbronn_from_L(L: float, n_K: int, beta1: float, T: float,
                             c1: float = 1.0) -> float:
    """Exclusion boundary: with a real zero at beta1, every other zero of
    height <= T satisfies

        beta < 1 - log(c1 / ((1-beta1)(L + n_K log T))) / (81 L + 25 n_K log T).
    """
    if T < 1:
        raise DomainError("exclusion requires T >= 1")
    if not (0.5 <= beta1 < 1):
        raise DomainError("exclusion requires 1/2 <= beta1 < 1")
    if c1 <= 0:
        raise DomainError("c1 must be positive")
    logt = math.log(T)
    num = math.log(c1 / ((1.0 - beta1) * (L + n_K * logt)))
    return 1.0 - num / (81.0 * L + 25.0 * n_K * logt)


def deuring_heilbronn_exclusion(inv: FieldInvariants, beta1: float, T: float,
                                c1: float = 1.0) -> float:
    return deuring_heilbronn_from_L(log_complexity(inv).value, inv.n_K, beta1, T, c1)


def brun_titchmarsh_constant(theta: float) -> float:
    """Classical Brun-Titchmarsh constant C(theta), piecewise in theta.

    Branch boundaries use closed intervals on the side stated by the
    piecewise definition: theta = 1/8 and 9/20 belong to the lower branch,
    theta = 2/3 to the upper one.
    """
    if not (0 < theta < 1):
        raise DomainError("C(theta) requires 0 < theta < 1")
    if theta <= 0.125:
        return 2.0
    if theta <= 0.45:
        return 16.0 / (8.0 - 3.0 * theta)
    if theta < 2.0 / 3.0:
        return 8.0 / (6.0 - 7.0 * theta)
    return (2.0 - ((1.0 - theta) / 4.0) ** 6) / (1.0 - theta)


@dataclass(frozen=True)
class RangeReport:
    """The four x-range thresholds, log-space, plus the complexity M."""

    basic: PowerValue      # D^246 Q^185 + D^82 Q^130 n^(246 n)
    balanced: PowerValue   # D^164 Q^123 + D^55 Q^87 n^(68 n) + D^2 Q^2 n^(14000 n)
    sharp: PowerValue      # D^695 Q^522 + D^232 Q^367 n^(290 n)
    compact: PowerValue    # (M n_K)^(n_K), from log x >> n_K log(M n_K)
    complexity: float      # M = [L:K] D_K^(1/n_K) prod(ramified primes)


def extension_complexity(inv: FieldInvariants) -> float:
    """M = [L:K] * D_K^(1/n_K) * product of ramified rational primes."""
    return inv.degree_LK * inv.D_K ** (1.0 / inv.n_K) * math.prod(inv.ramified_primes, start=1.0)


def _power_sum(ld: float, lq: float, lnn: float, n: int,
               terms: list[tuple[float, float, float]], constant: float) -> PowerValue:
    parts = [PowerValue(a * ld + b * lq + c * n * lnn) for a, b, c in terms]
    return PowerValue.sum(parts).scaled(constant)


def range_thresholds(inv: FieldInvariants, constant: float = 1.0) -> RangeReport:
    """Evaluate all four x-range thresholds for the counting theorems.

    ``constant`` multiplies the three power-law thresholds directly and
    scales the exponent of the compact (log x) form.
    """
    ld, lq = math.log(inv.D_K), math.log(inv.Q)
    lnn = math.log(inv.n_K)
    n = inv.n_K
    basic = _power_sum(ld, lq, lnn, n, [(246, 185, 0), (82, 130, 246)], constant)
    balanced = _power_sum(ld, lq, lnn, n,
                          [(164, 123, 0), (55, 87, 68), (2, 2, 14000)], constant)
    sharp = _power_sum(ld, lq, lnn, n, [(695, 522, 0), (232, 367, 290)], constant)
    m = extension_complexity(inv)
    compact = PowerValue(constant * n * math.log(m * n))
    return RangeReport(basic=basic, balanced=balanced, sharp=sharp,
                       compact=compact, complexity=m)
