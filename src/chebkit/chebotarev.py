"""Frobenius-class prime counting for quadratic and cyclotomic extensions
of the rationals, the psi/theta/pi chain linking them, and the smoothed
prime sum evaluated directly over prime powers.

Conventions: the class indicator at a ramified prime is 0 (deterministic,
and safe for every upper-bound comparison); the weighted counters use a
strict cutoff (norm < x) while the unweighted pi counter is inclusive
(norm <= x).  The off-by-one when x is itself a counted prime is accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arith import factorize, is_squarefree, kronecker_table
from .bounds import FieldInvariants, range_thresholds
from .errors import DomainError
from .progressions import euler_phi
from .reports import BoundReport, PowerValue
from .sieve import CountSeries, li, partial_sum_pi_from_theta, prime_powers, primes_upto
from .weights import WeightSpec, weight_value

SPLIT = "split"
INERT = "inert"
FULL = "full"


@dataclass(frozen=True)
class AbelianExtension:
    """A quadratic field Q(sqrt(d)), a cyclotomic field Q(zeta_q), or the
    trivial extension Q itself (the full-group degenerate case)."""

    kind: str                 # "quadratic" | "cyclotomic" | "trivial"
    d: int = 0                # squarefree defining integer (quadratic)
    q: int = 0                # cyclotomic conductor

    def __post_init__(self):
        if self.kind == "quadratic":
            if self.d in (0, 1) or not is_squarefree(self.d):
                raise DomainError("quadratic field needs squarefree d != 0, 1")
        elif self.kind == "cyclotomic":
            if self.q < 3:
                raise DomainError("cyclotomic field needs q >= 3")
        elif self.kind != "trivial":
            raise DomainError(f"unknown extension kind {self.kind!r}")

    @property
    def disc(self) -> int:
        if self.kind == "quadratic":
            return self.d if self.d % 4 == 1 else 4 * self.d
        if self.kind == "cyclotomic":
            return self.q  # stand-in modulus; ramified set is p | q
        return 1

    @property
    def group_order(self) -> int:
        if self.kind == "quadratic":
            return 2
        if self.kind == "cyclotomic":
            return euler_phi(self.q)
        return 1

    @property
    def ramified(self) -> frozenset:
        return frozenset(factorize(self.disc))


def quadratic_field(d: int) -> AbelianExtension:
    return AbelianExtension(kind="quadratic", d=d)


def cyclotomic_field(q: int) -> AbelianExtension:
    return AbelianExtension(kind="cyclotomic", q=q)


def trivial_extension() -> AbelianExtension:
    return AbelianExtension(kind="trivial")


@dataclass(frozen=True)
class ConjClass:
    """A singleton Frobenius class: split/inert for quadratic fields, a
    coprime residue for cyclotomic ones, the full class for the trivial
    extension."""

    key: object

    def __repr__(self):
        return f"ConjClass({self.key!r})"


def conj_classes(ext: AbelianExtension) -> list[ConjClass]:
    if ext.kind == "quadratic":
        return [ConjClass(SPLIT), ConjClass(INERT)]
    if ext.kind == "cyclotomic":
        return [ConjClass(a) for a in range(1, ext.q) if math.gcd(a, ext.q) == 1]
    return [ConjClass(FULL)]


def class_share(ext: AbelianExtension, cls: ConjClass) -> float:
    """|C|/|G| for the singleton class."""
    return 1.0 / ext.group_order


def artin_class(ext: AbelianExtension, p: int) -> Optional[ConjClass]:
    """Frobenius class of an unramified prime; None marks ramification.

    The class depends only on p mod |disc|, and Frobenius(p)^m is the
    class of p^m: the Kronecker symbol is completely multiplicative and
    periodic mod |disc|, and a cyclotomic class is the residue itself.
    """
    if ext.kind == "trivial":
        return ConjClass(FULL)
    if ext.kind == "quadratic":
        disc = ext.disc
        sym = kronecker_table(disc, abs(disc))[p % abs(disc)]
        if sym == 0:
            return None
        return ConjClass(SPLIT) if sym == 1 else ConjClass(INERT)
    if math.gcd(p, ext.q) != 1:
        return None
    return ConjClass(p % ext.q)


def _class_terms(ext: AbelianExtension, cls: ConjClass, values: np.ndarray,
                 primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The n = p^m in ``values`` (p the matching entry of ``primes``) with
    Frobenius(p)^m in the class, and their log p.  Ramified p never match;
    a residue key compares mod |disc|."""
    mod = abs(ext.disc)
    target = cls if isinstance(cls.key, str) else ConjClass(cls.key % mod)
    table = np.array([artin_class(ext, r) == target for r in range(mod)])
    if not table.any():
        raise DomainError(f"no Frobenius class {cls.key!r} in the {ext.kind} extension")
    hit = np.flatnonzero(table[values % mod])  # a take beats a boolean mask here
    return values[hit], np.log(primes[hit])


def psi_class(ext: AbelianExtension, cls: ConjClass, x: float) -> float:
    """Weighted count sum_{p^m < x} log(p) * [Frob(p)^m in C] (strict <)."""
    if x <= 1:
        raise DomainError("psi requires x > 1")
    return float(np.sum(_class_terms(ext, cls, *prime_powers(x, strict=True)[:2])[1]))


def _primes_below(x: float) -> np.ndarray:
    ps = primes_upto(x)
    return ps[: int(np.searchsorted(ps, x))]


def theta_class(ext: AbelianExtension, cls: ConjClass, x: float) -> float:
    """First-power restriction sum_{p < x} log(p) * [Frob(p) in C]."""
    if x <= 1:
        raise DomainError("theta requires x > 1")
    ps = _primes_below(x)
    return float(np.sum(_class_terms(ext, cls, ps, ps)[1]))


def theta_series(ext: AbelianExtension, cls: ConjClass, x: float) -> CountSeries:
    """theta_C as a step table: a checkpoint at each class prime p < x
    holding theta_C just past p, and a last checkpoint at x."""
    ps = _primes_below(x)
    return _class_series(ext, cls, x, ps, ps)


def pi_class(ext: AbelianExtension, cls: ConjClass, x: float) -> int:
    """#{p <= x : p unramified, Frob(p) in C} (inclusive cutoff)."""
    ps = primes_upto(x)
    return int(_class_terms(ext, cls, ps, ps)[0].size)


def _class_series(ext: AbelianExtension, cls: ConjClass, x: float, values: np.ndarray,
                  primes: np.ndarray) -> CountSeries:
    """Cumulative class-weighted log p over ascending prime powers below x,
    closed by a checkpoint at x."""
    kept, logp = _class_terms(ext, cls, values, primes)
    return CountSeries(np.append(kept, x), np.cumsum(np.append(logp, 0.0)))


def counting_chain_check(ext: AbelianExtension, cls: ConjClass, x0: float, x: float,
                         constant: float = 1.0) -> BoundReport:
    """Partial-summation chain

        pi_C(x) <= psi_C(x)/log x + int_{x0}^x psi_C(t)/(t log^2 t) dt + constant*x0

    with the integral evaluated exactly piecewise (psi is a step function),
    so the only slack is the constant * n_F * x0 term (n_F = 1 here).
    """
    if not (x > x0 > 3):
        raise DomainError("need x > x0 > 3")
    psi = _class_series(ext, cls, x, *prime_powers(x, strict=True)[:2])
    lhs = float(pi_class(ext, cls, x))
    rhs = partial_sum_pi_from_theta(psi, x0, x) + constant * 1.0 * x0
    return BoundReport.compare(lhs, rhs, label="pi <= smoothed psi chain")


def weighted_prime_sum(ext: AbelianExtension, cls: ConjClass, spec: WeightSpec) -> float:
    """Direct evaluation of sum_n Lambda(n) * [class] * f(log n / log x)
    over prime powers inside the weight's support."""
    x = spec.x
    lo, hi = spec.support
    limit = x ** hi
    values, primes, _ = prime_powers(limit + 1, strict=False)
    mask = values >= max(2.0, math.floor(x ** lo))
    kept, logp = _class_terms(ext, cls, values[mask], primes[mask])
    t = np.log(kept.astype(float)) / spec.log_x
    return float(np.sum(logp * weight_value(spec, t)))


@dataclass(frozen=True)
class DensityRatioReport:
    """pi_C(x) against its Chebotarev density |C|/|G| * Li(x)."""

    count: int
    expected: float
    ratio: float
    threshold: PowerValue   # x-range where the upper-bound theorem is proven
    in_proven_range: bool


def density_ratio_report(ext: AbelianExtension, cls: ConjClass, x: float) -> DensityRatioReport:
    count = pi_class(ext, cls, x)
    expected = class_share(ext, cls) * li(x)
    inv = FieldInvariants(n_K=1, D_K=1.0, Q=float(abs(ext.disc)))
    threshold = range_thresholds(inv).basic
    return DensityRatioReport(
        count=count,
        expected=expected,
        ratio=count / expected if expected else math.inf,
        threshold=threshold,
        in_proven_range=math.log(x) >= threshold.log,
    )
