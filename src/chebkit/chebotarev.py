"""Frobenius-class prime counting for quadratic and cyclotomic extensions
of the rationals, each stored as its Frobenius map (a table from residues
mod |disc| to class keys), the psi/theta/pi chain linking them, and the
smoothed prime sum evaluated directly over prime powers.

Conventions: the class indicator at a ramified prime is 0 (deterministic,
and safe for every upper-bound comparison); the weighted counters use a
strict cutoff (norm < x) while the unweighted pi counter is inclusive
(norm <= x).  The off-by-one when x is itself a counted prime is accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import factorize, is_squarefree, kronecker_table
from .bounds import FieldInvariants, range_thresholds
from .errors import CapacityError, DomainError
from .reports import BoundReport, PowerValue
from .sieve import CountSeries, li, partial_sum_pi_from_theta, prime_powers, primes_upto
from .weights import WeightSpec, weight_value

SPLIT = "split"
INERT = "inert"
FULL = "full"
_MAX_MODULUS = 2 ** 20        # |disc| entries in the Frobenius map and in each counter's table


@dataclass(frozen=True)
class AbelianExtension:
    """An abelian extension of Q as its Frobenius map: keys[r] is the class
    key of Frobenius(p)^m for every p^m = r (mod |disc|), None where p
    ramifies.  The Kronecker symbol is completely multiplicative and
    periodic mod |disc|, and a cyclotomic class is the residue itself, so
    the table determines everything; ``kind`` is only a label."""

    kind: str                 # "quadratic" | "cyclotomic" | "trivial"
    disc: int                 # the cyclotomic conductor stands in for it
    keys: tuple

    @property
    def group_order(self) -> int:
        return len(set(self.keys) - {None})

    @property
    def ramified(self) -> frozenset:
        return frozenset(factorize(self.disc))


def quadratic_field(d: int) -> AbelianExtension:
    if d in (0, 1) or not is_squarefree(d):
        raise DomainError("quadratic field needs squarefree d != 0, 1")
    disc = d if d % 4 == 1 else 4 * d
    if abs(disc) > _MAX_MODULUS:
        raise CapacityError(f"|disc| = {abs(disc)} exceeds the Frobenius map limit {_MAX_MODULUS}")
    names = {1: SPLIT, -1: INERT}
    return AbelianExtension("quadratic", disc,
                            tuple(names.get(s) for s in kronecker_table(disc, abs(disc))))


def cyclotomic_field(q: int) -> AbelianExtension:
    if q < 3:
        raise DomainError("cyclotomic field needs q >= 3")
    if q > _MAX_MODULUS:
        raise CapacityError(f"conductor {q} exceeds the Frobenius map limit {_MAX_MODULUS}")
    return AbelianExtension("cyclotomic", q,
                            tuple(r if math.gcd(r, q) == 1 else None for r in range(q)))


def trivial_extension() -> AbelianExtension:
    return AbelianExtension("trivial", 1, (FULL,))


@dataclass(frozen=True)
class ConjClass:
    """A singleton Frobenius class: split/inert for quadratic fields, a
    coprime residue for cyclotomic ones, the full class for the trivial
    extension."""

    key: object

    def __repr__(self):
        return f"ConjClass({self.key!r})"


def conj_classes(ext: AbelianExtension) -> list[ConjClass]:
    """The distinct class keys in residue order."""
    return [ConjClass(k) for k in dict.fromkeys(ext.keys) if k is not None]


def class_share(ext: AbelianExtension, cls: ConjClass) -> float:
    """|C|/|G| for the singleton class."""
    return 1.0 / ext.group_order


def artin_class(ext: AbelianExtension, p: int) -> ConjClass | None:
    """Frobenius class of p (of p^m: Frobenius(p)^m); None if p ramifies."""
    key = ext.keys[p % abs(ext.disc)]
    return None if key is None else ConjClass(key)


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


def counting_chain_check(ext: AbelianExtension, cls: ConjClass, x0: float,
                         x: float) -> BoundReport:
    """Partial-summation chain

        pi_C(x) <= psi_C(x)/log x + int_{x0}^x psi_C(t)/(t log^2 t) dt + x0

    with the integral evaluated exactly piecewise (psi is a step function),
    so the only slack is the n_F * x0 term (n_F = 1 here).
    """
    if not (x > x0 > 3):
        raise DomainError("need x > x0 > 3")
    psi = _class_series(ext, cls, x, *prime_powers(x, strict=True)[:2])
    lhs = float(pi_class(ext, cls, x))
    rhs = partial_sum_pi_from_theta(psi, x0, x) + x0
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
