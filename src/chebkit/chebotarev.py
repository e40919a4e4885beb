"""Frobenius-class prime counting for quadratic and cyclotomic extensions
of the rationals, each stored as its Frobenius map (an int array from
residues mod |disc| to class positions).  pi_C, theta_C and psi_C are
reads of one census per (field, x) that counts every class in one pass.
The partial-summation chain sums theta_C and psi_C by parts: census
counts up to x and a head of prime powers up to x0.  Only the smoothed
prime sum selects its own terms, weighted by a class function: one value
per class, of which a class indicator is one.

Conventions: a class function at a ramified prime is 0 (deterministic,
and safe for every upper-bound comparison); the weighted counters use a
strict cutoff (norm < x) while the unweighted pi counter is inclusive
(norm <= x).  The off-by-one when x is itself a counted prime is accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import factorize, is_squarefree, kronecker
from .bounds import FieldInvariants, range_thresholds
from .errors import CapacityError, DomainError
from .reports import BoundReport, PowerValue
from .sieve import _blocks, _higher_powers, _mod, li, prime_powers, primes_upto
from .weights import WeightSpec, weight_value

SPLIT = "split"
INERT = "inert"
FULL = "full"
_MAX_MODULUS = 2 ** 20        # |disc| entries in the Frobenius map


@dataclass(frozen=True, eq=False)
class AbelianExtension:
    """An abelian extension of Q as its Frobenius map: labels[index[r]] is
    the class key of Frobenius(p)^m for every p^m = r (mod |disc|), and
    index[r] = len(labels) where p ramifies.  The Kronecker symbol is
    completely multiplicative and periodic mod |disc|, and a cyclotomic
    class is the residue itself, so the map determines everything."""

    kind: str                 # "quadratic" | "cyclotomic" | "trivial"; only a label
    disc: int                 # the cyclotomic conductor stands in for it
    index: np.ndarray         # int32, one entry per residue mod |disc|
    labels: tuple             # class keys, in residue order
    sizes: np.ndarray         # |C| of each class

    @property
    def group_order(self) -> int:
        return int(self.sizes.sum())

    @property
    def ramified(self) -> frozenset:
        return frozenset(factorize(self.disc))


def quadratic_field(d: int) -> AbelianExtension:
    disc = d if d % 4 == 1 else 4 * d
    if abs(disc) > _MAX_MODULUS:    # before is_squarefree's trial division up to sqrt(d)
        raise CapacityError(f"|disc| = {abs(disc)} exceeds the Frobenius map limit {_MAX_MODULUS}")
    if d in (0, 1) or not is_squarefree(d):
        raise DomainError("quadratic field needs squarefree d != 0, 1")
    # (disc/r) = prod over odd p | disc of (r/p), read from the squares mod p,
    # times the symbol of the 2-part disc / prod p*, which has period 8
    r, symbol, two_part = np.arange(abs(disc)), np.ones(abs(disc), np.int8), disc
    for p in factorize(disc).keys() - {2}:
        legendre = np.full(p, -1, np.int8)
        legendre[_mod(np.arange(p) ** 2, p)], legendre[0] = 1, 0
        symbol *= legendre[_mod(r, p)]
        two_part //= p if p % 4 == 1 else -p
    symbol *= np.array([kronecker(two_part, n) for n in range(8)], np.int8)[_mod(r, 8)]
    # symbol 1, -1, 0 -> split (0), inert (1), ramified (2)
    index = np.array([2, 0, 1], np.int32)[symbol]
    return AbelianExtension("quadratic", disc, index, (SPLIT, INERT), np.ones(2, int))


def cyclotomic_field(q: int) -> AbelianExtension:
    if q < 3:
        raise DomainError("cyclotomic field needs q >= 3")
    if q > _MAX_MODULUS:
        raise CapacityError(f"conductor {q} exceeds the Frobenius map limit {_MAX_MODULUS}")
    unit = np.ones(q, dtype=bool)
    for p in factorize(q):
        unit[::p] = False
    labels = tuple(np.flatnonzero(unit).tolist())
    index = np.where(unit, np.cumsum(unit) - 1, len(labels)).astype(np.int32)
    return AbelianExtension("cyclotomic", q, index, labels, np.ones(len(labels), int))


def trivial_extension() -> AbelianExtension:
    return AbelianExtension("trivial", 1, np.zeros(1, np.int32), (FULL,), np.ones(1, int))


@dataclass(frozen=True)
class ConjClass:
    """A singleton Frobenius class: split/inert for quadratic fields, a
    coprime residue for cyclotomic ones, the full class for the trivial
    extension."""

    key: object

    def __repr__(self):
        return f"ConjClass({self.key!r})"


def conj_classes(ext: AbelianExtension) -> list[ConjClass]:
    """The classes in residue order."""
    return [ConjClass(k) for k in ext.labels]


def _class_index(ext: AbelianExtension, cls: ConjClass) -> int:
    """The position of ``cls`` in ext.labels; a residue key compares mod |disc|."""
    key = cls.key if isinstance(cls.key, str) else cls.key % abs(ext.disc)
    # a residue finds its class through the map; a name is searched for (len(labels): absent)
    k = (ext.labels + (key,)).index(key) if isinstance(key, str) else int(ext.index[int(key)])
    if k == len(ext.labels) or ext.labels[k] != key:
        raise DomainError(f"no Frobenius class {cls.key!r} in the {ext.kind} extension")
    return k


def class_share(ext: AbelianExtension, cls: ConjClass) -> float:
    """|C|/|G|."""
    return float(ext.sizes[_class_index(ext, cls)]) / ext.group_order


def artin_class(ext: AbelianExtension, p: int) -> ConjClass | None:
    """Frobenius class of p (of p^m: Frobenius(p)^m); None if p ramifies."""
    k = int(ext.index[p % abs(ext.disc)])
    return ConjClass(ext.labels[k]) if k < len(ext.labels) else None


def _class_values(ext: AbelianExtension, w, n: np.ndarray) -> np.ndarray:
    """w(Frobenius(p)^m) for each n = p^m, 0 where p ramifies.  w is a class
    function, one value per label; a ConjClass stands for its indicator."""
    if isinstance(w, ConjClass):
        w = np.arange(len(ext.labels)) == _class_index(ext, w)
    elif len(w) != len(ext.labels):
        raise DomainError(f"a class function needs {len(ext.labels)} values, one per label")
    return np.append(w, 0)[ext.index[_mod(n, abs(ext.disc))]]


def _terms(ext: AbelianExtension, w, values: np.ndarray,
           primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The n = p^m in ``values`` (p the matching entry of ``primes``) where
    the class function w is nonzero, and their log p * w."""
    weight = _class_values(ext, w, values)
    hit = np.flatnonzero(weight)
    return values[hit], np.log(primes[hit]) * weight[hit]


@lru_cache(maxsize=1)
def _census(ext: AbelianExtension, x: float) -> tuple[np.ndarray, ...]:
    """pi_C(x), theta_C(x), psi_C(x), #{p < x} and the sum of 1/m over
    p^m < x with m >= 2, for every class in label order, from one pass over
    the primes in blocks: each prime's class is one lookup in ext.index, and
    each counter adds up by class (theta in prime order, so to the bit as one
    weighted bincount), the last bin (the ramified primes) dropped.  The last
    (ext, x) asked is kept; it holds no per-prime arrays."""
    mod, n = abs(ext.disc), len(ext.labels) + 1
    ps = primes_upto(x)
    below = int(np.searchsorted(ps, math.ceil(x)))     # an int: a float x casts ps to float
    first, theta = np.zeros(n, dtype=np.int64), np.zeros(n)
    for b in _blocks(ps[:below]):
        k = ext.index[_mod(b, mod)]
        first += np.bincount(k, minlength=n)
        np.add.at(theta, k, np.log(b))
    pi = first + np.bincount(ext.index[_mod(ps[below:], mod)], minlength=n)   # x itself, if prime
    values, primes, exps = _higher_powers(math.ceil(x) - 1)
    kh = ext.index[_mod(values, mod)]
    psi = theta + np.bincount(kh, weights=np.log(primes), minlength=n)
    higher = np.bincount(kh, weights=1.0 / exps, minlength=n)
    return pi[:-1], theta[:-1], psi[:-1], first[:-1], higher[:-1]


def psi_class(ext: AbelianExtension, cls: ConjClass, x: float) -> float:
    """Weighted count sum_{p^m < x} log(p) * [Frob(p)^m in C] (strict <)."""
    if x <= 1:
        raise DomainError("psi requires x > 1")
    return float(_census(ext, x)[2][_class_index(ext, cls)])


def theta_class(ext: AbelianExtension, cls: ConjClass, x: float) -> float:
    """First-power restriction sum_{p < x} log(p) * [Frob(p) in C]."""
    if x <= 1:
        raise DomainError("theta requires x > 1")
    return float(_census(ext, x)[1][_class_index(ext, cls)])


def pi_class(ext: AbelianExtension, cls: ConjClass, x: float) -> int:
    """#{p <= x : p unramified, Frob(p) in C} (inclusive cutoff)."""
    return int(_census(ext, x)[0][_class_index(ext, cls)])


def _summed_by_parts(ext: AbelianExtension, cls: ConjClass, x0: float,
                     x: float) -> tuple[float, float]:
    """S(x)/log x + int_{x0}^x S(t)/(t log^2 t) dt for S = theta_C and for
    S = psi_C, exactly: S is a step function, so by parts the sum is

        S(x0)/log x0 + sum_{x0 < n < x} Lambda(n)/log n,

    where Lambda(n)/log n is 1 at a prime and 1/m at p^m.  The census holds
    that sum over all n < x; the head n <= x0 trades its terms for S(x0)/log x0.
    """
    if not (x > x0 > 3):
        raise DomainError("need x > x0 > 3")
    k = _class_index(ext, cls)
    _, _, _, first, higher = _census(ext, x)
    kept, logp = _terms(ext, cls, *prime_powers(x0)[:2])
    w = logp / np.log(kept)          # exactly 1 at a prime, about 1/m at p^m
    head = logp / math.log(x0) - w
    theta = float(first[k]) + float(np.sum(head[w == 1]))
    return theta, float(first[k]) + float(higher[k]) + float(np.sum(head))


def theta_partial_sum(ext: AbelianExtension, cls: ConjClass, x0: float, x: float) -> float:
    """theta_C(x)/log x + int_{x0}^x theta_C(t)/(t log^2 t) dt, which is
    #{x0 < p < x : Frob(p) in C} + theta_C(x0)/log x0."""
    return _summed_by_parts(ext, cls, x0, x)[0]


def counting_chain_check(ext: AbelianExtension, cls: ConjClass, x0: float,
                         x: float) -> BoundReport:
    """Partial-summation chain

        pi_C(x) <= psi_C(x)/log x + int_{x0}^x psi_C(t)/(t log^2 t) dt + x0

    with the integral summed exactly by parts, so the only slack is the
    n_F * x0 term (n_F = 1 here).
    """
    rhs = _summed_by_parts(ext, cls, x0, x)[1] + x0
    return BoundReport.compare(float(pi_class(ext, cls, x)), rhs,
                               label="pi <= smoothed psi chain")


def weighted_prime_sum(ext: AbelianExtension, cls: ConjClass | np.ndarray,
                       spec: WeightSpec) -> float | complex:
    """Direct evaluation of sum_n Lambda(n) * w(Frobenius(n)) * f(log n / log x)
    over prime powers inside the weight's support, for w the indicator of
    a class or a class function cls; complex when cls is."""
    x = spec.x
    lo, hi = spec.support
    limit = x ** hi
    values, primes, _ = prime_powers(limit + 1)
    mask = values >= max(2.0, math.floor(x ** lo))
    kept, coeffs = _terms(ext, cls, values[mask], primes[mask])
    t = np.log(kept.astype(float)) / spec.log_x
    return np.sum(coeffs * weight_value(spec, t)).item()


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
