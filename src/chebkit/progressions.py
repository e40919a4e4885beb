"""Primes in arithmetic progressions and the Brun-Titchmarsh checks.

Counting is exact: one blocked bincount of the sieve's primes by residue per
(q, x) serves every residue's query, its residues taken by floor division, which
numpy does by a scalar as a multiply and shift where % divides each prime.  The
two inequality checks compare that count against the Montgomery-Vaughan bound
and the sharper piecewise-constant bound with an explicit o(1) slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import euler_phi
from .bounds import brun_titchmarsh_constant
from .chebotarev import _MAX_MODULUS
from .errors import CapacityError, DomainError
from .reports import BoundReport
from .sieve import _blocks, _mod, primes_upto


@dataclass(frozen=True)
class APQuery:
    """Count primes p <= x with p = a (mod q)."""

    q: int
    a: int
    x: float

    def __post_init__(self):
        if self.q < 1:
            raise DomainError("modulus must be >= 1")
        if self.x < 2:
            raise DomainError("x must be >= 2")
        if math.gcd(self.a, self.q) != 1:
            raise DomainError(f"need gcd(a, q) = 1, got gcd({self.a}, {self.q})")


def pi_ap(query: APQuery) -> int:
    """Exact count of primes p <= x with p = a (mod q); q = 1 counts all."""
    q, a = query.q, query.a % query.q
    if q == 1:
        return int(primes_upto(query.x).size)
    if q > _MAX_MODULUS:    # no q-entry vector; past x (q may pass int64) p is its own residue
        return sum(int(np.count_nonzero((b if q > query.x else _mod(b, q)) == a))
                   for b in _blocks(primes_upto(query.x)))
    return int(residue_counts(q, query.x)[a])


@lru_cache(maxsize=1)
def _counts(q: int, top: int) -> np.ndarray:
    """Read-only pi(top; q, a) for every a; the last (q, top) asked is kept."""
    counts = residue_counts(q, top, primes_upto(top))
    counts.flags.writeable = False
    return counts


def residue_counts(q: int, x: float, primes: np.ndarray | None = None) -> np.ndarray:
    """Vector of pi(x; q, a) for a = 0..q-1 in one pass over ``primes``, block
    by block (default: the sieve's, whose count of the last (q, floor(x)) is
    kept); a q past the Frobenius-map limit raises ``CapacityError`` first."""
    if q < 1:
        raise DomainError("modulus must be >= 1")
    if q > _MAX_MODULUS:
        raise CapacityError(f"modulus {q} exceeds the residue-count limit {_MAX_MODULUS}")
    if primes is None:
        return _counts(q, math.floor(x))
    counts = np.zeros(q, dtype=np.int64)
    for b in _blocks(primes):     # a sorted table has one block across x to mask
        counts += np.bincount(_mod(b if b.max() <= x else b[b <= x], q), minlength=q)
    return counts


def _bt_compare(query: APQuery, coefficient, label: str, **report) -> BoundReport:
    """pi(x; q, a) against coefficient(theta) * x/(phi(q) log x), where
    theta = log q/log x; shared by the two Brun-Titchmarsh checks."""
    if query.q < 2:
        raise DomainError("check requires q >= 2")
    if query.x <= query.q:
        raise DomainError("check requires x > q so that theta < 1")
    theta = math.log(query.q) / math.log(query.x)
    lhs = pi_ap(query)
    rhs = coefficient(theta) * query.x / (euler_phi(query.q) * math.log(query.x))
    return BoundReport.compare(float(lhs), rhs, label=label, **report)


def montgomery_vaughan_check(query: APQuery) -> BoundReport:
    """Brun-Titchmarsh in Montgomery-Vaughan form:

        pi(x; q, a) <= 2/(1-theta) * x/(phi(q) log x),   theta = log q/log x.
    """
    return _bt_compare(query, lambda theta: 2.0 / (1.0 - theta),
                       "montgomery-vaughan")


def maynard_check(query: APQuery, slack: float = 0.1) -> BoundReport:
    """Sharper bound pi(x; q, a) <= (C(theta) + slack) x/(phi(q) log x).

    The o(1) term has no stated rate, so ``slack`` stands in for it and
    the report is marked heuristic.
    """
    return _bt_compare(query, lambda theta: brun_titchmarsh_constant(theta) + slack,
                       "piecewise-constant BT", heuristic=True)
