"""Primes in arithmetic progressions and the Brun-Titchmarsh checks.

Counting is exact (sieve + vectorized residue masks); the two inequality
checks compare the exact count against the Montgomery-Vaughan bound and
the sharper piecewise-constant bound with an explicit o(1) slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import brun_titchmarsh_constant
from .errors import DomainError
from .reports import BoundReport
from .sieve import primes_upto


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


def euler_phi(q: int) -> int:
    if q < 1:
        raise DomainError("phi requires q >= 1")
    result, n, p = q, q, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if n > 1:
        result -= result // n
    return result


def pi_ap(query: APQuery) -> int:
    """Exact count of primes p <= x with p = a (mod q); q = 1 counts all."""
    ps = primes_upto(query.x)
    if query.q == 1:
        return int(ps.size)
    return int(np.count_nonzero(ps % query.q == query.a % query.q))


def residue_counts(q: int, x: float, primes: np.ndarray | None = None) -> np.ndarray:
    """Vector of pi(x; q, a) for a = 0..q-1 in one pass (bulk counting)."""
    if q < 1:
        raise DomainError("modulus must be >= 1")
    ps = primes_upto(x) if primes is None else primes[primes <= x]
    if q == 1:
        return np.array([ps.size], dtype=np.int64)
    return np.bincount(ps % q, minlength=q).astype(np.int64)


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
                       "piecewise-constant BT", heuristic=True,
                       notes="o(1) replaced by fixed slack")
