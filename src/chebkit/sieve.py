"""Segmented prime generation and the shared counting helpers.

Everything downstream (progressions, quadratic forms, Frobenius classes,
contour checks) pulls its primes from here.  Prime arrays are plain
``numpy`` int64 vectors so the counting modules can filter them with
vectorized masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError

# Desk-scale guard: segmented_primes refuses ranges beyond it, so every
# table top is below 2^33 and every prime power p^m <= top raised from
# p <= sqrt(top) stays below 2^50, exact in int64.
_MEMORY_BUDGET = 2**33
# odd numbers per segment of segmented_primes; the output does not depend on it
_SEGMENT_SIZE = 2**20
# primes per block of a counting pass: 512 kB of int64, so no temporary is table-sized
_BLOCK = 2**16
_LI_PANELS = 10_000


@dataclass(frozen=True)
class CountSeries:
    """A monotone table of (x, count) pairs for one counted set of primes."""

    checkpoints: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        cps = np.asarray(self.checkpoints, dtype=float)
        cts = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "checkpoints", cps)
        object.__setattr__(self, "counts", cts)
        if cps.shape != cts.shape:
            raise DomainError("checkpoints and counts must have equal length")
        if np.any(np.diff(cps) <= 0):
            raise DomainError("checkpoints must be strictly ascending")
        if np.any(np.diff(cts) < 0):
            raise DomainError("counts must be monotone nondecreasing")

    @classmethod
    def of_hits(cls, hits, x: float, checkpoints=None) -> CountSeries:
        """Count the ascending ``hits`` <= each checkpoint (default: x alone);
        ``hits`` may also be an iterable of ascending arrays, counted together.
        The hits stop at x, so a checkpoint whose floor exceeds x (or a nan)
        is refused."""
        cps = np.asarray([x] if checkpoints is None else checkpoints, dtype=float)
        past = cps[~(np.floor(cps) <= x)]
        if past.size:
            raise DomainError(f"checkpoint {past[0]:g} lies past x = {x:g}, where the counted "
                              "primes stop")
        pieces = [hits] if isinstance(hits, np.ndarray) else hits
        return cls(cps, sum((np.searchsorted(h, cps, "right") for h in pieces), np.zeros_like(cps)))

    def at(self, x: float) -> float:
        """Step-function value: count at the largest checkpoint <= x."""
        i = int(np.searchsorted(self.checkpoints, x, side="right")) - 1
        if i < 0:
            return 0.0
        return float(self.counts[i])


def simple_sieve(n: int) -> np.ndarray:
    """All primes <= n by a plain boolean sieve (base case and small utility)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def segmented_primes(lo: int, hi: int) -> np.ndarray:
    """Ascending int64 primes in [lo, hi) via an odd-only segmented sieve of
    Eratosthenes (Bays and Hudson, BIT 17, 1977).

    Slot i of a segment stands for the odd number start + 2i.  Each segment
    of ``_SEGMENT_SIZE`` slots is sieved by the odd base primes p with p^2
    below its end, from the first odd multiple of p past max(p^2, start);
    the output does not depend on the segmentation.
    """
    lo = max(int(lo), 2)
    hi = int(hi)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    if hi > _MEMORY_BUDGET:
        raise CapacityError(f"hi={hi} exceeds memory budget {_MEMORY_BUDGET}")
    base = simple_sieve(math.isqrt(hi - 1))[1:].tolist()
    # one buffer of pi(y) < 1.25506 y/log y slots, y > 1 (Rosser and Schoenfeld 1962)
    out = np.empty(int(1.25506 * (hi - 1) / math.log(hi - 1)) + 1, dtype=np.int64)
    out[0], k = 2, int(lo == 2)          # the slot of 2 is written over unless lo = 2
    for start in range(lo | 1, hi, 2 * _SEGMENT_SIZE):
        stop = min(start + 2 * _SEGMENT_SIZE, hi)
        mask = np.ones((stop - start + 1) // 2, dtype=bool)
        for p in base:
            if p * p >= stop:
                break
            first = max(p * p, -(-start // p) * p)
            mask[(first + p * (first % 2 == 0) - start) // 2:: p] = False
        found = np.flatnonzero(mask) * 2 + start
        out[k:k + found.size] = found
        k += found.size
    out.resize(k, refcheck=False)        # in place, so the primes are never held twice
    return out


# (top, the primes <= top): replaced whole, never mutated, so a reader
# always sees a table consistent with its own top
_table = (1, np.empty(0, dtype=np.int64))


def primes_upto(n: int | float) -> np.ndarray:
    """Primes <= n, served from one table of the primes up to the largest
    n asked for so far (do not mutate).  A larger n sieves only the
    window past the table's top."""
    global _table
    n = int(math.floor(n))
    top, primes = _table
    if n > top:
        new = segmented_primes(top + 1, n + 1)
        primes = np.concatenate((primes, new)) if primes.size else new
        _table = (n, primes)
    return primes[: int(np.searchsorted(primes, n, side="right"))]


def _mod(a: np.ndarray, m: int) -> np.ndarray:
    """a % m by floor division (a multiply and shift), with one temporary as % makes."""
    r = a // m
    r *= m
    return np.subtract(a, r, out=r)


def _blocks(a: np.ndarray):
    """Successive views of ``a``, ``_BLOCK`` entries each."""
    return (a[i:i + _BLOCK] for i in range(0, a.size, _BLOCK))


def _higher_powers(top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prime powers p^m <= top with m >= 2, sorted by value, as (values,
    primes, exponents): exact int64 products of the primes up to sqrt(top)."""
    base = primes_upto(math.isqrt(max(top, 0)))
    power, m = base, 1
    vals, prs, exps = [base[:0]], [base[:0]], [base[:0]]
    while base.size:
        power, m = power * base, m + 1
        power = power[: int(np.searchsorted(power, top, side="right"))]
        base = base[: power.size]
        vals.append(power)
        prs.append(base)
        exps.append(np.full(base.size, m, dtype=np.int64))
    order = np.argsort(np.concatenate(vals))
    return tuple(np.concatenate(c)[order] for c in (vals, prs, exps))


def prime_powers(limit: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prime powers p^m <= limit, sorted by value.

    Returns (values, primes, exponents): the support of the von Mangoldt
    function up to ``limit``.  The ``_higher_powers`` are merged into the
    prime table; prime powers are distinct, so the merged order is total.
    The k-th higher power lands at its rank among the primes plus k, the
    primes in the slots left over, so each output is written once with
    no table-sized temporary beyond one boolean mask.
    """
    top = math.floor(limit)
    ps = primes_upto(top)
    vals, prs, exps = _higher_powers(top)
    at = np.searchsorted(ps, vals) + np.arange(vals.size)
    is_prime = np.ones(ps.size + vals.size, dtype=bool)
    is_prime[at] = False

    def merged(low, high):
        out = np.empty(is_prime.size, dtype=np.int64)
        out[is_prime] = low
        out[at] = high
        return out

    return merged(ps, vals), merged(ps, prs), merged(1, exps)


def _simpson(values: np.ndarray, h: float):
    """Composite Simpson sum of an odd number of samples spaced h apart."""
    w = np.ones(values.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return h / 3.0 * np.dot(w, values)


def li(x: float) -> float:
    """Logarithmic integral Li(x) = int_2^x dt/log t.

    Composite Simpson after the substitution t = e^u, which makes the
    integrand smooth enough that ``_LI_PANELS`` = 10^4 panels give ~1e-12
    relative accuracy across the desk range.
    """
    if x < 2:
        raise DomainError("li(x) requires x >= 2")
    a, b = math.log(2.0), math.log(x)
    n = 2 * _LI_PANELS
    u = np.linspace(a, b, n + 1)
    return float(_simpson(np.exp(u) / u, (b - a) / n))
