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
_LI_PANELS = 10_000


@dataclass(frozen=True)
class CountSeries:
    """A monotone table of (x, count) pairs for one counted set of primes."""

    checkpoints: np.ndarray
    counts: np.ndarray
    label: str = ""

    def __post_init__(self):
        cps = np.asarray(self.checkpoints, dtype=float)
        cts = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "checkpoints", cps)
        object.__setattr__(self, "counts", cts)
        if cps.shape != cts.shape:
            raise DomainError("checkpoints and counts must have equal length")
        if cps.size and np.any(np.diff(cps) <= 0):
            raise DomainError("checkpoints must be strictly ascending")
        # real-valued series (log-weighted counts) may carry last-bit
        # summation noise; integer counts are still held to exactness
        tol = 1e-9 * max(1.0, float(np.max(np.abs(cts))) if cts.size else 1.0)
        if cts.size and np.any(np.diff(cts) < -tol):
            raise DomainError(f"counts must be monotone nondecreasing ({self.label!r})")

    @classmethod
    def of_hits(cls, hits: np.ndarray, x: float, checkpoints=None,
                label: str = "") -> CountSeries:
        """Count the ascending ``hits`` <= each checkpoint (default: x alone)."""
        cps = np.asarray([x] if checkpoints is None else checkpoints, dtype=float)
        return cls(cps, np.searchsorted(hits, cps, side="right").astype(float), label)

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


def segmented_primes(lo: int, hi: int, segment_size: int = 2**20) -> np.ndarray:
    """Ascending int64 primes in [lo, hi) via a segmented Eratosthenes sieve.

    The interval is cut into ``segment_size`` blocks, each sieved
    independently with the base primes up to sqrt(hi); results are merged
    in order, so the output is independent of the segmentation.
    """
    lo = max(int(lo), 2)
    hi = int(hi)
    if segment_size < 2**10:
        raise DomainError("segment_size must be at least 2**10")
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    if hi > _MEMORY_BUDGET:
        raise CapacityError(f"hi={hi} exceeds memory budget {_MEMORY_BUDGET}")
    base = simple_sieve(math.isqrt(hi - 1))
    chunks = []
    for start in range(lo, hi, segment_size):
        stop = min(start + segment_size, hi)
        mask = np.ones(stop - start, dtype=bool)
        for p in base:
            p = int(p)
            first = max(p * p, ((start + p - 1) // p) * p)
            if first >= stop:
                continue
            mask[first - start:: p] = False
        chunks.append(np.nonzero(mask)[0].astype(np.int64) + start)
    return np.concatenate(chunks)


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
        primes = np.concatenate((primes, segmented_primes(top + 1, n + 1)))
        _table = (n, primes)
    return primes[: int(np.searchsorted(primes, n, side="right"))]


def prime_powers(limit: float, *, strict: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prime powers p^m < limit (``strict``) or <= limit, sorted by value.

    Returns (values, primes, exponents): the support of the von Mangoldt
    function up to ``limit``.  The powers with m >= 2 are raised by exact
    int64 products of the primes up to sqrt(limit) and merged into the
    prime table; prime powers are distinct, so the merged order is total.
    """
    top = int(math.floor(limit))
    ps = primes_upto(top)
    if strict and top == limit:
        top -= 1
        ps = ps[: int(np.searchsorted(ps, top, side="right"))]
    base = ps[: int(np.searchsorted(ps, math.isqrt(max(top, 0)), side="right"))]
    power, m = base, 1
    vals, prs, exps = [ps[:0]], [ps[:0]], [ps[:0]]
    while base.size:
        power, m = power * base, m + 1
        power = power[: int(np.searchsorted(power, top, side="right"))]
        base = base[: power.size]
        vals.append(power)
        prs.append(base)
        exps.append(np.full(base.size, m, dtype=np.int64))
    order = np.argsort(np.concatenate(vals))
    vals, prs, exps = (np.concatenate(c)[order] for c in (vals, prs, exps))
    at = np.searchsorted(ps, vals)
    return (np.insert(ps, at, vals), np.insert(ps, at, prs),
            np.insert(np.ones(ps.size, dtype=np.int64), at, exps))


def li(x: float) -> float:
    """Logarithmic integral Li(x) = int_2^x dt/log t.

    Composite Simpson after the substitution t = e^u, which makes the
    integrand smooth enough that ``_LI_PANELS`` = 10^4 panels give ~1e-12
    relative accuracy across the desk range.
    """
    if x < 2:
        raise DomainError("li(x) requires x >= 2")
    if x == 2:
        return 0.0
    a, b = math.log(2.0), math.log(x)
    n = 2 * _LI_PANELS
    u = np.linspace(a, b, n + 1)
    g = np.exp(u) / u
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = (b - a) / n
    return float(h / 3.0 * np.dot(w, g))


def partial_sum_pi_from_theta(theta_series: CountSeries, x0: float, x: float) -> float:
    """Partial summation theta(x)/log x + int_{x0}^{x} theta(t)/(t log^2 t) dt.

    The series is read as the step function of ``CountSeries.at`` (zero
    before its first checkpoint), so the integral is exact: the sum of
    level_i * (1/log t_i - 1/log t_{i+1}) over x0, the checkpoints inside
    (x0, x), and x.  For the theta of a set of primes with a checkpoint at
    each prime this equals #{x0 < p <= x} + theta(x0)/log x0.  The series
    must reach x.
    """
    if not (x > x0 > 3):
        raise DomainError("need x > x0 > 3")
    cps = theta_series.checkpoints
    if cps.size == 0 or cps[-1] < x:
        raise DomainError("theta series does not reach x")
    ts = np.concatenate(([x0], cps[(cps > x0) & (cps < x)], [x]))
    levels = np.concatenate(([0.0], theta_series.counts))[
        np.searchsorted(cps, ts[:-1], side="right")]
    inv_log = 1.0 / np.log(ts)
    integral = float(np.sum(levels * (inv_log[:-1] - inv_log[1:])))
    return theta_series.at(x) / math.log(x) + integral
