"""Reference computations the benchmark checks chebkit against.

Nothing here imports chebkit: every check compares a chebkit result with an
independent method or with a published value, never with another number
chebkit produced.
"""

from __future__ import annotations

import math

import numpy as np

# pi(10^k), k = 1..7
KNOWN_PI = {10: 4, 100: 25, 1000: 168, 10**4: 1229, 10**5: 9592,
            10**6: 78498, 10**7: 664579}

# h(-D) for the discriminants of the quadratic-form acceptance criterion
KNOWN_CLASS_NUMBERS = {4: 1, 20: 2, 23: 3, 40: 2}

# D > 0 with -D a fundamental discriminant of class number one
CLASS_NUMBER_ONE = (3, 4, 7, 8, 11, 19, 43, 67, 163)


def primes_upto(n: int) -> np.ndarray:
    """Primes <= n by a plain odd-only sieve of Eratosthenes."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((n - 1) // 2, dtype=bool)   # odd[i] stands for 2i + 3
    for i in range((math.isqrt(n) - 1) // 2):
        if odd[i]:
            p = 2 * i + 3
            odd[(p * p - 3) // 2:: p] = False
    return np.concatenate(([2], 2 * np.nonzero(odd)[0] + 3)).astype(np.int64)


def prime_powers(primes: np.ndarray, limit: int):
    """(p^m, p, m) for every prime power p^m < limit, sorted by p^m."""
    vals, prs, exps = [], [], []
    m = 1
    while True:
        base = primes[primes.astype(float) ** m < limit]
        pm = base ** m
        keep = pm < limit              # exact integer test at the float edge
        if not np.any(keep):
            break
        vals.append(pm[keep])
        prs.append(base[keep])
        exps.append(np.full(int(keep.sum()), m, dtype=np.int64))
        m += 1
    values = np.concatenate(vals)
    order = np.argsort(values, kind="stable")
    return values[order], np.concatenate(prs)[order], np.concatenate(exps)[order]


def powmod(base: np.ndarray, exp, mod) -> np.ndarray:
    """Elementwise base^exp mod mod by square-and-multiply in int64.

    ``exp`` and ``mod`` may be arrays; every mod must stay below 3e9 so
    that products fit in int64.
    """
    base = np.asarray(base, dtype=np.int64) % mod
    exp = np.broadcast_to(np.asarray(exp, dtype=np.int64), base.shape).copy()
    out = np.ones_like(base) % mod
    while np.any(exp > 0):
        odd = (exp & 1) == 1
        out = np.where(odd, out * base % mod, out)
        base = base * base % mod
        exp >>= 1
    return out


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n >= 1, by quadratic reciprocity."""
    if n < 1:
        raise ValueError("n must be positive")
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker_at_primes(d: int, primes: np.ndarray) -> np.ndarray:
    """(d|p) for each prime p: Euler's criterion at odd p, the mod-8 rule at 2."""
    out = np.zeros(primes.size, dtype=np.int64)
    odd = primes > 2
    p = primes[odd]
    r = powmod(d % p, (p - 1) // 2, p)
    out[odd] = np.where(r == 1, 1, np.where(r == 0, 0, -1))
    if d % 2:
        out[primes == 2] = 1 if d % 8 in (1, 7) else -1
    return out


def is_fundamental(D: int) -> bool:
    """Is -D (D > 0) a fundamental discriminant?"""
    d = -D
    if d % 4 == 1:
        return squarefree(d)
    if d % 4 == 0:
        return (d // 4) % 4 in (2, 3) and squarefree(d // 4)
    return False


def squarefree(n: int) -> bool:
    n = abs(n)
    return all(n % (f * f) for f in range(2, math.isqrt(n) + 1))


def squarefree_kernels(values: np.ndarray) -> np.ndarray:
    """Signed squarefree part of each entry (n over its largest square
    factor), by trial division with the primes up to sqrt(max |n|)."""
    v = np.abs(np.asarray(values, dtype=np.int64))
    kernel = np.sign(values).astype(np.int64)
    top = int(v.max()) if v.size else 0
    for q in primes_upto(math.isqrt(top)).tolist():
        hit = v % (q * q) == 0
        while np.any(hit):
            v[hit] //= q * q
            hit = v % (q * q) == 0
        hit = v % q == 0
        kernel[hit] *= q
        v[hit] //= q
    # what is left is 1 or a single prime above sqrt(max |n|)
    return kernel * v


def class_number(D: int) -> int:
    """h(-D) for a fundamental discriminant -D by Dirichlet's formula
    h = -(w / 2D) * sum_{a < D} a * (-D|a)."""
    w = {3: 6, 4: 4}.get(D, 2)
    total = sum(a * kronecker(-D, a) for a in range(1, D))
    return -w * total // (2 * D)


def elliptic_trace(A: int, B: int, p: int) -> int:
    """a_p = -sum_x ((x^3 + A x + B) | p) by Euler's criterion, p odd."""
    x = np.arange(p, dtype=np.int64)
    f = (x * x % p * x + A * x + B) % p
    leg = powmod(f, (p - 1) // 2, p)
    return int(np.count_nonzero(leg == p - 1) - np.count_nonzero(leg == 1))
