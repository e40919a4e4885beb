"""Elementary number-theoretic helpers: Kronecker symbol, factorization,
Euler's phi, squarefree kernels.  Scalar, exact, desk-scale."""

from __future__ import annotations

from .errors import DomainError


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), extending Jacobi to all integers n."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    r = 1
    if n < 0:
        n = -n
        if a < 0:
            r = -r
    # factor powers of 2 out of n; (a|2) depends on a mod 8
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t % 2 == 1 and a % 8 in (3, 5):
        r = -r
    # Jacobi on the remaining odd part by reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                r = -r
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            r = -r
        a %= n
    return r if n == 1 else 0


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk-scale inputs)."""
    if n == 0:
        raise DomainError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(q: int) -> int:
    if q < 1:
        raise DomainError("phi requires q >= 1")
    result = q
    for p in factorize(q):
        result -= result // p
    return result


def squarefree_kernel(n: int) -> int:
    """The squarefree part of n, with n's sign."""
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    k = 1
    for p, e in factorize(n).items():
        if e % 2 == 1:
            k *= p
    return sign * k


def is_squarefree(n: int) -> bool:
    return n != 0 and all(e == 1 for e in factorize(n).values())

