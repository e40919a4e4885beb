"""Dirichlet characters mod q as dense value tables.

Characters are represented by their value vector on 0..q-1 (zero off the
units), built from discrete logs on the cyclic factors of (Z/q)*.  Row 0
of the table is the principal character.  Characters are taken modulo q
as-is, so the principal row vanishes at primes dividing q; that matches
the ramified-prime convention used by the direct counters.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np

from .arith import euler_phi, factorize
from .errors import CapacityError, DomainError

_TABLE_BUDGET = 2 ** 28      # bytes of one (phi(q), q) complex table: prime q up to 4093


def _multiplicative_order(g: int, modulus: int, group_order: int) -> int:
    order = group_order
    for p in factorize(group_order):
        while order % p == 0 and pow(g, order // p, modulus) == 1:
            order //= p
    return order


def _primitive_root(p: int, e: int) -> int:
    """Primitive root mod p^e for odd prime p."""
    pe = p ** e
    phi = pe // p * (p - 1)
    for g in range(2, p ** e):
        if math.gcd(g, p) != 1:
            continue
        if _multiplicative_order(g, pe, phi) == phi:
            return g
    raise DomainError(f"no primitive root mod {pe}")  # unreachable for odd p


def _cyclic_components(q: int) -> list[tuple[int, int, np.ndarray]]:
    """Decompose (Z/q)* into cyclic factors.

    Returns a list of (modulus p^e, order d, dlog table) where dlog[n mod p^e]
    gives the exponent of that factor's generator; -1 marks non-units.
    """
    comps = []
    for p, e in sorted(factorize(q).items()):
        pe = p ** e
        if p == 2:
            if e == 1:
                continue
            # every unit is (-1)^s 3^j: one table for s, one for j
            main = _dlog_table(3, pe, 2 ** (e - 2))
            powers = np.flatnonzero(main >= 0)
            main[pe - powers] = main[powers]
            sign = np.full(pe, -1, dtype=np.int64)
            sign[powers], sign[pe - powers] = 0, 1
            comps.append((pe, 2, sign))
            comps.append((pe, 2 ** (e - 2), main))
        else:
            g = _primitive_root(p, e)
            phi = pe // p * (p - 1)
            comps.append((pe, phi, _dlog_table(g, pe, phi)))
    return comps


def _dlog_table(g: int, modulus: int, order: int) -> np.ndarray:
    table = np.full(modulus, -1, dtype=np.int64)
    acc = 1
    for j in range(order):
        table[acc] = j
        acc = acc * g % modulus
    return table


@lru_cache(maxsize=64)
def character_table(q: int) -> np.ndarray:
    """All phi(q) Dirichlet characters mod q as a read-only (phi(q), q) complex
    array; a table past ``_TABLE_BUDGET`` bytes raises ``CapacityError``."""
    if q < 1:
        raise DomainError("modulus must be >= 1")
    # phi(q) >= sqrt(q / 2), so past q = 2^20 the table is over budget unfactored
    phi = euler_phi(q) if q <= 2 ** 20 else q
    if 16 * phi * q > _TABLE_BUDGET:
        raise CapacityError(f"the character table mod {q} is past the budget of "
                            f"{_TABLE_BUDGET} bytes")
    comps = _cyclic_components(q)
    units = np.array([n for n in range(q) if math.gcd(n, q) == 1])
    orders = [d for (_, d, _) in comps]
    rows = []
    for ks in product(*(range(d) for d in orders)):
        row = np.zeros(q, dtype=complex)
        vals = np.ones(units.size, dtype=complex)
        for k, (modulus, d, table) in zip(ks, comps):
            idx = table[units % modulus]
            vals *= np.exp(2j * np.pi * k * idx / d)
        row[units] = vals
        rows.append(row)
    # principal character first, then by conductor-agnostic lexicographic order
    table = np.array(rows)
    table.flags.writeable = False   # the cache hands this one array to every caller
    return table
