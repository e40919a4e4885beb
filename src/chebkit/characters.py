"""Dirichlet characters mod q as class functions on a Frobenius map.

A character is its values on the units mod q, one per class of
Q(zeta_q), built from discrete logs on the cyclic factors of (Z/q)*;
``character_table`` stacks them as value vectors on 0..q-1 (zero off the
units).  Row 0 of the table is the principal character.  Characters are
taken modulo q as-is, so the principal row vanishes at primes dividing q;
that matches the ramified-prime convention used by the direct counters.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import euler_phi, factorize
from .chebotarev import AbelianExtension, _class_values, cyclotomic_field, trivial_extension
from .errors import CapacityError, DomainError

_TABLE_BUDGET = 2 ** 28      # bytes of one (phi(q), q) complex table: prime q up to 4093


def _primitive_root(pe: int, phi: int) -> int:
    """The least generator of a cyclic (Z/pe)* of order phi: g^(phi/r) != 1
    for every prime r | phi, which also rules out every non-unit g."""
    return next(g for g in range(2, pe) if all(pow(g, phi // r, pe) != 1 for r in factorize(phi)))


@lru_cache(maxsize=1)
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
            phi = pe // p * (p - 1)
            comps.append((pe, phi, _dlog_table(_primitive_root(pe, phi), pe, phi)))
    return comps


def _dlog_table(g: int, modulus: int, order: int) -> np.ndarray:
    table = np.full(modulus, -1, dtype=np.int64)
    acc = 1
    for j in range(order):
        table[acc] = j
        acc = acc * g % modulus
    return table


@lru_cache(maxsize=1)
def character(q: int, index: int) -> tuple[AbelianExtension, np.ndarray]:
    """Row ``index`` of ``character_table(q)`` as a class function (ext, w):
    w[k] is the character's value on ext's label k, and it vanishes where
    ext ramifies.  ext is Q(zeta_q), or for the one character of q <= 2,
    Q itself (q = 1) or Q(i) (q = 2), on whose two classes it is 1."""
    if q < 1:
        raise DomainError("modulus must be >= 1")
    ext = trivial_extension() if q == 1 else cyclotomic_field(4 if q == 2 else q)
    comps = _cyclic_components(q)
    orders = [d for (_, d, _) in comps]
    if not 0 <= index < math.prod(orders):
        raise DomainError(f"character index {index} out of range for q={q}")
    units = np.flatnonzero(ext.classes(np.arange(abs(ext.disc))) < len(ext.labels))
    w = np.ones(units.size, dtype=complex)
    # the components in the table's product order: the last one varies fastest
    for k, (modulus, d, table) in zip(np.unravel_index(index, orders), comps):
        w *= np.exp(2j * np.pi * k * table[units % modulus] / d)
    w.flags.writeable = False   # the cache keeps the last (q, index) for every caller
    return ext, w


@lru_cache(maxsize=1)
def character_table(q: int) -> np.ndarray:
    """All phi(q) Dirichlet characters mod q as a read-only (phi(q), q) complex
    array, the stack of their ``character`` rows; a table past
    ``_TABLE_BUDGET`` bytes raises ``CapacityError``."""
    # phi(q) >= sqrt(q / 2), so past q = 2^20 the table is over budget unfactored
    phi = euler_phi(q) if q <= 2 ** 20 else q
    if 16 * phi * q > _TABLE_BUDGET:
        raise CapacityError(f"the character table mod {q} is past the budget of "
                            f"{_TABLE_BUDGET} bytes")
    table = np.array([_class_values(*character(q, k), np.arange(q)) for k in range(phi)])
    table.flags.writeable = False   # the cache hands this one array to every caller
    return table
