"""Dirichlet characters as class functions: ``character`` against an
independently assembled table, and the class-function sums against the
class-indicator sums they combine."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebkit.characters import _cyclic_components, character, character_table
from chebkit.chebotarev import (FULL, ConjClass, _class_values, cyclotomic_field,
                                trivial_extension, weighted_prime_sum)
from chebkit.errors import DomainError
from chebkit.explicit import character_log_deriv
from chebkit.sieve import prime_powers
from chebkit.weights import WeightSpec


def product_loop_table(q: int) -> np.ndarray:
    """Every character mod q, one row per tuple of component exponents in
    ``itertools.product`` order, each the product over the components of
    exp(2 pi i k dlog / d) on the units and 0 off them."""
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
    return np.array(rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=2**20))
@example(1, 0)
@example(2, 0)
@example(4, 1)
@example(8, 3)
@example(360, 77)
@example(499, 400)
def test_character_rows_equal_the_product_loop_table(q, pick):
    reference = product_loop_table(q)
    k = pick % reference.shape[0]
    ext, w = character(q, k)
    assert len(w) == len(ext.labels)
    assert _class_values(ext, w, np.arange(q)).tobytes() == reference[k].tobytes()
    assert character_table(q).tobytes() == reference.tobytes()


def test_character_table_cache_keeps_one_table():
    character_table(5)
    character_table(7)
    assert character_table.cache_info().currsize == 1


def test_character_table_builds_the_cyclotomic_map_once():
    character_table.cache_clear()
    cyclotomic_field.cache_clear()
    character_table(11)
    assert cyclotomic_field.cache_info().misses == 1
    # the cache hands the one field to every caller: its map is not writeable
    field = cyclotomic_field(11)
    assert not field.index.flags.writeable


def test_character_index_out_of_range_and_small_moduli():
    for q in (1, 2, 5, 12):
        count = character_table(q).shape[0]
        for index in (-1, count):
            with pytest.raises(DomainError, match="out of range"):
                character(q, index)
    # the one character mod 1 is 1 on Q; the one mod 2 is 1 on the odd n
    ext, w = character(1, 0)
    assert ext.kind == "trivial" and w.tolist() == [1]
    ext, w = character(2, 0)
    assert _class_values(ext, w, np.arange(8)).tolist() == [0, 1] * 4


def test_a_class_function_has_one_value_per_label():
    spec = WeightSpec(x=100.0, ell=2, eps=0.1)
    ext, w = character(5, 1)
    for wrong in (w[:3], np.append(w, 1)):
        with pytest.raises(DomainError, match="4 values"):
            weighted_prime_sum(ext, wrong, spec)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=30), st.integers(min_value=0, max_value=2**20),
       st.floats(min_value=20.0, max_value=5000.0), st.sampled_from([2, 3]),
       st.floats(min_value=0.05, max_value=0.2))
def test_character_prime_sum_is_the_sum_over_its_classes(q, pick, x, ell, eps):
    # sum_n Lambda(n) chi(n) f(log n / log x) = sum over units a of chi(a) S_a
    spec = WeightSpec(x=x, ell=ell, eps=eps)
    table = character_table(q)
    k = pick % table.shape[0]
    field = cyclotomic_field(q)
    parts = [complex(table[k][a]) * weighted_prime_sum(field, ConjClass(a), spec)
             for a in range(1, q) if table[k][a] != 0]
    reference = sum(parts)
    value = weighted_prime_sum(*character(q, k), spec)
    assert isinstance(value, complex)
    # relative to the size of the summed class sums, which sets the rounding
    assert abs(value - reference) <= 1e-12 * sum(abs(part) for part in parts)


def test_trivial_characters_sum_as_zeta_without_their_ramified_primes():
    spec = WeightSpec(x=300.0, ell=2, eps=0.1)
    zeta = weighted_prime_sum(trivial_extension(), ConjClass(FULL), spec)
    assert weighted_prime_sum(*character(1, 0), spec) == pytest.approx(zeta, rel=1e-14)
    odd = sum(weighted_prime_sum(cyclotomic_field(4), ConjClass(a), spec) for a in (1, 3))
    assert weighted_prime_sum(*character(2, 0), spec) == pytest.approx(odd, rel=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**20),
       st.integers(min_value=2, max_value=5000))
@example(2, 0, 5000)
@example(24, 5, 5000)
def test_character_series_is_log_p_times_the_table(q, pick, n_max):
    table = character_table(q)
    k = pick % table.shape[0]
    series = character_log_deriv(q, k, n_max)
    values, primes, _ = prime_powers(n_max)
    chi = table[k][values % q]
    keep = chi != 0
    assert series.values.tobytes() == values[keep].tobytes()
    assert series.coeffs.tobytes() == (np.log(primes) * chi)[keep].tobytes()
