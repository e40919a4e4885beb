import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from chebkit.arith import factorize, is_squarefree, kronecker, squarefree_kernel
from chebkit.chebotarev import INERT, SPLIT, quadratic_field
from chebkit.errors import DomainError


def legendre_by_squares(a, p):
    """Brute-force Legendre symbol for odd prime p."""
    a %= p
    if a == 0:
        return 0
    squares = {(x * x) % p for x in range(1, p)}
    return 1 if a in squares else -1


def test_kronecker_matches_legendre_on_odd_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 97):
        for a in range(-20, 21):
            assert kronecker(a, p) == legendre_by_squares(a, p), (a, p)


def test_kronecker_at_two():
    # (a|2): 0 for even a, +1 for a = +-1 mod 8, -1 for a = +-3 mod 8
    for a, expect in [(1, 1), (7, 1), (-1, 1), (3, -1), (5, -1), (-3, -1),
                      (2, 0), (10, 0)]:
        assert kronecker(a, 2) == expect, a


def test_kronecker_multiplicative_in_bottom():
    for a in (-7, -3, 5, 12):
        for m in (3, 5, 9, 15):
            for n in (5, 7, 21):
                assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_kronecker_special_values():
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(5, 0) == 0
    assert kronecker(0, 1) == 1
    assert kronecker(6, 4) == 0  # both even


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-2000, max_value=2000).filter(
    lambda d: d not in (0, 1) and is_squarefree(d)))
def test_discriminant_character_periodicity(d):
    # quadratic_field's map is the symbol (disc|r) at every residue r mod
    # |disc|, built without the scalar kronecker
    ext = quadratic_field(d)
    labels = ext.labels + ("ramified",)
    expect = {1: SPLIT, -1: INERT, 0: "ramified"}
    assert [labels[k] for k in ext.index] == [expect[kronecker(ext.disc, r)]
                                              for r in range(abs(ext.disc))]


def test_factorize_roundtrip():
    for n in (2, 12, 97, 360, 2**10, 3 * 5 * 7 * 11, 999983):
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            prod *= p ** e
        assert prod == n
    with pytest.raises(DomainError):
        factorize(0)


def test_squarefree_kernel():
    assert squarefree_kernel(12) == 3
    assert squarefree_kernel(-12) == -3
    assert squarefree_kernel(49) == 1
    assert squarefree_kernel(-11) == -11
    assert squarefree_kernel(360) == 10
    assert is_squarefree(30) and not is_squarefree(12)
