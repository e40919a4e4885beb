import math

import numpy as np
import pytest

from chebkit.errors import DomainError
from chebkit.progressions import (APQuery, euler_phi, maynard_check,
                                  montgomery_vaughan_check, pi_ap,
                                  residue_counts)
from chebkit.sieve import primes_upto


def brute_phi(q: int) -> int:
    return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)


def test_query_validation():
    with pytest.raises(DomainError):
        APQuery(q=4, a=2, x=100)
    with pytest.raises(DomainError):
        APQuery(q=0, a=1, x=100)
    APQuery(q=1, a=0, x=10)  # modulus one admits any residue


def test_euler_phi_against_brute_force():
    for q in list(range(1, 60)) + [97, 128, 180, 199, 200, 210]:
        assert euler_phi(q) == brute_phi(q)


def test_pi_ap_enumerated_example():
    # oracle: the primes = 1 mod 4 up to 100, listed outright
    expect = [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]
    assert [int(p) for p in primes_upto(100) if p % 4 == 1] == expect
    assert pi_ap(APQuery(q=4, a=1, x=100)) == 11


def test_pi_ap_modulus_one_counts_all():
    assert pi_ap(APQuery(q=1, a=0, x=10)) == 4


def test_residue_counts_agree_with_pi_ap():
    for q in (3, 4, 12, 30):
        counts = residue_counts(q, 10_000)
        for a in range(q):
            if math.gcd(a, q) == 1:
                assert counts[a] == pi_ap(APQuery(q=q, a=a, x=10_000))


def test_partition_identity():
    x = 10**5
    total = len(primes_upto(x))
    for q in (12, 30, 199):
        coprime_sum = sum(pi_ap(APQuery(q=q, a=a, x=x))
                          for a in range(1, q) if math.gcd(a, q) == 1)
        dividing = sum(1 for p in primes_upto(x) if q % int(p) == 0)
        assert coprime_sum + dividing == total


def test_montgomery_vaughan_example():
    r = montgomery_vaughan_check(APQuery(q=4, a=1, x=100))
    theta = math.log(4) / math.log(100)
    assert r.rhs == pytest.approx(2 / (1 - theta) * 100 / (2 * math.log(100)))
    assert r.rhs == pytest.approx(31.07, abs=0.01)
    assert r.lhs == 11 and r.passed


def test_montgomery_vaughan_domain():
    with pytest.raises(DomainError):
        montgomery_vaughan_check(APQuery(q=7, a=1, x=7))  # theta = 1
    with pytest.raises(DomainError):
        montgomery_vaughan_check(APQuery(q=1, a=0, x=100))


def test_montgomery_vaughan_large_case():
    assert montgomery_vaughan_check(APQuery(q=3, a=2, x=10**6)).passed


def test_maynard_small_theta_reduces_to_two_plus_slack():
    q, x = 3, 3.0**9  # theta = 1/9 < 1/8
    r = maynard_check(APQuery(q=q, a=2, x=x), slack=0.1)
    assert r.rhs == pytest.approx((2 + 0.1) * x / (euler_phi(q) * math.log(x)))
    assert r.heuristic
    assert r.passed


def test_maynard_degenerate_slack_fails_and_flags():
    r = maynard_check(APQuery(q=7, a=3, x=10**4), slack=-2.0)
    assert not r.passed
    assert r.heuristic


def test_maynard_passes_at_desk_scale():
    assert maynard_check(APQuery(q=7, a=3, x=10**6)).passed
