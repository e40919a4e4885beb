import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebkit import progressions, sieve
from chebkit.cli import run
from chebkit.errors import CapacityError, DomainError
from chebkit.progressions import (APQuery, euler_phi, maynard_check,
                                  montgomery_vaughan_check, pi_ap,
                                  residue_counts)
from chebkit.sieve import primes_upto, simple_sieve


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
    assert pi_ap(APQuery(q=1, a=7, x=10)) == 4
    for x, expect in ((10, [4]), (1, [0])):
        counts = residue_counts(1, x)
        assert counts.tolist() == expect and counts.dtype == np.int64


def test_pi_ap_modulus_past_x_and_int64():
    # with q > x each prime is its own residue: only p = a can count
    for a, expect in ((1, 0), (97, 1), (91, 0), (101, 0), (10**23 - 1, 0)):
        assert pi_ap(APQuery(q=10**23, a=a, x=100)) == expect, a


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


# (q, x) keys: small moduli, and moduli past the 2^20 limit that pi_ap
# counts directly and residue_counts refuses
_KEYS = st.tuples(st.one_of(st.integers(1, 300), st.integers(2**20 + 1, 2**20 + 4000)),
                  st.floats(2, 2e5))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), keys=st.lists(_KEYS, min_size=1, max_size=3))
def test_counts_match_a_direct_count_over_interleaved_queries(data, keys):
    saved = sieve._table
    # start from an empty prime table, so that a larger x grows it mid-session
    sieve._table = (1, saved[1][:0])
    progressions._counts.cache_clear()
    try:
        for i in data.draw(st.lists(st.integers(0, len(keys) - 1), min_size=1, max_size=8)):
            q, x = keys[i]                      # a small pool, so keys repeat
            a = data.draw(st.integers(-q, 2 * q).filter(lambda a: math.gcd(a, q) == 1))
            ps = simple_sieve(int(x))
            expect = int(np.count_nonzero(ps % q == a % q))
            assert pi_ap(APQuery(q=q, a=a, x=x)) == expect, (q, a, x)
            if not data.draw(st.booleans()):
                continue
            if q > progressions._MAX_MODULUS:   # pi_ap counts it; the q-entry vector is refused
                with pytest.raises(CapacityError):
                    residue_counts(q, x)
            else:
                counts = residue_counts(q, x)
                assert counts[a % q] == expect and counts.sum() == ps.size, (q, a, x)
    finally:
        sieve._table = saved


def test_bt_check_counts_the_residues_once(monkeypatch):
    builds, primes_upto_ = [], progressions.primes_upto
    progressions._counts.cache_clear()
    monkeypatch.setattr(progressions, "primes_upto",
                        lambda x: builds.append(x) or primes_upto_(x))
    code, text = run(["bt-check", "--q", "17", "--x", "1e5"])
    assert code == 0 and len(json.loads(text)["rows"]) == 16
    assert builds == [1e5]              # one pass for 16 residues and 32 checks
    assert run(["pi-ap", "--q", "17", "--a", "3", "--x", "100000.5"])[0] == 0
    assert len(builds) == 1             # the same (q, floor(x))
    counts = residue_counts(17, 1e5)
    with pytest.raises(ValueError):     # the kept count is read-only
        counts[3] = 0
    pi_ap(APQuery(q=18, a=5, x=1e5))
    assert len(builds) == 2             # another modulus: one new pass
    pi_ap(APQuery(q=2**20 + 1, a=5, x=1e5))
    assert len(builds) == 3
    with pytest.raises(CapacityError):  # a refused count keeps the kept one
        residue_counts(18, 2.0**34)
    pi_ap(APQuery(q=18, a=7, x=1e5))
    assert builds[3:] == [2**34] and progressions._counts.cache_info().misses == 3


def test_residue_counts_refuse_a_modulus_past_the_map_limit_before_counting(monkeypatch):
    monkeypatch.setattr(progressions, "primes_upto", lambda x: pytest.fail("sieved"))
    tracemalloc.start()
    try:
        for primes in (None, np.array([2, 3, 5], dtype=np.int64)):
            with pytest.raises(CapacityError, match="1048576"):
                residue_counts(10**12, 100, primes)     # a 7.28 TiB vector, once
            with pytest.raises(CapacityError):
                residue_counts(progressions._MAX_MODULUS + 1, 100, primes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5
    monkeypatch.undo()
    assert residue_counts(progressions._MAX_MODULUS, 100, simple_sieve(100)).sum() == 25


def test_bt_check_refuses_a_modulus_past_the_map_limit_before_sieving(monkeypatch):
    # each of its ~10^6 rows would make its own pass over the primes
    monkeypatch.setattr(progressions, "primes_upto", lambda x: pytest.fail("sieved"))
    code, text = run(["bt-check", "--q", "3000000", "--x", "1e7"])
    assert code == 2 and "exceeds" in text
    assert run(["bt-check", "--q", str(progressions._MAX_MODULUS + 1), "--x", "1e7"])[0] == 2
