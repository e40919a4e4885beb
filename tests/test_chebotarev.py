import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebkit import chebotarev
from chebkit.arith import kronecker
from chebkit.chebotarev import (FULL, INERT, SPLIT, AbelianExtension, ConjClass,
                                artin_class, class_share, conj_classes,
                                counting_chain_check, cyclotomic_field,
                                density_ratio_report, pi_class, psi_class,
                                quadratic_field, theta_class, theta_partial_sum,
                                trivial_extension, weighted_prime_sum)
from chebkit.errors import CapacityError, DomainError
from chebkit.progressions import APQuery, euler_phi, pi_ap
from chebkit.sieve import CountSeries, primes_upto
from chebkit.weights import WeightSpec
from test_sieve import partial_sum_pi_from_theta


# ------------------------------------------------------------- oracles

def enumerate_psi(ext, cls, x):
    """Direct loop over prime powers with per-prime symbol logic."""
    total = 0.0
    for p in primes_upto(x):
        p = int(p)
        pm, m = p, 1
        while pm < x:
            if ext.kind == "quadratic":
                sym = kronecker(ext.disc, p)
                if sym == 1 and cls.key == SPLIT:
                    total += math.log(p)
                elif sym == -1:
                    in_split = m % 2 == 0
                    if (cls.key == SPLIT) == in_split:
                        total += math.log(p)
            elif ext.kind == "cyclotomic":
                q = ext.disc
                if math.gcd(p, q) == 1 and pow(p, m, q) == cls.key % q:
                    total += math.log(p)
            else:
                total += math.log(p)
            pm *= p
            m += 1
    return total


# ----------------------------------------------------------- structure

def test_extension_invariants():
    assert quadratic_field(-1).disc == -4
    assert sorted(quadratic_field(-1).ramified) == [2]
    assert quadratic_field(5).disc == 5
    assert sorted(quadratic_field(5).ramified) == [5]
    assert quadratic_field(-23).disc == -23
    assert cyclotomic_field(12).group_order == 4
    assert sorted(cyclotomic_field(12).ramified) == [2, 3]
    assert trivial_extension().group_order == 1
    with pytest.raises(DomainError):
        quadratic_field(4)   # not squarefree
    with pytest.raises(DomainError):
        quadratic_field(1)
    with pytest.raises(DomainError):
        cyclotomic_field(2)


def test_frobenius_map_refuses_moduli_past_its_cap(monkeypatch):
    # abs(disc) = 2^20 + 1 for both, just past the cap
    with pytest.raises(CapacityError):
        cyclotomic_field(2**20 + 1)
    with pytest.raises(CapacityError):
        quadratic_field(2**20 + 1)
    monkeypatch.setattr(chebotarev, "_MAX_MODULUS", 40)
    assert cyclotomic_field(40).group_order == 16
    assert quadratic_field(10).disc == 40
    with pytest.raises(CapacityError):
        cyclotomic_field(41)
    with pytest.raises(CapacityError):
        quadratic_field(41)


def test_quadratic_field_checks_its_cap_before_factoring(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factored {n} before the cap check")
    monkeypatch.setattr(chebotarev, "factorize", refuse)
    monkeypatch.setattr(chebotarev, "is_squarefree", refuse)
    with pytest.raises(CapacityError):
        quadratic_field(10**18 + 3)


def test_class_share():
    assert class_share(quadratic_field(-1), ConjClass(SPLIT)) == 0.5
    assert class_share(cyclotomic_field(5), ConjClass(2)) == 0.25
    assert class_share(trivial_extension(), ConjClass(FULL)) == 1.0
    assert len(conj_classes(cyclotomic_field(12))) == 4
    # an abelian group's classes are singletons: each has share 1/|G|
    fields = ([quadratic_field(d) for d in range(-200, 201) if d not in (0, 1) and _squarefree(d)]
              + [cyclotomic_field(q) for q in range(3, 201)])
    for ext in fields:
        shares = [class_share(ext, cls) for cls in conj_classes(ext)]
        assert shares == [1 / len(ext.labels)] * len(ext.labels), ext.disc
        assert math.fsum(shares) == pytest.approx(1.0, rel=1e-14), ext.disc
    for ext, key in ((cyclotomic_field(12), SPLIT), (cyclotomic_field(12), 3),
                     (cyclotomic_field(7), 14), (quadratic_field(-1), FULL)):
        with pytest.raises(DomainError):    # a class the field lacks
            class_share(ext, ConjClass(key))


def _squarefree(n):
    return all(n % (k * k) for k in range(2, math.isqrt(abs(n)) + 1))


def _prime_divisors(n):
    return {p for p in range(2, abs(n) + 1)
            if n % p == 0 and all(p % k for k in range(2, math.isqrt(p) + 1))}


_SMALL_PRIMES = [int(p) for p in primes_upto(10**4)]


@settings(max_examples=150, deadline=None)
@given(d=st.integers(-300, 300).filter(lambda d: d not in (0, 1) and _squarefree(d)),
       q=st.integers(3, 300), p=st.sampled_from(_SMALL_PRIMES), m=st.integers(1, 3))
def test_frobenius_map_matches_its_definitions(d, q, p, m):
    quad = quadratic_field(d)
    sym = kronecker(quad.disc, p) ** m
    assert artin_class(quad, p**m) == {0: None, 1: ConjClass(SPLIT),
                                       -1: ConjClass(INERT)}[sym]
    assert quad.group_order == 2
    assert len(conj_classes(quad)) == quad.group_order
    assert quad.ramified == _prime_divisors(quad.disc)

    cyc = cyclotomic_field(q)
    expect = ConjClass(pow(p, m, q)) if math.gcd(p, q) == 1 else None
    assert artin_class(cyc, p**m) == expect
    assert cyc.group_order == euler_phi(q)
    assert len(conj_classes(cyc)) == cyc.group_order
    assert cyc.ramified == _prime_divisors(q)


def _int64_near(modulus):
    """int64 n below the modulus, at its multiples and their neighbours, and
    at or above 2^31."""
    top = 2**63 - 1
    multiple = st.integers(0, top // modulus).map(lambda k: k * modulus)
    return st.one_of(st.integers(0, modulus - 1), multiple,
                     st.tuples(multiple, st.sampled_from([-1, 1])).map(sum)
                     .filter(lambda n: 0 <= n <= top),
                     st.integers(2**31, top))


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       d=st.integers(-500, 500).filter(lambda d: d not in (0, 1) and _squarefree(d)))
def test_quadratic_classes_match_kronecker(data, d):
    ext = quadratic_field(d)
    n = data.draw(st.lists(_int64_near(abs(ext.disc)), min_size=1, max_size=30))
    got = ext.classes(np.array(n, dtype=np.int64)).tolist()
    assert got == [{1: 0, -1: 1, 0: 2}[kronecker(ext.disc, k)] for k in n]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), q=st.integers(3, 500))
def test_cyclotomic_classes_match_residues(data, q):
    ext = cyclotomic_field(q)
    n = data.draw(st.lists(_int64_near(q), min_size=1, max_size=30))
    got = ext.classes(np.array(n, dtype=np.int64)).tolist()
    for k, c in zip(n, got):
        if math.gcd(k, q) == 1:
            assert ext.labels[c] == k % q
        else:
            assert c == len(ext.labels)


def test_artin_class_examples():
    q5 = quadratic_field(5)
    assert artin_class(q5, 11) == ConjClass(SPLIT)
    assert artin_class(q5, 7) == ConjClass(INERT)
    assert artin_class(quadratic_field(-1), 2) is None  # ramified
    c7 = cyclotomic_field(7)
    assert artin_class(c7, 10) == ConjClass(3)
    assert artin_class(c7, 7) is None


# --------------------------------------------------------------- psi/pi

def test_psi_inert_frozen_example():
    # prime powers p^m < 20 with p = 3 mod 4 and m odd: 3, 7, 11, 19
    got = psi_class(quadratic_field(-1), ConjClass(INERT), 20)
    assert got == pytest.approx(sum(math.log(p) for p in (3, 7, 11, 19)), rel=1e-12)


def test_psi_split_frozen_example():
    # contributing values below 30: 5, 13, 17, 29 (split primes), 25 = 5^2,
    # and 9 = 3^2 (even power of an inert prime lands in the identity class)
    got = psi_class(quadratic_field(-1), ConjClass(SPLIT), 30)
    expect = 2 * math.log(5) + math.log(3) + math.log(13) + math.log(17) + math.log(29)
    assert got == pytest.approx(expect, rel=1e-12)


def test_psi_empty_below_first_prime():
    assert psi_class(quadratic_field(-1), ConjClass(SPLIT), 2) == 0.0


def test_psi_matches_enumeration_oracle():
    cases = [
        (quadratic_field(-1), ConjClass(SPLIT)),
        (quadratic_field(-1), ConjClass(INERT)),
        (quadratic_field(5), ConjClass(INERT)),
        (quadratic_field(-23), ConjClass(SPLIT)),
        (cyclotomic_field(7), ConjClass(3)),
        (cyclotomic_field(12), ConjClass(5)),
        (trivial_extension(), ConjClass(FULL)),
    ]
    for ext, cls in cases:
        for x in (50.0, 1000.0):
            assert psi_class(ext, cls, x) == pytest.approx(
                enumerate_psi(ext, cls, x), rel=1e-10)


def test_psi_strict_cutoff():
    # 19 itself must not be included at x = 19
    qi = quadratic_field(-1)
    below = psi_class(qi, ConjClass(INERT), 19)
    at = psi_class(qi, ConjClass(INERT), 19.0000001)
    assert at - below == pytest.approx(math.log(19), rel=1e-9)


def test_pi_examples():
    assert pi_class(quadratic_field(-1), ConjClass(SPLIT), 20) == 3
    assert pi_class(quadratic_field(5), ConjClass(INERT), 20) == 5


def test_pi_inclusive_cutoff():
    # 13 = 1 mod 4 is split and must be counted at x = 13 exactly
    qi = quadratic_field(-1)
    assert pi_class(qi, ConjClass(SPLIT), 13) - pi_class(qi, ConjClass(SPLIT), 12) == 1


def test_theta_at_most_psi():
    for ext, cls in [(quadratic_field(-1), ConjClass(SPLIT)),
                     (quadratic_field(5), ConjClass(INERT)),
                     (cyclotomic_field(5), ConjClass(4))]:
        for x in (10.0, 100.0, 10000.0):
            assert theta_class(ext, cls, x) <= psi_class(ext, cls, x) + 1e-12


def test_class_partition_identity():
    x = 10**5
    total = len(primes_upto(x))
    for d in (-1, 5, -5, -23):
        ext = quadratic_field(d)
        got = (pi_class(ext, ConjClass(SPLIT), x)
               + pi_class(ext, ConjClass(INERT), x)
               + sum(1 for p in ext.ramified if p <= x))
        assert got == total


def test_cyclotomic_matches_progressions():
    # exact agreement for every modulus up to 50 at x = 1e5
    x = 10**5
    for q in range(3, 51):
        ext = cyclotomic_field(q)
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            assert pi_class(ext, ConjClass(a), x) == pi_ap(APQuery(q=q, a=a, x=x)), (q, a)


# ------------------------------------------------------------ the chain

def test_chain_check_examples():
    qi = quadratic_field(-1)
    assert counting_chain_check(qi, ConjClass(SPLIT), 10, 10**4).passed
    assert counting_chain_check(qi, ConjClass(INERT), 10, 10**5).passed
    with pytest.raises(DomainError):
        counting_chain_check(qi, ConjClass(SPLIT), 100, 100)
    with pytest.raises(DomainError):
        counting_chain_check(qi, ConjClass(SPLIT), 2, 100)


def test_chain_check_is_tight_enough_to_be_informative():
    # the right side should exceed the count but not by orders of magnitude
    qi = quadratic_field(-1)
    r = counting_chain_check(qi, ConjClass(SPLIT), 10, 10**5)
    assert r.lhs <= r.rhs <= 3 * r.lhs


# ---------------------------------------------------------- weighted sum

def test_weighted_sum_zero_when_class_misses_support():
    # x = 3: the support reaches only the values 2 and 3; 2 ramifies in
    # Q(i) and 3 is inert, so the split-class sum is empty
    spec = WeightSpec(x=3.0, ell=1, eps=0.01)
    assert weighted_prime_sum(quadratic_field(-1), ConjClass(SPLIT), spec) == 0.0


def test_weighted_sum_bracketed_by_psi_differences():
    qi = quadratic_field(-1)
    spec = WeightSpec(x=10**4, ell=2, eps=0.1)
    s = weighted_prime_sum(qi, ConjClass(SPLIT), spec)
    x = spec.x
    plateau = (psi_class(qi, ConjClass(SPLIT), x * (1 + 1e-12))
               - psi_class(qi, ConjClass(SPLIT), math.sqrt(x)))
    lo_edge = math.sqrt(x) * math.exp(-spec.eps)
    hi_edge = x * math.exp(spec.eps)
    full = (psi_class(qi, ConjClass(SPLIT), hi_edge * (1 + 1e-12))
            - psi_class(qi, ConjClass(SPLIT), lo_edge))
    assert plateau - 1e-9 <= s <= full + 1e-9


def test_weighted_sum_scales_like_class_share():
    spec = WeightSpec(x=2000.0, ell=2, eps=0.1)
    full = weighted_prime_sum(trivial_extension(), ConjClass(FULL), spec)
    qi_split = weighted_prime_sum(quadratic_field(-1), ConjClass(SPLIT), spec)
    assert qi_split / full == pytest.approx(0.5, abs=0.1)


# ---------------------------------------------------------- ratio report

def test_density_ratio_report():
    r = density_ratio_report(quadratic_field(-1), ConjClass(SPLIT), 10**6)
    assert 0.95 <= r.ratio <= 1.05
    assert not r.in_proven_range
    # Q = |disc| = 4 feeds the threshold q^185 + q^130
    assert r.threshold.log == pytest.approx(
        math.log(4) * 185 + math.log1p(4.0 ** (130 - 185)), rel=1e-9)


def test_density_ratio_tiny_x_flags_range():
    r = density_ratio_report(cyclotomic_field(5), ConjClass(2), 10.0)
    assert not r.in_proven_range
    assert r.count == 2  # p = 2 and p = 7 are the residues = 2 mod 5 up to 10


@pytest.mark.parametrize("ext,key", [
    (quadratic_field(-1), FULL),
    (quadratic_field(5), 1),
    (cyclotomic_field(10), 5),
    (cyclotomic_field(7), SPLIT),
    (trivial_extension(), SPLIT),
    (trivial_extension(), 1),
])
def test_class_outside_the_extension_raises(ext, key):
    with pytest.raises(DomainError):
        pi_class(ext, ConjClass(key), 100)


def test_cyclotomic_class_keys_compare_mod_q():
    c5 = cyclotomic_field(5)
    assert psi_class(c5, ConjClass(12), 1000) == psi_class(c5, ConjClass(2), 1000)
    assert pi_class(c5, ConjClass(-1), 1000) == pi_class(c5, ConjClass(4), 1000)


# -------------------------------------------------------------- census

def frobenius_power_key(ext, p, m):
    """Class key of Frobenius(p)^m by the Kronecker symbol or pow(p, m, q);
    None where p ramifies."""
    if ext.kind == "quadratic":
        sym = kronecker(ext.disc, p)
        return None if sym == 0 else (SPLIT if sym ** m == 1 else INERT)
    q = ext.disc
    return pow(p, m, q) if math.gcd(p, q) == 1 else None


_PRIME_POWERS = [p**m for p in _SMALL_PRIMES[:70] for m in range(2, 17) if p**m <= 10**5]


@settings(max_examples=40, deadline=None)
@given(d=st.integers(-300, 300).filter(lambda d: d not in (0, 1) and _squarefree(d)),
       q=st.integers(3, 300),
       x=st.one_of(st.integers(2, 10**5), st.floats(2.0, 1e5),
                   st.sampled_from(_SMALL_PRIMES), st.sampled_from(_PRIME_POWERS)))
def test_census_matches_per_prime_reference(d, q, x):
    for ext in (quadratic_field(d), cyclotomic_field(q)):
        pi = {k: 0 for k in ext.labels}
        theta = {k: 0.0 for k in ext.labels}
        psi = {k: 0.0 for k in ext.labels}
        for p in primes_upto(x).tolist():
            key = frobenius_power_key(ext, p, 1)
            if key is None:
                continue
            pi[key] += 1
            if p < x:
                theta[key] += math.log(p)
            pm, m = p, 1
            while pm < x:
                psi[frobenius_power_key(ext, p, m)] += math.log(p)
                pm, m = pm * p, m + 1
        for cls in conj_classes(ext):
            assert pi_class(ext, cls, x) == pi[cls.key]
            assert theta_class(ext, cls, x) == pytest.approx(theta[cls.key], rel=1e-12)
            assert psi_class(ext, cls, x) == pytest.approx(psi[cls.key], rel=1e-12)
        assert (sum(pi_class(ext, cls, x) for cls in conj_classes(ext))
                + sum(1 for p in ext.ramified if p <= x)) == primes_upto(x).size


def step_series(ext, x, first_powers_only):
    """{class key: the step CountSeries of psi_C (theta_C) below x}: a
    checkpoint at each class prime power (prime) n < x holding the sum up
    to n, closed by one at x; classes found per prime by the Kronecker
    symbol or pow(p, m, q)."""
    terms = []
    for p in primes_upto(x).tolist():
        pm, m = p, 1
        while pm < x and (m == 1 or not first_powers_only):
            terms.append((pm, math.log(p), frobenius_power_key(ext, p, m)))
            pm, m = pm * p, m + 1
    terms.sort()
    series = {}
    for key in ext.labels:
        kept = [(n, logp) for n, logp, k in terms if k == key]
        cps = [n for n, _ in kept] + [x]
        series[key] = CountSeries(cps, np.cumsum([logp for _, logp in kept] + [0.0]))
    return series


_PRIME_POWERS_TO_500 = [n for n in _PRIME_POWERS + _SMALL_PRIMES if 3 < n <= 500]


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       field=st.one_of(
           st.integers(-300, 300).filter(lambda d: d not in (0, 1) and _squarefree(d))
           .map(quadratic_field),
           st.integers(3, 200).map(cyclotomic_field)),
       x0=st.one_of(st.sampled_from(_PRIME_POWERS_TO_500),      # on a prime power
                    st.integers(4, 500),
                    st.floats(3.0, 500.0, exclude_min=True)))
def test_chain_summed_by_parts_matches_the_step_integral(data, field, x0):
    x = data.draw(st.one_of(st.sampled_from([p for p in _SMALL_PRIMES if x0 < p <= 5000]),
                            st.floats(x0 + 1, 5000.0).filter(lambda t: t != int(t))))
    psi, theta = step_series(field, x, False), step_series(field, x, True)
    for cls in conj_classes(field):
        count = sum(1 for p in primes_upto(x).tolist()
                    if frobenius_power_key(field, p, 1) == cls.key)
        rhs = partial_sum_pi_from_theta(psi[cls.key], x0, x) + x0
        chain = counting_chain_check(field, cls, x0, x)
        assert chain.lhs == count and chain.passed == (count <= rhs)
        assert chain.rhs == pytest.approx(rhs, rel=1e-12)
        assert theta_partial_sum(field, cls, x0, x) == pytest.approx(
            partial_sum_pi_from_theta(theta[cls.key], x0, x), rel=1e-12)


_FRESH_CENSUS = """
import json, sys
from chebkit.chebotarev import conj_classes, cyclotomic_field, pi_class, psi_class, theta_class
ext, x = cyclotomic_field(12), float(sys.argv[1])
print(json.dumps([[f(ext, c, x) for f in (pi_class, theta_class, psi_class)]
                  for c in conj_classes(ext)]))
"""


def test_census_is_built_once_per_field_and_x(monkeypatch):
    builds, results = [], []
    primes_upto_, census_ = chebotarev.primes_upto, chebotarev._census
    census_.cache_clear()
    monkeypatch.setattr(chebotarev, "primes_upto",
                        lambda x: builds.append(x) or primes_upto_(x))
    monkeypatch.setattr(chebotarev, "_census",
                        lambda ext, x: results.append(census_(ext, x)) or results[-1])

    def read_all(ext, x):
        return [[f(ext, c, x) for f in (pi_class, theta_class, psi_class)]
                for c in conj_classes(ext)]

    c12 = cyclotomic_field(12)
    read_all(c12, 5000.0)
    assert len(builds) == 1 and len(results) == 12
    assert all(r is results[0] for r in results)
    # the chain and the theta estimate read the same census, and list
    # prime powers only up to x0
    limits, prime_powers_ = [], chebotarev.prime_powers
    monkeypatch.setattr(chebotarev, "prime_powers",
                        lambda limit: limits.append(limit) or prime_powers_(limit))
    counting_chain_check(c12, ConjClass(5), 10, 5000.0)
    theta_partial_sum(c12, ConjClass(7), 10, 5000.0)
    assert len(builds) == 1 and limits == [10, 10]
    assert all(r is results[0] for r in results)
    got = read_all(c12, 7919.0)          # a new x rebuilds
    assert len(builds) == 2
    read_all(quadratic_field(-1), 5000.0)
    read_all(quadratic_field(-1), 5000.0)  # an equal map, but a new object
    assert len(builds) == 4 and census_.cache_info().misses == 4

    src = str(Path(chebotarev.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _FRESH_CENSUS, "7919.0"],
                          capture_output=True, text=True, env=env, check=True)
    assert got == json.loads(proc.stdout)


def test_an_int_x_and_the_equal_float_share_one_census():
    c12, cls = cyclotomic_field(12), ConjClass(5)
    chebotarev._census.cache_clear()
    pi_class(c12, cls, 10**6)
    theta_class(c12, cls, 1e6)
    assert chebotarev._census.cache_info()[:2] == (1, 1)     # (hits, misses)


def test_a_refused_census_keeps_the_kept_one():
    c12, cls = cyclotomic_field(12), ConjClass(5)
    chebotarev._census.cache_clear()
    count = pi_class(c12, cls, 5000.0)
    with pytest.raises(CapacityError):
        pi_class(c12, cls, 2.0**34)
    assert pi_class(c12, cls, 5000.0) == count
    assert chebotarev._census.cache_info().hits == 1
