import math

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from chebkit import sieve
from chebkit.errors import CapacityError, DomainError
from chebkit.sieve import (CountSeries, li, prime_powers, primes_upto,
                           segmented_primes, simple_sieve)


# ------------------------------------------------------------- oracles

def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def odd_wheel_sieve_count(limit: int) -> int:
    """Independent pi(limit) oracle: odd-only bytearray sieve."""
    if limit < 2:
        return 0
    size = (limit - 1) // 2  # indices i <-> odd numbers 2i+3
    mark = bytearray(size)
    i = 0
    while (2 * i + 3) ** 2 <= limit:
        if not mark[i]:
            p = 2 * i + 3
            start = (p * p - 3) // 2
            mark[start::p] = b"\x01" * len(mark[start::p])
        i += 1
    return 1 + sum(1 for b in mark if not b)


# ------------------------------------------------------- segmented sieve

def test_small_range_matches_frozen_list():
    assert segmented_primes(2, 30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_empty_interval():
    assert len(segmented_primes(2, 2)) == 0


def test_high_segment_frozen():
    # oracle: trial division over the window
    window = [n for n in range(10**6, 10**6 + 100) if trial_division_is_prime(n)]
    assert window == [1000003, 1000033, 1000037, 1000039, 1000081, 1000099]
    assert segmented_primes(10**6, 10**6 + 100).tolist() == window


def test_pi_1e6_against_independent_sieve():
    assert odd_wheel_sieve_count(10**6) == 78498
    assert len(segmented_primes(2, 10**6 + 1)) == 78498


def test_all_listed_are_prime_spot_check():
    primes = segmented_primes(2, 50_000)
    rng = np.random.default_rng(7)
    for p in rng.choice(primes, size=200, replace=False):
        assert trial_division_is_prime(int(p))


def test_no_prime_omitted_on_random_window():
    rng = np.random.default_rng(11)
    for _ in range(5):
        lo = int(rng.integers(2, 10**6))
        hi = lo + 500
        got = set(segmented_primes(lo, hi).tolist())
        expect = {n for n in range(lo, hi) if trial_division_is_prime(n)}
        assert got == expect


@pytest.mark.parametrize("segment_size", [2**10, 3001, 2**14, 2**20])
def test_segment_size_independence(monkeypatch, segment_size):
    baseline = segmented_primes(2, 200_000)
    monkeypatch.setattr(sieve, "_SEGMENT_SIZE", segment_size)
    assert np.array_equal(segmented_primes(2, 200_000), baseline)


def test_memory_budget_enforced():
    with pytest.raises(CapacityError):
        segmented_primes(2, 2**40)


def test_primes_upto_consistent_with_simple_sieve():
    assert np.array_equal(primes_upto(10_000), simple_sieve(10_000))


def test_primes_upto_sieves_only_new_windows_inside_budget(monkeypatch):
    windows = []

    def recording_sieve(lo, hi):
        windows.append((lo, hi))
        if hi > 10**6:  # record the window without sieving it
            return np.empty(0, dtype=np.int64)
        ps = simple_sieve(hi - 1)
        return ps[ps >= lo]

    monkeypatch.setattr(sieve, "_table", (1, np.empty(0, dtype=np.int64)))
    monkeypatch.setattr(sieve, "segmented_primes", recording_sieve)
    assert np.array_equal(primes_upto(1000), simple_sieve(1000))
    assert np.array_equal(primes_upto(500), simple_sieve(500))   # inside the table
    assert np.array_equal(primes_upto(1000.9), simple_sieve(1000))
    assert np.array_equal(primes_upto(5000), simple_sieve(5000))
    primes_upto(2**32 + 1)
    assert windows == [(2, 1001), (1001, 5001), (5001, 2**32 + 2)]
    # no sieve goes past n + 1, which must fit the default budget when n does
    assert windows[-1][1] <= sieve._MEMORY_BUDGET


def test_primes_upto_past_budget_leaves_table_intact(monkeypatch):
    monkeypatch.setattr(sieve, "_table", (1, np.empty(0, dtype=np.int64)))
    primes_upto(100)
    with pytest.raises(CapacityError):
        primes_upto(sieve._MEMORY_BUDGET + 5)
    assert np.array_equal(primes_upto(200), simple_sieve(200))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-3.0, max_value=30_000.0), min_size=1, max_size=8))
def test_grown_table_matches_simple_sieve(requests):
    saved = sieve._table
    sieve._table = (1, np.empty(0, dtype=np.int64))
    try:
        for n in requests:
            got = primes_upto(n)
            assert got.dtype == np.int64
            assert np.array_equal(got, simple_sieve(math.floor(n)))
    finally:
        sieve._table = saved


# ----------------------------------------------------------- prime powers

def test_prime_powers_below_20():
    vals, prs, exps = prime_powers(20)
    assert vals.tolist() == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]
    assert all(p ** m == v for v, p, m in zip(vals, prs, exps))


def test_prime_powers_strictness():
    assert 16 not in prime_powers(15.5)[0].tolist()
    assert 16 in prime_powers(16)[0].tolist()


def brute_prime_powers(limit):
    """(p^m, p, m) up to ``limit``, raised in Python ints."""
    found = []
    for p in simple_sieve(math.floor(limit)).tolist():
        v, m = p, 1
        while v <= limit:
            found.append((v, p, m))
            v, m = v * p, m + 1
    return sorted(found)


SMALL_PRIME_POWERS = [p ** m for p in simple_sieve(450).tolist() for m in range(1, 18)
                      if p ** m <= 200_000]


@settings(max_examples=80, deadline=None)
@given(st.one_of(
           st.floats(min_value=0.0, max_value=2e5),
           st.floats(min_value=0.0, max_value=2.0),
           st.integers(min_value=0, max_value=200_000),
           st.sampled_from(SMALL_PRIME_POWERS),
           st.builds(lambda v, d: v + d, st.sampled_from(SMALL_PRIME_POWERS),
                     st.sampled_from([-1e-7, 1e-7, -1.0, 1.0]))))
def test_prime_powers_match_brute_force(limit):
    got = prime_powers(limit)
    assert all(a.dtype == np.int64 for a in got)
    assert list(zip(*(a.tolist() for a in got))) == brute_prime_powers(limit)
    assert np.all(np.diff(got[0]) > 0)


# -------------------------------------------------------------------- li

def test_li_at_2_is_zero():
    assert li(2.0) == 0.0


def test_li_against_expi_oracle():
    for x in (10.0, 1e3, 1e6, 1e9):
        oracle = sc.expi(math.log(x)) - sc.expi(math.log(2.0))
        assert li(x) == pytest.approx(oracle, rel=1e-6)


def test_li_exceeds_x_over_log_x_past_e4():
    for x in (math.e**4 + 1, math.e**5, 1e4, 1e8):
        assert li(x) > x / math.log(x)


def test_li_domain():
    with pytest.raises(DomainError):
        li(1.5)


# ------------------------------------------------------- partial summation

def partial_sum_pi_from_theta(theta_series: CountSeries, x0: float, x: float) -> float:
    """Reference: theta(x)/log x + int_{x0}^{x} theta(t)/(t log^2 t) dt.

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
    # cps[i0:] lie past x0, so the levels on ts are counts[i0 - 1:], 0 before cps[0]
    i0 = int(np.searchsorted(cps, x0, side="right"))
    ts = np.concatenate(([x0], cps[i0: int(np.searchsorted(cps, x))], [x]))
    levels = np.concatenate(([0.0], theta_series.counts))[i0: i0 + ts.size - 1]
    inv_log = 1.0 / np.log(ts)
    integral = float(np.sum(levels * (inv_log[:-1] - inv_log[1:])))
    return theta_series.at(x) / math.log(x) + integral


def test_partial_sum_zero_series():
    grid = np.linspace(4, 30, 100)
    series = CountSeries(grid, np.zeros(grid.size))
    assert partial_sum_pi_from_theta(series, 4.0, 30.0) == 0.0


def test_partial_sum_recovers_count():
    # theta for the primes {5, 13, 17}: steps of log p at each prime
    primes = [5, 13, 17]
    grid = np.linspace(4.0, 20.0, 4001)
    theta = np.array([sum(math.log(p) for p in primes if p < t) for t in grid])
    series = CountSeries(grid, theta)
    est = partial_sum_pi_from_theta(series, 4.0, 20.0)
    assert est == pytest.approx(3.0, rel=0.01)


def test_partial_sum_is_exact_on_prime_checkpoints():
    # theta for the primes {5, 13, 17} with one checkpoint per jump and one
    # at x: the step integral recovers #{4 < p <= 20} = 3 exactly
    cps = [5.0, 13.0, 17.0, 20.0]
    theta = np.cumsum([math.log(5), math.log(13), math.log(17), 0.0])
    series = CountSeries(cps, theta)
    assert partial_sum_pi_from_theta(series, 4.0, 20.0) == pytest.approx(3.0, abs=1e-12)


def searchsorted_partial_sum(theta_series, x0, x):
    """Reference: the levels found by one searchsorted per interval start."""
    cps = theta_series.checkpoints
    ts = np.concatenate(([x0], cps[(cps > x0) & (cps < x)], [x]))
    levels = np.concatenate(([0.0], theta_series.counts))[
        np.searchsorted(cps, ts[:-1], side="right")]
    inv_log = 1.0 / np.log(ts)
    integral = float(np.sum(levels * (inv_log[:-1] - inv_log[1:])))
    return theta_series.at(x) / math.log(x) + integral


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       cps=st.lists(st.integers(5, 400), min_size=2, max_size=60, unique=True).map(sorted),
       offset=st.sampled_from([0.0, 0.5]))
def test_partial_sum_levels_by_index_match_searchsorted(data, cps, offset):
    cps = np.array(cps, dtype=float) + offset
    steps = data.draw(st.lists(st.floats(0.0, 50.0), min_size=cps.size, max_size=cps.size))
    series = CountSeries(cps, np.cumsum(steps))
    x0 = data.draw(st.one_of(
        st.sampled_from(cps[:-1].tolist()),                       # on a checkpoint
        st.floats(3.0, cps[0], exclude_min=True),                 # below the first
        st.floats(3.0, cps[-1], exclude_min=True, exclude_max=True)))
    x = data.draw(st.one_of(st.sampled_from(cps[cps > x0].tolist()),
                            st.floats(x0, cps[-1], exclude_min=True)))
    assert partial_sum_pi_from_theta(series, x0, x) == searchsorted_partial_sum(series, x0, x)


def test_partial_sum_domain_errors():
    grid = np.linspace(4, 30, 10)
    series = CountSeries(grid, np.zeros(10))
    with pytest.raises(DomainError):
        partial_sum_pi_from_theta(series, 30.0, 10.0)
    with pytest.raises(DomainError):
        partial_sum_pi_from_theta(series, 2.0, 20.0)  # x0 <= 3
    with pytest.raises(DomainError):
        partial_sum_pi_from_theta(series, 5.0, 50.0)  # not covered


# ------------------------------------------------------------ CountSeries

def test_count_series_rejects_decreasing_counts():
    with pytest.raises(DomainError):
        CountSeries(np.array([1.0, 2.0]), np.array([3.0, 1.0]))
    with pytest.raises(DomainError):      # no tolerance, however small the drop
        CountSeries(np.array([1.0, 2.0]), np.array([1e6, 1e6 - 1e-6]))


def test_of_hits_refuses_checkpoints_past_x():
    hits = np.array([2, 3, 5, 7])
    assert CountSeries.of_hits(hits, 7).counts.tolist() == [4.0]
    # a checkpoint counts the hits up to its floor, which may equal x
    assert CountSeries.of_hits(hits, 10, [5, 10.5]).counts.tolist() == [3.0, 4.0]
    for cps in ([5, 11], [5, float("nan")]):
        with pytest.raises(DomainError, match="past x = 10"):
            CountSeries.of_hits(hits, 10, cps)


def test_count_series_rejects_unsorted_checkpoints():
    with pytest.raises(DomainError):
        CountSeries(np.array([2.0, 1.0]), np.array([0.0, 1.0]))


def test_count_series_step_lookup():
    s = CountSeries(np.array([10.0, 20.0]), np.array([1.0, 4.0]))
    assert s.at(5) == 0.0
    assert s.at(10) == 1.0
    assert s.at(19.9) == 1.0
    assert s.at(25) == 4.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=5000), st.integers(min_value=3, max_value=5000))
def test_segmented_matches_trial_division(a, b):
    lo, hi = min(a, b), max(a, b) + 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "_SEGMENT_SIZE", 2**10)
        got = segmented_primes(lo, hi).tolist()
    assert got == [n for n in range(lo, hi) if trial_division_is_prime(n)]
