"""The counting passes over the prime table read it in blocks of
``sieve._BLOCK`` primes.  Each is checked here against the one-pass version
it replaced, kept below as the reference, with the block monkeypatched
small and x on and off block edges; and each must stay within a memory
budget far below the table's size."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chebkit import chebotarev, progressions, sieve
from chebkit.arith import factorize, squarefree_kernel
from chebkit.bqf import (_CLASS_NUMBER_ONE, ReducedForm, class_number,
                         count_represented_primes, represented_values)
from chebkit.chebotarev import cyclotomic_field, quadratic_field, trivial_extension
from chebkit.progressions import APQuery, pi_ap, residue_counts
from chebkit.sieve import _higher_powers, primes_upto, simple_sieve

_PRIMES = simple_sieve(20_000)


def census_one_pass(ext, x):
    mod, n = abs(ext.disc), len(ext.labels) + 1
    ps = primes_upto(x)
    k = ext.index[ps % mod]
    below = int(np.searchsorted(ps, x))
    first = np.bincount(k[:below], minlength=n)[:-1]
    pi = first + np.bincount(k[below:], minlength=n)[:-1]
    theta = np.bincount(k[:below], weights=np.log(ps[:below]), minlength=n)[:-1]
    values, primes, exps = _higher_powers(math.ceil(x) - 1)
    kh = ext.index[values % mod]
    psi = theta + np.bincount(kh, weights=np.log(primes), minlength=n)[:-1]
    higher = np.bincount(kh, weights=1.0 / exps, minlength=n)[:-1]
    return pi, theta, psi, first, higher


def represented_one_pass(form, x):
    """The ascending represented primes <= x, from one pass."""
    ps = primes_upto(x)
    if form.D not in _CLASS_NUMBER_ONE:
        return ps[represented_values(form, x)[ps]]
    field = quadratic_field(squarefree_kernel(-form.D))
    odd = ps[1:]
    hits = odd[(field.index == 0)[odd % abs(field.disc)]]
    lattice = np.array([p for p in factorize(2 * form.D) if p <= x], dtype=np.int64)
    rep = represented_values(form, int(lattice[-1]) if lattice.size else 0)
    return np.sort(np.concatenate((hits, lattice[rep[lattice]])))


# x at the edge of block number `blocks` (its last prime, one before or one
# after), or half a unit past it
_CUTS = st.tuples(st.integers(1, 40), st.integers(0, 30), st.integers(-1, 1),
                  st.sampled_from([0.0, 0.5, -0.5]))


def _cut(block, blocks, edge, shift):
    return max(2.0, float(_PRIMES[max(block * blocks + edge, 0)]) + shift)


@settings(max_examples=60, deadline=None)
@given(cut=_CUTS, q=st.integers(1, 120))
@example(cut=(1, 0, 0, 0.0), q=1)
def test_blocked_residue_counts_equal_one_pass(cut, q):
    x = _cut(*cut)
    ps = primes_upto(x)
    expect = np.bincount(ps[ps <= x] % q, minlength=q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "_BLOCK", cut[0])
        progressions._counts.cache_clear()
        kept = residue_counts(q, x)
        given_primes = residue_counts(q, x, _PRIMES)       # past x: filtered per block
    assert np.array_equal(kept, expect) and np.array_equal(given_primes, expect)
    assert kept.dtype == given_primes.dtype == np.int64
    progressions._counts.cache_clear()


@settings(max_examples=100, deadline=None)
@given(a=hnp.arrays(np.int64, st.integers(0, 50)), m=st.integers(1, 2**33),
       step=st.sampled_from([1, 2, 3, -1, -2]))
@example(a=np.array([np.iinfo(np.int64).min, -2**33 - 1, -1, 0, 1, 2**33, np.iinfo(np.int64).max]),
         m=2**33, step=1)
def test_mod_by_floor_division_equals_remainder(a, m, step):
    view = a[::step]                                  # a strided view for |step| > 1
    got = sieve._mod(view, m)
    assert got.dtype == np.int64 and np.array_equal(got, view % m)


@settings(max_examples=60, deadline=None)
@given(primes=st.lists(st.sampled_from(_PRIMES[:300].tolist()), max_size=80),
       x=st.integers(0, 2000), shift=st.sampled_from([0.0, 0.5]),
       block=st.integers(1, 9), q=st.integers(1, 60))
@example(primes=_PRIMES[:40].tolist(), x=int(_PRIMES[11]), shift=0.0, block=4, q=7)
@example(primes=_PRIMES[:40].tolist(), x=int(_PRIMES[10]), shift=0.5, block=4, q=7)
@example(primes=_PRIMES[40:0:-1].tolist() * 2, x=100, shift=0.0, block=3, q=12)
def test_residue_counts_masks_only_blocks_past_x(primes, x, shift, block, q):
    # drawn lists are unsorted and repeat; the examples hold ascending primes
    # with one block across x and the last blocks wholly past it
    ps = np.array(primes, dtype=np.int64)
    x = x + shift
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "_BLOCK", block)
        got = residue_counts(q, x, ps)
    assert np.array_equal(got, np.bincount(ps[ps <= x] % q, minlength=q))
    assert got.dtype == np.int64


@settings(max_examples=60, deadline=None)
@given(cut=_CUTS, field=st.sampled_from([("q", -1), ("q", 5), ("q", -23), ("c", 7),
                                         ("c", 12), ("t", None)]))
def test_blocked_census_equals_one_pass_to_the_bit(cut, field):
    kind, v = field
    ext = {"q": quadratic_field, "c": cyclotomic_field, "t": lambda _: trivial_extension()}[kind](v)
    x = _cut(*cut)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "_BLOCK", cut[0])
        chebotarev._census.cache_clear()
        got = chebotarev._census(ext, x)
    chebotarev._census.cache_clear()
    for a, b in zip(got, census_one_pass(ext, x)):     # theta and psi exactly, not approx
        assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(cut=_CUTS, D=st.sampled_from(sorted(_CLASS_NUMBER_ONE) + [20, 23, 56]), data=st.data())
def test_blocked_represented_primes_equal_one_pass(cut, D, data):
    form = data.draw(st.sampled_from(class_number(D).forms))
    x = int(_cut(*cut))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "_BLOCK", cut[0])
        series = count_represented_primes(form, x, np.arange(2, x + 1))
    hits = represented_one_pass(form, x)
    # a count at every integer <= x is the set of hits itself
    assert series.counts.tolist() == np.searchsorted(hits, np.arange(2, x + 1), "right").tolist()


_BUDGET = 2 * 2**20       # bytes; the table to 1e7 takes 5.3 MB


@pytest.mark.parametrize("name, call", [
    ("_census", lambda: chebotarev._census(quadratic_field(-7), 1e7)),
    ("_counts", lambda: residue_counts(97, 1e7)),
    ("residue_counts with primes", lambda: residue_counts(97, 1e7, primes_upto(1e7))),
    ("pi_ap past the map limit", lambda: pi_ap(APQuery(q=2**20 + 7, a=5, x=1e7))),
    ("class number one", lambda: count_represented_primes(ReducedForm(1, 1, 2), 10**7)),
])
def test_counting_passes_allocate_nothing_table_sized(name, call):
    primes_upto(1e7)
    quadratic_field(-7)
    chebotarev._census.cache_clear()
    progressions._counts.cache_clear()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        chebotarev._census.cache_clear()
        progressions._counts.cache_clear()
    assert peak < _BUDGET, f"{name} peaked at {peak} bytes"
