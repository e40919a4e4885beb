import math
import tracemalloc
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebkit import bqf
from chebkit.arith import factorize, kronecker
from chebkit.bqf import (ClassGroupSummary, ReducedForm, class_number,
                         count_represented_primes, delta_q, reduce_form,
                         representation_density_report, represented_values)
from chebkit.chebotarev import SPLIT, ConjClass, pi_class, quadratic_field
from chebkit.errors import CapacityError, DomainError
from chebkit.sieve import primes_upto


# ------------------------------------------------------------- oracles

def sl2_transform(form, m):
    """Apply (x, y) -> (p x + q y, r x + s y) to the form coefficients."""
    a, b, c = form
    p, q, r, s = m
    return (a * p * p + b * p * r + c * r * r,
            2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
            a * q * q + b * q * s + c * s * s)


def small_sl2_matrices(bound=2):
    out = []
    rng = range(-bound, bound + 1)
    for p, q, r, s in product(rng, repeat=4):
        if p * s - q * r == 1:
            out.append((p, q, r, s))
    return out


def brute_force_class_count(D):
    """Independent h(-D): reduce every primitive form in a box and count
    distinct reduced representatives."""
    seen = set()
    bound = math.isqrt(D) + 2
    for a in range(1, bound):
        for b in range(-a, a + 1):
            num = b * b + D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            f = reduce_form(a, b, c)
            seen.add((f.a, f.b, f.c))
    return len(seen)


def naive_represented_values(a, b, c, x):
    """Box-enumeration oracle: index v <= x is True iff v = Q(m, n)."""
    n_bound = math.isqrt(4 * a * x // (4 * a * c - b * b)) + 2
    m_bound = math.isqrt(x // a) + abs(b) * n_bound // (2 * a) + 2
    m, n = np.meshgrid(np.arange(-m_bound, m_bound + 1), np.arange(-n_bound, n_bound + 1))
    v = (a * m * m + b * m * n + c * n * n).ravel()
    rep = np.zeros(x + 1, dtype=bool)
    rep[v[v <= x]] = True
    return rep


def naive_represented_primes(a, b, c, x):
    """Double-loop oracle for the primes represented by a form."""
    rep = set()
    n_bound = math.isqrt(4 * a * x // (4 * a * c - b * b)) + 2
    m_bound = math.isqrt(x // a) + abs(b) * n_bound // (2 * a) + 2
    primes = set(int(p) for p in primes_upto(x))
    for m in range(-m_bound, m_bound + 1):
        for n in range(-n_bound, n_bound + 1):
            v = a * m * m + b * m * n + c * n * n
            if v in primes:
                rep.add(v)
    return sorted(rep)


# ------------------------------------------------------------ reduction

def test_reduce_examples():
    assert reduce_form(1, 0, 1) == ReducedForm(1, 0, 1)
    assert reduce_form(2, 2, 3) == ReducedForm(2, 2, 3)
    assert reduce_form(1, 2, 2) == ReducedForm(1, 0, 1)


def test_reduce_rejects_bad_forms():
    with pytest.raises(DomainError):
        reduce_form(1, 0, -1)   # indefinite
    with pytest.raises(DomainError):
        reduce_form(-1, 0, -1)  # negative definite
    with pytest.raises(DomainError):
        reduce_form(2, 0, 2)    # imprimitive


def test_reduce_idempotent_and_sl2_invariant():
    matrices = small_sl2_matrices(2)
    rng = np.random.default_rng(9)
    forms = [(1, 0, 1), (2, 1, 3), (1, 1, 6), (2, 2, 3), (3, 2, 5), (1, 0, 23)]
    for a, b, c in forms:
        base = reduce_form(a, b, c)
        assert reduce_form(base.a, base.b, base.c) == base
        for idx in rng.choice(len(matrices), size=25, replace=False):
            ta, tb, tc = sl2_transform((a, b, c), matrices[idx])
            assert reduce_form(ta, tb, tc) == base, (matrices[idx], (ta, tb, tc))


def test_reduction_matches_sl2_word_search():
    # brute-force oracle: the reduced member of the SL2 orbit generated by
    # small matrices must coincide with reduce_form's output
    matrices = small_sl2_matrices(2)
    for seed in [(3, 1, 2), (4, 3, 2), (5, -4, 1)]:
        if seed[1] ** 2 - 4 * seed[0] * seed[2] >= 0:
            continue
        if seed[0] < 0:
            continue
        orbit = {seed}
        frontier = [seed]
        for _ in range(3):
            new = []
            for f in frontier:
                for m in matrices:
                    g = sl2_transform(f, m)
                    if g[0] > 0 and g not in orbit and max(map(abs, g)) < 500:
                        orbit.add(g)
                        new.append(g)
            frontier = new
        reduced_members = {f for f in orbit
                           if ReducedForm._is_reduced(f[0], f[1], f[2])}
        assert len(reduced_members) == 1
        member = next(iter(reduced_members))
        assert reduce_form(*seed) == ReducedForm(*member)


# ---------------------------------------------------------- class numbers

@pytest.mark.parametrize("D, h", [(3, 1), (4, 1), (8, 1), (20, 2), (23, 3),
                                  (40, 2), (47, 5), (71, 7)])
def test_class_numbers(D, h):
    summary = class_number(D)
    assert summary.h == h
    assert brute_force_class_count(D) == h
    for f in summary.forms:
        assert f.D == D


def test_class_group_d23_forms():
    forms = {(f.a, f.b, f.c) for f in class_number(23).forms}
    assert forms == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}


def test_class_number_rejects_bad_discriminants():
    with pytest.raises(DomainError):
        class_number(5)   # -5 = 3 mod 4
    with pytest.raises(DomainError):
        class_number(-4)


def test_class_number_refuses_a_discriminant_past_its_budget(monkeypatch):
    for D in (bqf._CLASS_NUMBER_BUDGET + 3, 10**23 + 3):     # -D = 1 mod 4
        with pytest.raises(CapacityError, match="class-number budget"):
            class_number(D)
    monkeypatch.setattr(bqf, "_CLASS_NUMBER_BUDGET", 23)
    assert class_number(23).h == 3
    with pytest.raises(CapacityError):
        class_number(24)


# --------------------------------------------------------------- delta_Q

def test_delta_q_values():
    assert delta_q(ReducedForm(1, 0, 1)) == 0.5
    assert delta_q(ReducedForm(2, 1, 3)) == 1.0
    assert delta_q(ReducedForm(1, 1, 6)) == 0.5


def test_ambiguity_flags_match_delta():
    for D in (D for D in range(3, 3001) if -D % 4 in (0, 1)):
        s = class_number(D)
        for f, flag in zip(s.forms, s.ambiguous):
            assert flag == (delta_q(f) == 0.5)
            # a form is ambiguous just when it equals its reduced opposite
            assert delta_q(f) == (0.5 if reduce_form(f.a, -f.b, f.c) == f else 1.0)


# ------------------------------------------------------- representation

def test_represented_primes_x2_y2():
    series = count_represented_primes(ReducedForm(1, 0, 1), 50)
    assert series.counts[-1] == 7
    assert naive_represented_primes(1, 0, 1, 50) == [2, 5, 13, 17, 29, 37, 41]


def test_represented_primes_x2_5y2():
    series = count_represented_primes(ReducedForm(1, 0, 5), 50)
    assert series.counts[-1] == 3
    assert naive_represented_primes(1, 0, 5, 50) == [5, 29, 41]


def test_represented_primes_against_naive_oracle():
    x = 2000
    for (a, b, c) in [(2, 1, 3), (2, 2, 3), (1, 1, 6), (2, 0, 5)]:
        form = ReducedForm(a, b, c)
        rep = represented_values(form, x)
        got = [int(p) for p in primes_upto(x) if rep[p]]
        assert got == naive_represented_primes(a, b, c, x)
    # the whole table, every value <= x, for every reduced form of every D <= 60
    for D in range(3, 61):
        if (-D) % 4 in (0, 1):
            for f in class_number(D).forms:
                assert np.array_equal(represented_values(f, x),
                                      naive_represented_values(f.a, f.b, f.c, x)), f
    # the last row of 4x^2 + 4xy + 5y^2 at x = 100, n = 5, holds no m; x = 0 has one row
    for (a, b, c), x in (((4, 4, 5), 100), ((2, 1, 3), 0)):
        assert np.array_equal(represented_values(ReducedForm(a, b, c), x),
                              naive_represented_values(a, b, c, x)), (a, b, c, x)


_DISCRIMINANTS = [D for D in range(3, 2001) if (-D) % 4 in (0, 1)]


@settings(max_examples=60, deadline=None)
@given(D=st.sampled_from(_DISCRIMINANTS), n=st.integers(0, 12), edge=st.integers(-1, 1),
       data=st.data())
def test_lattice_rows_at_a_row_tip_match_the_oracle(D, n, edge, data):
    # x at, one below or one above the least value on row n, so that row
    # holds zero, one or two points
    f = data.draw(st.sampled_from(class_number(D).forms))
    m = -f.b * n // (2 * f.a)
    x = max(min(f.a * k * k + f.b * k * n + f.c * n * n for k in (m, m + 1)) + edge, 0)
    assert np.array_equal(represented_values(f, x), naive_represented_values(f.a, f.b, f.c, x))


def test_lattice_row_guard_refuses_a_row_past_x(monkeypatch):
    # with every row's root one too large, row n = 1 of x^2 + y^2 at x = 4 takes m = 2
    form = ReducedForm(1, 0, 1)
    monkeypatch.setattr(bqf, "math", SimpleNamespace(isqrt=lambda v: math.isqrt(v) + 1))
    with pytest.raises(AssertionError, match="row n = 1 .* passes x = 4"):
        represented_values(form, 4)


def test_value_not_representing_two():
    # x^2 + xy + 6y^2 cannot take the value 2
    series = count_represented_primes(ReducedForm(1, 1, 6), 2)
    assert series.counts[-1] == 0


def test_checkpoint_series_monotone():
    series = count_represented_primes(ReducedForm(1, 0, 1), 10**4,
                                      checkpoints=[10, 100, 1000, 10**4])
    assert np.all(np.diff(series.counts) >= 0)


# ------------------------------------------------ density / cover checks

def test_density_report_fields():
    form = ReducedForm(1, 0, 1)
    [r] = representation_density_report(form, count_represented_primes(form, 10**5))
    assert r.h == 1 and r.delta == 0.5
    assert r.below_upper_bound
    assert not r.in_proven_range  # 1e5 is far below the D^695 range
    assert abs(r.ratio - 1) < 0.15


def test_disjoint_cover_identity():
    # weighted per-class counts assemble exactly to the Kronecker-split
    # count: sum over classes of count/(2 delta_Q) = #{p : (-D|p) = 1}
    x = 10**5
    ps = primes_upto(x)
    # the field Q(sqrt(d)) has discriminant -D
    for D, d in ((4, -1), (20, -5), (23, -23), (40, -10)):
        summary = class_number(D)
        table = np.array([kronecker(-D, r) for r in range(D)])
        split_mask = table[ps % D] == 1
        split_primes = ps[split_mask]
        assert pi_class(quadratic_field(d), ConjClass(SPLIT), x) == split_primes.size
        covered = np.zeros(split_primes.size, dtype=bool)
        weighted = 0.0
        for f in summary.forms:
            rep = represented_values(f, x)
            hits = rep[split_primes]
            covered |= hits
            weighted += np.count_nonzero(hits) / (2 * delta_q(f))
        assert bool(np.all(covered)), f"uncovered split primes for D={D}"
        assert weighted == split_primes.size


def test_sieve_guard_fires_before_the_represented_value_table(monkeypatch):
    # at x = 1e10 the table of represented values would take 10 GB
    def unreachable(form, x):
        raise AssertionError("represented_values reached past the sieve's guard")

    monkeypatch.setattr(bqf, "represented_values", unreachable)
    with pytest.raises(CapacityError):
        count_represented_primes(reduce_form(2, 1, 3), 10**10)


@pytest.mark.parametrize("D", sorted(bqf._CLASS_NUMBER_ONE))
def test_class_number_one_forms_count_their_split_primes_as_the_lattice_does(D):
    x = 10**5
    [form] = class_number(D).forms
    ps = primes_upto(x)
    rep = represented_values(form, x)
    checkpoints = sorted({2, 3, *factorize(D), 1000, x})
    series = count_represented_primes(form, x, checkpoints)
    assert series.counts.tolist() == [np.count_nonzero(rep[ps[ps <= c]]) for c in checkpoints]


def test_class_number_one_list_is_every_such_discriminant_to_10_4():
    found = {D for D in range(3, 10**4 + 1)
             if (-D) % 4 in (0, 1) and class_number(D).h == 1}
    assert found == bqf._CLASS_NUMBER_ONE


def test_represented_value_table_refuses_past_its_budget_before_allocating(monkeypatch):
    monkeypatch.setattr(bqf, "_TABLE_BYTES", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="1000"):
            represented_values(ReducedForm(2, 1, 3), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5                 # the table would take 10^6 bytes
    assert represented_values(ReducedForm(2, 1, 3), 999).size == 1000
    with pytest.raises(CapacityError):  # one entry past the budget
        represented_values(ReducedForm(2, 1, 3), 1000)
    with monkeypatch.context() as m:     # refused before the sieve runs
        m.setattr(bqf, "primes_upto", lambda x: pytest.fail("sieved past the budget"))
        with pytest.raises(CapacityError):
            count_represented_primes(ReducedForm(2, 1, 3), 10**4)
    # a class-number-one form builds no x-entry table
    ps = primes_upto(10**5)
    series = count_represented_primes(ReducedForm(1, 0, 1), 10**5)
    assert series.counts[-1] == 1 + np.count_nonzero(ps % 4 == 1)
