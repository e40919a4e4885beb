import math
from itertools import product

import numpy as np
import pytest

from chebkit import bqf
from chebkit.arith import kronecker
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


# --------------------------------------------------------------- delta_Q

def test_delta_q_values():
    assert delta_q(ReducedForm(1, 0, 1)) == 0.5
    assert delta_q(ReducedForm(2, 1, 3)) == 1.0
    assert delta_q(ReducedForm(1, 1, 6)) == 0.5


def test_ambiguity_flags_match_delta():
    for D in (4, 20, 23, 40):
        s = class_number(D)
        for f, flag in zip(s.forms, s.ambiguous):
            assert flag == (delta_q(f) == 0.5)


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
    for (a, b, c) in [(2, 1, 3), (2, 2, 3), (1, 1, 6), (2, 0, 5)]:
        form = ReducedForm(a, b, c)
        x = 2000
        rep = represented_values(form, x)
        got = [int(p) for p in primes_upto(x) if rep[p]]
        assert got == naive_represented_primes(a, b, c, x)


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
    r = representation_density_report(ReducedForm(1, 0, 1), 10**5)
    assert r.h == 1 and r.delta == 0.5
    assert r.upper_bound == pytest.approx(2 * r.target)
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
