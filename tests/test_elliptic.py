import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chebkit import elliptic, sieve
from chebkit.arith import factorize, kronecker, squarefree_kernel
from chebkit.chebotarev import quadratic_field
from chebkit.cli import run
from chebkit.elliptic import (CurveModel, FrobeniusRecord, frobenius_field_count,
                              frobenius_traces, growth_shape_report, read_curves,
                              trace_match_count, trace_of_frobenius, trace_table)
from chebkit.errors import CapacityError, DomainError
from chebkit.sieve import CountSeries, primes_upto, segmented_primes

TEST_CURVES = [CurveModel(1, 1), CurveModel(-1, 1), CurveModel(2, 3),
               CurveModel(5, 7), CurveModel(-7, 10)]
# (j, D_K): the 13 rational CM j-invariants, each with the discriminant of its CM field
CM_FIELDS = [(0, -3), (1728, -4), (-3375, -7), (8000, -8), (-32768, -11), (54000, -3),
             (287496, -4), (-884736, -19), (-12288000, -3), (16581375, -7),
             (-884736000, -43), (-147197952000, -67), (-262537412640768000, -163)]
CM_DISCS = sorted({D for _, D in CM_FIELDS})


def cm_curve(j):
    """y^2 = x^3 + 1 (j = 0), y^2 = x^3 - x (j = 1728), and for every other
    rational CM j-invariant the curve A = 3j(1728 - j), B = 2j(1728 - j)^2."""
    if j in (0, 1728):
        return CurveModel(0, 1) if j == 0 else CurveModel(-1, 0)
    return CurveModel(3 * j * (1728 - j), 2 * j * (1728 - j) ** 2)


# ------------------------------------------------------------- oracles

def naive_point_count(A, B, p):
    """Direct double loop over affine points, plus the point at infinity."""
    count = 1
    for x in range(p):
        rhs = (x * x * x + A * x + B) % p
        for y in range(p):
            if (y * y) % p == rhs:
                count += 1
    return count


def test_curve_validation():
    with pytest.raises(DomainError):
        CurveModel(0, 0)
    with pytest.raises(DomainError):
        CurveModel(-3, 2)  # 4*(-27) + 27*4 = 0


def test_trace_examples_against_point_count():
    E = CurveModel(1, 1)
    assert naive_point_count(1, 1, 5) == 9
    assert trace_of_frobenius(E, 5).a_p == -3
    assert naive_point_count(1, 1, 7) == 5
    assert trace_of_frobenius(E, 7).a_p == 3


def test_trace_against_naive_oracle_sample():
    rng = np.random.default_rng(1)
    primes = [int(p) for p in primes_upto(200) if p > 3]
    for E in TEST_CURVES:
        for p in rng.choice(primes, size=8, replace=False):
            p = int(p)
            if not E.has_good_reduction(p):
                continue
            expect = p + 1 - naive_point_count(E.A, E.B, p)
            assert trace_of_frobenius(E, p).a_p == expect


def test_bad_reduction_marked_skip():
    E = CurveModel(1, 1)  # disc factor 31
    rec = trace_of_frobenius(E, 31)
    assert rec.skipped
    assert trace_of_frobenius(E, 2).skipped and trace_of_frobenius(E, 3).skipped


def test_hasse_bound_is_hard_invariant():
    with pytest.raises(DomainError):
        FrobeniusRecord(p=5, a_p=5, disc_part=1)
    ps, aps = trace_table(CurveModel(1, 1), 20_000)
    assert np.all(aps.astype(float) ** 2 < 4 * ps.astype(float))


def test_bsgs_agrees_with_charsum():
    rng = np.random.default_rng(2)
    primes = [int(p) for p in primes_upto(10**4) if p > 10**3]
    for E in TEST_CURVES:
        for p in rng.choice(primes, size=10, replace=False):
            p = int(p)
            if not E.has_good_reduction(p):
                continue
            a1 = trace_of_frobenius(E, p, method="bsgs").a_p
            a2 = trace_of_frobenius(E, p, method="charsum").a_p
            assert a1 == a2, (E, p)


SMALL_PRIMES = [int(p) for p in primes_upto(10**5) if p > 3]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["generic", "j0", "j1728"]),
       st.integers(min_value=-50, max_value=50), st.integers(min_value=-50, max_value=50),
       st.lists(st.sampled_from([p for p in SMALL_PRIMES if p % 4 == 1]), min_size=1, max_size=8),
       st.lists(st.sampled_from([p for p in SMALL_PRIMES if p % 4 == 3]), min_size=1, max_size=8))
def test_batched_bsgs_agrees_with_charsum(kind, A, B, one_mod_4, three_mod_4):
    A = 0 if kind == "j0" else A or 1
    B = 0 if kind == "j1728" else B or 1
    assume(4 * A ** 3 + 27 * B ** 2 != 0)
    E = CurveModel(A, B)
    ps = sorted(set(one_mod_4 + three_mod_4))
    ps = np.array([p for p in ps if E.has_good_reduction(p)], dtype=np.int64)
    batched = frobenius_traces(E, ps, method="bsgs")
    assert batched.dtype == np.int64
    for p, a in zip(ps.tolist(), batched.tolist()):
        assert a == trace_of_frobenius(E, p, method="charsum").a_p, (A, B, p)


@pytest.mark.parametrize("A,B", [(0, 1), (0, -7), (0, 5), (-1, 0), (3, 0), (-4, 0),
                                 (-7, 6), (-13, 12)])
def test_batched_bsgs_agrees_with_charsum_on_every_small_prime(monkeypatch, A, B):
    # j = 0, j = 1728 and full rational 2-torsion: small point orders, so
    # several hits per search, clashing baby steps and hits at the giant
    # step centres all occur among these primes
    E = CurveModel(A, B)
    ps = np.array([p for p in SMALL_PRIMES if p < 20_000 and E.has_good_reduction(p)])
    expect = [trace_of_frobenius(E, int(p), method="charsum").a_p for p in ps]
    fallbacks, charsum = [], elliptic.trace_of_frobenius

    def spy(curve, p, method="auto"):
        fallbacks.append(p)
        return charsum(curve, p, method)
    monkeypatch.setattr(elliptic, "trace_of_frobenius", spy)
    assert frobenius_traces(E, ps, method="bsgs").tolist() == expect
    # a lane that no round settles ends in the character sum: keep that rare
    assert sum(p >= 1000 for p in fallbacks) <= 3, fallbacks


PRIMES_5E4 = primes_upto(50_000)


@pytest.mark.parametrize("j,D", CM_FIELDS, ids=[str(j) for j, _ in CM_FIELDS])
def test_cm_closed_form_agrees_with_bsgs_and_charsum(monkeypatch, j, D):
    # 'auto' takes the closed form at j = 0 and 1728 only; the other 11 CM
    # curves run the BSGS rounds, as 'bsgs' does, and never reach Cornacchia
    E = cm_curve(j)
    ps = PRIMES_5E4[E.has_good_reduction(PRIMES_5E4)]
    searched, fallbacks, cornacchia = [], [], []
    orders, charsum, solve = elliptic._point_orders, elliptic._trace_charsum, elliptic._cornacchia

    def spy_orders(p, *args):
        searched.extend(p.tolist())
        return orders(p, *args)

    def spy_charsum(curve, p):
        fallbacks.append(p)
        return charsum(curve, p)
    monkeypatch.setattr(elliptic, "_point_orders", spy_orders)
    monkeypatch.setattr(elliptic, "_trace_charsum", spy_charsum)
    monkeypatch.setattr(elliptic, "_cornacchia", lambda p, D: cornacchia.append(p) or solve(p, D))
    auto = frobenius_traces(E, ps)
    # a_p = 0 just at the inert primes (Deuring)
    assert (auto == 0).tolist() == [kronecker(D, p) == -1 for p in ps.tolist()]
    if j in (0, 1728):
        # the closed form settles every inert lane and all but 1% of the
        # split ones, the smallest primes included
        split = [p for p in ps.tolist() if kronecker(D, p) == 1]
        open_lanes = searched + fallbacks
        assert all(kronecker(D, p) == 1 for p in open_lanes)
        assert len(open_lanes) <= 0.01 * len(split)
    else:
        assert cornacchia == []
    monkeypatch.undo()
    assert np.array_equal(auto, frobenius_traces(E, ps, "bsgs"))
    small = ps < 5_000
    assert np.array_equal(auto[small], frobenius_traces(E, ps[small], "charsum"))


def test_bsgs_lanes_of_a_cm_curve_draw_round_major(monkeypatch):
    # the -7 twist of the j = 54000 curve to 5e4 in blocks of 1024 baby
    # steps: it has CM, but 'auto' runs its lanes through the BSGS rounds as
    # 'bsgs' does.  87 blocks take draw 0 and the lanes left open go on to
    # draws 1 to 7; every block takes draw r before any takes r + 1
    j = cm_curve(54000)
    E = CurveModel(j.A * 7 ** 2, j.B * (-7) ** 3)
    ps = PRIMES_5E4[E.has_good_reduction(PRIMES_5E4)]
    rounds, draw = [], elliptic._draw
    monkeypatch.setattr(elliptic, "_BLOCK_ENTRIES", 1024)
    monkeypatch.setattr(elliptic, "_draw", lambda p, A, B, r: rounds.append(r) or draw(p, A, B, r))
    auto = frobenius_traces(E, ps)
    assert rounds.count(0) >= 3 and max(rounds) >= 2
    assert rounds == sorted(rounds)
    monkeypatch.undo()
    assert np.array_equal(auto, frobenius_traces(E, ps, "bsgs"))
    assert np.array_equal(auto, frobenius_traces(E, ps, "charsum"))


@pytest.mark.parametrize("A,B,p", [(-6, 0, 16901), (1, 0, 17957)])
def test_bsgs_settles_a_square_group_through_the_twist(monkeypatch, A, B, p):
    # E(F_p) = Z/n x Z/n with n = sqrt(p - 1): no point of E singles #E out
    # of the Hasse interval, and draw 0 has a square f at both primes, so a
    # lane settles only on a draw on the twist
    E = CurveModel(A, B)
    expect = elliptic._trace_charsum(E, p)
    assert elliptic._draw(np.array([p]), np.array([A % p]), np.array([B]), 0)[1][0] == 1
    monkeypatch.setattr(elliptic, "_trace_charsum",
                        lambda curve, q: pytest.fail(f"p = {q} reached the character sum"))
    assert frobenius_traces(E, [p], "bsgs").tolist() == [expect]


@pytest.mark.parametrize("method", ["auto", "bsgs"])
def test_lane_that_no_round_settles_takes_the_charsum(monkeypatch, method):
    # over F_5, y^2 = x^3 - x + 5 has E(F_5) = Z/2 x Z/4 and its twist
    # Z/2 x Z/2: every point's order has two or more multiples in the Hasse
    # interval [2, 10], so no round settles p = 5
    E = CurveModel(-1, 5)
    assert not E.has_cm and naive_point_count(-1, 5, 5) == 8
    ps = PRIMES_5E4[E.has_good_reduction(PRIMES_5E4) & (PRIMES_5E4 < 100)]
    expect = [elliptic._trace_charsum(E, p) for p in ps.tolist()]
    fallbacks, charsum = [], elliptic._trace_charsum
    monkeypatch.setattr(elliptic, "_trace_charsum",
                        lambda curve, p: fallbacks.append(p) or charsum(curve, p))
    assert frobenius_traces(E, ps, method).tolist() == expect
    assert 5 in fallbacks


@settings(max_examples=20, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50))
def test_resample_draws_alternate_the_twist(A, B):
    B = B or 1
    assume(4 * A ** 3 + 27 * B ** 2 != 0)     # (-3, 2) and (-12, 16) are singular
    ps = PRIMES_5E4[PRIMES_5E4 > 1000]
    ps = ps[CurveModel(A, B).has_good_reduction(ps)]
    A_, B_ = A % ps, B % ps
    f0, chi0 = elliptic._draw(ps, A_, B_, 0)[:2]
    assert np.array_equal(f0, ((elliptic._DRAW % ps) ** 3 + A_ * elliptic._DRAW + B_) % ps)
    for r in range(1, elliptic._ROUNDS):
        f, chi = elliptic._draw(ps, A_, B_, r)[:2]
        assert (f != 0).all() and np.array_equal(chi, chi0 * (-1) ** r)


@pytest.mark.parametrize("D", CM_DISCS)
def test_cm_field_map_matches_euler_criterion(D):
    # the CM lanes read split or inert from K's Frobenius map
    ps = primes_upto(2 * 10**5)
    ps = ps[ps >= 5]
    K = quadratic_field(squarefree_kernel(D))
    assert K.disc == D
    euler = [{1: 0, p - 1: 1, 0: 2}[pow(D % p, (p - 1) // 2, p)] for p in ps.tolist()]
    assert K.classes(ps).tolist() == euler     # split, inert, ramified


@pytest.mark.parametrize("A,B", [(4, 0), (3, 8), (0, -3), (-7, 0), (-7, 5), (0, -9)])
def test_benchmark_curves_agree_with_bsgs(A, B):
    # the six curves of the frobenius benchmark at seed 1, four with CM
    E = CurveModel(A, B)
    ps = PRIMES_5E4[E.has_good_reduction(PRIMES_5E4)]
    assert np.array_equal(frobenius_traces(E, ps), frobenius_traces(E, ps, "bsgs"))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["j0", "j1728"]), st.integers(min_value=-10**6, max_value=10**6),
       st.lists(st.sampled_from([p for p in SMALL_PRIMES if p > 1000]),
                min_size=1, max_size=8, unique=True))
def test_cm_closed_form_on_random_twists(kind, coeff, primes):
    E = CurveModel(0, coeff or 1) if kind == "j0" else CurveModel(coeff or 1, 0)
    ps = np.array(sorted(p for p in primes if E.has_good_reduction(p)), dtype=np.int64)
    assert np.array_equal(frobenius_traces(E, ps), frobenius_traces(E, ps, "charsum"))


# twists of y^2 = x^3 + A x and y^2 = x^3 + B: both signs, powers of 2, and
# coefficients past 2^63
SYMBOL_TWISTS = [1, -1, 2, -2, 3, -5, 7, -11, 16, 64, -(2**64 + 1), 2**63 + 5]


@pytest.mark.parametrize("D", [-4, -3])
def test_cm_symbol_matches_charsum_at_every_split_prime_below_2e4(D):
    ps = np.array([p for p in SMALL_PRIMES if p < 20_000 and kronecker(D, p) == 1])
    t, v = elliptic._cornacchia(ps, D)
    assert np.array_equal(t * t - D * v * v, 4 * ps)
    for c in SYMBOL_TWISTS:
        E = CurveModel(c, 0) if D == -4 else CurveModel(0, c)
        good = E.has_good_reduction(ps)
        q = ps[good]
        A, B = (np.array([n % p for p in q.tolist()]) for n in (E.A, E.B))
        symbol = elliptic._cm_symbol(q, A, B, t[good], v[good], D)
        assert symbol.tolist() == [elliptic._trace_charsum(E, p) for p in q.tolist()], c


@pytest.mark.parametrize("E", [CurveModel(-1, 0), CurveModel(0, 1), CurveModel(0, 2**63 + 5)],
                         ids=["j1728", "j0", "j0-past-int64"])
def test_cm_symbol_lanes_draw_no_point(monkeypatch, E):
    # j = 0 and 1728 take every split lane from the symbol in round 0: no
    # point is drawn, and no lane falls back to the character sum
    ps = PRIMES_5E4[E.has_good_reduction(PRIMES_5E4) & (PRIMES_5E4 < 20_000)]
    expect = frobenius_traces(E, ps, "charsum")
    symbol, calls, fallbacks = elliptic._cm_symbol, [], []
    monkeypatch.setattr(elliptic, "_draw", lambda *args: pytest.fail("drew a point"))
    monkeypatch.setattr(elliptic, "_cm_symbol", lambda *args: calls.append(args[0]) or symbol(*args))
    monkeypatch.setattr(elliptic, "trace_of_frobenius",
                        lambda curve, p, method: fallbacks.append(p) or trace_of_frobenius(curve, p, method))
    assert np.array_equal(frobenius_traces(E, ps), expect)
    assert fallbacks == []
    assert np.concatenate(calls).tolist() == ps[expect != 0].tolist()


# ------------------------------------------------ Tonelli-Shanks and the 2^63 headroom

# p - 1 divisible by 2^13, 2^16, 2^18, 2^25, 2^26 and 2^27
TWO_ADIC_PRIMES = [40961, 65537, 786433, 167772161, 469762049, 2013265921]


def least_non_residue(p):
    """The least n with Legendre symbol (n/p) = -1, by trying n = 2, 3, ..."""
    return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)


def tonelli_shanks(a, p, z):
    """The root the lockstep Tonelli-Shanks takes with non-residue z, one
    prime at a time in Python ints."""
    s, q = 0, p - 1
    while q % 2 == 0:
        s, q = s + 1, q // 2
    y = pow(a, (q - 1) // 2, p)
    x, t, c = y * a % p, y * y * a % p, pow(z, q, p)
    for j in range(s - 1, 0, -1):
        if pow(t, 2 ** (j - 1), p) != 1:
            x, t = x * c % p, t * c * c % p
        c = c * c % p
    return x


def assert_roots_with_the_least_non_residue(a, p):
    root = elliptic._sqrt_mod(np.array(a, dtype=np.int64), np.array(p, dtype=np.int64))
    assert ((root * root - a) % p == 0).all()
    # the root pins c = z^q on every lane with p = 1 mod 4: z is the least non-residue
    assert root.tolist() == [tonelli_shanks(int(b), int(q), least_non_residue(int(q)))
                             for b, q in zip(a, p)]


@pytest.mark.parametrize("D", CM_DISCS)
def test_sqrt_mod_roots_each_cm_discriminant_to_2e5(D):
    ps = primes_upto(2 * 10**5)
    ps = [p for p in ps[ps >= 5].tolist() if pow(D % p, (p - 1) // 2, p) == 1]
    assert_roots_with_the_least_non_residue([D % p for p in ps], ps)


def test_sqrt_mod_at_primes_of_large_two_adic_valuation():
    rng = np.random.default_rng(5)
    a, ps = [], []
    for p in TWO_ADIC_PRIMES:
        roots = rng.integers(1, p, size=20).tolist()
        squares = [r * r % p for r in roots] + [D % p for D in CM_DISCS
                                                if pow(D % p, (p - 1) // 2, p) == 1]
        a, ps = a + squares, ps + [p] * len(squares)
    assert_roots_with_the_least_non_residue(a, ps)
    assert least_non_residue(2013265921) == 11    # p splits in Q(sqrt n) for n = 2, 3, 5, 7


HEADROOM_PRIMES = (2**31 - 1, 2147483629)


def affine_add(P, Q, a, p):
    """P + Q on y^2 = x^3 + a x + b in Python ints; None is O."""
    if P is None or Q is None:
        return Q if P is None else P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if x1 == x2:
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def affine_mul(k, P, a, p):
    R = None
    for bit in bin(k)[2:]:
        R = affine_add(R, R, a, p)
        R = affine_add(R, P, a, p) if bit == "1" else R
    return R


def to_affine(P, p):
    """Affine (x, y) of each lane of a projective lockstep point; None at O."""
    return [None if Z == 0 else (X * pow(Z, -1, q) % q, Y * pow(Z, -1, q) % q)
            for X, Y, Z, q in zip(*(c.tolist() for c in P), p.tolist())]


def near_top_lanes(seed, lanes=24):
    """Lanes at both headroom primes whose residues all lie within 2^10 of
    p - 1: projective P = (X, Y, Z), affine Q = (x, y) and a."""
    rng = np.random.default_rng(seed)
    p = np.array(HEADROOM_PRIMES * (lanes // 2), dtype=np.int64)
    X, Y, Z, x, y, a = (p - rng.integers(1, 2**10, size=p.size) for _ in range(6))
    return p, (X, Y, Z), (x, y), a


def test_point_steps_keep_residues_near_2_31_exact():
    p, P, Q, a = near_top_lanes(7)
    PA = to_affine(P, p)
    # _dbl at P, on the curve through P with coefficient a
    assert to_affine(elliptic._dbl(P, a, p), p) == [
        affine_add(R, R, int(c), int(q)) for R, c, q in zip(PA, a, p)]
    # _add's chord through P and Q needs no b: any two points lie on one curve
    Q2 = elliptic._dbl((*Q, np.ones_like(p)), a, p)
    assert to_affine(elliptic._add(P, Q, Q2, p), p) == [
        affine_add(R, (int(u), int(v)), 0, int(q)) for R, u, v, q in zip(PA, *Q, p)]
    # _mul by k near p: 31 doublings and adds, with every residue drawn near p - 1;
    # every third lane has a small k, 0 and 1 included
    k = p - np.arange(3, 3 + p.size)
    k[::3] = [0, 1, 2, 3, 6, 2**16 + 1, 2**30 - 1, 2**30]
    assert to_affine(elliptic._mul(k, Q, Q2, a, p), p) == [
        affine_mul(int(n), (int(u), int(v)), int(c), int(q)) for n, u, v, c, q in zip(k, *Q, a, p)]


def test_giant_stride_from_the_baby_table_equals_mul(monkeypatch):
    # S = (2M - 1)P is made affine as the baby table's last row
    p, _, Q, a = near_top_lanes(11)
    p = np.concatenate((p, primes_upto(3_000)[-8:]))    # and eight lanes with small p
    Q, a = tuple(np.concatenate((c, np.arange(5, 13))) for c in Q), np.append(a, np.full(8, 3))
    Q2, M = elliptic._dbl((*Q, np.ones_like(p)), a, p), elliptic._baby_steps(p.max())
    strides, mul = [], elliptic._mul

    def spy(k, Q, Q2, a, p):
        strides.append(Q)
        return mul(k, Q, Q2, a, p)
    monkeypatch.setattr(elliptic, "_mul", spy)
    half = np.sqrt(4 * p).astype(np.int64)
    elliptic._point_orders(p, a, Q, p + 1 - half, 2 * half + 1, M)
    S = strides[0]                 # the first multiply starts the giant steps from S
    expect = to_affine(mul(np.full(p.size, 2 * M - 1), Q, Q2, a, p), p)
    assert [(int(x), int(y)) for x, y in zip(*S)] == expect
    assert S[0].dtype == np.int64


# Carmichael numbers, strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5; and
# products of the largest primes whose squares stay below 2^31
COMPOSITES = [561, 1105, 1729, 41041, 825265, 321197185, 2047, 3277, 1373653, 25326001] + [
    int(a * b) for a in primes_upto(46_340)[-3:] for b in primes_upto(46_340)[-3:]]


def test_is_prime_matches_the_sieve():
    n = np.arange(-5, 100_000, dtype=np.int64)
    assert np.array_equal(np.flatnonzero(elliptic._is_prime(n)) - 5, primes_upto(100_000))
    assert not elliptic._is_prime(np.array(COMPOSITES)).any()
    assert elliptic._is_prime(np.array([2**31 - 1])).all()


def test_charsum_table_refuses_every_composite():
    # the character sum's table of squares settles primality for free, so the
    # per-prime fallback of frobenius_traces pays no second primality test
    E, primes = CurveModel(1, 1), set(primes_upto(5_000).tolist())
    for n in range(5, 5_000):
        if n in primes:
            elliptic._trace_charsum(E, n)
        else:
            with pytest.raises(DomainError, match="prime"):
                elliptic._trace_charsum(E, n)


def test_frobenius_traces_refuses_composites():
    # the closed form would give an "inert" composite a_p = 0 without the check
    for E in (CurveModel(1, 1), CurveModel(0, 1)):
        for bad in ([25], [1001], [997, 1003]):
            for method in ("auto", "bsgs", "charsum"):
                with pytest.raises(DomainError, match="prime"):
                    frobenius_traces(E, bad, method)


def trial_division_prime(n):
    small = primes_upto(46_341)
    return n > 1 and not np.any(n % small[small * small <= n] == 0)


def check_only(m):
    """Patch the tracing out of frobenius_traces: no round, and a stub in
    place of the character sum, so a call checks its primes and nothing more."""
    m.setattr(elliptic, "_ROUNDS", 0)
    m.setattr(elliptic, "trace_of_frobenius", lambda curve, p, method: FrobeniusRecord(p, 0, 0))


def accepted(E, ps):
    try:
        frobenius_traces(E, ps)
    except DomainError:
        return False
    return True


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.integers(-5, 2**22), st.integers(-5, 2**31 - 1),
                          st.sampled_from(primes_upto(2**22)[-50:].tolist() + [2**31 - 1])),
                min_size=1, max_size=6, unique=True))
def test_frobenius_traces_accepts_exactly_the_primes_on_both_routes(values):
    # lanes up to 2^22 are looked up in a sieve table that reaches them, then
    # all lanes past 1 meet Miller-Rabin under a table cut to the primes <= 1
    E, ps = CurveModel(1, 1), np.array(sorted(values), dtype=np.int64)      # disc factor 31
    expect = all(v > 3 and v != 31 and trial_division_prime(v) for v in values)
    primes_upto(2**22)
    with pytest.MonkeyPatch.context() as m:
        check_only(m)
        assert accepted(E, ps) == expect
        m.setattr(sieve, "_table", (1, np.empty(0, dtype=np.int64)))
        assert accepted(E, ps) == expect
        assert sieve._table[0] == 1           # the check never grows the table


def test_frobenius_traces_refuses_pseudoprimes_on_both_routes(monkeypatch):
    # the true primes within 2^12 of each composite: a lane there reads only
    # these entries of a table that reaches past all of them
    windows = [segmented_primes(c - 2**12, c + 2**12) for c in COMPOSITES]
    near = np.unique(np.concatenate(windows))
    E = CurveModel(1, 1)
    check_only(monkeypatch)
    for table in ((int(near[-1]), near), (1, np.empty(0, dtype=np.int64))):
        monkeypatch.setattr(sieve, "_table", table)
        for c, window in zip(COMPOSITES, windows):
            with pytest.raises(DomainError, match="prime"):
                frobenius_traces(E, [c])
            assert accepted(E, [int(window[np.searchsorted(window, c)])])   # the next prime


def test_trace_table_lanes_skip_miller_rabin(monkeypatch):
    # its lanes come from primes_upto(x), so the table reaches every one
    monkeypatch.setattr(elliptic, "_TRACE_CACHE", {})
    lanes, is_prime = [], elliptic._is_prime
    monkeypatch.setattr(elliptic, "_is_prime", lambda n: lanes.extend(n.tolist()) or is_prime(n))
    ps, _ = trace_table(CurveModel(1, 1), 50_000)
    assert ps.size > 5_000 and lanes == []


def test_trace_table_refuses_x_past_the_lanes_before_it_sieves(monkeypatch):
    def no_sieve(n):
        raise AssertionError(f"sieved to {n}")
    monkeypatch.setattr(elliptic, "primes_upto", no_sieve)
    with pytest.raises(CapacityError):
        trace_table(CurveModel(0, 1), 4 * 10**9)


def test_frobenius_traces_validates_its_primes():
    E = CurveModel(-7, 10)  # bad reduction at 2 and 83
    with pytest.raises(CapacityError):
        frobenius_traces(E, np.array([2147483659], dtype=np.int64))
    for big in (2147483659, 2**64 + 13):      # past int64 too: no OverflowError
        with pytest.raises(CapacityError):
            frobenius_traces(E, [big])
        with pytest.raises(CapacityError):
            trace_of_frobenius(E, big)
    assert trace_of_frobenius(CurveModel(0, 2**64 + 13), 2**64 + 13).skipped
    assert E.has_good_reduction(np.array([2, 3, 5, 83, 89])).tolist() == [
        False, False, True, False, True]
    with pytest.raises(DomainError):
        frobenius_traces(E, [5, 83, 89])
    with pytest.raises(DomainError):
        frobenius_traces(E, [7, 5])
    with pytest.raises(DomainError):
        frobenius_traces(E, [5], method="naive")
    assert frobenius_traces(E, []).shape == (0,)
    ps = np.array([5, 7, 11, 1009, 2003], dtype=np.int64)
    for method in ("auto", "bsgs", "charsum"):
        assert frobenius_traces(E, ps, method).tolist() == [
            trace_of_frobenius(E, int(p), "charsum").a_p for p in ps]


def test_has_good_reduction_refuses_p_up_to_3_and_reduces_past_int64():
    E = CurveModel(-7, 10)      # disc factor 4 (-7)^3 + 27 10^2 = 1328 = 2^4 83
    for p in (0, 1, 2, 3, -5):
        assert not E.has_good_reduction(p)
    assert E.has_good_reduction(np.array([0, 1, 2, 3, 5, 83, 89, -5])).tolist() == [
        False, False, False, False, True, False, True, False]
    ps = primes_upto(10_000)
    for A, B in [(2**21, 2**21), (2**40, 1), (3 * 2**61, 0), (0, -(2**63)), (2**63, 7), (1, -(2**70))]:
        E = CurveModel(A, B)
        assert E.has_good_reduction(ps).tolist() == [
            p > 3 and E.disc_factor % p != 0 for p in ps.tolist()], (A, B)
        assert [E.has_good_reduction(p) for p in (0, 5, 2**64 + 13)] == [
            False, E.disc_factor % 5 != 0, E.disc_factor % (2**64 + 13) != 0]


def test_trace_of_frobenius_refuses_a_composite_p():
    E = CurveModel(1, 1)                # disc factor 31: 25 and 1001 = 7 11 13 pass as good
    for p in (25, 1001):
        assert E.has_good_reduction(p)
        for method in ("auto", "bsgs", "charsum"):
            with pytest.raises(DomainError, match="prime"):
                trace_of_frobenius(E, p, method)
    # past the lanes a composite keeps its CapacityError: 2^31 + 1 = 3 * 715827883
    assert E.has_good_reduction(2**31 + 1)
    with pytest.raises(CapacityError):
        trace_of_frobenius(E, 2**31 + 1)


def test_charsum_refuses_primes_past_its_table_limit():
    # 2^28 + 3 is the first prime past the limit; (1, 1) has good reduction there
    E, p = CurveModel(1, 1), 2**28 + 3
    assert elliptic._CHARSUM_LIMIT < p and E.has_good_reduction(p)
    with pytest.raises(CapacityError):
        trace_of_frobenius(E, p, "charsum")
    with pytest.raises(CapacityError):
        frobenius_traces(E, [p], "charsum")


def test_trace_cache_keeps_the_newest_curves(monkeypatch):
    monkeypatch.setattr(elliptic, "_TRACE_CACHE", {})
    traced = []

    def recording(curve, primes, method="auto"):
        traced.append((curve.A, curve.B))
        return frobenius_traces(curve, primes, method)

    monkeypatch.setattr(elliptic, "frobenius_traces", recording)
    cap = elliptic._TRACE_CACHE_CURVES
    curves = [CurveModel(1, b) for b in range(1, cap + 3)]
    for E in curves:
        trace_table(E, 200)
    assert list(elliptic._TRACE_CACHE) == [(1, b) for b in range(3, cap + 3)]
    traced.clear()
    ps, aps = trace_table(curves[-1], 200)
    assert traced == [] and np.array_equal(aps, frobenius_traces(curves[-1], ps))
    # a read makes its curve the newest, so the next eviction takes (1, 4)
    trace_table(curves[2], 150)
    trace_table(CurveModel(2, 1), 100)
    assert traced == [(2, 1)]
    assert (1, 3) in elliptic._TRACE_CACHE and (1, 4) not in elliptic._TRACE_CACHE
    assert len(elliptic._TRACE_CACHE) == cap


def test_refused_query_keeps_the_cached_table(monkeypatch):
    # the sieve refuses 10^10 before it allocates anything
    monkeypatch.setattr(elliptic, "_TRACE_CACHE", {})
    E = CurveModel(1, 1)
    ps, aps = trace_table(E, 1000)
    with pytest.raises(CapacityError):
        trace_table(E, 10**10)
    top, cached_ps, cached_aps = elliptic._TRACE_CACHE[(1, 1)]
    assert top == 1000
    assert np.array_equal(cached_ps, ps) and np.array_equal(cached_aps, aps)


def test_disc_part_is_negative_squarefree():
    ps, aps = trace_table(CurveModel(1, 1), 3000)
    for p, a in zip(ps[:200], aps[:200]):
        rec = trace_of_frobenius(CurveModel(1, 1), int(p))
        assert rec.disc_part < 0
        assert all(e == 1 for e in factorize(rec.disc_part).values())
        assert squarefree_kernel(int(a) ** 2 - 4 * int(p)) == rec.disc_part


def test_grown_trace_table_equals_cold_and_traces_only_new_primes(monkeypatch):
    E = CurveModel(-7, 10)  # bad reduction at 2 and 83
    monkeypatch.setattr(elliptic, "_TRACE_CACHE", {})
    cold = trace_table(E, 12_000)
    elliptic._TRACE_CACHE.clear()
    traced = []

    def recording(curve, primes, method="auto"):
        traced.extend(np.asarray(primes).tolist())
        return frobenius_traces(curve, primes, method)

    monkeypatch.setattr(elliptic, "frobenius_traces", recording)
    first = trace_table(E, 3_000)
    assert traced == first[0].tolist() and 83 not in traced
    traced.clear()
    assert np.array_equal(trace_table(E, 1_000)[1], first[1][first[0] <= 1_000])
    assert traced == []
    grown = trace_table(E, 12_000)
    assert traced == [p for p in cold[0].tolist() if p > 3_000]
    for g, c in zip(grown, cold):
        assert g.dtype == c.dtype and np.array_equal(g, c)


# ------------------------------------------------------------- counters

def test_trace_match_examples():
    E = CurveModel(1, 1)
    series = trace_match_count(E, -3, 100, checkpoints=[5, 10, 100])
    assert series.counts[0] >= 1  # p = 5 has a_p = -3
    assert np.all(np.diff(series.counts) >= 0)
    # traces outside the Hasse range can never occur
    empty = trace_match_count(E, 10**4, 10**4)
    assert empty.counts[-1] == 0


def test_trace_partition_identity():
    E = CurveModel(1, 1)
    x = 10**4
    ps, aps = trace_table(E, x)
    bound = int(2 * math.isqrt(x)) + 1
    total = sum(int(trace_match_count(E, a, x).counts[-1])
                for a in range(-bound, bound + 1))
    assert total == ps.size


def test_frobenius_field_example():
    E = CurveModel(1, 1)
    # p = 5: a^2 - 4p = 9 - 20 = -11
    series = frobenius_field_count(E, -11, 10)
    assert series.counts[-1] == 1


def test_frobenius_field_validation():
    E = CurveModel(1, 1)
    with pytest.raises(DomainError):
        frobenius_field_count(E, 5, 100)
    with pytest.raises(DomainError):
        frobenius_field_count(E, -5, 100)  # -5 = 3 mod 4: not a discriminant
    frobenius_field_count(E, -20, 100)  # -20 is fine (field disc of sqrt(-5))


def benchmark_field_discs():
    """FIELD_DISCS of the frobenius benchmark, read from its source."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "frobenius.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "FIELD_DISCS")


def test_frobenius_field_count_takes_only_field_discriminants():
    # -12, -16, -27 and -28 are discriminants of orders, 1 or 0 mod 4, whose
    # squarefree kernels -3, -1, -3 and -7 belong to the fields -3, -4, -3, -7
    E = CurveModel(1, 1)
    for D in (-12, -16, -27, -28):
        with pytest.raises(DomainError, match="not the discriminant"):
            frobenius_field_count(E, D, 100)
        code, text = run(["lang-trotter", "--curve", "1,1", "--disc", str(D), "--x", "500"])
        assert code == 2 and "not the discriminant" in text, D
    for D in benchmark_field_discs() + tuple(CM_DISCS):
        frobenius_field_count(E, D, 100)


def test_vectorised_field_count_matches_scalar_kernels():
    x = 10**5
    for E in TEST_CURVES:
        ps, aps = trace_table(E, x)
        kernels = np.array([squarefree_kernel(int(a) ** 2 - 4 * int(p))
                            for p, a in zip(ps, aps)])
        for D in (-3, -4, -7, -8, -11, -15, -20, -23, -24, -39):
            hits = ps[kernels == squarefree_kernel(D)]
            series = frobenius_field_count(E, D, x, checkpoints=[10**3, 10**4, x])
            assert series.counts.tolist() == [
                np.count_nonzero(hits <= t) for t in (10**3, 10**4, x)], (E, D)


def test_frobenius_field_partition():
    E = CurveModel(1, 1)
    x = 3000
    ps, aps = trace_table(E, x)
    kernels = {squarefree_kernel(int(a) ** 2 - 4 * int(p)) for p, a in zip(ps, aps)}
    total = 0
    for k in kernels:
        disc = k if k % 4 == 1 else 4 * k
        total += int(frobenius_field_count(E, disc, x).counts[-1])
    assert total == ps.size


# ---------------------------------------------------------------- shapes

def test_shape_report_zero_series():
    series = CountSeries(np.array([10.0, 100.0]), np.array([0.0, 0.0]))
    r = growth_shape_report(series, "trace")
    assert np.all(r.theorem_ratio == 0.0)
    assert np.all(r.conjecture_ratio == 0.0)


def test_shape_report_ratios_finite_and_modes():
    E = CurveModel(1, 1)
    series = trace_match_count(E, 0, 5000, checkpoints=[50, 500, 5000])
    rt = growth_shape_report(series, "trace")
    rf = growth_shape_report(series, "field")
    # the trace mode divides by (log log x)^2, the field mode by log log x
    assert rt.theorem_ratio / rf.theorem_ratio == pytest.approx(
        1 / np.log(np.log(series.checkpoints)), rel=1e-12)
    assert np.all(np.isfinite(rt.theorem_ratio))
    assert np.all(np.isfinite(rt.conjecture_ratio))
    with pytest.raises(DomainError):
        growth_shape_report(series, "both")
    with pytest.raises(DomainError):
        growth_shape_report(CountSeries(np.array([2.0]), np.array([0.0])), "trace")


def test_has_cm_reads_the_j_invariant():
    assert all(cm_curve(j).has_cm for j, _ in CM_FIELDS)
    assert not any(E.has_cm for E in TEST_CURVES)


def test_read_curves_roundtrip(tmp_path):
    path = tmp_path / "curves.txt"
    path.write_text("# comment\n1 1 first\n\n-1 1\n2 3 labeled curve\n")
    curves = read_curves(path)
    assert [(c.A, c.B) for c in curves] == [(1, 1), (-1, 1), (2, 3)]
    assert curves[0].label == "first"
    assert curves[2].label == "labeled curve"
    bad = tmp_path / "bad.txt"
    bad.write_text("17\n")
    with pytest.raises(DomainError):
        read_curves(bad)
