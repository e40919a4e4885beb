import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chebkit import elliptic
from chebkit.arith import factorize, kronecker, squarefree_kernel
from chebkit.elliptic import (CurveModel, FrobeniusRecord, frobenius_field_count,
                              frobenius_traces, growth_shape_report, read_curves,
                              trace_match_count, trace_of_frobenius, trace_table)
from chebkit.errors import CapacityError, DomainError
from chebkit.sieve import CountSeries, primes_upto

TEST_CURVES = [CurveModel(1, 1), CurveModel(-1, 1), CurveModel(2, 3),
               CurveModel(5, 7), CurveModel(-7, 10)]
# (j, D_K): the 13 rational CM j-invariants, each with the discriminant of its CM field
CM_FIELDS = [(0, -3), (1728, -4), (-3375, -7), (8000, -8), (-32768, -11), (54000, -3),
             (287496, -4), (-884736, -19), (-12288000, -3), (16581375, -7),
             (-884736000, -43), (-147197952000, -67), (-262537412640768000, -163)]


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
    E = cm_curve(j)
    ps = PRIMES_5E4[E.has_good_reduction(PRIMES_5E4)]
    searched, fallbacks = [], []
    orders, charsum = elliptic._point_orders, elliptic._trace_charsum

    def spy_orders(p, *args):
        searched.extend(p.tolist())
        return orders(p, *args)

    def spy_charsum(curve, p):
        fallbacks.append(p)
        return charsum(curve, p)
    monkeypatch.setattr(elliptic, "_point_orders", spy_orders)
    monkeypatch.setattr(elliptic, "_trace_charsum", spy_charsum)
    auto = frobenius_traces(E, ps)
    # the closed form settles every inert lane and all but 1% of the split
    # ones; the lanes below the cutoff take character sums as before
    above = [p for p in ps.tolist() if p >= elliptic._CHARSUM_CUTOFF]
    split = [p for p in above if kronecker(D, p) == 1]
    open_lanes = [p for p in searched + fallbacks if p >= elliptic._CHARSUM_CUTOFF]
    assert all(kronecker(D, p) == 1 for p in open_lanes)
    assert len(open_lanes) <= 0.01 * len(split)
    assert (auto[np.isin(ps, above)] == 0).tolist() == [kronecker(D, p) == -1 for p in above]
    monkeypatch.undo()
    assert np.array_equal(auto, frobenius_traces(E, ps, "bsgs"))
    small = ps < 5_000
    assert np.array_equal(auto[small], frobenius_traces(E, ps[small], "charsum"))


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
    for r in range(1, elliptic._BSGS_RESAMPLE_LIMIT):
        f, chi = elliptic._draw(ps, A_, B_, r)[:2]
        assert (f != 0).all() and np.array_equal(chi, chi0 * (-1) ** r)


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


def test_is_prime_matches_the_sieve():
    n = np.arange(-5, 100_000, dtype=np.int64)
    assert np.array_equal(np.flatnonzero(elliptic._is_prime(n)) - 5, primes_upto(100_000))
    # Carmichael numbers, strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5;
    # products of the largest primes whose squares stay below 2^31; and 2^31 - 1
    big = primes_upto(46_340)[-3:]
    composites = [561, 1105, 1729, 41041, 825265, 321197185, 2047, 3277, 1373653,
                  25326001] + [int(a * b) for a in big for b in big]
    assert not elliptic._is_prime(np.array(composites)).any()
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
