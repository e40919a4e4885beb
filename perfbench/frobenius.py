"""Workload ``frobenius``: trace-of-Frobenius tables for elliptic curves.

Why: pure-Python baby-step giant-step search dominates (about 1 s per
curve up to 5e4, 2 s up to 1e5); the sieve is negligible.  Lockstep BSGS
across primes shows here, and so does extending a cached table rather than
re-tracing it.

Curves are y^2 = x^3 + Ax + B with |A|, |B| <= 10: one with j = 1728
(B = 0), one with j = 0 (A = 0), both with complex multiplication so that
BSGS resampling and its fallback run, and one without (A, B != 0), each
kind twice.  One curve of each kind asks for a trace count and a
Frobenius-field count at the horizon 5e4; the other asks at 2.5e4 and then
5e4, which today re-traces from p = 2 at the second query.  Six curves at
5e4 rather than three at 1e5 average out how much each curve's BSGS must
resample, and the kind, query pattern and rational 2-torsion of every curve
sit in fixed slots, so a session's total work depends little on the seed.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref
from chebkit import (CurveModel, frobenius_field_count, trace_match_count,
                     trace_of_frobenius)
from chebkit.elliptic import trace_table

HORIZON = 50_000
GROWING = (HORIZON // 2, HORIZON)
# (kind, growing horizons, rational roots of x^3 + Ax + B): how often BSGS
# finds several candidate orders and resamples depends on the rational
# 2-torsion, so each slot fixes it
SLOTS = tuple((kind, growing, roots) for growing in (False, True)
              for kind, roots in (("j1728", 1), ("plain", 0), ("j0", 0)))
FIELD_DISCS = (-3, -4, -7, -8, -11, -15, -19, -20, -23, -24)
CHARSUM_RANGE = 10_000     # chebkit switches from character sums to BSGS here
SAMPLE_LARGE, SAMPLE_SMALL = 6, 2


def _good_primes(A: int, B: int, primes: np.ndarray) -> np.ndarray:
    disc = 4 * A ** 3 + 27 * B ** 2
    return primes[(primes > 3) & (disc % primes != 0)]


def _rational_roots(A: int, B: int) -> int:
    # an integer root divides B, or is 0 or +-sqrt(-A) when B = 0: |r| <= 10
    return sum(r ** 3 + A * r + B == 0 for r in range(-10, 11))


def generate(rng) -> list[dict]:
    primes = ref.primes_upto(HORIZON)
    coeffs = [v for v in range(-10, 11) if v]
    curves, taken = [], set()
    for kind, growing, roots in SLOTS:
        while True:
            A = 0 if kind == "j0" else rng.choice(coeffs)
            B = 0 if kind == "j1728" else rng.choice(coeffs)
            if ((A, B) not in taken and 4 * A ** 3 + 27 * B ** 2 != 0
                    and _rational_roots(A, B) == roots):
                break
        taken.add((A, B))
        good = _good_primes(A, B, primes).tolist()
        small = [p for p in good if p < CHARSUM_RANGE]
        large = [p for p in good if p >= CHARSUM_RANGE]
        curves.append({
            "A": A, "B": B,
            "horizons": GROWING if growing else (HORIZON,),
            "a": rng.randint(-10, 10),
            "D_k": rng.choice(FIELD_DISCS),
            "sample": sorted(rng.sample(small, SAMPLE_SMALL) + rng.sample(large, SAMPLE_LARGE)),
        })
    return curves


def _run_curve(c, rec) -> list:
    curve = CurveModel(c["A"], c["B"])
    counts = []
    for i, h in enumerate(c["horizons"]):
        # the first query builds the curve's trace table, later ones at a
        # larger horizon must extend it
        with rec.span("elliptic.trace_table.extend" if i else "elliptic.trace_table.first"):
            match = trace_match_count(curve, c["a"], h)
        with rec.span("elliptic.field_count"):
            field = frobenius_field_count(curve, c["D_k"], h)
        counts.append((h, int(match.counts[-1]), int(field.counts[-1])))
    return counts


def run(cases, rec, checks) -> list:
    outs = []
    for task, c in enumerate(cases):
        with rec.run_task(task):
            outs.append(checks.attempt("elliptic", _run_curve, c, rec))
    return outs


def check(cases, outs, checks) -> None:
    primes = ref.primes_upto(HORIZON)
    for c, counts in zip(cases, outs):
        if counts is not None:
            checks.attempt("elliptic", _check_curve, c, counts, primes, checks)


def _check_curve(c, counts, primes, checks) -> None:
    A, B, top = c["A"], c["B"], c["horizons"][-1]
    curve = CurveModel(A, B)
    ps, aps = trace_table(curve, top)
    good = _good_primes(A, B, primes)
    good = good[good <= top]
    tag = f"curve ({A}, {B})"
    checks.ck("elliptic", np.array_equal(ps, good),
              f"{tag}: traced primes differ from the good primes <= {top}")
    checks.ck("elliptic", bool(np.all(aps * aps < 4 * ps)), f"{tag}: Hasse bound fails")
    in_hasse = np.abs(aps) <= 2 * math.isqrt(top) + 1
    checks.ck("elliptic", int(np.count_nonzero(in_hasse)) == good.size,
              f"{tag}: trace histogram does not partition the good primes")
    kernels = ref.squarefree_kernels(aps * aps - 4 * ps)
    target = ref.squarefree_kernels(np.array([c["D_k"]]))[0]
    for h, n_match, n_field in counts:
        upto = ps <= h
        checks.ck("elliptic", n_match == int(np.count_nonzero(upto & (aps == c["a"]))),
                  f"{tag}: trace count for a = {c['a']} at {h}")
        checks.ck("elliptic", n_field == int(np.count_nonzero(upto & (kernels == target))),
                  f"{tag}: Frobenius field count for D = {c['D_k']} at {h}")
    for p in c["sample"]:
        expect = ref.elliptic_trace(A, B, p)
        table = int(aps[np.searchsorted(ps, p)])
        charsum = trace_of_frobenius(curve, p, method="charsum").a_p
        checks.ck("elliptic", table == expect == charsum,
                  f"{tag}: a_{p} is {table} in the table and {charsum} by "
                  f"character sum, expected {expect}")


def probe(cases, outs, rec, checks) -> None:
    """Time both trace methods on each curve's sampled BSGS-range primes."""
    for task, c in enumerate(cases):
        rec.task = task
        checks.attempt("elliptic", _probe_curve, c, rec)


def _probe_curve(c, rec) -> None:
    curve = CurveModel(c["A"], c["B"])
    for p in c["sample"]:
        if p >= CHARSUM_RANGE:
            for method in ("bsgs", "charsum"):
                with rec.span(f"elliptic.{method}_probe"):
                    trace_of_frobenius(curve, p, method=method)
            rec.count("elliptic.probe_primes")


def metrics(cases, outs, rec, selfs) -> dict:
    primes = ref.primes_upto(HORIZON)
    traced = 0
    for c in cases:
        good = _good_primes(c["A"], c["B"], primes)
        traced += int(np.count_nonzero(good <= c["horizons"][-1]))
    table_s = selfs.get("elliptic.trace_table.first", 0.0) + selfs.get(
        "elliptic.trace_table.extend", 0.0)
    probed = max(rec.counts.get("elliptic.probe_primes", 0), 1)
    return {
        "elliptic.primes_traced": traced,
        "elliptic.us_per_prime": 1e6 * table_s / max(traced, 1),
        "elliptic.bsgs_us_per_prime": 1e6 * selfs.get("elliptic.bsgs_probe", 0.0) / probed,
        "elliptic.charsum_us_per_prime": 1e6 * selfs.get("elliptic.charsum_probe", 0.0) / probed,
    }
