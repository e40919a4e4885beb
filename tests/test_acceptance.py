"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criterion 2 bundles two claims: the contour/direct
identity holds within the self-reported budget, and that budget stays below
5% of the direct sum at t_max = 500.  The second claim holds because the
contour is taken on the line Re s = sigma0 in [0.01, 2] that minimises the
tail bound of the finite Dirichlet polynomial; on Re s = 2 the bound scaled
like x^2 (2 ell/eps)^ell / (ell t_max^ell) and missed 5% in 15 of 16 cases.
"""

import math
import time

import numpy as np
import pytest

from chebkit.bounds import (FieldInvariants, brun_titchmarsh_constant,
                            density_bound_from_L, deuring_heilbronn_from_L,
                            extension_complexity, log_complexity,
                            low_lying_density_bound, range_thresholds,
                            repulsion_threshold)
from chebkit import elliptic
from chebkit.bqf import class_number, count_represented_primes, delta_q
from chebkit.chebotarev import (FULL, INERT, SPLIT, ConjClass, conj_classes,
                                counting_chain_check, cyclotomic_field, pi_class,
                                quadratic_field, trivial_extension,
                                weighted_prime_sum)
from chebkit.elliptic import CurveModel, frobenius_traces, growth_shape_report, \
    trace_match_count, trace_of_frobenius, trace_table
from chebkit.explicit import class_log_deriv, contour_sum, support_cap, zeta_log_deriv
from chebkit.progressions import APQuery, euler_phi, montgomery_vaughan_check, \
    residue_counts
from chebkit.sieve import li, primes_upto
from chebkit.weights import (WeightSpec, check_decay_bound, check_growth_bound,
                             check_left_line_bound, check_real_axis_bound,
                             laplace_transform, laplace_transform_quadrature)
from test_bounds import BT_BRANCH_POINTS

LT_CURVES = [CurveModel(1, 1), CurveModel(-1, 1), CurveModel(2, 3),
             CurveModel(5, 7), CurveModel(-7, 10)]


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float,
            limit: float | None = None) -> None:
    verdict = "PASS" if ok else "FAIL"
    budget = f", {elapsed:.1f}s" + (f" (limit {limit:.0f}s)" if limit else "")
    print(f"CRITERION {num} ({name}): {verdict} [{detail}{budget}]")


def test_c1_weight_lemma_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240817)
    violations = 0
    n_samples = 10_000
    for _ in range(n_samples):
        spec = WeightSpec(x=float(np.exp(rng.uniform(np.log(3.0), 25.0))),
                          ell=int(rng.integers(1, 7)),
                          eps=float(rng.uniform(0.01, 0.249)))
        sigma = float(10.0 ** rng.uniform(-2.0, 0.7))
        t = float(rng.uniform(-200.0, 200.0))
        s = complex(sigma, t)
        alpha = float(rng.uniform(0.0, spec.ell))
        if not check_decay_bound(spec, s, alpha).passed:
            violations += 1
        if not check_growth_bound(spec, s).passed:
            violations += 1
        if not check_real_axis_bound(spec, sigma).passed:
            violations += 1
        if not check_left_line_bound(spec, t).passed:
            violations += 1
    worst = 0.0
    for ell in (1, 2, 3, 4):
        spec = WeightSpec(x=150.0, ell=ell, eps=0.1)
        for z in (0.0, 1.0, -3.0, 20j, 30 + 30j, -20 + 40j, 50j, -50.0):
            closed = laplace_transform(spec, complex(z))
            quad = laplace_transform_quadrature(spec, complex(z), step=1e-4)
            worst = max(worst, abs(closed - quad) / max(abs(quad), 1e-300))
    elapsed = time.monotonic() - t0
    ok = violations == 0 and worst <= 1e-6 and elapsed < 30.0
    _report(1, "weight transform bounds", ok,
            f"{4 * n_samples} checks, {violations} violations, "
            f"transform max rel err {worst:.2e}", elapsed, 30.0)
    assert violations == 0
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_c2_mellin_identity_and_budget():
    t0 = time.monotonic()
    rows = []
    for q in (1, 4):
        for x in (50.0, 100.0, 500.0, 1000.0):
            for ell in (2, 3):
                spec = WeightSpec(x=x, ell=ell, eps=0.1)
                if q == 1:
                    ext, cls = trivial_extension(), ConjClass(FULL)
                    series = zeta_log_deriv(support_cap(spec))
                else:
                    ext, cls = cyclotomic_field(4), ConjClass(1)
                    series = class_log_deriv(ext, cls, support_cap(spec))
                direct = weighted_prime_sum(ext, cls, spec)
                res = contour_sum(series, spec, t_max=500.0)
                rows.append((q, x, ell, direct, res.value,
                             abs(res.value - direct), res.budget))
    elapsed = time.monotonic() - t0
    identity_ok = all(diff <= budget for *_, diff, budget in rows)
    budget_ok = all(budget <= 0.05 * direct
                    for _, _, _, direct, _, _, budget in rows)
    n_tight = sum(budget <= 0.05 * direct for _, _, _, direct, _, _, budget in rows)
    _report(2, "smoothed-sum contour identity", identity_ok and budget_ok and elapsed < 120,
            f"identity within budget {sum(d <= b for *_, d, b in rows)}/16, "
            f"budget<=5% of direct {n_tight}/16 at t_max=500", elapsed, 120.0)
    for q, x, ell, direct, value, diff, budget in rows:
        assert diff <= budget, f"identity breach at q={q} x={x} ell={ell}"
    assert elapsed < 120.0
    # As specified the budget must also sit below 5% of the direct sum at
    # t_max = 500.  On the chosen abscissa (sigma0 near 0.06-0.2 here) every
    # case clears it with room to spare; on Re s = 2, the line the message
    # below describes, 15 of 16 cases missed.
    for q, x, ell, direct, value, diff, budget in rows:
        assert budget <= 0.05 * direct, (
            f"budget {budget:.3f} exceeds 5% of direct ({0.05 * direct:.3f}) "
            f"at q={q} x={x:.0f} ell={ell}, t_max=500; the prescribed tail "
            f"bound scales as x^2 (2ell/eps)^ell/(ell T^ell) and would need "
            f"t_max ~ 4800 to clear 5% on every case")


def test_c3_brun_titchmarsh_sweep():
    t0 = time.monotonic()
    primes = primes_upto(10**6)
    xs = (10**3, 10**4, 10**5, 10**6)
    prefix = {x: primes[: int(np.searchsorted(primes, x, side="right"))] for x in xs}
    failures = []
    checked = 0
    for q in range(2, 201):
        coprime = np.array([a for a in range(q) if math.gcd(a, q) == 1])
        phi_q = coprime.size
        for x in xs:
            if x <= q:
                continue
            counts = np.bincount(prefix[x] % q, minlength=q)
            theta = math.log(q) / math.log(x)
            rhs = 2.0 / (1.0 - theta) * x / (phi_q * math.log(x))
            checked += phi_q
            bad = counts[coprime] > rhs
            if np.any(bad):
                failures.extend((q, int(a), x) for a in coprime[bad])
    # tie the scalar operation to the sweep on a sample
    for q, a, x in [(4, 1, 10**3), (199, 1, 10**6), (180, 7, 10**4)]:
        assert montgomery_vaughan_check(APQuery(q=q, a=a, x=x)).passed
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    _report(3, "Brun-Titchmarsh sweep", ok,
            f"{checked} (q,a,x) triples, {len(failures)} violations", elapsed, 120.0)
    assert not failures
    assert elapsed < 120.0


def test_c4_chebotarev_density_consistency():
    t0 = time.monotonic()
    x = 10**6
    li_x = li(float(x))
    total = len(primes_upto(x))
    worst = 0.0
    for d in (-1, 5, -5, -23):
        ext = quadratic_field(d)
        counts = {}
        for cls in conj_classes(ext):
            counts[cls.key] = pi_class(ext, cls, x)
            ratio = counts[cls.key] * 2.0 / li_x
            worst = max(worst, abs(ratio - 1.0))
            assert 0.95 <= ratio <= 1.05, (d, cls.key, ratio)
        ram = sum(1 for p in ext.ramified if p <= x)
        assert counts[SPLIT] + counts[INERT] + ram == total, f"partition d={d}"
    for q in (5, 7, 12):
        ext = cyclotomic_field(q)
        class_sum = 0
        for cls in conj_classes(ext):
            c = pi_class(ext, cls, x)
            class_sum += c
            ratio = c * euler_phi(q) / li_x
            worst = max(worst, abs(ratio - 1.0))
            assert 0.95 <= ratio <= 1.05, (q, cls.key, ratio)
        ram = sum(1 for p in ext.ramified if p <= x)
        assert class_sum + ram == total, f"partition q={q}"
    elapsed = time.monotonic() - t0
    ok = worst <= 0.05 and elapsed < 60.0
    _report(4, "Chebotarev density ratios", ok,
            f"max |ratio - 1| = {worst:.4f} over 4 quadratic + 3 cyclotomic fields",
            elapsed, 60.0)
    assert elapsed < 60.0


def test_c5_quadratic_form_densities():
    t0 = time.monotonic()
    x = 10**6
    li_x = li(float(x))
    assert class_number(4).h == 1
    assert class_number(23).h == 3
    worst = 0.0
    for D in (4, 20, 23, 40):
        summary = class_number(D)
        for form in summary.forms:
            d = delta_q(form)
            target = d * li_x / summary.h
            count = int(count_represented_primes(form, x).counts[-1])
            dev = abs(count / target - 1.0)
            worst = max(worst, dev)
            assert dev <= 0.15, (D, form, count, target)
            assert count < 2.0 * target, (D, form)
    elapsed = time.monotonic() - t0
    ok = worst <= 0.15 and elapsed < 120.0
    _report(5, "quadratic form densities", ok,
            f"max deviation from target {worst:.4f} across 8 classes",
            elapsed, 120.0)
    assert elapsed < 120.0


def test_c6_bound_calculators_reproduce_worked_examples():
    t0 = time.monotonic()
    checks: list[tuple[str, float, float]] = []

    def close(name, got, expect, tol=1e-9):
        checks.append((name, got, expect))
        assert got == pytest.approx(expect, rel=tol, abs=tol * max(1.0, abs(expect))), name

    # complexity
    close("complexity degenerate",
          log_complexity(FieldInvariants(1, 1, 1, delta0=1e-3)).value, 0.0)
    close("complexity quadratic",
          log_complexity(FieldInvariants(2, 5, 1, delta0=1e-12)).value, math.log(5))
    # density bound, log space
    close("density", density_bound_from_L(1.0, 1, 0.5, 1.0).log, 81.0)
    # low-lying bounds, log space
    close("low-lying at 0", low_lying_density_bound(0.0).log, 188.0)
    close("low-lying at 1", low_lying_density_bound(1.0).log, 350.0)
    close("low-lying clamped", low_lying_density_bound(0.05, clamp=True).value, 1.0)
    # repulsion
    close("repulsion baseline", repulsion_threshold(0.5), 0.2866)
    close("repulsion log branch", repulsion_threshold(0.05, eta=0.01),
          0.2103 * math.log(20.0))
    close("repulsion fixed branch", repulsion_threshold(0.01, eta=0.02), 0.44)
    # exclusion
    close("exclusion", deuring_heilbronn_from_L(10.0, 1, 0.999, 1.0, 1.0),
          1.0 - math.log(100.0) / 810.0)
    # classical constant
    close("C at 0.1", brun_titchmarsh_constant(0.1), 2.0)
    close("C at 0.5", brun_titchmarsh_constant(0.5), 3.2)
    close("C near 1", brun_titchmarsh_constant(0.9999),
          (2.0 - (0.0001 / 4.0) ** 6) / 0.0001)
    # range thresholds, log space
    rr = range_thresholds(FieldInvariants(1, 1, 5))
    close("range rational q=5", rr.basic.log, math.log(5.0**185 + 5.0**130))
    inv = FieldInvariants(2, 5, 1, degree_LK=2, ramified_primes={5})
    close("extension complexity", extension_complexity(inv), 10.0 * math.sqrt(5.0))
    unit = range_thresholds(FieldInvariants(1, 1, 1))
    close("unit basic", unit.basic.value, 2.0)
    close("unit sharp", unit.sharp.value, 2.0)
    # branch-point behavior: the closed branch governs within 1e-12
    for bp, (closed, open_side) in BT_BRANCH_POINTS.items():
        got = brun_titchmarsh_constant(bp)
        assert abs(got - closed) <= 1e-12, (bp, got, closed)
    jumps = [f"{abs(o - c):.1e}" for c, o in BT_BRANCH_POINTS.values()]
    elapsed = time.monotonic() - t0
    _report(6, "bound calculators", True,
            f"{len(checks)} worked examples at 1e-9, branch values closed-side "
            f"within 1e-12 (one-sided jumps {jumps})", elapsed)


def test_c7_lang_trotter_machinery(monkeypatch):
    t0 = time.monotonic()
    # Hasse holds structurally for every produced record; recheck explicitly
    hasse_violations = 0
    for curve in LT_CURVES:
        ps, aps = trace_table(curve, 10**5)
        if not np.all(aps.astype(float) ** 2 < 4.0 * ps.astype(float)):
            hasse_violations += 1
    # baby-step giant-step against the character-sum count for all good p < 1e4;
    # a lane BSGS leaves ambiguous falls back to the character sum, so count
    # those: the comparison must run BSGS on nearly every prime
    mismatches, fallbacks, compared = 0, [], 0
    charsum = elliptic._trace_charsum
    small = [int(p) for p in primes_upto(10**4 - 1)]
    for curve in LT_CURVES:
        good = np.array([p for p in small if curve.has_good_reduction(p)], dtype=np.int64)
        with monkeypatch.context() as m:
            m.setattr(elliptic, "_trace_charsum",
                      lambda E, p: fallbacks.append(p) or charsum(E, p))
            bsgs = frobenius_traces(curve, good, method="bsgs")
        compared += good.size
        for p, a in zip(good.tolist(), bsgs.tolist()):
            if a != trace_of_frobenius(curve, p, method="charsum").a_p:
                mismatches += 1
    # exact trace partition at 1e5
    E = LT_CURVES[0]
    ps, aps = trace_table(E, 10**5)
    bound = int(2 * math.isqrt(10**5)) + 1
    hist = {a: int(np.count_nonzero(aps == a)) for a in range(-bound, bound + 1)}
    partition_exact = sum(hist.values()) == ps.size
    # descriptive shape report for a = 0 up to 1e6
    series = trace_match_count(E, 0, 10**6,
                               checkpoints=[10**4, 10**5, 5 * 10**5, 10**6])
    shape = growth_shape_report(series, "trace")
    elapsed = time.monotonic() - t0
    few_fallbacks = len(fallbacks) <= compared // 100
    ok = (hasse_violations == 0 and mismatches == 0 and few_fallbacks and partition_exact
          and np.all(np.isfinite(shape.conjecture_ratio)) and elapsed < 300.0)
    _report(7, "Lang-Trotter machinery", ok,
            f"hasse violations {hasse_violations}, bsgs/naive mismatches "
            f"{mismatches} ({len(fallbacks)} of {compared} bsgs lanes fell back, "
            f"largest p {max(fallbacks, default=0)}), partition exact {partition_exact}, a=0 "
            f"sqrt-normalized ratios {np.round(shape.conjecture_ratio, 3).tolist()}",
            elapsed, 300.0)
    assert hasse_violations == 0
    assert mismatches == 0
    assert few_fallbacks, fallbacks
    assert partition_exact
    assert np.all(np.isfinite(shape.theorem_ratio))
    assert elapsed < 300.0


def test_c8_counting_chain():
    t0 = time.monotonic()
    cases = []
    for d in (-1, 5, -5, -23):
        ext = quadratic_field(d)
        cases.extend((ext, cls) for cls in conj_classes(ext))
    for q in (5, 7, 12):
        ext = cyclotomic_field(q)
        cases.extend((ext, cls) for cls in conj_classes(ext))
    margins = []
    for ext, cls in cases:
        r = counting_chain_check(ext, cls, 10.0, 10**5)
        margins.append(r.margin)
        assert r.passed, (ext.kind, cls.key)
    elapsed = time.monotonic() - t0
    _report(8, "counting chain", True,
            f"{len(cases)} cases, min margin {min(margins):.1f}", elapsed)
