"""Workload ``contour``: smoothed-sum contour checks against the direct sum.

Why: the dense ``LogDerivSeries.evaluate`` does nearly all of the work
here (about 97-100% of each case) and its 16384-row chunks set the peak
RSS.  Faster Dirichlet-polynomial evaluation shows on this workload;
``elliptic``, ``bqf`` and ``progressions`` are never called.

Each case compares ``contour_sum`` at t_max = 500, step 0.05 with
``chebotarev.weighted_prime_sum``.  x is log-uniform in [1e3, 2e4],
stratified: one case per quarter of the log range, with antithetic jitter
(strata i and 3-i sit at u and 1-u of their widths).  ell in {2, 3} and
eps in [0.05, 0.2] are balanced across the cases.  The series kind is tied
to the stratum so that the cases cost about the same: complex character
series run the full line, twice the evaluations, and take the two low
strata; the zeta series and a cyclotomic class series, which carries about
1/phi(q) of the terms, take the high ones.  This keeps a session's work
within about 1% of its median across seeds.  One more case sits at the top
of the range, x = 2e4 and eps = 0.2 with the zeta series, the largest
series the ranges allow, so the peak RSS is the same kernel in every seed.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from chebkit import (WeightSpec, character_log_deriv, class_log_deriv,
                     contour_sum, cyclotomic_field, laplace_transform,
                     support_cap, trivial_extension, weighted_prime_sum,
                     zeta_log_deriv)
from chebkit.characters import character_table
from chebkit.chebotarev import FULL, ConjClass

X_LO, X_HI = 1e3, 2e4
EPS_LO, EPS_HI = 0.05, 0.2
T_MAX, QUAD_STEP = 500.0, 0.05
STRATUM_KINDS = ("char", "char", "zeta", "class")
CLASS_MODULI = (5, 8, 10, 12)     # phi(q) = 4 each, so equal cost
CHAR_MODULI = (5, 7, 9, 13)       # each has non-real characters
BUDGET_TARGET = 0.05              # the acceptance criterion's 5% of |direct|


def generate(rng) -> list[dict]:
    k = len(STRATUM_KINDS)
    ells = [2, 3] * (k // 2)
    rng.shuffle(ells)
    eps_slots = list(range(k))
    rng.shuffle(eps_slots)
    # the anchor comes first, so the peak RSS is reached in a fresh heap
    cases = [{"kind": "zeta", "x": X_HI, "ell": rng.choice((2, 3)), "eps": EPS_HI}]
    # antithetic jitter: strata i and k-1-i sit at u and 1 - u of their widths
    jitter = [rng.random() for _ in range(k // 2)]
    jitter += [1.0 - u for u in reversed(jitter)]
    for i, kind in enumerate(STRATUM_KINDS):
        case = {
            "kind": kind,
            "x": X_LO * (X_HI / X_LO) ** ((i + jitter[i]) / k),
            "ell": ells[i],
            "eps": EPS_LO + (EPS_HI - EPS_LO) * (eps_slots[i] + rng.random()) / k,
        }
        if kind == "class":
            q = rng.choice(CLASS_MODULI)
            case.update(q=q, residue=rng.choice([a for a in range(1, q)
                                                 if math.gcd(a, q) == 1]))
        elif kind == "char":
            # ordinal among the non-real characters mod q
            case.update(q=rng.choice(CHAR_MODULI), ordinal=rng.randrange(1 << 30))
        cases.append(case)
    return cases


def _series_and_direct(case, spec, rec):
    n_max = support_cap(spec)
    q = case.get("q")
    with rec.span("explicit.series_build"):
        if case["kind"] == "zeta":
            series = zeta_log_deriv(n_max)
        elif case["kind"] == "class":
            series = class_log_deriv(cyclotomic_field(q), ConjClass(case["residue"]), n_max)
        else:
            table = character_table(q)
            complex_rows = [i for i, row in enumerate(table) if np.any(np.abs(row.imag) > 1e-9)]
            index = complex_rows[case["ordinal"] % len(complex_rows)]
            chi = table[index]
            series = character_log_deriv(q, index, n_max)
    with rec.span("chebotarev.direct_sum"):
        if case["kind"] == "zeta":
            direct = weighted_prime_sum(trivial_extension(), ConjClass(FULL), spec)
        elif case["kind"] == "class":
            direct = weighted_prime_sum(cyclotomic_field(q), ConjClass(case["residue"]), spec)
        else:
            # sum_n Lambda(n) chi(n) f = sum over residues a of chi(a) S_a
            ext = cyclotomic_field(q)
            direct = sum(complex(chi[a]) * weighted_prime_sum(ext, ConjClass(a), spec)
                         for a in range(1, q) if chi[a] != 0)
    return series, direct


def _run_case(case, rec) -> dict:
    spec = WeightSpec(x=case["x"], ell=case["ell"], eps=case["eps"])
    series, direct = _series_and_direct(case, spec, rec)
    with rec.span("explicit.contour_sum") as sid:
        res = contour_sum(series, spec, t_max=T_MAX, quad_step=QUAD_STEP)
    return {"spec": spec, "series": series, "direct": direct, "res": res, "span": sid}


def run(cases, rec, checks) -> list:
    outs = []
    for task, case in enumerate(cases):
        with rec.run_task(task):
            outs.append(checks.attempt("explicit", _run_case, case, rec))
    return outs


def _grids(out):
    """The fine and coarse quadrature grids ``contour_sum`` used, and
    whether it also ran the negative half-line."""
    n_fine = int(round(T_MAX / out["res"].quad_step)) + 1
    fine = np.linspace(0.0, T_MAX, n_fine)
    return (fine, fine[::2]), not out["series"].is_real


def check(cases, outs, checks) -> None:
    for case, out in zip(cases, outs):
        if out is None:
            continue
        res, direct = out["res"], out["direct"]
        value = res.value if out["series"].is_real else complex(res.value, res.imag_part)
        checks.ck("explicit", abs(value - direct) <= res.budget,
                  f"|contour - direct| = {abs(value - direct):.4g} exceeds the "
                  f"budget {res.budget:.4g} for {case}")


def metrics(cases, outs, rec, selfs) -> dict:
    done = [o for o in outs if o is not None]
    for out in done:
        grids, full_line = _grids(out)
        nodes = sum(g.size for g in grids) * (2 if full_line else 1)
        terms = int(out["series"].values.size)
        rec.count("explicit.series_terms", terms)
        rec.count("explicit.quad_nodes", nodes)
        rec.count("explicit.term_nodes", terms * nodes)
        rec.count("explicit.budget_ok",
                  int(out["res"].budget <= BUDGET_TARGET * abs(out["direct"])))
    rel = [o["res"].budget / abs(o["direct"]) for o in done]
    return {"explicit.err_budget_rel": statistics.median(rel) if rel else 0.0}


def probe(cases, outs, rec, checks) -> None:
    """Re-time ``series.evaluate`` and ``laplace_transform`` on each case's
    own grids, as children of the case's ``contour_sum`` span."""
    for task, out in enumerate(outs):
        if out is not None:
            rec.task = task
            checks.attempt("explicit", _probe_case, out, rec)


def _probe_case(out, rec) -> None:
    spec, series = out["spec"], out["series"]
    grids, full_line = _grids(out)
    for t in grids:
        for sign in ((1.0, -1.0) if full_line else (1.0,)):
            with rec.span("explicit.evaluate", parent=out["span"]):
                series.evaluate(sign * t)
            with rec.span("weights.laplace_transform", parent=out["span"]):
                laplace_transform(spec, -(series.sigma0 + 1j * sign * t) * spec.log_x)
