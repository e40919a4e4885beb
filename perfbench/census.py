"""Workload ``census``: one exact prime-counting session, mostly at X = 1e7.

Why: it exercises ``sieve``, ``progressions``, ``bqf``, ``chebotarev`` and
``cli`` and never touches ``explicit`` or ``elliptic``.  One cold
``primes_upto`` is followed by many queries that reuse it.  ``chebotarev``
is used two ways: the quadratic path is vectorised (about 0.15 s per field
at 1e7) while the cyclotomic path runs a Python loop per prime power (about
1 s per class at 1e7), so code shrinking and capacity work shows here and a
contour or elliptic change should show no change.

Seeded parameters are drawn from sets of equal cost (cyclotomic moduli of
equal phi(q), Brun-Titchmarsh moduli of equal phi(q)), so a session's total
work hardly depends on the seed.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref
from chebkit import (APQuery, class_number, count_represented_primes,
                     counting_chain_check, cyclotomic_field, maynard_check,
                     montgomery_vaughan_check, pi_ap, pi_class, prime_powers,
                     primes_upto, psi_class, quadratic_field, residue_counts,
                     theta_class)
from chebkit import cli
from chebkit.chebotarev import INERT, SPLIT, ConjClass, conj_classes

X = 10**7
X_SMALL = 10**6            # seeded-form counts and the CLI reports
N_MODULI = 10
N_QUADRATIC = 4
N_FORMS_D = 3
CYCLOTOMIC_MODULI = (3, 4, 6)                     # phi(q) = 2 each
BT_MODULI = (17, 32, 34, 40, 48, 60)              # phi(q) = 16
CHAIN_X0 = 10.0
REL_TOL = 1e-9             # float sums of log p in another order


def _coprime(q: int) -> list[int]:
    return [a for a in range(q) if math.gcd(a, q) == 1]


def _principal_form(D: int) -> str:
    return f"1,0,{D // 4}" if D % 4 == 0 else f"1,1,{(D + 1) // 4}"


def generate(rng) -> dict:
    squarefree_d = [d for d in range(-60, 61) if d not in (0, 1) and ref.squarefree(d)]
    fundamental = [D for D in range(5, 201) if ref.is_fundamental(D)]
    fields = [("quadratic", d) for d in rng.sample(squarefree_d, N_QUADRATIC)]
    fields.append(("cyclotomic", rng.choice(CYCLOTOMIC_MODULI)))
    pi_q, bt_q = rng.randrange(3, 201), rng.choice(BT_MODULI)
    cheb_q = rng.randrange(3, 14)
    bqf_D = rng.choice(ref.CLASS_NUMBER_ONE)
    return {
        "moduli": [(q, rng.sample(_coprime(q), min(2, len(_coprime(q)))))
                   for q in rng.sample(range(2, 201), N_MODULI)],
        "fields": [(kind, v, rng.choice([SPLIT, INERT] if kind == "quadratic"
                                        else _coprime(v))) for kind, v in fields],
        "form_ds": rng.sample(fundamental, N_FORMS_D),
        "cli": [
            ["pi-ap", "--q", str(pi_q), "--a", str(rng.choice(_coprime(pi_q))), "--x", "1e7"],
            ["bt-check", "--q", str(bt_q), "--x", "1e7"],
            ["bqf", "--D", str(bqf_D), "--x", "1e6", "--form", _principal_form(bqf_D)],
            ["chebotarev", "--cyclotomic", str(cheb_q), "--class",
             str(rng.choice(_coprime(cheb_q))), "--x", "1e6"],
        ],
    }


def _sieve(rec):
    with rec.span("sieve.primes_upto.cold"):
        cold = primes_upto(X)
    with rec.span("sieve.prime_powers"):
        powers = prime_powers(X)
    rec.count("sieve.calls", 2)
    rec.count("sieve.primes_out", cold.size)
    return cold, powers


def _modulus(q, residues, rec):
    with rec.span("sieve.primes_upto.warm"):
        ps = primes_upto(X)
    rec.count("sieve.calls")
    rec.count("sieve.primes_out", ps.size)
    with rec.span("progressions.residue_counts"):
        counts = residue_counts(q, X, ps)
    queries = [APQuery(q=q, a=a, x=X) for a in residues]
    with rec.span("progressions.pi_ap"):
        pis = [pi_ap(query) for query in queries]
    with rec.span("progressions.checks"):
        mv = montgomery_vaughan_check(queries[0])
        mayn = maynard_check(queries[0])
    rec.count("progressions.calls", 3 + len(queries))
    return ps, counts, pis, mv, mayn


def _known_pi(rec):
    with rec.span("progressions.pi_ap"):
        out = {x: pi_ap(APQuery(q=1, a=0, x=x)) for x in ref.KNOWN_PI}
    rec.count("progressions.calls", len(out))
    return out


def _field(kind, v, chain_cls, rec):
    ext = quadratic_field(v) if kind == "quadratic" else cyclotomic_field(v)
    rows = {}
    with rec.span(f"chebotarev.{kind}"):
        for cls in conj_classes(ext):
            rows[cls.key] = (pi_class(ext, cls, X), theta_class(ext, cls, X),
                             psi_class(ext, cls, X))
    with rec.span("chebotarev.chain"):
        chain = counting_chain_check(ext, ConjClass(chain_cls), CHAIN_X0, X)
    rec.count("chebotarev.calls", 3 * len(rows) + 1)
    return rows, chain


def _forms(form_ds, rec):
    with rec.span("bqf.class_number"):
        known = {D: class_number(D) for D in ref.KNOWN_CLASS_NUMBERS}
        seeded = {D: class_number(D) for D in form_ds}
    forms = [f for s in seeded.values() for f in s.forms]
    rec.count("bqf.forms", sum(s.h for s in known.values()) + len(forms))
    with rec.span("bqf.represented"):
        counts = {(f.a, f.b, f.c): int(count_represented_primes(f, X_SMALL).counts[-1])
                  for f in forms}
        sum_two_squares = int(count_represented_primes(known[4].forms[0], X).counts[-1])
    return known, seeded, counts, sum_two_squares


def _cli(argv, rec):
    with rec.span("cli.run"):
        code, text = cli.run(argv)
    rec.count("cli.calls")
    return code, text


def run(s, rec, checks) -> list:
    outs = []
    for task, (layer, fn, _, args) in enumerate(_steps(s)):
        with rec.run_task(task):
            outs.append(checks.attempt(layer, fn, *args, rec))
    return outs


class _Reference:
    """Exact counts from the benchmark's own sieve up to X."""

    def __init__(self):
        self.primes = ref.primes_upto(X)
        self.powers = ref.prime_powers(self.primes, X)

    def class_masks(self, kind, v, ps, exps):
        """{class key: mask over (ps, exps)} for Frob(p)^m, and the ramified mask."""
        if kind == "quadratic":
            disc = v if v % 4 == 1 else 4 * v
            sym = ref.kronecker_at_primes(disc, ps)
            odd = exps % 2 == 1
            return ({SPLIT: (sym == 1) | ((sym == -1) & ~odd), INERT: (sym == -1) & odd},
                    sym == 0)
        residue = ref.powmod(ps % v, exps, v)
        coprime = np.gcd(ps, v) == 1
        return {a: coprime & (residue == a) for a in _coprime(v)}, ~coprime


def _close(a, b) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def check(s, outs, checks) -> None:
    r = _Reference()
    for (layer, _, check_fn, args), out in zip(_steps(s), outs):
        if out is not None:
            checks.attempt(layer, check_fn, args, out, r, checks)


def _check_sieve(args, out, r, checks):
    cold, (values, prs, exps) = out
    checks.ck("sieve", np.array_equal(cold, r.primes), "cold primes_upto(X) differs")
    checks.ck("sieve", all(np.array_equal(a, b) for a, b in zip((values, prs, exps), r.powers)),
              "prime_powers(X) differs")


def _check_modulus(args, out, r, checks):
    q, residues = args
    ps, counts, pis, mv, mayn = out
    own = np.bincount(r.primes % q, minlength=q)
    checks.ck("sieve", np.array_equal(ps, r.primes), "warm primes_upto(X) differs")
    checks.ck("progressions", np.array_equal(counts, own) and counts.sum() == r.primes.size,
              f"residue_counts({q}) differs or does not sum to pi(X)")
    for a, got in zip(residues, pis):
        checks.ck("progressions", got == own[a], f"pi({X}; {q}, {a}) = {got}, expected {own[a]}")
    checks.ck("progressions", mv.passed and mv.lhs == own[residues[0]],
              f"Montgomery-Vaughan check at q = {q}: {mv}")
    checks.ck("progressions", mayn.lhs == own[residues[0]], f"piecewise BT count at q = {q}")


def _check_known_pi(args, out, r, checks):
    for x, got in out.items():
        checks.ck("progressions", got == ref.KNOWN_PI[x], f"pi({x}) = {got}")


def _check_field(args, out, r, checks):
    kind, v, chain_cls = args
    rows, chain = out
    ps = r.primes
    masks, ramified = r.class_masks(kind, v, ps, np.ones(ps.size, dtype=np.int64))
    values, pprs, pexps = r.powers
    pmasks, _ = r.class_masks(kind, v, pprs, pexps)
    log_pp, log_p = np.log(pprs), np.log(ps)
    below = ps < X
    for cls, (pi, theta, psi) in rows.items():
        checks.ck("chebotarev", pi == int(np.count_nonzero(masks[cls])),
                  f"pi_C for {kind} {v} class {cls}")
        checks.ck("chebotarev", _close(theta, float(np.sum(log_p[masks[cls] & below]))),
                  f"theta_C for {kind} {v} class {cls}")
        checks.ck("chebotarev", _close(psi, float(np.sum(log_pp[pmasks[cls]]))),
                  f"psi_C for {kind} {v} class {cls}")
    total = sum(pi for pi, _, _ in rows.values()) + int(np.count_nonzero(ramified))
    checks.ck("chebotarev", total == ps.size,
              f"classes and ramified primes of {kind} {v} do not partition pi(X)")
    checks.ck("chebotarev", chain.passed and chain.lhs == np.count_nonzero(masks[chain_cls]),
              f"counting chain for {kind} {v} class {chain_cls}: {chain}")


def _check_forms(args, out, r, checks):
    known, seeded, counts, sum_two_squares = out
    for D, summary in known.items():
        checks.ck("bqf", summary.h == ref.KNOWN_CLASS_NUMBERS[D], f"h(-{D}) = {summary.h}")
    small = r.primes[r.primes <= X_SMALL]
    for D, summary in seeded.items():
        checks.ck("bqf", summary.h == ref.class_number(D), f"h(-{D}) = {summary.h}")
        # a prime that splits or ramifies is represented by the form of its
        # ideal class and by the inverse class's form; ambiguous forms are
        # their own inverse
        weighted = sum(counts[(f.a, f.b, f.c)] * (1.0 if f.b in (0, f.a) or f.a == f.c else 0.5)
                       for f in summary.forms)
        expect = int(np.count_nonzero(ref.kronecker_at_primes(-D, small) != -1))
        checks.ck("bqf", weighted == expect,
                  f"forms of discriminant -{D} represent {weighted} primes, expected {expect}")
    expect = 1 + int(np.count_nonzero(r.primes % 4 == 1))
    checks.ck("bqf", sum_two_squares == expect,
              f"x^2 + y^2 represents {sum_two_squares} primes <= {X}, expected {expect}")


def _check_cli(args, out, r, checks):
    argv, = args
    code, text = out
    checks.ck("cli", code == 0, f"{argv} exited with {code}: {text}")
    if code != 0:
        return
    doc = json.loads(text)
    opts = dict(zip(argv[1::2], argv[2::2]))
    x = int(float(opts["--x"]))
    ps = r.primes[r.primes <= x]
    if argv[0] == "pi-ap":
        q, a = int(opts["--q"]), int(opts["--a"])
        ok = doc["count"] == np.count_nonzero(ps % q == a) and doc["mv_passed"]
    elif argv[0] == "bt-check":
        q = int(opts["--q"])
        ok = all(row["count"] == np.count_nonzero(ps % q == row["a"]) and row["mv_passed"]
                 for row in doc["rows"]) and len(doc["rows"]) == len(_coprime(q))
    elif argv[0] == "bqf":
        D = int(opts["--D"])
        ok = doc["count"] == np.count_nonzero(ref.kronecker_at_primes(-D, ps) != -1)
    else:
        q, a = int(opts["--cyclotomic"]), int(opts["--class"])
        mask = ps % q == a
        ok = (doc["count"] == np.count_nonzero(mask) and doc["chain_passed"]
              and _close(doc["theta"], float(np.sum(np.log(ps[mask & (ps < x)])))))
    checks.ck("cli", bool(ok), f"{argv} report disagrees with the reference count")


def _steps(s) -> list[tuple]:
    """(layer, task, its check, arguments) for each task, in session order."""
    steps = [("sieve", _sieve, _check_sieve, ())]
    steps += [("progressions", _modulus, _check_modulus, m) for m in s["moduli"]]
    steps.append(("progressions", _known_pi, _check_known_pi, ()))
    steps += [("chebotarev", _field, _check_field, f) for f in s["fields"]]
    steps.append(("bqf", _forms, _check_forms, (s["form_ds"],)))
    steps += [("cli", _cli, _check_cli, (argv,)) for argv in s["cli"]]
    return steps


def probe(s, outs, rec, checks) -> None:
    """No decomposition probe: every census call is timed as it runs."""


def metrics(s, outs, rec, selfs) -> dict:
    return {}
