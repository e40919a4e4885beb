"""Command-line frontend.

Every library operation is reachable through one of the subcommands:

    weights-verify   transform bound checks on a deterministic sample grid
    bounds           the analytic bound calculators
    pi-ap            primes in one arithmetic progression
    bt-check         Brun-Titchmarsh checks across residues
    bqf              binary quadratic form reduction/counting report
    chebotarev       Frobenius-class counts and the counting chain
    mellin-check     contour evaluation of the smoothed sum vs direct
    lang-trotter     trace / Frobenius-field counting and shape report

Reports are emitted as JSON (default) or CSV with a header row; floats are
printed with 12 significant digits so repeated runs diff cleanly.  A flat
``key = value`` config file supplies defaults which flags override.  Only
``--format`` and ``--config`` may stand anywhere; every other flag belongs
to its subcommand, and one the run would not read is a usage error.  Exit
status is 0 on success and 2 on a usage or domain error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import bounds as bounds_mod
from . import bqf as bqf_mod
from . import chebotarev as cheb
from . import elliptic
from . import explicit
from . import progressions as ap
from .errors import CapacityError, DomainError
from .weights import (WeightSpec, check_decay_bound, check_growth_bound,
                      check_left_line_bound, check_real_axis_bound,
                      laplace_transform, weight_value)


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (float, np.floating)):
        return float(f"{float(v):.12g}")
    if isinstance(v, np.integer):
        return int(v)
    return v


def emit(rows: list[dict], fmt: str, meta: dict) -> str:
    rows = [{k: _fmt(v) for k, v in row.items()} for row in rows]
    if fmt == "json":
        doc = {"meta": {k: _fmt(v) for k, v in meta.items()}, "rows": rows}
        if len(rows) == 1:
            doc.update(rows[0])
        return json.dumps(doc, sort_keys=True, indent=2)
    out = io.StringIO()
    fieldnames = list(rows[0].keys()) if rows else ["empty"]
    writer = csv.DictWriter(out, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: (f"{v:.12g}" if isinstance(v, float) else v)
                         for k, v in row.items()})
    return out.getvalue().rstrip("\n")


def _finite(text: str) -> float:
    # the type of every float flag, so config values are checked as well
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text.strip()!r} is not a finite number")
    return value


def _parse_checkpoints(text: str) -> list[float]:
    return [_finite(tok) for tok in text.split(",") if tok.strip()]


def _given(**kw) -> dict:
    # the keywords a run was given; the others keep the library's defaults
    return {k: v for k, v in kw.items() if v is not None}


def _read_config(path: str) -> dict:
    values: dict[str, str] = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{line_no}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


# ---------------------------------------------------------------- commands


def _cmd_weights_verify(args) -> list[dict]:
    if args.samples < 1:
        raise DomainError("--samples must be >= 1")
    spec = WeightSpec(x=args.x, ell=args.ell, eps=args.eps)
    rng = np.random.default_rng(args.seed or 0)
    at_zero = laplace_transform(spec, 0).real
    rows = [{"check": "value-at-zero", "s_re": 0.0, "s_im": 0.0, "alpha": 0.0,
             "lhs": at_zero, "rhs": 0.75, "passed": 0.5 < at_zero < 0.75}]
    lo, hi = spec.support
    for t in (lo - 0.01, lo, 0.5, 0.75, 1.0, hi, hi + 0.01):
        f = weight_value(spec, t)
        rows.append({"check": "weight-in-unit-interval", "s_re": t, "s_im": 0.0,
                     "alpha": 0.0, "lhs": f, "rhs": 1.0, "passed": 0.0 <= f <= 1.0})
    for _ in range(args.samples):
        sigma = float(10.0 ** rng.uniform(-2, 0.7))
        t = float(rng.uniform(-50, 50))
        alpha, s = float(rng.uniform(0, spec.ell)), complex(sigma, t)
        for check, at, a, r in (
                ("halfplane-decay", s, alpha, check_decay_bound(spec, s, alpha)),
                ("growth", s, 0.0, check_growth_bound(spec, s)),
                ("real-axis", complex(sigma), 0.0, check_real_axis_bound(spec, sigma)),
                ("left-line", complex(-0.5, t), float(spec.ell), check_left_line_bound(spec, t))):
            rows.append({"check": check, "s_re": at.real, "s_im": at.imag, "alpha": a,
                         "lhs": r.lhs, "rhs": r.rhs, "passed": r.passed})
    return rows


def _cmd_bounds(args) -> list[dict]:
    # a calculator's flag is read only when one of the flags it needs is given
    for flag, needs in (("sigma", "t_height"), ("beta1", "t_height"), ("eta", "lambda1"),
                        ("t_height", "sigma beta1"), ("c1", "beta1"), ("clamp", "lam")):
        if getattr(args, flag) is not None and all(getattr(args, n) is None for n in needs.split()):
            raise DomainError(f"--{flag} needs --{' or --'.join(needs.split())}".replace("_", "-"))
    inv = bounds_mod.FieldInvariants(
        n_K=args.n_k, D_K=args.d_k, Q=args.q_max,
        degree_LK=args.degree_lk,
        ramified_primes=frozenset(int(p) for p in args.ramified.split(",") if p.strip()),
        delta0=args.delta0)
    comp = bounds_mod.log_complexity(inv)
    ranges = bounds_mod.range_thresholds(inv, constant=args.constant)
    row = {
        "complexity": comp.value,
        "degree_dominated": comp.degree_dominated,
        "asymptotic_regime": comp.asymptotic,
        "range_basic_log": ranges.basic.log,
        "range_balanced_log": ranges.balanced.log,
        "range_sharp_log": ranges.sharp.log,
        "range_compact_log": ranges.compact.log,
        "extension_complexity": ranges.complexity,
    }
    if args.sigma is not None:
        row["density_bound_log"] = bounds_mod.density_bound(
            inv, args.sigma, args.t_height, constant=args.constant).log
    if args.lam is not None:
        row["low_lying_bound_log"] = bounds_mod.low_lying_density_bound(
            args.lam, **_given(clamp=args.clamp)).log
    if args.lambda1 is not None:
        row["repulsion_threshold"] = bounds_mod.repulsion_threshold(
            args.lambda1, **_given(eta=args.eta))
    if args.beta1 is not None:
        row["exclusion_boundary"] = bounds_mod.deuring_heilbronn_exclusion(
            inv, args.beta1, args.t_height, **_given(c1=args.c1))
    if args.theta is not None:
        row["bt_constant"] = bounds_mod.brun_titchmarsh_constant(args.theta)
    return [row]


def _bt_row(query: ap.APQuery, slack: float | None) -> dict:
    """One progression's count and both Brun-Titchmarsh checks."""
    mv = ap.montgomery_vaughan_check(query)
    my = ap.maynard_check(query, **_given(slack=slack))
    return {"q": query.q, "a": query.a, "x": query.x, "count": mv.lhs,
            "mv_bound": mv.rhs, "mv_passed": mv.passed, "piecewise_bound": my.rhs,
            "piecewise_passed": my.passed, "heuristic": my.heuristic}


def _cmd_pi_ap(args) -> list[dict]:
    query = ap.APQuery(q=args.q, a=args.a, x=args.x)
    if args.q >= 2 and args.x > args.q:
        row = _bt_row(query, args.slack)
        return [{**row, "count": int(row["count"])}]  # pi-ap's count is an integer
    if args.slack is not None:
        raise DomainError("--slack needs a check to run: --q >= 2 and --x > --q")
    return [{"q": args.q, "a": args.a, "x": args.x, "count": ap.pi_ap(query)}]


def _cmd_bt_check(args) -> list[dict]:
    if args.q < 2:
        raise DomainError("bt-check needs --q >= 2")
    return [_bt_row(ap.APQuery(q=args.q, a=a, x=args.x), args.slack)
            for a in range(1, args.q) if math.gcd(a, args.q) == 1]


def _cmd_bqf(args) -> list[dict]:
    a, b, c = (int(t) for t in args.form.split(","))
    form = bqf_mod.reduce_form(a, b, c)
    if form.D != args.D:
        raise DomainError(f"form discriminant -{form.D} does not match --D {args.D}")
    series = bqf_mod.count_represented_primes(form, int(args.x), args.checkpoints or [args.x])
    return [{"x": r.x, "count": r.count, "target": r.target, "ratio": r.ratio,
             "h": r.h, "delta_Q": r.delta, "below_upper_bound": r.below_upper_bound,
             "in_proven_range": r.in_proven_range}
            for r in bqf_mod.representation_density_report(form, series)]


def _make_extension(args) -> tuple[cheb.AbelianExtension, cheb.ConjClass]:
    if (args.d is None) == (args.cyclotomic is None):
        raise DomainError("need exactly one of --d and --cyclotomic")
    if args.d is not None:
        return cheb.quadratic_field(args.d), cheb.ConjClass(args.cls)
    ext, a = cheb.cyclotomic_field(args.cyclotomic), int(args.cls)
    # the class of the primes = a (mod q); the counters refuse a non-unit a
    return ext, cheb.artin_class(ext, a) or cheb.ConjClass(a)


def _cmd_chebotarev(args) -> list[dict]:
    ext, cls = _make_extension(args)
    report = cheb.density_ratio_report(ext, cls, args.x)
    chain = cheb.counting_chain_check(ext, cls, args.x0, args.x)
    return [{
        "kind": ext.kind, "class": str(cls.key), "x": args.x,
        "count": report.count, "expected": report.expected, "ratio": report.ratio,
        "psi": cheb.psi_class(ext, cls, args.x),
        "theta": cheb.theta_class(ext, cls, args.x),
        "partial_sum_estimate": cheb.theta_partial_sum(ext, cls, args.x0, args.x),
        "chain_lhs": chain.lhs, "chain_rhs": chain.rhs, "chain_passed": chain.passed,
        "range_threshold_log": report.threshold.log,
        "in_proven_range": report.in_proven_range,
    }]


def _cmd_mellin_check(args) -> list[dict]:
    spec = WeightSpec(x=args.x, ell=args.ell, eps=args.eps)
    if args.residue is not None and (args.q == 1 or args.char_index is not None):
        raise DomainError("--residue needs --q >= 2 and no --char-index")
    if args.n_max is not None and args.n_max < 2:
        raise DomainError("--n-max must be >= 2: no prime power lies below 2")
    cap = explicit.support_cap(spec)
    n_max = cap if args.n_max is None else args.n_max
    if args.char_index is not None:
        # single-character series: the direct side is the complex sum over
        # the whole support, whatever n_max truncates the contour's series to
        series = explicit.character_log_deriv(args.q, args.char_index, n_max)
        full = series if n_max >= cap else explicit.character_log_deriv(args.q, args.char_index, cap)
        t = np.log(full.values.astype(float)) / spec.log_x
        direct = complex(np.sum(full.coeffs * weight_value(spec, t)))
    elif args.q == 1:
        series = explicit.zeta_log_deriv(n_max)
        direct = cheb.weighted_prime_sum(cheb.trivial_extension(), cheb.ConjClass(cheb.FULL), spec)
    else:
        ext, cls = cheb.cyclotomic_field(args.q), cheb.ConjClass(
            1 if args.residue is None else args.residue)
        series = explicit.class_log_deriv(ext, cls, n_max)
        direct = cheb.weighted_prime_sum(ext, cls, spec)
    res = explicit.contour_sum(series, spec, t_max=args.t_max)
    diff = abs(complex(res.value, res.imag_part) - direct)
    if args.char_index is not None:
        return [{
            "q": args.q, "char_index": args.char_index, "x": args.x,
            "ell": args.ell, "direct_re": direct.real, "direct_im": direct.imag,
            "contour_re": res.value, "contour_im": res.imag_part,
            "difference": diff, "budget": res.budget, "sigma0": res.sigma0,
            "within_budget": diff <= res.budget,
        }]
    return [{
        "q": args.q, "x": args.x, "ell": args.ell, "eps": args.eps,
        "t_max": args.t_max, "direct": direct, "contour": res.value,
        "difference": diff, "budget": res.budget,
        "sigma0": res.sigma0, "tail": res.tail, "quad_error": res.quad_error,
        "within_budget": diff <= res.budget,
        "budget_fraction_of_direct": res.budget / abs(direct) if direct else math.inf,
    }]


def _cmd_lang_trotter(args) -> list[dict]:
    if (args.curve is None) == (args.curves_file is None):
        raise DomainError("need exactly one of --curve and --curves-file")
    if args.a is not None and args.disc is not None:
        raise DomainError("--a counts traces and --disc Frobenius fields: give one")
    mode = "trace" if args.disc is None else "field"
    if args.curves_file is not None:
        curves = elliptic.read_curves(args.curves_file)
    else:
        a_coef, b_coef = (int(t) for t in args.curve.split(","))
        curves = [elliptic.CurveModel(a_coef, b_coef)]
    checkpoints = args.checkpoints or [args.x]
    rows = []
    for curve in curves:
        if args.disc is None:
            series = elliptic.trace_match_count(curve, args.a or 0, int(args.x), checkpoints)
        else:
            series = elliptic.frobenius_field_count(curve, args.disc, int(args.x), checkpoints)
        shape = elliptic.growth_shape_report(series, mode)
        for i, x_cp in enumerate(series.checkpoints):
            rows.append({"curve": f"{curve.A},{curve.B}", "mode": mode, "x": float(x_cp),
                         "count": int(series.counts[i]),
                         "theorem_ratio": float(shape.theorem_ratio[i]),
                         "conjecture_ratio": float(shape.conjecture_ratio[i]),
                         "cm_flagged": curve.has_cm})
    return rows


_HANDLERS = {
    "weights-verify": _cmd_weights_verify,
    "bounds": _cmd_bounds,
    "pi-ap": _cmd_pi_ap,
    "bt-check": _cmd_bt_check,
    "bqf": _cmd_bqf,
    "chebotarev": _cmd_chebotarev,
    "mellin-check": _cmd_mellin_check,
    "lang-trotter": _cmd_lang_trotter,
}
SUBCOMMANDS = tuple(_HANDLERS)


# ------------------------------------------------------------------ driver


def _global_flags() -> argparse.ArgumentParser:
    # the two flags that stand anywhere in argv; without abbreviations,
    # bqf's --form is never read as --format
    flags = argparse.ArgumentParser(prog="chebkit", add_help=False, allow_abbrev=False)
    flags.add_argument("--config", help="flat 'key = value' defaults file")
    flags.add_argument("--format", choices=("csv", "json"),
                       help="report format (default json)")
    return flags


def build_parser() -> argparse.ArgumentParser:
    # the global flags here serve -h and the config; run reads them from argv
    parser = argparse.ArgumentParser(
        prog="chebkit", parents=[_global_flags()], allow_abbrev=False,
        description="Prime counting in Frobenius classes and explicit bound calculators")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights-verify", help="check the transform bounds on a sample")
    p.add_argument("--x", type=_finite, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--eps", type=_finite, required=True)
    p.add_argument("--samples", type=int, default=100, help="sample points, >= 1 (default 100)")
    p.add_argument("--seed", type=int, help="sample seed (default 0)")

    p = sub.add_parser("bounds", help="evaluate the analytic bound calculators")
    p.add_argument("--n-k", type=int, required=True)
    p.add_argument("--d-k", type=_finite, required=True)
    p.add_argument("--q-max", type=_finite, required=True)
    p.add_argument("--degree-lk", type=int, default=1)
    p.add_argument("--ramified", type=str, default="")
    p.add_argument("--constant", type=_finite, default=1.0)
    p.add_argument("--sigma", type=_finite, help="zero-density bound at sigma; needs --t-height")
    p.add_argument("--t-height", type=_finite, help="height T; needs --sigma or --beta1")
    p.add_argument("--lam", type=_finite, help="low-lying zero count within lam")
    p.add_argument("--clamp", action="store_true", default=None, help="cap the count; needs --lam")
    p.add_argument("--lambda1", type=_finite, help="repulsion threshold at lambda1")
    p.add_argument("--beta1", type=_finite, help="exclusion boundary; needs --t-height")
    p.add_argument("--theta", type=_finite, help="Brun-Titchmarsh constant at theta")
    p.add_argument("--delta0", type=_finite, default=1e-3, help="complexity offset (default 1e-3)")
    p.add_argument("--eta", type=_finite, help="low-lying window; needs --lambda1")
    p.add_argument("--c1", type=_finite, help="exclusion constant; needs --beta1")

    p = sub.add_parser("pi-ap", help="count primes in one progression")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--x", type=_finite, required=True)
    p.add_argument("--slack", type=_finite, help="heuristic o(1) term; needs q >= 2 and x > q")

    p = sub.add_parser("bt-check", help="Brun-Titchmarsh checks at every unit residue")
    p.add_argument("--q", type=int, required=True, help="modulus, at least 2")
    p.add_argument("--x", type=_finite, required=True)
    p.add_argument("--slack", type=_finite, help="heuristic o(1) term")

    p = sub.add_parser("bqf", help="binary quadratic form counting report")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--x", type=_finite, required=True)
    p.add_argument("--form", type=str, required=True, help="a,b,c")
    p.add_argument("--checkpoints", type=_parse_checkpoints, help="x1,x2,... (default x)")

    p = sub.add_parser("chebotarev", help="Frobenius class counts")
    p.add_argument("--d", type=int, help="squarefree d for a quadratic field")
    p.add_argument("--cyclotomic", type=int, help="cyclotomic conductor q")
    p.add_argument("--class", dest="cls", type=str, required=True,
                   help="'split'/'inert' or a residue")
    p.add_argument("--x", type=_finite, required=True)
    p.add_argument("--x0", type=_finite, default=10.0)

    p = sub.add_parser("mellin-check", help="contour vs direct smoothed sum")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--residue", type=int, help="class mod q >= 2 (default 1)")
    p.add_argument("--char-index", type=int,
                   help="check one character's series instead of a class")
    p.add_argument("--x", type=_finite, required=True)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--eps", type=_finite, default=0.1)
    p.add_argument("--t-max", type=_finite, default=500.0)
    p.add_argument("--n-max", type=int, help="series cutoff, at least 2 (default: the support)")

    p = sub.add_parser("lang-trotter", help="trace / Frobenius-field counting")
    p.add_argument("--curve", type=str, help="A,B")
    p.add_argument("--curves-file", type=str)
    p.add_argument("--a", type=int, help="trace mode: count the primes with a_p = a (default 0)")
    p.add_argument("--disc", type=int, help="field mode: the Frobenius-field discriminant to count")
    p.add_argument("--x", type=_finite, required=True)
    p.add_argument("--checkpoints", type=_parse_checkpoints, help="x1,x2,... (default x)")
    return parser


def _apply_config_defaults(parser: argparse.ArgumentParser, values: dict) -> set[str]:
    """Install config values as the defaults of their flags across the
    parser tree and return the destination of every flag in it.

    Values stay strings, which argparse converts with each flag's own
    ``type``; a store_true flag takes ``true`` or ``false``, and a flag
    with choices takes one of them.  Subparsers parse into a fresh
    namespace, so each of them gets the defaults, and config-supplied
    values satisfy otherwise-required flags.
    """
    dests = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                dests |= _apply_config_defaults(sub, values)
            continue
        dests.add(action.dest)
        if action.dest not in values:
            continue
        value = values[action.dest]
        if action.nargs == 0:
            if value.lower() not in ("true", "false"):
                raise DomainError(f"config key {action.dest!r} takes true or false, "
                                  f"not {value!r}")
            value = value.lower() == "true"
        elif action.choices is not None and value not in action.choices:
            raise DomainError(f"config key {action.dest!r} takes one of "
                              f"{', '.join(action.choices)}, not {value!r}")
        action.default = value
        action.required = False
    return dests


def run(argv: list[str]) -> tuple[int, str]:
    """Execute one invocation; returns (exit_code, report_text)."""
    parser = build_parser()
    # --config and --format leave argv first, so they may stand anywhere in it
    given, rest = _global_flags().parse_known_args(argv)
    try:
        if given.config is not None:
            overrides = _read_config(given.config)
            known = _apply_config_defaults(parser, overrides) - {"help", "config"}
            unknown = set(overrides) - known
            if unknown:
                raise DomainError(f"unknown config keys: {sorted(unknown)}")
        args = parser.parse_args(rest)
        rows = _HANDLERS[args.command](args)
        # a --format flag beats the config's format, which beats json
        return 0, emit(rows, given.format or args.format or "json", {"command": args.command})
    except (DomainError, CapacityError, ValueError, OSError) as exc:
        return 2, f"error: {exc}"


def main() -> None:
    code, text = run(sys.argv[1:])
    stream = sys.stdout if code == 0 else sys.stderr
    print(text, file=stream)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
