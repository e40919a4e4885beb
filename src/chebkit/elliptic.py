"""Traces of Frobenius for elliptic curves over Q and the Lang-Trotter
style counters: primes with a fixed trace, and primes with a fixed
Frobenius quadratic field.

Traces come from a full quadratic-character sum for small primes and a
baby-step giant-step order search in the Hasse interval for larger ones;
ambiguous searches resample points and finally fall back to enumeration,
so every reported trace is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import squarefree_kernel
from .errors import DomainError
from .sieve import CountSeries, primes_upto

_CHARSUM_CUTOFF = 10_000
_BSGS_RESAMPLE_LIMIT = 8


@dataclass(frozen=True)
class CurveModel:
    """Short Weierstrass curve y^2 = x^3 + A x + B over Q."""

    A: int
    B: int
    label: str = ""
    cm_flag: bool | None = None

    def __post_init__(self):
        if 4 * self.A ** 3 + 27 * self.B ** 2 == 0:
            raise DomainError("singular curve: 4A^3 + 27B^2 = 0")

    @property
    def disc_factor(self) -> int:
        return 4 * self.A ** 3 + 27 * self.B ** 2

    def has_good_reduction(self, p: int) -> bool:
        return p not in (2, 3) and self.disc_factor % p != 0


@dataclass(frozen=True)
class FrobeniusRecord:
    """Trace data at one prime: a_p and the squarefree kernel of a_p^2-4p."""

    p: int
    a_p: int
    disc_part: int
    skipped: bool = False

    def __post_init__(self):
        if not self.skipped and self.a_p * self.a_p >= 4 * self.p:
            raise DomainError(f"Hasse bound violated at p={self.p}: a_p={self.a_p}")


def _sqrt_mod(n: int, p: int) -> int:
    """Tonelli-Shanks square root of a quadratic residue mod an odd prime."""
    n %= p
    if n == 0:
        return 0
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    # write p-1 = q 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _ec_add(P, Q, A: int, p: int):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def _ec_mul(k: int, P, A: int, p: int):
    R = None
    while k:
        if k & 1:
            R = _ec_add(R, P, A, p)
        P = _ec_add(P, P, A, p)
        k >>= 1
    return R


def _trace_charsum(curve: CurveModel, p: int) -> int:
    x = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int64)
    chi[(x * x) % p] = 1
    chi[0] = 0
    f = (x * x % p * x + curve.A % p * x + curve.B) % p
    return int(-np.sum(chi[f]))


def _random_point(curve: CurveModel, p: int, rng: np.random.Generator):
    A, B = curve.A % p, curve.B % p
    while True:
        x = int(rng.integers(0, p))
        f = (x * x % p * x + A * x + B) % p
        if f == 0:
            return (x, 0)
        if pow(f, (p - 1) // 2, p) == 1:
            return (x, _sqrt_mod(f, p))


def _order_candidates(curve: CurveModel, P, p: int) -> list[int]:
    """All m in the Hasse interval with m*P = O, by baby-step giant-step."""
    A = curve.A % p
    half = math.isqrt(4 * p)
    lo, hi = p + 1 - half, p + 1 + half
    width = hi - lo + 1
    m1 = math.isqrt(width) + 1
    baby: dict[int, list[tuple[int, int]]] = {}
    Q = None
    for j in range(m1):
        if Q is not None:
            baby.setdefault(Q[0], []).append((j, Q[1]))
        Q = _ec_add(Q, P, A, p)
    stride = _ec_mul(m1, P, A, p)
    G = _ec_mul(lo, P, A, p)
    found = set()
    i = 0
    while lo + i * m1 <= hi + m1:
        base = lo + i * m1
        if G is None and lo <= base <= hi:
            found.add(base)
        elif G is not None and G[0] in baby:
            for j, yj in baby[G[0]]:
                if G[1] == (p - yj) % p:
                    m = base + j
                    if lo <= m <= hi:
                        found.add(m)
                if G[1] == yj:
                    m = base - j
                    if lo <= m <= hi:
                        found.add(m)
        G = _ec_add(G, stride, A, p)
        i += 1
    return sorted(m for m in found if _ec_mul(m, P, A, p) is None)


def _trace_bsgs(curve: CurveModel, p: int, seed: int = 0) -> int:
    rng = np.random.default_rng((p << 8) ^ seed ^ 0x5EED)
    candidates = None
    for _ in range(_BSGS_RESAMPLE_LIMIT):
        P = _random_point(curve, p, rng)
        mine = _order_candidates(curve, P, p)
        candidates = mine if candidates is None else [m for m in candidates if m in set(mine)]
        if len(candidates) == 1:
            return p + 1 - candidates[0]
    return _trace_charsum(curve, p)  # rare: fully ambiguous sampling


def trace_of_frobenius(curve: CurveModel, p: int, method: str = "auto") -> FrobeniusRecord:
    """Exact a_p = p + 1 - #E(F_p) at a good prime.

    Bad-reduction primes give a record with ``skipped=True`` rather than an
    exception.  ``method`` forces 'charsum' or 'bsgs' (used by the
    cross-validation tests); 'auto' switches on prime size.
    """
    if p < 2:
        raise DomainError("p must be a prime")
    if not curve.has_good_reduction(p):
        return FrobeniusRecord(p=p, a_p=0, disc_part=0, skipped=True)
    if method == "charsum" or (method == "auto" and p < _CHARSUM_CUTOFF):
        a = _trace_charsum(curve, p)
    elif method in ("bsgs", "auto"):
        a = _trace_bsgs(curve, p)
    else:
        raise DomainError(f"unknown method {method!r}")
    return FrobeniusRecord(p=p, a_p=a, disc_part=squarefree_kernel(a * a - 4 * p))


_TRACE_CACHE: dict[tuple[int, int], tuple[int, np.ndarray, np.ndarray]] = {}


def trace_table(curve: CurveModel, x: int) -> tuple[np.ndarray, np.ndarray]:
    """(good primes <= x, their traces), cached per curve.  A query past
    the cached horizon traces only the primes beyond it."""
    key = (curve.A, curve.B)
    empty = np.empty(0, dtype=np.int64)
    top, ps, aps = _TRACE_CACHE.get(key, (1, empty, empty))
    if x > top:
        fresh = [p for p in map(int, primes_upto(x)) if p > top and curve.has_good_reduction(p)]
        ps = np.concatenate((ps, np.array(fresh, dtype=np.int64)))
        aps = np.concatenate((aps, np.array([trace_of_frobenius(curve, p).a_p for p in fresh],
                                            dtype=np.int64)))
        _TRACE_CACHE[key] = (x, ps, aps)
    keep = ps <= x
    return ps[keep], aps[keep]


def trace_match_count(curve: CurveModel, a: int, x: int,
                      checkpoints=None) -> CountSeries:
    """Counting series for #{good p <= t : a_p = a} at the checkpoints."""
    ps, aps = trace_table(curve, int(x))
    return CountSeries.of_hits(ps[aps == a], x, checkpoints,
                               f"a_p = {a} on y^2=x^3+{curve.A}x+{curve.B}")


def frobenius_field_count(curve: CurveModel, D_k: int, x: int,
                          checkpoints=None) -> CountSeries:
    """Counting series for #{good p <= t : Q(sqrt(a_p^2 - 4p)) has
    discriminant field D_k}, fields identified by squarefree kernel."""
    if D_k >= 0:
        raise DomainError("imaginary quadratic field needs a negative discriminant")
    if D_k % 4 not in (0, 1):
        raise DomainError("not a quadratic field discriminant")
    kernel = squarefree_kernel(D_k)
    ps, aps = trace_table(curve, int(x))
    vals = aps.astype(object) * aps - 4 * ps.astype(object)
    hits = np.array([int(p) for p, v in zip(ps, vals)
                     if squarefree_kernel(int(v)) == kernel], dtype=np.int64)
    return CountSeries.of_hits(hits, x, checkpoints, f"Frobenius field kernel {kernel}")


@dataclass(frozen=True)
class ShapeReport:
    """Descriptive growth-shape ratios for a counting series (no verdict:
    the theorems' constants depend on the curve and are not desk-checkable)."""

    mode: str                       # "trace" | "field"
    checkpoints: np.ndarray
    counts: np.ndarray
    theorem_ratio: np.ndarray       # count * (log x)^2 / (x (log log x)^e)
    conjecture_ratio: np.ndarray    # count * log x / sqrt(x)
    exponent: int                   # e = 2 for trace mode, 1 for field mode
    cm_flagged: bool = False


def growth_shape_report(series: CountSeries, mode: str,
                        cm_flagged: bool = False) -> ShapeReport:
    if mode not in ("trace", "field"):
        raise DomainError("mode must be 'trace' or 'field'")
    e = 2 if mode == "trace" else 1
    x = series.checkpoints
    if np.any(x <= math.e):
        raise DomainError("checkpoints must exceed e for log log x")
    c = series.counts
    lx = np.log(x)
    llx = np.log(lx)
    return ShapeReport(
        mode=mode,
        checkpoints=x,
        counts=c,
        theorem_ratio=c * lx ** 2 / (x * llx ** e),
        conjecture_ratio=c * lx / np.sqrt(x),
        exponent=e,
        cm_flagged=cm_flagged,
    )


def read_curves(path) -> list[CurveModel]:
    """Parse a plain-text curve file: one 'A B [label]' triple per line;
    blank lines and lines starting with '#' are skipped."""
    curves = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(maxsplit=2)
            if len(parts) < 2:
                raise DomainError(f"{path}:{line_no}: expected 'A B [label]'")
            label = parts[2] if len(parts) > 2 else ""
            curves.append(CurveModel(A=int(parts[0]), B=int(parts[1]), label=label))
    return curves
