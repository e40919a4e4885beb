"""Traces of Frobenius for elliptic curves over Q and the Lang-Trotter
style counters: primes with a fixed trace, and primes with a fixed
Frobenius quadratic field.

Traces come from a full quadratic-character sum for small primes and, for
the others, from one baby-step giant-step order search in the Hasse
interval that runs over all primes at once, one numpy lane per prime.
Ambiguous searches resample points and finally fall back to the character
sum, so every reported trace is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import squarefree_kernel
from .errors import CapacityError, DomainError
from .sieve import CountSeries, primes_upto

_CHARSUM_CUTOFF = 1_000
_CHARSUM_LIMIT = 2 ** 28      # the character sum's bool square table: 256 MB at the limit
_CHARSUM_CHUNK = 2 ** 16      # x per chunk of its sweep: int64 arrays of 512 kB
_BSGS_RESAMPLE_LIMIT = 8
_BLOCK_ENTRIES = 2 ** 16      # baby steps per block of BSGS lanes
_LANE_LIMIT = 2 ** 31
_TRACE_CACHE_CURVES = 6      # a second pass over six curves re-traces none
# the j-invariants in Q of the curves with complex multiplication
_CM_J_INVARIANTS = (0, 1728, -3375, 8000, -32768, 54000, 287496, -884736, -12288000,
                    16581375, -884736000, -147197952000, -262537412640768000)


@dataclass(frozen=True)
class CurveModel:
    """Short Weierstrass curve y^2 = x^3 + A x + B over Q."""

    A: int
    B: int
    label: str = ""

    def __post_init__(self):
        if 4 * self.A ** 3 + 27 * self.B ** 2 == 0:
            raise DomainError("singular curve: 4A^3 + 27B^2 = 0")

    @property
    def disc_factor(self) -> int:
        return 4 * self.A ** 3 + 27 * self.B ** 2

    @property
    def has_cm(self) -> bool:
        """The curve has complex multiplication: its j-invariant
        6912 A^3 / (4A^3 + 27B^2), compared exactly, is one of the 13
        rational CM j-invariants."""
        num, den = 6912 * self.A ** 3, self.disc_factor
        return any(num == j * den for j in _CM_J_INVARIANTS)

    def has_good_reduction(self, p):
        """p is not 2 or 3 and does not divide 4A^3 + 27B^2; elementwise
        for an int64 array of primes."""
        return (p > 3) & (self.disc_factor % np.asarray(p, dtype=object) != 0)


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


def _trace_charsum(curve: CurveModel, p: int) -> int:
    """a_p = -sum_x chi(x^3 + Ax + B) = #{x : f(x) != 0} - 2 #{x : f(x) a
    nonzero square}, from a table of the nonzero squares mod p, sweeping x
    in chunks."""
    if p > _CHARSUM_LIMIT:
        raise CapacityError(f"character sums need p <= 2^28, got {p}")
    square = np.zeros(p, dtype=bool)
    for lo in range(1, p // 2 + 1, _CHARSUM_CHUNK):
        x = np.arange(lo, min(lo + _CHARSUM_CHUNK, p // 2 + 1), dtype=np.int64)
        square[x * x % p] = True
    A, B, a_p = curve.A % p, curve.B % p, 0
    for lo in range(0, p, _CHARSUM_CHUNK):
        x = np.arange(lo, min(lo + _CHARSUM_CHUNK, p), dtype=np.int64)
        f = (x * x % p * x + A * x + B) % p
        a_p += int(np.count_nonzero(f)) - 2 * int(np.count_nonzero(square[f]))
    return a_p


# Lockstep BSGS: int64 arrays, one lane per prime p < 2^31, so that a product
# of two residues fits.  Points are projective (X, Y, Z), O where Z = 0.

def _baby_steps(p) -> int:
    """M for the baby steps jP, 0 < j < M, at p: the Hasse interval is
    2 isqrt(4p) + 1 wide, so about M giant steps of 2M - 1 cover it too."""
    return math.isqrt(math.isqrt(4 * int(p))) + 1


def _powmod(b, e, p):
    r = np.ones_like(p)
    while e.any():
        r = np.where(e & 1 == 1, r * b % p, r)
        b, e = b * b % p, e >> 1
    return r


def _dbl(P, a, p):
    """2P on y^2 = x^3 + a x + b."""
    X, Y, Z = P
    XX = X * X % p
    w = (a * (Z * Z % p) + 3 * XX) % p
    s = 2 * (Y * Z % p) % p
    R = Y * s % p
    B = 2 * (X * R % p) % p
    h = (w * w - 2 * B) % p
    return h * s % p, (w * (B - h) - 2 * (R * R % p)) % p, s * (s * s % p) % p


def _add(P, Q, Q2, p):
    """P + Q for affine Q with Q2 = 2Q: the chord formula, which gives O for
    P = -Q, with P = O and P = Q patched in."""
    (X, Y, Z), (x, y) = P, Q
    u, v = (y * Z - Y) % p, (x * Z - X) % p
    vv = v * v % p
    vvv, R = v * vv % p, vv * X % p
    A = (u * u % p * Z - vvv - 2 * R) % p
    out = v * A % p, (u * (R - A) - vvv * Y) % p, vvv * Z % p
    if ((v == 0) | (Z == 0)).any():
        same, at_inf = (u == 0) & (v == 0) & (Z != 0), Z == 0
        for c, q, q2 in zip(out, (x, y, 1), Q2):
            np.copyto(c, q2, where=same)
            np.copyto(c, q, where=at_inf)
    return out


def _mul(k, Q, Q2, a, p):
    """kQ for affine Q with Q2 = 2Q, by double-and-add."""
    R = np.zeros_like(p), np.ones_like(p), np.zeros_like(p)
    for bit in reversed(range(int(k.max(initial=0)).bit_length())):
        R = _dbl(R, a, p)
        R = tuple(np.where(k >> bit & 1 == 1, s, r) for s, r in zip(_add(R, Q, Q2, p), R))
    return R


def _affine(table, p):
    """Affine x and y of a (3, rows, lanes) table of points, in place, with
    one Fermat inversion per lane (Montgomery's trick).  Rows at O get junk."""
    X, Y, Z = table
    Z = np.where(Z == 0, 1, Z)
    prefix, acc = np.empty_like(Z), np.ones_like(p)
    for j, z in enumerate(Z):
        prefix[j] = acc = acc * z % p
    inv = _powmod(acc, p - 2, p)
    for j in range(len(Z) - 1, -1, -1):
        zinv = inv * prefix[j - 1] % p if j else inv
        inv = inv * Z[j] % p
        X[j], Y[j] = X[j] * zinv % p, Y[j] * zinv % p
    return X, Y


_J_BITS, _LANE_SHIFT = 9, 40       # baby key = lane << 40 | x << 9 | j, for x < 2^31, j < 2^9


def _point_orders(p, a, P, lo, width, M):
    """(lanes, m, complete): every m in [lo, lo + width) with mP = O, each
    verified, for affine P on y^2 = x^3 + a x + b, by baby steps jP
    (0 < j < M) and giant steps of 2M - 1.  The search is complete when no
    0 < k <= 2M - 2 has kP = O (the baby points have distinct x, nonzero y)
    and (2M - 1)P != O."""
    lanes, one = np.arange(p.size), np.ones_like(p)
    P2 = _dbl((*P, one), a, p)
    baby = np.empty((3, M - 1, p.size), np.int32)
    baby[:, 0] = Q = (*P, one)
    for j in range(1, M - 1):
        baby[:, j] = Q = _add(Q, P, P2, p)
    S = _add(_dbl(Q, a, p), P, P2, p)
    zinv = _powmod(S[2], p - 2, p)
    S = S[0] * zinv % p, S[1] * zinv % p
    S2 = _dbl((*S, one), a, p)
    complete = (zinv != 0) & (baby[1:] != 0).all(axis=(0, 1))
    bx, by = _affine(baby, p)
    keys = np.left_shift(bx, _J_BITS, dtype=np.int64)
    keys |= lanes << _LANE_SHIFT
    keys |= np.arange(1, M)[:, None]
    keys = keys.ravel()
    keys.sort()
    complete[keys[1:][(keys[1:] ^ keys[:-1]) < 1 << _J_BITS] >> _LANE_SHIFT] = False

    stride = 2 * M - 1
    first = (lo + M - 1) // stride        # giant step i is centred on (first + i) stride
    steps = int(((lo + width + M - 2) // stride - first).max()) + 1
    giant = np.empty((3, steps, p.size), np.int32)
    giant[:, 0] = G = _mul(first, S, S2, a, p)
    for i in range(1, steps):
        giant[:, i] = G = _add(G, S, S2, p)
    at_inf = giant[2] == 0
    gx, gy = _affine(giant, p)
    gkeys = np.left_shift(gx, _J_BITS, dtype=np.int64)
    gkeys |= lanes << _LANE_SHIFT
    pos = np.minimum(np.searchsorted(keys, gkeys), keys.size - 1)
    step, lane = np.nonzero(((keys[pos] ^ gkeys) < 1 << _J_BITS) & ~at_inf)
    j = keys[pos[step, lane]] & ((1 << _J_BITS) - 1)
    sign = np.where(gy[step, lane] == by[j - 1, lane], -1, 1)     # G = jP or -jP
    inf_step, inf_lane = np.nonzero(at_inf)
    m = np.append((first[lane] + step) * stride + sign * j, (first[inf_lane] + inf_step) * stride)
    lane = np.append(lane, inf_lane)
    keep = complete[lane] & (m >= lo[lane]) & (m < (lo + width)[lane])
    lane, m = lane[keep], m[keep]
    ok = _mul(m, (P[0][lane], P[1][lane]), [c[lane] for c in P2], a[lane], p[lane])[2] == 0
    return lane[ok], m[ok], complete


_DRAW = 0x9E3779B1       # round r draws x = (r + 1) _DRAW mod p, spread over F_p


def _bsgs_block(p, A, B, M):
    """(a_p, solved) for one block of lanes.  Round r draws x, sets
    f = x^3 + Ax + B and searches the order of (f x, f^2) on
    y^2 = x^3 + A f^2 x + B f^3: E if f is a square, else its quadratic
    twist, so a hit m gives a_p = chi(f)(p + 1 - m).  A complete round's
    hits are the multiples of the point's order d in the Hasse interval:
    a_p = rho (mod d), with d the interval's width for one hit."""
    half = np.sqrt(4 * p).astype(np.int64)          # isqrt: exact below 2^52
    width = 2 * half + 1
    rho = np.zeros((_BSGS_RESAMPLE_LIMIT, p.size), np.int64)
    mod = np.ones_like(rho)
    ap, solved, live = np.zeros_like(p), np.zeros(p.size, bool), np.arange(p.size)
    for r in range(_BSGS_RESAMPLE_LIMIT):       # live lanes are not solved yet
        q, h, w, a = p[live], half[live], width[live], A[live]
        x = (r + 1) * _DRAW % q
        f = (x * x % q * x + a * x + B[live]) % q
        ff = f * f % q
        lanes, ms, complete = _point_orders(q, a * ff % q, (f * x % q, ff), q + 1 - h, w, M)
        hits = np.unique(lanes << 32 | ms)
        lanes, ms = hits >> 32, np.append(hits & 0xFFFFFFFF, [0, 0])
        at = np.searchsorted(lanes, np.arange(live.size))       # each lane's first hit
        count = np.bincount(lanes, minlength=live.size)
        told = complete & (count > 0) & (f != 0)          # f = 0: a singular twist
        chi = np.where(_powmod(f, (q - 1) // 2, q) == 1, 1, -1)
        rho[r, live] = np.where(told, chi * (q + 1 - ms[at]), 0)
        mod[r, live] = np.where(told, np.where(count > 1, ms[at + 1] - ms[at], w), 1)
        # list the a_p in [-h, h] that the largest modulus allows; a lane is
        # solved when the other rounds allow exactly one of them
        dd, rr = mod[:r + 1, live], rho[:r + 1, live]
        best, cols = dd.argmax(axis=0), np.arange(live.size)
        d = dd[best, cols]
        n = int((2 * h // d)[d > 1].max(initial=0)) + 1
        cand = (rr[best, cols] + h) % d - h + d * np.arange(n)[:, None]
        fits = (cand <= h) & ((cand[None] - rr[:, None]) % dd[:, None] == 0).all(axis=0)
        one = (fits.sum(axis=0) == 1) & (d > 1)
        ap[live[one]] = cand[fits.argmax(axis=0), cols][one]
        solved[live[one]] = True
        live = live[~one]
        if not live.size:
            break
    return ap, solved


def frobenius_traces(curve: CurveModel, primes, method: str = "auto") -> np.ndarray:
    """Exact a_p = p + 1 - #E(F_p) for an ascending array of good primes.

    'charsum' sums the quadratic character over F_p, prime by prime; 'bsgs'
    runs one lockstep baby-step giant-step search over blocks of primes and
    falls back to the character sum where its rounds leave more than one
    a_p; 'auto' takes character sums below ``_CHARSUM_CUTOFF``.  Primes
    >= 2^31 raise ``CapacityError``: the lanes multiply residues in int64;
    so does a character sum at p > 2^28 (``_CHARSUM_LIMIT``)."""
    ps = np.asarray(primes)
    cutoff = {"auto": _CHARSUM_CUTOFF, "bsgs": 0, "charsum": _LANE_LIMIT}.get(method)
    if cutoff is None:
        raise DomainError(f"unknown method {method!r}")
    if ps.size and ps.max() >= _LANE_LIMIT:
        raise CapacityError(f"primes must be below 2^31, got {ps.max()}")
    ps = ps.astype(np.int64)
    if np.any(ps[1:] <= ps[:-1]) or not np.all(curve.has_good_reduction(ps)):
        raise DomainError("primes must be ascending and of good reduction")
    out, solved = np.zeros_like(ps), np.zeros(ps.size, bool)
    A, B = ((n % ps.astype(object)).astype(np.int64) for n in (curve.A, curve.B))  # A, B of any size
    i = int(np.searchsorted(ps, cutoff))
    while i < ps.size:          # blocks of about _BLOCK_ENTRIES baby steps
        M = _baby_steps(ps[min(i + _BLOCK_ENTRIES // _baby_steps(ps[i]), ps.size) - 1])
        block = slice(i, i + _BLOCK_ENTRIES // M)
        out[block], solved[block] = _bsgs_block(ps[block], A[block], B[block], M)
        i = block.stop
    for k in np.flatnonzero(~solved):       # below the cutoff, or left open by BSGS
        out[k] = trace_of_frobenius(curve, int(ps[k]), "charsum").a_p
    return out


def trace_of_frobenius(curve: CurveModel, p: int, method: str = "auto") -> FrobeniusRecord:
    """Exact a_p at one prime: the character sum for 'charsum', and for
    'auto' below ``_CHARSUM_CUTOFF``; else ``frobenius_traces`` on one lane.
    Bad-reduction primes give a record with ``skipped=True`` rather than an
    exception; other primes >= 2^31, and character sums at p > 2^28, raise
    ``CapacityError``."""
    if p < 2:
        raise DomainError("p must be a prime")
    if not curve.has_good_reduction(p):
        return FrobeniusRecord(p=p, a_p=0, disc_part=0, skipped=True)
    if p >= _LANE_LIMIT:
        raise CapacityError(f"p must be below 2^31, got {p}")
    if method == "charsum" or (method == "auto" and p < _CHARSUM_CUTOFF):
        a = _trace_charsum(curve, p)
    else:
        a = int(frobenius_traces(curve, [p], method)[0])
    return FrobeniusRecord(p=p, a_p=a, disc_part=squarefree_kernel(a * a - 4 * p))


_TRACE_CACHE: dict[tuple[int, int], tuple[int, np.ndarray, np.ndarray]] = {}


def trace_table(curve: CurveModel, x: int) -> tuple[np.ndarray, np.ndarray]:
    """(good primes <= x, their traces), cached for the last
    ``_TRACE_CACHE_CURVES`` curves used.  A query past the cached horizon
    traces only the primes beyond it."""
    key, empty = (curve.A, curve.B), np.empty(0, dtype=np.int64)
    top, ps, aps = _TRACE_CACHE.get(key, (1, empty, empty))
    if x > top:
        fresh = primes_upto(x)
        fresh = fresh[fresh > top]
        fresh = fresh[curve.has_good_reduction(fresh)]
        ps, aps, top = np.append(ps, fresh), np.append(aps, frobenius_traces(curve, fresh)), x
    # replaced only after the sieve and traces succeed: a refused query keeps it
    _TRACE_CACHE.pop(key, None)
    _TRACE_CACHE[key] = (top, ps, aps)
    if len(_TRACE_CACHE) > _TRACE_CACHE_CURVES:
        del _TRACE_CACHE[next(iter(_TRACE_CACHE))]
    return ps[ps <= x], aps[ps <= x]


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
    # a_p^2 - 4p has squarefree kernel k iff it is k times a square
    v = aps * aps - 4 * ps
    root = np.sqrt(v // kernel).astype(np.int64)      # isqrt: exact below 2^52
    hits = ps[(v % kernel == 0) & (root * root == v // kernel)]
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


def growth_shape_report(series: CountSeries, mode: str) -> ShapeReport:
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
