"""Traces of Frobenius for elliptic curves over Q and the Lang-Trotter
style counters: primes with a fixed trace, and primes with a fixed
Frobenius quadratic field.

Traces come from one baby-step giant-step order search in the Hasse
interval that runs over all primes at once, one numpy lane per prime.
Under the 'auto' method the curves with j = 0 and j = 1728 are traced in
closed form instead: a_p = 0 at inert primes, and at split primes the
value of a residue symbol, with no point drawn.  Ambiguous searches
resample points, and the few lanes that no draw settles fall back to a
full quadratic-character sum, so every reported trace is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import squarefree_kernel
from .chebotarev import quadratic_field
from .errors import CapacityError, DomainError
from .sieve import CountSeries, _sieved, primes_upto

_CHARSUM_LIMIT = 2 ** 28      # the character sum's bool square table: 256 MB at the limit
_CHARSUM_CHUNK = 2 ** 16      # x per chunk of its sweep: int64 arrays of 512 kB
_ROUNDS = 8                   # rounds, one draw each on the BSGS lanes, before the character sum
_BLOCK_ENTRIES = 2 ** 16      # lanes per CM block; baby steps per BSGS block
_LANE_LIMIT = 2 ** 31
_TRACE_CACHE_CURVES = 6      # a second pass over six curves re-traces none
# the j-invariants in Q of the curves with complex multiplication
_CM_J = (0, 54000, -12288000, 1728, 287496, -3375, 16581375, 8000, -32768, -884736,
         -884736000, -147197952000, -262537412640768000)


@dataclass(frozen=True)
class CurveModel:
    """Short Weierstrass curve y^2 = x^3 + A x + B over Q."""

    A: int
    B: int
    label: str = ""

    def __post_init__(self):
        if self.disc_factor == 0:
            raise DomainError("singular curve: 4A^3 + 27B^2 = 0")

    @property
    def disc_factor(self) -> int:
        return 4 * self.A ** 3 + 27 * self.B ** 2

    @property
    def has_cm(self) -> bool:
        """The curve has complex multiplication: its j-invariant
        6912 A^3 / (4A^3 + 27B^2), compared exactly, is one of the 13
        rational CM j-invariants.  ``frobenius_traces`` reads A and B, not
        this flag: under 'auto' it takes a closed form at j = 0 and 1728 only."""
        num, den = 6912 * self.A ** 3, self.disc_factor
        return any(num == j * den for j in _CM_J)

    def has_good_reduction(self, p):
        """p is not 2 or 3 and does not divide 4A^3 + 27B^2; elementwise
        for an array of primes.  p <= 3, 0 included, is never good."""
        if np.ndim(p) == 0:
            return p > 3 and self.disc_factor % int(p) != 0
        return (p > 3) & (_reduce(self.disc_factor, np.where(p > 3, p, 1)) != 0)


def _reduce(n: int, p: np.ndarray) -> np.ndarray:
    """n mod p for an array of moduli p > 0: int64 where n and p fit, else object."""
    if p.dtype == np.int64 and -2 ** 63 <= n < 2 ** 63:
        return np.int64(n) % p
    return n % p.astype(object)


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
    in chunks.  The table also tests p: the x^2 with 0 < x < p/2 are
    distinct and nonzero mod p just when p is an odd prime (mod a composite,
    some such x has x^2 = 0, or 1 has a square root other than +-1)."""
    if p > _CHARSUM_LIMIT:
        raise CapacityError(f"character sums need p <= 2^28, got {p}")
    square = np.zeros(p, dtype=bool)
    for lo in range(1, p // 2 + 1, _CHARSUM_CHUNK):
        x = np.arange(lo, min(lo + _CHARSUM_CHUNK, p // 2 + 1), dtype=np.int64)
        square[x * x % p] = True
    if p % 2 == 0 or np.count_nonzero(square[1:]) < p // 2:
        raise DomainError(f"p must be a prime, got {p}")
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
    for bit in range(int(e.max(initial=0)).bit_length()):
        r = np.where(e >> bit & 1 == 1, r * b % p, r)
        b = b * b % p
    return r


def _two_adic(n):
    """(s, d) with n - 1 = d 2^s, d odd, for each odd n > 1."""
    low = (n - 1) & (1 - n)         # the lowest set bit of n - 1
    return np.log2(low).astype(np.int64), (n - 1) // low


def _is_prime(n):
    """Elementwise primality of an int64 array below 2^31: a strong probable
    prime to the bases 2, 7 and 61, which is exact below 4,759,123,141."""
    m = np.where((n > 1) & (n % 2 == 1), n, 9)     # 9 stands in for 1 and the even n
    s, d = _two_adic(m)
    b = np.array([[2], [7], [61]]) % m             # one row per base
    x = _powmod(b, d, m)
    ok = (b == 0) | (x == 1) | (x == m - 1)
    for i in range(1, int(s.max(initial=0))):
        x = x * x % m
        ok |= (x == m - 1) & (i < s)
    return (n == 2) | ((n > 1) & (n % 2 == 1) & ok.all(axis=0))


def _dbl(P, a, p):
    """2P on y^2 = x^3 + a x + b."""
    X, Y, Z = P
    XX = X * X % p
    w = (a * (Z * Z % p) + 3 * XX) % p
    s = 2 * Y * Z % p               # p < 2^31: twice a product of residues is below 2^63
    R = Y * s % p
    B = 2 * X * R % p
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
    if not (v.all() and Z.all()):
        same, at_inf = (u == 0) & (v == 0) & (Z != 0), Z == 0
        for c, q, q2 in zip(out, (x, y, 1), Q2):
            np.copyto(c, q2, where=same)
            np.copyto(c, q, where=at_inf)
    return out


def _mul(k, Q, Q2, a, p):
    """kQ for affine Q with Q2 = 2Q, by double-and-add."""
    R = np.zeros_like(p), np.ones_like(p), np.zeros_like(p)
    for bit in reversed(range(int(k.max(initial=0)).bit_length())):
        R, take = _dbl(R, a, p), k >> bit & 1 == 1
        for r, s in zip(R, _add(R, Q, Q2, p)):
            np.copyto(r, s, where=take)
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
    and (2M - 1)P != O.  The stride S = (2M - 1)P is made affine as the baby table's last row."""
    lanes, one = np.arange(p.size), np.ones_like(p)
    P2 = _dbl((*P, one), a, p)
    baby = np.empty((3, M, p.size), np.int32)
    baby[:, 0] = Q = (*P, one)
    for j in range(1, M - 1):
        baby[:, j] = Q = _add(Q, P, P2, p)
    baby[:, M - 1] = _add(_dbl(Q, a, p), P, P2, p)
    complete = (baby[2, M - 1] != 0) & (baby[1:, :M - 1] != 0).all(axis=(0, 1))
    bx, by = _affine(baby, p)
    S = bx[M - 1].astype(np.int64), by[M - 1].astype(np.int64)     # int64 for _dbl's products
    S2 = _dbl((*S, one), a, p)
    keys = np.left_shift(bx[:M - 1], _J_BITS, dtype=np.int64)
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


_DRAW = 0x9E3779B1       # candidate k is x = (k + 1) _DRAW mod p, spread over F_p
_DRAW_TRIES = 64         # candidates a resample draw searches for its square class


def _draw(p, A, B, r):
    """(f, chi(f), a, Q) for draw r: f = x^3 + Ax + B and the point
    Q = (f x, f^2) on y^2 = x^3 + a x + B f^3, a = A f^2: E if f is a
    square, else its quadratic twist E', so #E_f = p + 1 - chi(f) a_p.
    Draw r > 0 takes the first candidate k >= r (of ``_DRAW_TRIES``) whose
    chi(f) is draw 0's for even r and not for odd r: E and E' take turns."""
    def candidate(k):
        x = (k + 1) * _DRAW % p
        f = (x * x % p * x + A * x + B) % p
        return x, f, _powmod(f, (p - 1) // 2, p)
    x, f, e = candidate(r)
    want = np.where((candidate(0)[2] == 1) != (r % 2 == 1), 1, p - 1) if r else e
    for k in range(r + 1, r + _DRAW_TRIES):
        if (e == want).all():
            break
        c = candidate(k)
        take = (e != want) & (c[2] == want)
        x, f, e = (np.where(take, new, old) for new, old in zip(c, (x, f, e)))
    ff = f * f % p
    return f, np.where(e == 1, 1, -1), A * ff % p, (f * x % p, ff)


def _bsgs_round(p, A, B, r, M):
    """(a_p, solved) for one block of lanes on draw r.  #E_f lies in the
    Hasse interval and is a multiple of the order of Q, so when a complete
    search finds exactly one multiple m there, m = #E_f."""
    half = np.sqrt(4 * p).astype(np.int64)          # isqrt: exact below 2^52
    f, chi, a, Q = _draw(p, A, B, r)
    lanes, ms, complete = _point_orders(p, a, Q, p + 1 - half, 2 * half + 1, M)
    m = np.zeros_like(p)
    m[lanes] = ms           # read only where the lane has one hit
    one = complete & (np.bincount(lanes, minlength=p.size) == 1) & (f != 0)   # f = 0: singular
    return chi * (p + 1 - m), one


def _sqrt_mod(a, p):
    """A square root of each quadratic residue a mod an odd prime p, by a
    lockstep Tonelli-Shanks with p - 1 = q 2^s; only the lanes with s > 1
    search for a non-residue z, the least: the first prime n < sqrt(p) + 1
    (Vinogradov) inert in Q(sqrt n), read from the field's map."""
    s, q = _two_adic(p)
    y = _powmod(a, (q - 1) // 2, p)
    x, t = y * a % p, y * y % p * a % p     # x^2 = a t, and t^(2^(s-1)) = 1
    z, need = np.zeros_like(p), np.flatnonzero(s > 1)
    for n in primes_upto(math.isqrt(int(p.max(initial=0))) + 1).tolist():
        if not need.size:
            break
        found = quadratic_field(n).classes(p[need]) == 1
        z[need[found]], need = n, need[~found]
    c = _powmod(z, q, p)
    for j in range(int(s.max(initial=1)) - 1, 0, -1):     # c has order 2^(j+1) on lanes s > j
        k = np.flatnonzero(s > j)
        pk, b = p[k], t[k]
        for _ in range(j - 1):
            b = b * b % pk
        cc, flip = c[k] * c[k] % pk, b != 1         # flip: t has order 2^j
        x[k] = np.where(flip, x[k] * c[k] % pk, x[k])
        t[k] = np.where(flip, t[k] * cc % pk, t[k])
        c[k] = cc
    return x


def _cornacchia(p, D):
    """(t, v) with 4p = t^2 + |D| v^2 at primes p split in the field of
    discriminant D, by Euclid on 2p and a square root of D mod p (Cohen,
    Algorithm 1.5.3).  Unchecked: a caller verifies the identity."""
    b = _sqrt_mod(D % p, p)
    a, b, bound = 2 * p, np.where(b % 2 == D % 2, b, p - b), np.sqrt(4 * p).astype(np.int64)
    while (b > bound).any():
        big = b > bound
        a, b = np.where(big, b, a), np.where(big, a % np.where(big, b, 1), b)
    return b, np.sqrt((4 * p - b * b) // -D).astype(np.int64)


def _cm_symbol(p, A, B, t, v, D):
    """The signed a_p at split p on y^2 = x^3 + A x (D = -4) or y^2 = x^3 + B
    (D = -3) by the quartic or sextic residue symbol (Ireland and Rosen, A
    Classical Introduction to Modern Number Theory, 2nd ed., ch. 18 §4 Thm 5
    and §3 Thm 4).  From 4p = t^2 + |D| v^2, pi = X + Y u has norm p, with
    (u, X) = (i, t/2) or (omega, (t + v)/2) and Y = v.  The unit z = -i or
    -omega maps (X, Y) to (Y, -X) or (Y, Y - X); pi z^h is primary (X + Y = 1
    mod 4 with Y even; X = 2, Y = 0 mod 3) for one h < 4 or 6.  The symbol
    s = (-A)^((p-1)/4) or (4B)^((p-1)/6) mod p is conj(z)^k mod pi, where
    conj(z) = -X/Y or (Y - X)/Y mod p; with X + Y u = pi z^(h+k), a_p = 2X
    or Y - 2X."""
    n, (X, Y) = (4, (t // 2, v)) if D == -4 else (6, ((t + v) // 2, v))
    s = _powmod((-A if D == -4 else 4 * B) % p, (p - 1) // n, p)
    num, den, rhs = (-X if D == -4 else Y - X) % p, Y % p, np.ones_like(p)
    hits, primary, trace = [], [], []
    for _ in range(n):          # X + Y u runs over pi z^h for h < n
        hits.append(s == rhs)                   # s = (num/den)^k: s den^k = num^k
        s, rhs = s * den % p, rhs * num % p
        primary.append((Y % 2 == 0) & ((X + Y) % 4 == 1) if D == -4 else
                       (X % 3 == 2) & (Y % 3 == 0))
        trace.append(2 * X if D == -4 else Y - 2 * X)
        X, Y = (Y, -X) if D == -4 else (Y, Y - X)
    h = (np.argmax(primary, axis=0) + np.argmax(hits, axis=0)) % n
    return np.array(trace)[h, np.arange(p.size)]


def _cm_round(p, A, B, K):
    """(a_p, solved) for one block of lanes on y^2 = x^3 + A x or x^3 + B,
    with CM by K = Q(i) or Q(sqrt -3) of discriminant D.  At p inert in K,
    a_p = 0 (Deuring); at split p, 4p = t^2 + |D| v^2 gives a_p through
    ``_cm_symbol``.  No point is drawn, and a lane whose t, v fail the
    identity stays open."""
    k, D = K.classes(p), K.disc             # K's classes: split (0), inert (1), ramified (2)
    ap, solved = np.zeros_like(p), k == 1
    live = np.flatnonzero(k == 0)
    t, v = _cornacchia(p[live], D)
    live, t, v = (c[t * t - D * v * v == 4 * p[live]] for c in (live, t, v))
    ap[live], solved[live] = _cm_symbol(p[live], A[live], B[live], t, v, D), True
    return ap, solved


def frobenius_traces(curve: CurveModel, primes, method: str = "auto") -> np.ndarray:
    """Exact a_p = p + 1 - #E(F_p) for an ascending array of good primes.

    'charsum' sums the quadratic character over F_p, prime by prime; 'bsgs'
    runs lockstep baby-step giant-step searches over blocks of primes;
    'auto' differs from 'bsgs' only at j = 1728 (B = 0) and j = 0 (A = 0),
    which it settles in closed form, block by block in round 0 (``_cm_round``).
    Every other curve, with CM or without, runs the BSGS rounds: round r
    draws point r on every lane still open, block by block, and a lane that
    no round of ``_ROUNDS`` settles takes the character sum.  'bsgs' and
    'charsum' never use the closed form.  A composite raises
    ``DomainError``: a lane the sieve's table reaches is looked up in it,
    one past its top tested by ``_is_prime``.  Primes >= 2^31 raise
    ``CapacityError``: the lanes multiply residues in int64; so does a
    character sum at p > 2^28 (``_CHARSUM_LIMIT``)."""
    ps = np.asarray(primes)
    if method not in ("auto", "bsgs", "charsum"):
        raise DomainError(f"unknown method {method!r}")
    if ps.size and ps.max() >= _LANE_LIMIT:
        raise CapacityError(f"primes must be below 2^31, got {ps.max()}")
    ps, (top, table) = ps.astype(np.int64), _sieved()
    low = ps[:np.searchsorted(ps, top, "right")]       # the lanes the sieve's table covers
    if (np.any(ps[1:] <= ps[:-1])
            or np.any(np.searchsorted(table, low) == np.searchsorted(table, low, "right"))
            or not _is_prime(ps[low.size:]).all() or not np.all(curve.has_good_reduction(ps))):
        raise DomainError("primes must be ascending primes of good reduction")
    out, solved = np.zeros_like(ps), np.zeros(ps.size, bool)
    A, B = (_reduce(n, ps).astype(np.int64) for n in (curve.A, curve.B))
    todo = np.arange(0 if method == "charsum" else ps.size)
    closed = method == "auto" and 0 in (curve.A, curve.B)      # j = 0 or 1728
    K = quadratic_field(-1 if curve.B == 0 else -3) if closed else None
    for r in range(_ROUNDS):   # one round on every open lane, then resample
        i = 0
        while i < todo.size:        # blocks of _BLOCK_ENTRIES CM lanes, or about as many baby steps
            M = 1 if K else _baby_steps(ps[todo[min(i + _BLOCK_ENTRIES // _baby_steps(ps[todo[i]]),
                                                   todo.size) - 1]])
            block = todo[i:i + _BLOCK_ENTRIES // M]
            args = ps[block], A[block], B[block]
            out[block], solved[block] = _cm_round(*args, K) if K else _bsgs_round(*args, r, M)
            i += block.size
        todo = todo[~solved[todo]]
    # 'charsum', or left open by every round: the one route from the CLI to trace_of_frobenius
    for k in np.flatnonzero(~solved):
        out[k] = trace_of_frobenius(curve, int(ps[k]), "charsum").a_p
    return out


def trace_of_frobenius(curve: CurveModel, p: int, method: str = "auto") -> FrobeniusRecord:
    """Exact a_p at one prime: the character sum for 'charsum', else
    ``frobenius_traces`` on one lane, which runs the rounds at any p:
    1-2 ms, against about 0.1 ms for a character sum at p < 10^3.
    Bad-reduction primes give a record with ``skipped=True``; a composite
    p raises ``DomainError``.
    ``CapacityError`` comes from the callee: ``_trace_charsum`` refuses
    p > 2^28, and ``frobenius_traces`` primes >= 2^31."""
    if p < 2:
        raise DomainError("p must be a prime")
    if not curve.has_good_reduction(p):
        return FrobeniusRecord(p=p, a_p=0, disc_part=0, skipped=True)
    if method == "charsum":
        a = _trace_charsum(curve, p)
    else:
        a = int(frobenius_traces(curve, [p], method)[0])
    return FrobeniusRecord(p=p, a_p=a, disc_part=squarefree_kernel(a * a - 4 * p))


_TRACE_CACHE: dict[tuple[int, int], tuple[int, np.ndarray, np.ndarray]] = {}


def trace_table(curve: CurveModel, x: int) -> tuple[np.ndarray, np.ndarray]:
    """(good primes <= x, their traces), cached for the last
    ``_TRACE_CACHE_CURVES`` curves used.  A query past the cached horizon
    traces only the primes beyond it."""
    if x >= _LANE_LIMIT:        # before the sieve: its table to x would be refused anyway
        raise CapacityError(f"trace tables stop below 2^31, got x = {x}")
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
    upto = ps <= x
    return ps[upto], aps[upto]


def trace_match_count(curve: CurveModel, a: int, x: int,
                      checkpoints=None) -> CountSeries:
    """Counting series for #{good p <= t : a_p = a} at the checkpoints."""
    ps, aps = trace_table(curve, int(x))
    return CountSeries.of_hits(ps[aps == a], x, checkpoints)


def frobenius_field_count(curve: CurveModel, D_k: int, x: int,
                          checkpoints=None) -> CountSeries:
    """Counting series for #{good p <= t : Q(sqrt(a_p^2 - 4p)) has
    discriminant D_k}, fields identified by squarefree kernel.  D_k must be
    the discriminant of an imaginary quadratic field, not of an order."""
    if D_k >= 0:
        raise DomainError("imaginary quadratic field needs a negative discriminant")
    kernel = squarefree_kernel(D_k)
    if D_k != (kernel if kernel % 4 == 1 else 4 * kernel):     # as quadratic_field's disc
        raise DomainError(f"{D_k} is not the discriminant of a quadratic field")
    ps, aps = trace_table(curve, int(x))
    # a_p^2 - 4p has squarefree kernel k iff it is k times a square
    v = aps * aps - 4 * ps
    root = np.sqrt(v // kernel).astype(np.int64)      # isqrt: exact below 2^52
    hits = ps[(v % kernel == 0) & (root * root == v // kernel)]
    return CountSeries.of_hits(hits, x, checkpoints)


@dataclass(frozen=True)
class ShapeReport:
    """Descriptive growth-shape ratios for a counting series (no verdict:
    the theorems' constants depend on the curve and are not desk-checkable)."""

    theorem_ratio: np.ndarray       # count * (log x)^2 / (x (log log x)^e), e = 2 or 1
    conjecture_ratio: np.ndarray    # count * log x / sqrt(x)


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
        theorem_ratio=c * lx ** 2 / (x * llx ** e),
        conjecture_ratio=c * lx / np.sqrt(x),
    )


def read_curves(path) -> list[CurveModel]:
    """Parse a plain-text curve file: one 'A B [label]' triple per line;
    blank and '#' lines are skipped, and a file with no curve is refused."""
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
    if not curves:
        raise DomainError(f"{path}: no curve in the file")
    return curves
