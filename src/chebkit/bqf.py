"""Positive-definite integral binary quadratic forms: Gauss reduction,
class numbers, prime representation counts, and the density comparison
against Li(x)/h(-D).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .arith import factorize, squarefree_kernel
from .chebotarev import quadratic_field
from .errors import CapacityError, DomainError
from .reports import PowerValue
from .sieve import CountSeries, _blocks, li, primes_upto

# the D with h(-D) = 1: the fundamental ones (Heegner-Baker-Stark) and the
# orders of discriminant -12, -16, -27 and -28
_CLASS_NUMBER_ONE = frozenset((3, 4, 7, 8, 11, 12, 16, 19, 27, 28, 43, 67, 163))
_TABLE_BYTES = 2**30          # represented_values' bool table holds x + 1 entries
_CLASS_NUMBER_BUDGET = 2**28  # class_number enumerates O(D) candidate forms


@dataclass(frozen=True)
class ReducedForm:
    """A reduced primitive positive-definite form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.disc >= 0:
            raise DomainError("form must be positive definite (b^2 - 4ac < 0)")
        if self.a <= 0:
            raise DomainError("leading coefficient must be positive")
        if math.gcd(math.gcd(self.a, self.b), self.c) != 1:
            raise DomainError("form must be primitive")
        if not self._is_reduced(self.a, self.b, self.c):
            raise DomainError(f"({self.a},{self.b},{self.c}) is not reduced")

    @staticmethod
    def _is_reduced(a: int, b: int, c: int) -> bool:
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def D(self) -> int:
        """Positive D with discriminant -D."""
        return -self.disc


def reduce_form(a: int, b: int, c: int) -> ReducedForm:
    """Unique reduced representative of the proper equivalence class."""
    if b * b - 4 * a * c >= 0 or a <= 0:
        raise DomainError("form must be positive definite")
    while True:  # unimodular steps keep the content; ReducedForm checks it
        if b > a or b <= -a:
            m = (b + a - 1) // (2 * a)  # shift b into (-a, a]
            b, c = b - 2 * a * m, a * m * m - b * m + c
        if a > c:
            a, b, c = c, -b, a
            continue
        break
    if a == c and b < 0:
        b = -b
    return ReducedForm(a, b, c)


@dataclass(frozen=True)
class ClassGroupSummary:
    """All reduced forms of discriminant -D with the ambiguity flags."""

    D: int
    forms: tuple[ReducedForm, ...]
    ambiguous: tuple[bool, ...]  # True where the form equals its opposite

    @property
    def h(self) -> int:
        return len(self.forms)


def class_number(D: int) -> ClassGroupSummary:
    """Enumerate the reduced primitive forms of discriminant -D.

    Valid for D > 0 with -D = 0 or 1 (mod 4); non-fundamental
    discriminants are allowed (imprimitive forms are excluded).  The
    enumeration is O(D), about 3 s at D = 2^28 on a 2-vCPU Xeon, so a D
    past ``_CLASS_NUMBER_BUDGET`` = 2^28 raises ``CapacityError``.
    """
    if D <= 0 or (-D) % 4 not in (0, 1):
        raise DomainError("need D > 0 with -D = 0 or 1 mod 4")
    if D > _CLASS_NUMBER_BUDGET:
        raise CapacityError(f"D = {D} exceeds the class-number budget {_CLASS_NUMBER_BUDGET}")
    forms: list[ReducedForm] = []
    b_start = D % 2
    for a in range(1, math.isqrt(D // 3) + 1):
        for b in range(b_start, a + 1, 2):
            num = b * b + D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            forms.append(ReducedForm(a, b, c))
            if 0 < b < a and a < c:
                forms.append(ReducedForm(a, -b, c))
    forms.sort(key=lambda f: (f.a, -abs(f.b), f.b < 0, f.c))
    flags = tuple(delta_q(f) == 0.5 for f in forms)
    return ClassGroupSummary(D=D, forms=tuple(forms), ambiguous=flags)


def delta_q(form: ReducedForm) -> float:
    """1/2 when the reduced form equals its opposite, just when b = 0, b = a or a = c; else 1."""
    return 0.5 if form.b in (0, form.a) or form.a == form.c else 1.0


def represented_values(form: ReducedForm, x: int) -> np.ndarray:
    """Boolean table: index v is True iff v = Q(m, n) for some integers."""
    if x < 0:
        raise DomainError("x must be nonnegative")
    if x + 1 > _TABLE_BYTES:
        raise CapacityError(f"{x + 1} represented values exceed the {_TABLE_BYTES}-byte table")
    a, b, c, D = form.a, form.b, form.c, form.D
    rep = np.zeros(x + 1, dtype=bool)
    for n in range(math.isqrt(4 * a * x // D) + 1):   # Q(m, n) = Q(-m, -n): rows n < 0 repeat
        # 4a Q(m, n) = (2am + bn)^2 + D n^2: |2am + bn| <= root gives Q(m, n) <= x
        root = math.isqrt(4 * a * x - D * n * n)
        m = np.arange(-((b * n + root) // (2 * a)), (root - b * n) // (2 * a) + 1, dtype=np.int64)
        v = a * m
        v += b * n
        v *= m
        v += c * n * n                  # Q is positive definite: v >= 0
        if v.size and max(v[0], v[-1]) > x:     # Q is convex along the row: largest at its ends
            raise AssertionError(f"row n = {n} of {form} passes x = {x}")
        rep[v] = True
    return rep


def count_represented_primes(form: ReducedForm, x: int,
                             checkpoints: np.ndarray | list | None = None) -> CountSeries:
    """Exact counts of primes p <= checkpoint represented by the form.

    With h(-D) = 1 an odd p not dividing D is represented iff (-D/p) = 1,
    which is (d_K/p) for K = Q(sqrt(-D)) as -D = f^2 d_K: K's Frobenius map
    gives it and marks every odd p | D ramified.  Only the p | 2D (all <= D)
    go to the lattice: one pass over the primes.  Other forms enumerate the
    ellipse Q <= x into an x-byte table (at most ``_TABLE_BYTES``): O(x) work.
    Each block of primes counts its hits at the checkpoints: no hit array.
    """
    x = int(x)
    if form.D not in _CLASS_NUMBER_ONE and x + 1 > _TABLE_BYTES:  # before the sieve runs
        raise CapacityError(f"{x + 1} represented values exceed the {_TABLE_BYTES}-byte table")
    ps = primes_upto(x)  # the sieve's capacity guard
    split = ()
    if form.D in _CLASS_NUMBER_ONE:
        field = quadratic_field(squarefree_kernel(-form.D))
        split = (b[field.classes(b) == 0] for b in _blocks(ps[1:]))    # ps[0] = 2 when x >= 2
        ps = np.array([p for p in factorize(2 * form.D) if p <= x], dtype=np.int64)
    rep = represented_values(form, int(ps[-1]) if ps.size else 0)
    lattice = (b[rep[b]] for b in _blocks(ps))
    return CountSeries.of_hits(itertools.chain(lattice, split), x, checkpoints)


@dataclass(frozen=True)
class FormDensityReport:
    """Comparison of a representation count against delta_Q Li(x)/h(-D);
    below x = 2 the target, and so the ratio, is nan."""

    x: float
    count: int
    h: int
    delta: float
    target: float            # delta_Q * Li(x) / h
    ratio: float
    below_upper_bound: bool
    asymptotic_threshold: PowerValue   # x >> D^695 validity range of the bound
    in_proven_range: bool


def representation_density_report(form: ReducedForm,
                                  series: CountSeries) -> list[FormDensityReport]:
    """Compare the form's represented-prime counts (``series``, from
    ``count_represented_primes``) with the class-number prediction at each
    checkpoint.  At desk scale x is far below the proven validity range
    D^695 of the strict upper bound, so the comparison is a consistency
    check of the asymptotic density, and is flagged as such.
    """
    h, d = class_number(form.D).h, delta_q(form)
    threshold = PowerValue.power(max(form.D, 2), 695.0)
    reports = []
    for x, count in zip(series.checkpoints.tolist(), series.counts.tolist()):
        target = d * li(x) / h if x >= 2 else math.nan
        reports.append(FormDensityReport(
            x=x, count=int(count), h=h, delta=d, target=target,
            ratio=count / target if target else math.nan,
            below_upper_bound=count < 2.0 * target,
            asymptotic_threshold=threshold,
            in_proven_range=x >= 2 and math.log(x) >= threshold.log))
    return reports
