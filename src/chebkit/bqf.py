"""Positive-definite integral binary quadratic forms: Gauss reduction,
class numbers, prime representation counts, and the density comparison
against Li(x)/h(-D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .reports import PowerValue
from .sieve import CountSeries, li, primes_upto


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

    def value(self, m, n):
        return self.a * m * m + self.b * m * n + self.c * n * n


def reduce_form(a: int, b: int, c: int) -> ReducedForm:
    """Unique reduced representative of the proper equivalence class."""
    if b * b - 4 * a * c >= 0 or a <= 0:
        raise DomainError("form must be positive definite")
    if math.gcd(math.gcd(a, b), c) != 1:
        raise DomainError("form must be primitive")
    while True:
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
    discriminants are allowed (imprimitive forms are excluded).
    """
    if D <= 0 or (-D) % 4 not in (0, 1):
        raise DomainError("need D > 0 with -D = 0 or 1 mod 4")
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
    """1/2 when the form is properly equivalent to its opposite, else 1."""
    opposite = reduce_form(form.a, -form.b, form.c)
    return 0.5 if opposite == form else 1.0


def represented_values(form: ReducedForm, x: int) -> np.ndarray:
    """Boolean table: index v is True iff v = Q(m, n) for some integers."""
    if x < 0:
        raise DomainError("x must be nonnegative")
    a, b, c, D = form.a, form.b, form.c, form.D
    rep = np.zeros(x + 1, dtype=bool)
    n_max = math.isqrt(4 * a * x // D) if x else 0
    for n in range(-n_max, n_max + 1):
        disc_m = 4 * a * x - D * n * n
        if disc_m < 0:
            continue
        root = math.isqrt(disc_m)
        m_lo = math.ceil((-b * n - root) / (2 * a))
        m_hi = math.floor((-b * n + root) / (2 * a))
        if m_hi < m_lo:
            continue
        m = np.arange(m_lo, m_hi + 1, dtype=np.int64)
        v = a * m * m + b * m * n + c * n * n
        v = v[(v >= 0) & (v <= x)]
        rep[v] = True
    return rep


def count_represented_primes(form: ReducedForm, x: int,
                             checkpoints: np.ndarray | list | None = None) -> CountSeries:
    """Exact counts of primes p <= checkpoint represented by the form.

    Lattice enumeration over the ellipse Q <= x intersected with the prime
    table; cost O(x/sqrt(D)) per form.
    """
    x = int(x)
    ps = primes_upto(x)  # the sieve's capacity guard, before the x-entry table
    rep = represented_values(form, x)
    return CountSeries.of_hits(
        ps[rep[ps]], x, checkpoints,
        f"primes represented by ({form.a},{form.b},{form.c}), disc -{form.D}")


@dataclass(frozen=True)
class FormDensityReport:
    """Comparison of a representation count against delta_Q Li(x)/h(-D)."""

    form: ReducedForm
    x: float
    count: int
    h: int
    delta: float
    target: float            # delta_Q * Li(x) / h
    upper_bound: float       # 2 * delta_Q * Li(x) / h
    ratio: float
    below_upper_bound: bool
    asymptotic_threshold: PowerValue   # x >> D^695 validity range of the bound
    in_proven_range: bool

    @property
    def within(self) -> float:
        """Relative deviation of the count from the asymptotic target."""
        return abs(self.ratio - 1.0)


def representation_density_report(form: ReducedForm, x: int) -> FormDensityReport:
    """Count represented primes up to x and compare with the class-number
    prediction.  At desk scale x is far below the proven validity range
    D^695 of the strict upper bound, so the comparison is a consistency
    check of the asymptotic density, and is flagged as such.
    """
    summary = class_number(form.D)
    d = delta_q(form)
    count = int(count_represented_primes(form, x).counts[-1])
    target = d * li(float(x)) / summary.h
    threshold = PowerValue.power(max(form.D, 2), 695.0)
    return FormDensityReport(
        form=form, x=float(x), count=count, h=summary.h, delta=d,
        target=target, upper_bound=2.0 * target,
        ratio=count / target if target else math.inf,
        below_upper_bound=count < 2.0 * target,
        asymptotic_threshold=threshold,
        in_proven_range=math.log(x) >= threshold.log,
    )
