"""Contour-quadrature evaluation of the smoothed prime sum.

The weighted sum S(x) equals a vertical-line integral of the truncated
Dirichlet series for the weighted logarithmic derivative against the
weight transform:

    S(x) = (log x / 2*pi) * int_{-T}^{T} Z(sigma0 + it) F(-(sigma0+it) log x) dt
           + tail(T).

The weight vanishes beyond support_cap(spec), so Z is a finite Dirichlet
polynomial and F is entire: the identity holds on every line sigma0 > 0,
and sup_t |Z(sigma0 + it)| <= sum |c_n| n^-sigma0 exactly.  The contour
is taken on the sigma0 in [0.01, 2] that minimises the closed-form tail
bound (from the transform's right-half-plane decay with alpha = ell).
The integrand is band-limited, so the trapezoid rule below its Nyquist
step is exact on the whole line (Trefethen-Weideman, SIAM Review 2014).
The error budget adds three proven bounds: that tail bound, the nodes
beyond T, and any prime powers missing from the truncated series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chebotarev import FULL, AbelianExtension, ConjClass, _class_terms, trivial_extension
from .characters import character_table
from .errors import DomainError
from .sieve import prime_powers
from .weights import WeightSpec, laplace_transform

# complex entries of one exp(-i t log n) block in LogDerivSeries.evaluate
# and in _evaluate_grid
_EVAL_ENTRIES = 2**22

# the abscissa search interval and its golden-section step count
_SIGMA_RANGE = (0.01, 2.0)
_GOLDEN_STEPS = 48

# the trapezoid step as a fraction of the aliasing limit 2 pi / V
_ALIAS_FRACTION = 0.9


@dataclass(frozen=True)
class LogDerivSeries:
    """Truncated Dirichlet series sum_n c_n n^{-s} with c_n supported on
    prime powers (c_n = Lambda(n) * character or class weight)."""

    values: np.ndarray    # n with a nonzero coefficient, ascending
    coeffs: np.ndarray    # complex coefficients
    n_max: int
    sigma0: float = 2.0

    @property
    def is_real(self) -> bool:
        return bool(np.allclose(self.coeffs.imag, 0.0, atol=1e-12))

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        """Z(sigma0 + i t) on a grid, in blocks of about _EVAL_ENTRIES
        matrix entries whatever the number of terms, to bound memory."""
        if self.values.size == 0:
            return np.zeros(t.size, dtype=complex)
        logn = np.log(self.values.astype(float))
        amp = self.coeffs * self.values.astype(float) ** -self.sigma0
        out = np.empty(t.size, dtype=complex)
        rows = max(1, _EVAL_ENTRIES // logn.size)
        for i in range(0, t.size, rows):
            out[i: i + rows] = np.exp(-1j * np.outer(t[i: i + rows], logn)) @ amp
        return out


def _evaluate_grid(series: LogDerivSeries, t0: float, h: float, count: int) -> np.ndarray:
    """Z(sigma0 + i t_k) at the count nodes t_k = t0 + k h, equal to
    series.evaluate on them up to rounding.

    With k = b J + j and J, B about sqrt(count), the phase splits as
    e^{-i t_k log n} = e^{-i (t0 + b J h) log n} e^{-i j h log n}, so the
    values are the entries (j, b) of one matrix product E @ A with
    E[j, n] = e^{-i j h log n} and A[n, b] = c_n n^-sigma0 e^{-i (t0 + b J h) log n}:
    (J + B) exponentials per term instead of count.  The terms run in
    blocks of about _EVAL_ENTRIES entries of E and A together, to bound
    memory.
    """
    rows = math.isqrt(max(count - 1, 0)) + 1
    cols = -(-count // rows)
    out = np.zeros((rows, cols), dtype=complex)
    logn = np.log(series.values.astype(float))
    amp = series.coeffs * series.values.astype(float) ** -series.sigma0
    j_phase = -1j * h * np.arange(rows)
    b_phase = -1j * (t0 + rows * h * np.arange(cols))
    width = max(1, _EVAL_ENTRIES // (rows + cols))
    for i in range(0, logn.size, width):
        # exponentials in place: E and A are the only blocks alive
        e = np.multiply.outer(j_phase, logn[i: i + width])
        a = np.multiply.outer(logn[i: i + width], b_phase)
        np.exp(e, out=e)
        np.exp(a, out=a)
        a *= amp[i: i + width, None]
        out += e @ a
    # column b holds the nodes b J .. b J + J - 1
    return out.T.reshape(-1)[:count]


def zeta_log_deriv(n_max: int) -> LogDerivSeries:
    """Coefficients Lambda(n): the class series of the trivial extension,
    which keeps every prime power."""
    return class_log_deriv(trivial_extension(), ConjClass(FULL), n_max)


def character_log_deriv(q: int, char_index: int, n_max: int) -> LogDerivSeries:
    """Coefficients Lambda(n) chi(n) for one Dirichlet character mod q.

    The character is used in its mod-q form (zero at p | q), so principal
    characters carry the missing-Euler-factor convention explicitly.
    """
    table = character_table(q)
    if not (0 <= char_index < table.shape[0]):
        raise DomainError(f"character index {char_index} out of range for q={q}")
    values, primes, _ = prime_powers(n_max)
    chi = table[char_index][values % q]
    keep = chi != 0
    return LogDerivSeries(values=values[keep], coeffs=(np.log(primes) * chi)[keep],
                          n_max=n_max)


def class_log_deriv(ext: AbelianExtension, cls: ConjClass, n_max: int) -> LogDerivSeries:
    """Coefficients Lambda(n) * [Frobenius class indicator]; identical to
    the weighting used by the direct counters."""
    kept, logp = _class_terms(ext, cls, *prime_powers(n_max)[:2])
    return LogDerivSeries(values=kept, coeffs=logp.astype(complex), n_max=n_max)


def support_cap(spec: WeightSpec) -> int:
    """Largest integer the weight can see: ceil(x^(1 + eps/log x))."""
    return int(math.ceil(spec.x ** spec.support[1]))


def tail_bound(spec: WeightSpec, t_max: float, sigma0: float, z_sup: float) -> float:
    """Closed-form bound on the discarded |t| > t_max part of the contour:

        z_sup * log x * 2 * int_{t_max}^inf (e^(sigma0 eps) x^sigma0 / (t log x))
                                 * (1 + x^(-sigma0/2)) * (2 ell/(eps t))^ell dt
      = 2 z_sup e^(sigma0 eps) x^sigma0 (1 + x^(-sigma0/2)) (2 ell/eps)^ell
          * t_max^(-ell) / ell.
    """
    if t_max <= 0:
        raise DomainError("t_max must be positive")
    ell, eps = spec.ell, spec.eps
    return (2.0 * z_sup * math.exp(sigma0 * eps) * spec.x ** sigma0
            * (1.0 + spec.x ** (-sigma0 / 2.0))
            * (2.0 * ell / eps) ** ell * t_max ** -ell / ell)


def _choose_abscissa(spec: WeightSpec, t_max: float, values: np.ndarray,
                     coeffs: np.ndarray) -> tuple[float, float]:
    """The sigma0 in _SIGMA_RANGE minimising tail_bound(spec, t_max, sigma0,
    sum |c_n| n^-sigma0), and that tail bound.

    The log of the objective is a log-sum-exp plus a linear term plus a
    softplus in sigma0, hence convex: a fixed-length golden-section search
    finds its single minimum deterministically.  The interval's ends are
    candidates too, so the choice never does worse than sigma0 = 2.
    """
    logn = np.log(values.astype(float))
    mags = np.abs(coeffs)

    def tail(sigma0: float) -> float:
        return tail_bound(spec, t_max, sigma0, float(np.sum(mags * np.exp(-sigma0 * logn))))

    lo, hi = _SIGMA_RANGE
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = tail(c), tail(d)
    for _ in range(_GOLDEN_STEPS):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = tail(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = tail(d)
    return min(((s, tail(s)) for s in (lo, 0.5 * (a + b), hi)), key=lambda st: st[1])


@dataclass(frozen=True)
class ContourResult:
    """Truncated contour value with its self-reported error budget."""

    value: float
    budget: float
    tail: float
    quad_error: float
    coverage_gap: float
    imag_part: float
    quad_step: float
    sigma0: float


def contour_sum(series: LogDerivSeries, spec: WeightSpec, t_max: float,
                quad_step: float | None = None) -> ContourResult:
    """Trapezoid quadrature of the vertical-line integral over |t| <= t_max.

    Needs ell >= 2 so the tail integral converges at the stated rate, and
    t_max >= 10 so the tail bound formula is meaningful.  Terms beyond
    support_cap(spec), where the weight is zero, are dropped; the finite
    polynomial left is integrated on the line Re s = sigma0 that
    minimises its tail bound (``_choose_abscissa``), whatever
    ``series.sigma0`` says, and the result reports that sigma0.

    The integrand is the Fourier transform of a function supported on
    v in [lo log x - log cap, hi log x - log 2], (lo, hi) = spec.support
    and cap = support_cap(spec).  Poisson summation makes the whole-line
    trapezoid sum at a step h < 2 pi/V, V the largest |v| there, equal to
    the integral, so only the nodes beyond t_max err.  h is
    _ALIAS_FRACTION * 2 pi/V, at most ``quad_step``, shrunk to end at t_max.
    """
    if spec.ell < 2:
        raise DomainError("contour evaluation requires ell >= 2")
    if t_max < 10:
        raise DomainError("t_max must be at least 10")
    if quad_step is not None and quad_step <= 0:
        raise DomainError("quad_step must be positive")
    cap = support_cap(spec)
    keep = series.values <= cap
    values, coeffs = series.values[keep], series.coeffs[keep]
    sigma0, tail = _choose_abscissa(spec, t_max, values, coeffs)
    line = replace(series, values=values, coeffs=coeffs, sigma0=sigma0)
    lo, hi = spec.support
    band = max(abs(lo * spec.log_x - math.log(cap)), abs(hi * spec.log_x - math.log(2.0)))
    h = min(_ALIAS_FRACTION * 2.0 * math.pi / band, quad_step or math.inf)
    steps = math.ceil(t_max / h)
    h = t_max / steps
    # a real series is conjugate-symmetric: fold the line onto [0, t_max]
    folded = line.is_real
    t = h * np.arange(0 if folded else -steps, steps + 1)
    vals = (_evaluate_grid(line, t[0], h, t.size)
            * laplace_transform(spec, -(sigma0 + 1j * t) * spec.log_x))
    total = spec.log_x / (math.pi if folded else 2.0 * math.pi) * np.trapezoid(vals, dx=h)
    # the nodes beyond t_max, at most (log x/2 pi) (2 int_T^inf M + h M(T))
    # for the decreasing tail majorant M: tail covers the integral with a
    # factor 2 pi to spare, and (log x/2 pi) h M(T) is this fraction of it
    quad_error = tail * h * spec.ell / (4.0 * math.pi * t_max)

    # prime powers the weight can see but the series does not carry
    gap = 0.0
    if series.n_max < cap:
        vals, prs, _ = prime_powers(cap)
        missing = vals > series.n_max
        gap = float(np.sum(np.log(prs[missing])))

    return ContourResult(
        value=float(total.real),
        budget=tail + quad_error + gap,
        tail=tail,
        quad_error=quad_error,
        coverage_gap=gap,
        imag_part=0.0 if folded else float(total.imag),
        quad_step=h,
        sigma0=sigma0,
    )
