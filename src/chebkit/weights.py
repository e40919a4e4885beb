"""Compactly supported smoothing weight and its closed-form Laplace transform.

The weight f(t; x, ell, eps) equals 1 on [1/2, 1], vanishes outside
[1/2 - eps/log x, 1 + eps/log x], and is built as the ell-fold convolution
of a box kernel of half-width A = eps/(2*ell*log x) with the indicator of
[1/2 - ell*A, 1 + ell*A].  Its Laplace transform

    F(z) = exp(-(1+2*ell*A)*z) * (1 - exp((1/2+2*ell*A)*z))/(-z)
                               * ((1 - exp(2*A*z))/(-2*A*z))**ell

is entire; the z = 0 singularity of each factor is removable.  The weight
itself is exact to rounding for every ell, with no ell cutoff and no grid
fallback.  The module also verifies the transform's decay inequalities,
which the contour machinery relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .reports import BoundReport
from .sieve import _simpson

# switch each (1-exp(c*z))/(-c*z) factor to a 6-term series below this |c*z|
# to avoid catastrophic cancellation near z = 0
SERIES_THRESHOLD = 1e-4


@dataclass(frozen=True)
class WeightSpec:
    """Parameters (x, ell, eps) of the smoothing weight; A is derived."""

    x: float
    ell: int
    eps: float

    def __post_init__(self):
        if not (3 <= self.x < math.inf):
            raise DomainError(f"x must be finite and >= 3, got {self.x}")
        if not (isinstance(self.ell, (int, np.integer)) and self.ell >= 1):
            raise DomainError(f"ell must be a positive integer, got {self.ell}")
        if not (0 < self.eps < 0.25):
            raise DomainError(f"eps must lie in (0, 1/4), got {self.eps}")

    @property
    def log_x(self) -> float:
        return math.log(self.x)

    @property
    def A(self) -> float:
        """Box kernel half-width, eps/(2*ell*log x); recomputed, never stored."""
        return self.eps / (2.0 * self.ell * self.log_x)

    @property
    def support(self) -> tuple[float, float]:
        h = self.eps / self.log_x
        return (0.5 - h, 1.0 + h)


def _phi(w: np.ndarray) -> np.ndarray:
    """(1 - exp(w)) / (-w) with the removable singularity handled by series."""
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < SERIES_THRESHOLD
    wsafe = np.where(small, 1.0, w)
    direct = (np.exp(wsafe) - 1.0) / wsafe
    series = 1.0 + w * (1 / 2 + w * (1 / 6 + w * (1 / 24 + w * (1 / 120 + w / 720))))
    return np.where(small, series, direct)


def laplace_transform(spec: WeightSpec, z: complex | np.ndarray) -> complex | np.ndarray:
    """Closed-form F(z); entire, conjugate-symmetric, F(0) = 1/2 + eps/log x."""
    scalar = np.isscalar(z) or (isinstance(z, np.ndarray) and z.ndim == 0)
    zz = np.asarray(z, dtype=complex)
    a2 = 2.0 * spec.A
    c1 = 0.5 + spec.ell * a2
    out = np.exp(-(1.0 + spec.ell * a2) * zz) * c1 * _phi(c1 * zz) * _phi(a2 * zz) ** spec.ell
    return complex(out) if scalar else out


def _uniform_sum_cdf(s: np.ndarray, ell: int) -> np.ndarray:
    """CDF of a sum of ell iid Uniform[0,1] variables by de Boor's recurrence
    F_j(s) = (s F_{j-1}(s) + (j - s) F_{j-1}(s - 1)) / j, F_0(s) = [s >= 0]:
    on 0 < s < j each step is a convex combination, so nothing cancels."""
    s = np.asarray(s, dtype=float)
    out = np.where(s >= ell, 1.0, 0.0)
    mid = (s > 0) & (s < ell)
    u = s[mid] - np.arange(ell + 1.0)[:, None]  # row k holds s - k
    f = (u >= 0).astype(float)
    for j in range(1, ell + 1):
        f = (u[:-j] * f[:-1] + (j - u[:-j]) * f[1:]) / j
    out[mid] = f[0]
    return out


def weight_value(spec: WeightSpec, t: float | np.ndarray) -> float | np.ndarray:
    """The weight f(t): 1 on [1/2,1], 0 outside the support, smooth between.

    Evaluated as a difference of two convolution CDFs, exact to rounding
    for every ell.
    """
    scalar = np.isscalar(t) or (isinstance(t, np.ndarray) and t.ndim == 0)
    tt = np.asarray(t, dtype=float)
    a2 = 2.0 * spec.A
    u1 = (tt - 0.5 + spec.ell * a2) / a2
    u2 = (tt - 1.0) / a2
    f = _uniform_sum_cdf(u1, spec.ell) - _uniform_sum_cdf(u2, spec.ell)
    f = np.clip(f, 0.0, 1.0)
    return float(f) if scalar else f


def weight_breakpoints(spec: WeightSpec) -> np.ndarray:
    """Knots of the piecewise-polynomial weight, ascending."""
    a2 = 2.0 * spec.A
    left = 0.5 - spec.ell * a2 + a2 * np.arange(spec.ell + 1)
    right = 1.0 + a2 * np.arange(spec.ell + 1)
    return np.unique(np.concatenate((left, right)))


def laplace_transform_quadrature(spec: WeightSpec, z: complex, step: float = 1e-4) -> complex:
    """Numerical int f(t) exp(-z t) dt, the independent cross-check of F(z).

    Composite Simpson on each smooth piece between the convolution knots.
    """
    total = 0.0 + 0.0j
    knots = weight_breakpoints(spec)
    for a, b in zip(knots[:-1], knots[1:]):
        n = 2 * max(4, int(math.ceil((b - a) / (2.0 * step))))
        t = np.linspace(a, b, n + 1)
        total += _simpson(weight_value(spec, t) * np.exp(-z * t), (b - a) / n)
    return complex(total)


def check_decay_bound(spec: WeightSpec, s: complex, alpha: float) -> BoundReport:
    """Right-half-plane decay: for Re s > 0 and 0 <= alpha <= ell,

        |F(-s log x)| <= e^(sigma eps) x^sigma / (|s| log x)
                         * (1 + x^(-sigma/2)) * (2 ell/(eps |s|))^alpha.
    """
    s = complex(s)
    sigma = s.real
    if sigma <= 0:
        raise DomainError("decay bound requires Re{s} > 0")
    if not (0 <= alpha <= spec.ell):
        raise DomainError("need 0 <= alpha <= ell")
    lhs = abs(laplace_transform(spec, -s * spec.log_x))
    mod = abs(s)
    rhs = (math.exp(sigma * spec.eps) * spec.x ** sigma / (mod * spec.log_x)
           * (1.0 + spec.x ** (-sigma / 2.0))
           * (2.0 * spec.ell / (spec.eps * mod)) ** alpha)
    return BoundReport.compare(lhs, rhs, label="right-half-plane decay")


def check_growth_bound(spec: WeightSpec, s: complex) -> BoundReport:
    """Plain growth bound |F(-s log x)| <= e^(sigma eps) x^sigma for Re s > 0."""
    s = complex(s)
    if s.real <= 0:
        raise DomainError("growth bound requires Re{s} > 0")
    lhs = abs(laplace_transform(spec, -s * spec.log_x))
    rhs = math.exp(s.real * spec.eps) * spec.x ** s.real
    return BoundReport.compare(lhs, rhs, label="growth")


def check_real_axis_bound(spec: WeightSpec, sigma: float) -> BoundReport:
    """Real-axis bound F(-sigma log x) <= e^(sigma eps) x^sigma/(sigma log x)."""
    if sigma <= 0:
        raise DomainError("real-axis bound requires sigma > 0")
    value = laplace_transform(spec, complex(-sigma * spec.log_x))
    lhs = value.real
    rhs = math.exp(sigma * spec.eps) * spec.x ** sigma / (sigma * spec.log_x)
    return BoundReport.compare(lhs, rhs, label="real axis")


def check_left_line_bound(spec: WeightSpec, t: float) -> BoundReport:
    """Decay on the line s = -1/2 + it:

        |F(-s log x)| <= 5 x^(-1/4)/log x * (2 ell/eps)^ell * (1/4 + t^2)^(-ell/2).
    """
    s = complex(-0.5, t)
    lhs = abs(laplace_transform(spec, -s * spec.log_x))
    rhs = (5.0 * spec.x ** -0.25 / spec.log_x
           * (2.0 * spec.ell / spec.eps) ** spec.ell
           * (0.25 + t * t) ** (-spec.ell / 2.0))
    return BoundReport.compare(lhs, rhs, label="left line decay")
