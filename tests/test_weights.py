import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from chebkit.errors import DomainError
from chebkit.weights import (SERIES_THRESHOLD, WeightSpec, _phi, check_decay_bound,
                             check_growth_bound, check_left_line_bound, check_real_axis_bound,
                             laplace_transform, laplace_transform_quadrature,
                             weight_breakpoints, weight_value)


# ------------------------------------------------------------- oracles
#
# The weight is the ell-fold convolution of a box kernel with an indicator.
# The oracle below builds that convolution *exactly* as a piecewise
# polynomial via antiderivatives:  (w * g)(t) = (G(t+A) - G(t-A)) / (2A).
# It shares no code or formula with the package's CDF-difference evaluator.

def _piecewise_antiderivative(pieces):
    out = []
    acc = 0.0
    for a, b, poly in pieces:
        P = poly.integ()
        P = P - P(a) + acc
        acc = P(b)
        out.append((a, b, P))
    return out, acc


def _eval_piecewise(pieces, total_right, t):
    if not pieces or t <= pieces[0][0]:
        return 0.0
    for a, b, poly in pieces:
        if t <= b:
            return float(poly(t))
    return float(total_right)


def conv_weight_oracle(spec, ts):
    """Exact ell-fold box convolution by repeated piecewise integration."""
    A, ell = spec.A, spec.ell
    lo, hi = 0.5 - ell * A, 1.0 + ell * A
    pieces = [(lo, hi, Polynomial([1.0]))]
    for _ in range(ell):
        G, G_right = _piecewise_antiderivative(pieces)
        points = sorted({a for a, _, _ in G} | {b for _, b, _ in G})
        knots = sorted({p + s * A for p in points for s in (-1.0, 1.0)})
        new_pieces = []
        for a, b in zip(knots[:-1], knots[1:]):
            shift_plus = Polynomial([A, 1.0])   # t + A
            shift_minus = Polynomial([-A, 1.0])  # t - A
            iplus = _find_piece(G, (a + b) / 2 + A)
            iminus = _find_piece(G, (a + b) / 2 - A)
            p_plus = (G[iplus][2](shift_plus) if iplus is not None
                      else Polynomial([G_right if (a + b) / 2 + A > G[-1][1] else 0.0]))
            p_minus = (G[iminus][2](shift_minus) if iminus is not None
                       else Polynomial([G_right if (a + b) / 2 - A > G[-1][1] else 0.0]))
            new_pieces.append((a, b, (p_plus - p_minus) / (2.0 * A)))
        pieces = new_pieces
    total = 0.0  # the convolution vanishes at both ends
    return np.array([_eval_piecewise(pieces, total, t) for t in np.atleast_1d(ts)])


def _find_piece(pieces, t):
    for i, (a, b, _) in enumerate(pieces):
        if a <= t <= b:
            return i
    return None


def irwin_hall_cdf_exact(s: Fraction, ell: int) -> Fraction:
    """Exact rational Irwin-Hall CDF, sum_k (-1)^k C(ell,k) (s-k)^ell / ell!
    over k < s; no formula in common with the package's recurrence."""
    if s <= 0:
        return Fraction(0)
    if s >= ell:
        return Fraction(1)
    total = sum((-1) ** k * math.comb(ell, k) * (s - k) ** ell
                for k in range(ell + 1) if s > k)
    return total / math.factorial(ell)


def simpson_transform_oracle(f_vals_fn, spec, z, step=1e-4):
    """Composite-Simpson Laplace transform of an arbitrary f evaluator."""
    total = 0.0 + 0.0j
    knots = weight_breakpoints(spec)
    for a, b in zip(knots[:-1], knots[1:]):
        n = 2 * max(4, int(math.ceil((b - a) / (2 * step))))
        t = np.linspace(a, b, n + 1)
        v = f_vals_fn(t) * np.exp(-z * t)
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        total += (b - a) / n / 3.0 * np.dot(w, v)
    return complex(total)


# ----------------------------------------------------------- validation

def test_spec_validation():
    for x in (2.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            WeightSpec(x=x, ell=2, eps=0.1)
    with pytest.raises(DomainError):
        WeightSpec(x=10.0, ell=0, eps=0.1)
    with pytest.raises(DomainError):
        WeightSpec(x=10.0, ell=2, eps=0.3)
    with pytest.raises(DomainError):
        WeightSpec(x=10.0, ell=2, eps=0.0)


def test_kernel_halfwidth_recomputed():
    spec = WeightSpec(x=math.e**10, ell=2, eps=0.1)
    assert spec.A == 0.1 / (2 * 2 * 10.0)


# ------------------------------------------------------ transform values

def test_value_at_zero_closed_form():
    spec = WeightSpec(x=math.e**10, ell=2, eps=0.1)
    assert laplace_transform(spec, 0) == pytest.approx(0.51, abs=1e-14)
    for x, ell, eps in [(3.0, 1, 0.24), (50.0, 3, 0.05), (1e8, 4, 0.2)]:
        spec = WeightSpec(x=x, ell=ell, eps=eps)
        v = laplace_transform(spec, 0)
        assert v.imag == 0.0
        assert v.real == pytest.approx(0.5 + eps / math.log(x), rel=1e-13)
        assert 0.5 < v.real < 0.75


def test_transform_matches_quadrature_of_weight():
    # the closed-form product formula against numerical integration of f
    rng = np.random.default_rng(3)
    for ell in (1, 2, 3, 4):
        spec = WeightSpec(x=200.0, ell=ell, eps=0.1)
        zs = [0.0, 1.0, -2.0, 3j, 25 + 25j, -30 + 11j, 50j]
        zs += [complex(rng.uniform(-35, 35), rng.uniform(-35, 35)) for _ in range(3)]
        for z in zs:
            if abs(z) > 50:
                continue
            closed = laplace_transform(spec, z)
            quad = laplace_transform_quadrature(spec, z, step=1e-4)
            assert closed == pytest.approx(quad, rel=1e-6)


def test_transform_matches_quadrature_of_oracle_weight():
    # fully independent route: Simpson over the piecewise-poly oracle f
    spec = WeightSpec(x=40.0, ell=2, eps=0.12)
    for z in (0.7 + 0.3j, -4.0, 10j):
        quad = simpson_transform_oracle(lambda t: conv_weight_oracle(spec, t),
                                        spec, z, step=5e-4)
        assert laplace_transform(spec, z) == pytest.approx(quad, rel=1e-6)


def test_removable_singularity_region_is_smooth():
    spec = WeightSpec(x=100.0, ell=3, eps=0.1)
    # values just inside and outside the series switch must agree closely
    for mag in (1e-5, 9e-5, 1.1e-4, 1e-3):
        for ang in (0, 1.0, 2.5):
            z = mag * cmath.exp(1j * ang)
            a = laplace_transform(spec, z)
            b = laplace_transform_quadrature(spec, z, step=2e-4)
            assert a == pytest.approx(b, rel=1e-8)


def _phi_on_every_node(w):
    """_phi with the series computed on every node and then discarded."""
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < SERIES_THRESHOLD
    wsafe = np.where(small, 1.0, w)
    direct = (np.exp(wsafe) - 1.0) / wsafe
    series = 1.0 + w * (1 / 2 + w * (1 / 6 + w * (1 / 24 + w * (1 / 120 + w / 720))))
    return np.where(small, series, direct)


def test_phi_takes_the_series_only_where_it_is_used():
    rng = np.random.default_rng(3)
    mags = 10.0 ** rng.uniform(-9, 2, size=(2, 500))
    grid = rng.normal(size=500) * mags[0] + 1j * rng.normal(size=500) * mags[1]
    for w in (grid, grid.reshape(20, 25), np.empty(0), np.array(0.0), np.array(3e-5 - 1e-6j),
              np.array(-2.0 + 7.0j), 0.0, 5e-5, -1e-5j, 1.5 - 2.0j, np.float64(-3.0),
              [1e-6, 4.0j]):
        got, want = _phi(w), _phi_on_every_node(w)
        assert type(got) is type(want) and got.shape == want.shape
        assert np.array_equal(got, want)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-40, max_value=40), st.floats(min_value=-40, max_value=40))
def test_conjugate_symmetry(re, im):
    spec = WeightSpec(x=1000.0, ell=2, eps=0.2)
    z = complex(re, im)
    assert laplace_transform(spec, z.conjugate()) == pytest.approx(
        laplace_transform(spec, z).conjugate(), rel=1e-12, abs=1e-300)


# ----------------------------------------------------------- weight f

def test_weight_plateau_and_support():
    spec = WeightSpec(x=math.e**10, ell=2, eps=0.1)
    assert weight_value(spec, 0.75) == 1.0
    assert weight_value(spec, 0.3) == 0.0
    lo, hi = spec.support
    assert weight_value(spec, lo - 1e-9) == 0.0
    assert weight_value(spec, hi + 1e-9) == 0.0
    edge = weight_value(spec, 1.0 + spec.eps / (2 * math.log(spec.x)))
    assert 0.0 < edge < 1.0


def test_weight_grid_invariants():
    for ell in (1, 2, 3, 4):
        spec = WeightSpec(x=50.0, ell=ell, eps=0.2)
        lo, hi = spec.support
        t = np.linspace(lo - 0.05, hi + 0.05, 1000)
        f = weight_value(spec, t)
        assert np.all(f >= -1e-8) and np.all(f <= 1 + 1e-8)
        plateau = (t >= 0.5) & (t <= 1.0)
        assert np.all(np.abs(f[plateau] - 1.0) <= 1e-8)
        outside = (t < lo) | (t > hi)
        assert np.all(np.abs(f[outside]) <= 1e-8)


def test_weight_matches_convolution_oracle():
    rng = np.random.default_rng(5)
    for ell in (1, 2, 3):
        spec = WeightSpec(x=30.0, ell=ell, eps=0.15)
        lo, hi = spec.support
        ts = rng.uniform(lo - 0.02, hi + 0.02, size=40)
        oracle = conv_weight_oracle(spec, ts)
        got = weight_value(spec, ts)
        assert np.max(np.abs(got - oracle)) < 1e-10


def test_weight_interior_frozen_value():
    # midpoint of the right ramp sits at exactly 1/2 by symmetry of the
    # convolution kernel; frozen from the oracle
    spec = WeightSpec(x=math.e**10, ell=2, eps=0.1)
    t_mid = 1.0 + spec.eps / (2 * math.log(spec.x))
    # the oracle's repeated polynomial shifts carry ~1e-12 roundoff
    assert conv_weight_oracle(spec, t_mid)[0] == pytest.approx(0.5, abs=1e-9)
    assert weight_value(spec, t_mid) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.floats(min_value=0.0, max_value=1.0))
def test_weight_cdf_matches_exact_rational_sum(ell, frac):
    # the right ramp is 1 - CDF(u2) with u2 = (t - 1)/(2A); sweep u2 over
    # [-0.5, ell + 0.5] and compare with the exact rational CDF
    spec = WeightSpec(x=1000.0, ell=ell, eps=0.1)
    a2 = 2.0 * spec.A
    t = 1.0 + (-0.5 + frac * (ell + 1.0)) * a2
    u2 = (t - 1.0) / a2
    exact = 1 - irwin_hall_cdf_exact(Fraction(u2), ell)
    assert abs(weight_value(spec, t) - float(exact)) <= 1e-13


@pytest.mark.parametrize("ell", [17, 20, 40])
def test_weight_ramp_midpoint_symmetry_large_ell(ell):
    # f is symmetric about the middle of each ramp, so f = 1/2 there
    spec = WeightSpec(x=1000.0, ell=ell, eps=0.1)
    t_mid = 1.0 + spec.eps / (2 * math.log(spec.x))
    assert weight_value(spec, t_mid) == pytest.approx(0.5, abs=1e-12)


def test_weight_large_ell_grid_path():
    spec = WeightSpec(x=1000.0, ell=20, eps=0.1)
    assert weight_value(spec, 0.75) == 1.0
    assert 0.0 <= weight_value(spec, 0.4999) <= 1.0
    lo, hi = spec.support
    assert abs(weight_value(spec, lo - 1e-6)) < 1e-12
    assert abs(weight_value(spec, hi + 1e-6)) < 1e-12


# ----------------------------------------------------------- the bounds

def _random_specs(rng, n):
    for _ in range(n):
        yield WeightSpec(x=float(np.exp(rng.uniform(np.log(3.0), 25.0))),
                         ell=int(rng.integers(1, 7)),
                         eps=float(rng.uniform(0.01, 0.249)))


def test_decay_bound_examples():
    spec = WeightSpec(x=100.0, ell=2, eps=0.1)
    assert check_decay_bound(spec, 1.0, 0.0).passed
    assert check_decay_bound(spec, 2 + 10j, spec.ell).passed
    with pytest.raises(DomainError):
        check_decay_bound(spec, 1j, 0.0)
    with pytest.raises(DomainError):
        check_decay_bound(spec, 1.0, spec.ell + 0.5)


def test_left_line_bound_examples():
    spec = WeightSpec(x=100.0, ell=2, eps=0.1)
    r0 = check_left_line_bound(spec, 0.0)
    r100 = check_left_line_bound(spec, 100.0)
    assert r0.passed and r100.passed
    # the right side decays like (1/4 + t^2)^(-ell/2)
    assert r100.rhs == pytest.approx(r0.rhs * (0.25 / (0.25 + 100.0**2)) ** (spec.ell / 2))


def test_bounds_hold_on_random_grid():
    rng = np.random.default_rng(42)
    for spec in _random_specs(rng, 250):
        sigma = float(10 ** rng.uniform(-2, 0.6))
        t = float(rng.uniform(-500, 500))
        alpha = float(rng.uniform(0, spec.ell))
        assert check_decay_bound(spec, complex(sigma, t), alpha).passed
        assert check_growth_bound(spec, complex(sigma, t)).passed
        assert check_real_axis_bound(spec, sigma).passed
        assert check_left_line_bound(spec, t).passed


def test_real_axis_bound_spec_example():
    for spec in (WeightSpec(x=1e4, ell=2, eps=0.1), WeightSpec(x=40.0, ell=1, eps=0.24)):
        for sigma in (0.05, 0.5, 1.0, 2.5):
            r = check_real_axis_bound(spec, sigma)
            value = laplace_transform(spec, complex(-sigma * spec.log_x))
            assert value.real > 0 and abs(value.imag) < 1e-15
            assert r.passed


def test_growth_bound_requires_right_halfplane():
    spec = WeightSpec(x=10.0, ell=1, eps=0.1)
    with pytest.raises(DomainError):
        check_growth_bound(spec, complex(-0.5, 3.0))
    with pytest.raises(DomainError):
        check_real_axis_bound(spec, 0.0)
