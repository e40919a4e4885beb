import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebkit.chebotarev import (FULL, SPLIT, ConjClass, cyclotomic_field,
                                quadratic_field, trivial_extension,
                                weighted_prime_sum)
from chebkit import explicit
from chebkit.characters import character_table
from chebkit.errors import DomainError
from chebkit.explicit import (LogDerivSeries, _evaluate_grid, character_log_deriv,
                              class_log_deriv, contour_sum, support_cap, tail_bound,
                              zeta_log_deriv)
from chebkit.sieve import prime_powers
from chebkit.weights import WeightSpec, weight_value

# -zeta'(2)/zeta(2), frozen from mpmath.zeta(2, derivative=1)/mpmath.zeta(2)
NEG_ZETA_LOGDERIV_AT_2 = 0.5699618236417963


# ----------------------------------------------------------- the series

def class_log_deriv_via_characters(q: int, residue: int, n_max: int) -> LogDerivSeries:
    """Reference for class_log_deriv over Q(zeta_q): the residue-class
    combination (1/phi(q)) sum_chi conj(chi(a)) chi(n), assembled from the
    character table; equals the direct indicator."""
    table = character_table(q)
    values, primes, _ = prime_powers(n_max)
    combo = np.zeros(values.size, dtype=complex)
    for row in table:
        combo += np.conj(row[residue % q]) * row[values % q]
    combo /= table.shape[0]
    coeffs = np.log(primes) * combo
    # true coefficients are at least log 2; anything tiny is cancellation dust
    keep = np.abs(coeffs) > 1e-9
    return LogDerivSeries(values=values[keep], coeffs=coeffs[keep], n_max=n_max)


def test_character_series_values():
    # the nontrivial character mod 4 weights Lambda(n) by (-1)^((n-1)/2)
    s = character_log_deriv(4, 1, 50)
    lookup = dict(zip(s.values.tolist(), s.coeffs.tolist()))
    assert lookup[5] == pytest.approx(math.log(5))
    assert lookup[3] == pytest.approx(-math.log(3))
    assert lookup[9] == pytest.approx(math.log(3))
    assert 4 not in lookup and 2 not in lookup
    with pytest.raises(DomainError):
        character_log_deriv(4, 2, 50)


COPRIME_RESIDUES = st.integers(min_value=3, max_value=200).flatmap(
    lambda q: st.tuples(st.just(q), st.integers(min_value=1, max_value=q - 1).filter(
        lambda a: math.gcd(a, q) == 1)))


@settings(max_examples=30, deadline=None)
@given(COPRIME_RESIDUES, st.integers(min_value=2, max_value=3000))
@example((4, 1), 3000)
@example((4, 3), 3000)
@example((5, 2), 3000)
@example((7, 3), 3000)
@example((8, 5), 3000)
@example((12, 7), 3000)
@example((20, 3), 3000)
@example((36, 5), 3000)
@example((16, 3), 3000)
@example((32, 7), 3000)
@example((48, 5), 3000)
def test_class_series_matches_character_combination(qa, n_max):
    q, a = qa
    direct = class_log_deriv(cyclotomic_field(q), ConjClass(a), n_max)
    combo = class_log_deriv_via_characters(q, a, n_max)
    assert np.array_equal(direct.values, combo.values)
    assert np.allclose(direct.coeffs, combo.coeffs, atol=1e-9)
    assert combo.is_real


def test_zeta_series_equals_trivial_class_series():
    a = zeta_log_deriv(500)
    b = class_log_deriv(trivial_extension(), ConjClass(FULL), 500)
    assert np.array_equal(a.values, b.values)
    assert np.allclose(a.coeffs, b.coeffs)


def test_evaluate_at_zero_height():
    s = zeta_log_deriv(10**4)
    z0 = s.evaluate(np.array([0.0]))[0]
    assert z0.imag == pytest.approx(0.0, abs=1e-12)
    assert z0.real == pytest.approx(NEG_ZETA_LOGDERIV_AT_2, abs=2e-3)


def _random_series(seed: int, n_max: int, complex_coeffs: bool, sigma0: float):
    rng = np.random.default_rng(seed)
    values = zeta_log_deriv(n_max).values
    coeffs = rng.normal(size=values.size) + 0j
    if complex_coeffs:
        coeffs += 1j * rng.normal(size=values.size)
    return LogDerivSeries(values=values, coeffs=coeffs, n_max=n_max, sigma0=sigma0)


def _assert_grid_matches_direct(series, t0, h, count):
    grid = _evaluate_grid(series, t0, h, count)
    direct = series.evaluate(t0 + h * np.arange(count))
    scale = float(np.sum(np.abs(series.coeffs) * series.values.astype(float) ** -series.sigma0))
    assert grid.shape == (count,)
    assert np.all(np.abs(grid - direct) <= 1e-10 * scale)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=3000),
       st.booleans(), st.floats(min_value=0.01, max_value=2.0),
       st.one_of(st.just(0.0), st.floats(min_value=-600.0, max_value=-1e-3)),
       st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
       st.one_of(st.sampled_from([1, 2, 3]), st.integers(min_value=2, max_value=70).map(
           lambda r: r * r), st.integers(min_value=4, max_value=5000)))
def test_grid_kernel_matches_direct_evaluation(seed, n_max, complex_coeffs, sigma0, t0, h,
                                               count):
    # two methods: one exponential per (node, term) against the split
    # phases of the matrix product
    _assert_grid_matches_direct(_random_series(seed, n_max, complex_coeffs, sigma0),
                                t0, h, count)


@pytest.mark.parametrize("count", [1, 400, 401, 999])
def test_grid_kernel_term_blocks(monkeypatch, count):
    # a small block size splits the series into many term blocks, each
    # adding its partial product
    monkeypatch.setattr(explicit, "_EVAL_ENTRIES", 500)
    _assert_grid_matches_direct(_random_series(7, 2000, True, 0.3), -250.0, 0.05, count)


def test_grid_kernel_on_an_empty_series():
    empty = zeta_log_deriv(1)
    assert np.array_equal(_evaluate_grid(empty, 0.0, 0.1, 5), np.zeros(5, dtype=complex))


# ------------------------------------------------------------ tail bound

def test_tail_bound_vanishes_at_infinity():
    spec = WeightSpec(x=100.0, ell=2, eps=0.1)
    assert tail_bound(spec, 1e12, 2.0, 1.0) < 1e-12


def test_tail_bound_power_law():
    spec = WeightSpec(x=100.0, ell=3, eps=0.1)
    b1 = tail_bound(spec, 200.0, 2.0, 0.5)
    b2 = tail_bound(spec, 400.0, 2.0, 0.5)
    assert b1 / b2 == pytest.approx(2.0 ** spec.ell, rel=1e-12)


def test_tail_bound_frozen_value():
    # closed form: 2 z e^(2 eps) x^2 (1 + 1/x) (2 ell/eps)^ell T^-ell / ell
    spec = WeightSpec(x=100.0, ell=2, eps=0.1)
    expect = 2 * 1.0 * math.exp(0.2) * 1e4 * 1.01 * 40.0**2 / (2 * 200.0**2)
    assert tail_bound(spec, 200.0, 2.0, 1.0) == pytest.approx(expect, rel=1e-12)


# ------------------------------------------------------ contour identity

@pytest.mark.parametrize("q,a", [(1, None), (4, 1), (4, 3), (5, 2), (8, 3)])
@pytest.mark.parametrize("x", [50.0, 100.0])
@pytest.mark.parametrize("ell,eps", [(2, 0.1), (3, 0.1), (2, 0.05)])
def test_identity_within_budget(q, a, x, ell, eps):
    if q == 1:
        ext, cls = trivial_extension(), ConjClass(FULL)
    else:
        ext, cls = cyclotomic_field(q), ConjClass(a)
    spec = WeightSpec(x=x, ell=ell, eps=eps)
    direct = weighted_prime_sum(ext, cls, spec)
    series = class_log_deriv(ext, cls, support_cap(spec))
    res = contour_sum(series, spec, t_max=300.0)
    assert abs(res.value - direct) <= res.budget
    # the true discrepancy is far below the bound-based budget
    assert abs(res.value - direct) < 0.05


def test_identity_for_quadratic_split_class():
    spec = WeightSpec(x=100.0, ell=3, eps=0.1)
    ext, cls = quadratic_field(-1), ConjClass(SPLIT)
    direct = weighted_prime_sum(ext, cls, spec)
    series = class_log_deriv(ext, cls, support_cap(spec))
    res = contour_sum(series, spec, t_max=300.0)
    assert abs(res.value - direct) <= res.budget
    assert abs(res.value - direct) < 0.01


def test_single_complex_character_roundtrip():
    q, idx = 5, 1
    spec = WeightSpec(x=50.0, ell=2, eps=0.1)
    series = character_log_deriv(q, idx, support_cap(spec))
    assert not series.is_real
    t = np.log(series.values.astype(float)) / spec.log_x
    direct = complex(np.sum(series.coeffs * weight_value(spec, t)))
    res = contour_sum(series, spec, t_max=300.0)
    assert abs(complex(res.value, res.imag_part) - direct) <= res.budget
    assert abs(complex(res.value, res.imag_part) - direct) < 0.05


def test_symmetrized_integral_is_real():
    # a real series is folded onto the half line and has no imaginary part
    spec = WeightSpec(x=100.0, ell=2, eps=0.1)
    series = zeta_log_deriv(support_cap(spec))
    sym = contour_sum(series, spec, t_max=100.0)
    assert sym.imag_part == 0.0
    # the same series rotated by e^{i phi} takes the whole line: rotated
    # back, its integral is the folded value and the imaginary part cancels
    phi = 0.7
    rotated = replace(series, coeffs=series.coeffs * cmath.exp(1j * phi))
    assert not rotated.is_real
    res = contour_sum(rotated, spec, t_max=100.0)
    back = cmath.exp(-1j * phi) * complex(res.value, res.imag_part)
    assert back.real == pytest.approx(sym.value, rel=1e-10)
    assert abs(back.imag) <= 1e-10 * abs(sym.value)


def test_budget_decreases_with_t_max_and_n_max():
    spec = WeightSpec(x=100.0, ell=2, eps=0.1)
    cap = support_cap(spec)
    budgets_t = [contour_sum(zeta_log_deriv(cap), spec, t).budget
                 for t in (50.0, 100.0, 200.0, 400.0)]
    assert all(b <= a for a, b in zip(budgets_t, budgets_t[1:]))
    budgets_n = [contour_sum(zeta_log_deriv(n), spec, 100.0).budget
                 for n in (60, cap, 4 * cap)]
    assert all(b <= a + 1e-12 for a, b in zip(budgets_n, budgets_n[1:]))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 4, 5, 8]), st.integers(min_value=0, max_value=3),
       st.floats(min_value=50.0, max_value=2000.0), st.sampled_from([2, 3]),
       st.floats(min_value=0.05, max_value=0.2))
def test_chosen_abscissa_budget_against_direct_sum(q, class_pick, x, ell, eps):
    # two independent methods: the contour on the chosen line and the
    # direct weighted sum over prime powers
    if q == 1:
        ext, cls = trivial_extension(), ConjClass(FULL)
    else:
        residues = [a for a in range(1, q) if math.gcd(a, q) == 1]
        ext, cls = cyclotomic_field(q), ConjClass(residues[class_pick % len(residues)])
    spec = WeightSpec(x=x, ell=ell, eps=eps)
    t_max = 300.0
    series = class_log_deriv(ext, cls, support_cap(spec))
    res = contour_sum(series, spec, t_max)
    direct = weighted_prime_sum(ext, cls, spec)
    assert abs(res.value - direct) <= res.budget
    # the chosen line never reports a looser tail than Re s = 2 did
    z2 = float(np.sum(np.abs(series.coeffs) * series.values.astype(float) ** -2.0))
    assert res.tail <= tail_bound(spec, t_max, 2.0, z2)
    assert 0.01 <= res.sigma0 <= 2.0


def _band_limit(spec: WeightSpec) -> float:
    """Largest |v| with v = u log x - log n, u in spec.support, 2 <= n <= cap."""
    lo, hi = spec.support
    return max(abs(lo * spec.log_x - math.log(support_cap(spec))),
               abs(hi * spec.log_x - math.log(2.0)))


def test_character_table_is_read_only():
    # the table is cached, so a caller's write would reach every later call
    table = character_table(5)
    original = table[1, 2]
    with pytest.raises(ValueError):
        table[1, 2] = 99
    assert character_table(5)[1, 2] == original != 99


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["zeta", "class", "char"]), st.integers(min_value=0, max_value=2**16),
       st.floats(min_value=50.0, max_value=2000.0), st.sampled_from([2, 3]),
       st.floats(min_value=0.05, max_value=0.2))
def test_aliasing_free_step_against_direct_sum(kind, pick, x, ell, eps):
    spec = WeightSpec(x=x, ell=ell, eps=eps)
    cap, t_max = support_cap(spec), 300.0
    if kind == "char":
        q = (5, 7, 13)[pick % 3]
        complex_rows = [i for i, row in enumerate(character_table(q))
                        if np.any(np.abs(row.imag) > 1e-9)]
        series = character_log_deriv(q, complex_rows[pick % len(complex_rows)], cap)
        t = np.log(series.values.astype(float)) / spec.log_x
        direct = complex(np.sum(series.coeffs * weight_value(spec, t)))
    else:
        if kind == "zeta":
            ext, cls = trivial_extension(), ConjClass(FULL)
            series = zeta_log_deriv(cap)
        else:
            q = (4, 5, 8)[pick % 3]
            residues = [a for a in range(1, q) if math.gcd(a, q) == 1]
            ext, cls = cyclotomic_field(q), ConjClass(residues[pick % len(residues)])
            series = class_log_deriv(ext, cls, cap)
        direct = weighted_prime_sum(ext, cls, spec)
    res = contour_sum(series, spec, t_max)
    value = complex(res.value, res.imag_part)
    h = res.quad_step
    # below the Nyquist step, on a grid that ends at t_max
    assert h < 2.0 * math.pi / _band_limit(spec)
    assert t_max / h == pytest.approx(round(t_max / h), rel=1e-12)
    # two independent methods, with no estimated term in the budget
    assert abs(value - direct) <= res.budget
    assert res.budget == res.tail + res.quad_error + res.coverage_gap
    assert res.quad_error == pytest.approx(res.tail * h * ell / (4.0 * math.pi * t_max),
                                           rel=1e-12)
    # quad_step caps the step, and halving it moves the value far inside
    # the budget
    half = contour_sum(series, spec, t_max, quad_step=h / 2.0)
    assert half.quad_step <= h / 2.0
    assert abs(complex(half.value, half.imag_part) - value) <= 0.01 * res.budget


def test_chosen_abscissa_ignores_terms_beyond_support():
    spec = WeightSpec(x=100.0, ell=2, eps=0.1)
    cap = support_cap(spec)
    exact, long = zeta_log_deriv(cap), zeta_log_deriv(4 * cap)
    a, b = contour_sum(exact, spec, 100.0), contour_sum(long, spec, 100.0)
    assert (a.value, a.budget, a.sigma0) == (b.value, b.budget, b.sigma0)
    # the caller's series keeps its own line
    assert long.sigma0 == 2.0
    # the reported tail is the bound at the reported line, with the exact
    # absolute sum of the finite polynomial
    z = float(np.sum(np.abs(exact.coeffs) * exact.values.astype(float) ** -a.sigma0))
    assert a.tail == pytest.approx(tail_bound(spec, 100.0, a.sigma0, z), rel=1e-12)


def test_coverage_gap_counts_missing_mass():
    spec = WeightSpec(x=100.0, ell=2, eps=0.1)
    short = zeta_log_deriv(60)  # support reaches ~110
    res = contour_sum(short, spec, t_max=100.0)
    assert res.coverage_gap > 0
    direct = weighted_prime_sum(trivial_extension(), ConjClass(FULL), spec)
    assert abs(res.value - direct) <= res.budget


def test_contour_domain_errors():
    spec_ok = WeightSpec(x=50.0, ell=2, eps=0.1)
    series = zeta_log_deriv(100)
    with pytest.raises(DomainError):
        contour_sum(series, WeightSpec(x=50.0, ell=1, eps=0.1), 100.0)
    with pytest.raises(DomainError):
        contour_sum(series, spec_ok, 5.0)
    with pytest.raises(DomainError):
        contour_sum(series, spec_ok, 100.0, quad_step=0.0)
    with pytest.raises(DomainError):
        tail_bound(spec_ok, 0.0, 2.0, 1.0)
