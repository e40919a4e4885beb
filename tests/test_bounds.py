import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebkit.bounds import (ASYMPTOTIC_REGIME_CUTOFF, FieldInvariants,
                            brun_titchmarsh_constant, density_bound, density_bound_from_L,
                            deuring_heilbronn_exclusion, deuring_heilbronn_from_L,
                            extension_complexity, log_complexity,
                            low_lying_density_bound, range_thresholds,
                            repulsion_threshold)
from chebkit.errors import DomainError
from chebkit.reports import PowerValue

# C(theta) at each branch point: (closed-branch value, open-side limit).
# The constant jumps at 1/8 and 9/20 and differs by ~1e-6 at 2/3.
BT_BRANCH_POINTS = {
    0.125: (2.0, 16.0 / (8.0 - 3.0 * 0.125)),
    0.45: (16.0 / (8.0 - 3.0 * 0.45), 8.0 / (6.0 - 7.0 * 0.45)),
    2.0 / 3.0: ((2.0 - (1.0 / 12.0) ** 6) * 3.0, 8.0 / (6.0 - 14.0 / 3.0)),
}


def test_invariants_validation():
    with pytest.raises(DomainError):
        FieldInvariants(n_K=0, D_K=1, Q=1)
    with pytest.raises(DomainError):
        FieldInvariants(n_K=1, D_K=0.5, Q=1)
    with pytest.raises(DomainError):
        FieldInvariants(n_K=1, D_K=1, Q=1, delta0=0.5)


# ------------------------------------------------------------ complexity

def test_complexity_degenerate_inputs():
    r = log_complexity(FieldInvariants(n_K=1, D_K=1, Q=1, delta0=1e-3))
    assert r.value == 0.0
    assert not r.asymptotic


def test_complexity_quadratic_example():
    # 2^(5/3) < 5^(4/3), so the discriminant-dominated branch fires
    r = log_complexity(FieldInvariants(n_K=2, D_K=5, Q=1, delta0=1e-12))
    assert not r.degree_dominated
    assert r.value == pytest.approx(math.log(5), rel=1e-9)


def test_complexity_floor():
    # always at least (5/12 + delta0) n log n
    for n, d, q in [(1, 1, 1), (2, 5, 1), (3, 100, 7), (6, 2, 3), (4, 1e6, 1e3)]:
        inv = FieldInvariants(n_K=n, D_K=d, Q=q, delta0=1e-3)
        assert log_complexity(inv).value >= (5 / 12 + 1e-3) * n * math.log(n) - 1e-12


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.floats(1, 1e6), st.floats(1, 1e6), st.floats(1.01, 2.0))
def test_complexity_monotone_within_branch(n, d, q, scale):
    inv1 = FieldInvariants(n_K=n, D_K=d, Q=q)
    inv2 = FieldInvariants(n_K=n, D_K=d * scale, Q=q)
    inv3 = FieldInvariants(n_K=n, D_K=d, Q=q * scale)
    r1, r2, r3 = log_complexity(inv1), log_complexity(inv2), log_complexity(inv3)
    if r1.degree_dominated == r2.degree_dominated:
        assert r2.value >= r1.value - 1e-12
    if r1.degree_dominated == r3.degree_dominated:
        assert r3.value >= r1.value - 1e-12


# ---------------------------------------------------------- density bound

def test_density_bound_example():
    assert density_bound_from_L(1.0, 1, 0.5, 1.0).log == pytest.approx(81.0, abs=1e-12)


def test_density_bound_exponent_zero_identity():
    for L, n, T, c in [(1.0, 1, 1.0, 1.0), (25.0, 3, 100.0, 2.5)]:
        assert density_bound_from_L(L, n, 1.0, T, constant=c).value == pytest.approx(c)


def test_density_bound_near_one_approaches_constant():
    v = density_bound_from_L(5.0, 2, 1 - 1e-12, 10.0, constant=3.0)
    assert v.value == pytest.approx(3.0, rel=1e-8)


def test_density_bound_domain():
    inv = FieldInvariants(n_K=1, D_K=2, Q=3)
    with pytest.raises(DomainError):
        density_bound(inv, 0.5, 0.5)
    with pytest.raises(DomainError):
        density_bound(inv, 0.0, 2.0)
    with pytest.raises(DomainError):
        density_bound(inv, 1.5, 2.0)


# ------------------------------------------------------- low-lying bound

def test_low_lying_values():
    assert low_lying_density_bound(0.0).log == pytest.approx(188.0)
    assert low_lying_density_bound(1.0).log == pytest.approx(350.0)
    assert low_lying_density_bound(0.05, clamp=True).value == 1.0
    assert low_lying_density_bound(0.2, clamp=True).value == 2.0
    assert low_lying_density_bound(0.3, clamp=True).log == pytest.approx(162 * 0.3 + 188)
    with pytest.raises(DomainError):
        low_lying_density_bound(-0.1)


# ------------------------------------------------------------- repulsion

def test_repulsion_branch_values():
    assert repulsion_threshold(0.5) == 0.2866
    assert repulsion_threshold(0.05, eta=0.01) == pytest.approx(0.2103 * math.log(20.0))
    assert repulsion_threshold(0.01, eta=0.02) == 0.44
    # just inside the 0.44 window but with log branch losing
    assert repulsion_threshold(0.08, eta=0.01) == pytest.approx(
        max(0.44, 0.2103 * math.log(1 / 0.08)))


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-6, 2.0), st.floats(1e-6, 0.05))
def test_repulsion_floor_and_monotonicity(lam, eta):
    v = repulsion_threshold(lam, eta)
    assert v >= 0.2866
    if eta <= lam < 0.0875:
        smaller = repulsion_threshold(max(lam / 2, eta), eta)
        assert smaller >= v - 1e-12


# ------------------------------------------------------------- exclusion

def test_exclusion_worked_example():
    got = deuring_heilbronn_from_L(10.0, 1, 0.999, 1.0, c1=1.0)
    assert got == pytest.approx(1 - math.log(100.0) / 810.0, rel=1e-12)


def test_exclusion_tightens_as_zero_approaches_one():
    # the closer the real zero sits to 1, the farther other zeros are
    # repelled: the boundary falls away from 1 by exactly log(10)/810 per
    # decade of 1 - beta1 (log-slow movement)
    prev = None
    for beta1 in (0.99, 0.999, 0.9999, 1 - 1e-9):
        b = deuring_heilbronn_from_L(10.0, 1, beta1, 1.0)
        assert b < 1.0
        if prev is not None:
            d0, b0 = prev
            assert b < b0
            # measured drop equals log(delta0/delta)/810 exactly
            assert b0 - b == pytest.approx(math.log(d0 / (1 - beta1)) / 810.0, rel=1e-9)
        prev = (1 - beta1, b)


def test_exclusion_domain():
    inv = FieldInvariants(n_K=1, D_K=5, Q=2)
    with pytest.raises(DomainError):
        deuring_heilbronn_exclusion(inv, 0.9, 0.5)
    with pytest.raises(DomainError):
        deuring_heilbronn_exclusion(inv, 0.4, 2.0)
    with pytest.raises(DomainError):
        deuring_heilbronn_exclusion(inv, 0.9, 2.0, c1=-1.0)


# ------------------------------------------------- Brun-Titchmarsh const

def test_bt_constant_branches():
    assert brun_titchmarsh_constant(0.1) == 2.0
    assert brun_titchmarsh_constant(0.5) == pytest.approx(3.2)
    assert brun_titchmarsh_constant(0.3) == pytest.approx(16.0 / (8 - 0.9))
    theta = 0.9999
    assert brun_titchmarsh_constant(theta) == pytest.approx(
        (2 - ((1 - theta) / 4) ** 6) / (1 - theta))
    with pytest.raises(DomainError):
        brun_titchmarsh_constant(0.0)
    with pytest.raises(DomainError):
        brun_titchmarsh_constant(1.0)


def test_bt_constant_closed_branch_governs_boundaries():
    # the piecewise formula is discontinuous at the interior boundaries;
    # the value at each boundary must equal its closed-side branch exactly
    assert brun_titchmarsh_constant(0.125) == 2.0
    assert brun_titchmarsh_constant(0.45) == pytest.approx(320.0 / 133.0, rel=1e-15)
    assert brun_titchmarsh_constant(2.0 / 3.0) == pytest.approx(
        (2 - (1.0 / 12.0) ** 6) * 3.0, rel=1e-15)
    gaps = {bp: abs(open_side - closed) for bp, (closed, open_side) in BT_BRANCH_POINTS.items()}
    for bp, (closed, _open) in BT_BRANCH_POINTS.items():
        assert brun_titchmarsh_constant(bp) == pytest.approx(closed, rel=1e-14)
    # known jump magnitudes (the 2/3 one is ~1e-6, the others macroscopic)
    assert gaps[0.125] == pytest.approx(0.0983606557, rel=1e-6)
    assert gaps[0.45] == pytest.approx(0.4010025063, rel=1e-6)
    assert gaps[2.0 / 3.0] == pytest.approx(3.0 / 2985984.0, rel=1e-9)


def test_bt_constant_monotone_in_theta():
    prev = 0.0
    for i in range(1, 1000):
        theta = i / 1000.0
        v = brun_titchmarsh_constant(theta)
        assert v >= prev - 1e-12 or abs(v - prev) < 0.5  # jumps only upward
        prev = v


# ------------------------------------------------------ range thresholds

def test_range_thresholds_rational_field():
    for q in (2.0, 5.0, 97.0):
        inv = FieldInvariants(n_K=1, D_K=1, Q=q)
        rr = range_thresholds(inv)
        expect = PowerValue.sum([PowerValue.power(q, 185), PowerValue.power(q, 130)])
        assert rr.basic.log == pytest.approx(expect.log, rel=1e-12)


def test_extension_complexity_example():
    inv = FieldInvariants(n_K=2, D_K=5, Q=1, degree_LK=2, ramified_primes={5})
    assert extension_complexity(inv) == pytest.approx(2 * math.sqrt(5) * 5)
    assert range_thresholds(inv).complexity == pytest.approx(10 * math.sqrt(5))


def test_range_thresholds_unit_inputs():
    rr = range_thresholds(FieldInvariants(n_K=1, D_K=1, Q=1))
    assert rr.basic.value == pytest.approx(2.0)
    assert rr.sharp.value == pytest.approx(2.0)
    # the balanced form carries three terms, so unit inputs give 3
    assert rr.balanced.value == pytest.approx(3.0)
    assert rr.compact.value == pytest.approx(1.0)


def test_range_threshold_power_law_scaling():
    # with Q large the first term dominates: doubling Q scales it by 2^185
    r1 = range_thresholds(FieldInvariants(n_K=1, D_K=1, Q=50.0)).basic
    r2 = range_thresholds(FieldInvariants(n_K=1, D_K=1, Q=100.0)).basic
    assert r2.log - r1.log == pytest.approx(185 * math.log(2), rel=1e-10)
    # small-Q exact check against direct floats
    rr = range_thresholds(FieldInvariants(n_K=1, D_K=1, Q=1.01))
    assert rr.basic.value == pytest.approx(1.01**185 + 1.01**130, rel=1e-12)


def test_range_threshold_constant_scaling():
    base = range_thresholds(FieldInvariants(n_K=1, D_K=1, Q=5.0))
    scaled = range_thresholds(FieldInvariants(n_K=1, D_K=1, Q=5.0), constant=7.0)
    assert scaled.basic.log - base.basic.log == pytest.approx(math.log(7.0))


# --------------------------------------------------------------- zeros

def test_power_value_helpers():
    assert PowerValue(800.0).value == math.inf
    assert PowerValue.power(10.0, 2.0).value == pytest.approx(100.0)
    s = PowerValue.sum([PowerValue.power(10, 3), PowerValue.power(10, 2)])
    assert s.value == pytest.approx(1100.0)
