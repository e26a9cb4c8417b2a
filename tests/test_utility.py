"""Preference model: closed-form optimum against brute-force oracles.

The grid searches and finite differences here are independent of the
library's own formulas; they are the ground truth the closed forms must
beat or match.
"""

import random

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thirdrule import (
    Allocation,
    DomainError,
    Money,
    UtilityParams,
    ValidationError,
    deviation_utility_loss,
    make_allocation,
    optimal_allocation,
    penalty_coefficient,
    penalty_quadratic,
    utility,
    utility_at,
    utility_gradient,
    verify_first_order,
)
from fractions import Fraction

from thirdrule.domain import MAX_CENTS


def _random_params(rng: random.Random) -> UtilityParams:
    a = rng.uniform(0.05, 0.9)
    b = rng.uniform(0.05, 0.95 - a)
    return UtilityParams(alpha=a, beta=b, gamma=1.0 - a - b)


class TestUtilityParams:
    def test_symmetric(self):
        p = UtilityParams.symmetric()
        assert p.alpha == p.beta == p.gamma
        assert abs(p.alpha - 1.0 / 3.0) < 1e-15

    def test_exponents_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            UtilityParams(alpha=0.5, beta=0.5, gamma=0.5)

    def test_exponents_must_be_positive(self):
        with pytest.raises(ValidationError):
            UtilityParams(alpha=0.0, beta=0.5, gamma=0.5)


class TestUtilityAt:
    def test_matches_direct_power_product(self):
        p = UtilityParams(alpha=0.5, beta=0.3, gamma=0.2)
        for d, s, e in [(1.0, 1.0, 1.0), (10.0, 20.0, 30.0), (0.3, 7.0, 2.5)]:
            expected = d**0.5 * s**0.3 * e**0.2
            assert utility_at(p, d, s, e) == pytest.approx(expected, rel=1e-15)

    def test_zero_component_gives_zero(self):
        p = UtilityParams.symmetric()
        assert utility_at(p, 0.0, 5.0, 5.0) == 0.0

    def test_negative_rejected(self):
        p = UtilityParams.symmetric()
        with pytest.raises(DomainError):
            utility_at(p, -1.0, 1.0, 1.0)

    def test_utility_of_allocation(self):
        p = UtilityParams.symmetric()
        a = make_allocation(Money.of("60000"), (Fraction(1, 3),) * 3)
        assert utility(p, a) == pytest.approx(20000.0, rel=1e-12)


class TestOptimalAllocation:
    def test_symmetric_60000_exact(self):
        a = optimal_allocation(UtilityParams.symmetric(), Money.of("60000"))
        assert (a.debt.cents, a.savings.cents, a.expenses.cents) == (2000000,) * 3

    def test_asymmetric_shares(self):
        a = optimal_allocation(UtilityParams(alpha=0.5, beta=0.3, gamma=0.2), Money.of("10"))
        assert (a.debt.cents, a.savings.cents, a.expenses.cents) == (500, 300, 200)

    def test_beats_exhaustive_cent_grid_small_income(self):
        # every integer-cent allocation of 3.00, full enumeration
        params = UtilityParams.symmetric()
        income = Money.of("3.00")
        best = optimal_allocation(params, income)
        best_u = utility(params, best)
        for d in range(income.cents + 1):
            for s in range(income.cents + 1 - d):
                e = income.cents - d - s
                u = utility_at(params, d / 100.0, s / 100.0, e / 100.0)
                assert u <= best_u + 1e-12 * best_u

    def test_beats_exhaustive_cent_grid_asymmetric(self):
        params = UtilityParams(alpha=0.6, beta=0.25, gamma=0.15)
        income = Money.of("5.00")
        best_u = utility(params, optimal_allocation(params, income))
        cents = income.cents
        d = np.arange(cents + 1).reshape(-1, 1)
        s = np.arange(cents + 1).reshape(1, -1)
        e = cents - d - s
        valid = e >= 0
        grid_u = np.where(
            valid,
            (d / 100.0) ** params.alpha
            * (s / 100.0) ** params.beta
            * (np.maximum(e, 0) / 100.0) ** params.gamma,
            0.0,
        )
        assert float(np.max(grid_u)) <= best_u + 1e-12 * best_u

    def test_identity_and_first_order(self):
        rng = random.Random(7)
        for _ in range(20):
            params = _random_params(rng)
            income = Money.of(round(rng.uniform(1000, 200000), 2))
            a = optimal_allocation(params, income)
            assert a.debt.cents + a.savings.cents + a.expenses.cents == income.cents
            assert verify_first_order(params, a, tol=1e-3)

    def test_zero_income(self):
        a = optimal_allocation(UtilityParams.symmetric(), Money.zero())
        assert a.income.cents == 0

    def test_large_rounding_overshoot_comes_back_from_savings_then_debt(self):
        params = UtilityParams(1.0000000000004, 1e-13, 1e-13)
        rounded = round(params.alpha * MAX_CENTS) + round(params.beta * MAX_CENTS)
        assert rounded - MAX_CENTS == 4503
        a = optimal_allocation(params, Money(MAX_CENTS))
        assert (a.debt.cents, a.savings.cents, a.expenses.cents) == (MAX_CENTS, 0, 0)


class TestVerifyFirstOrder:
    def test_rejects_off_optimum(self):
        params = UtilityParams.symmetric()
        skewed = make_allocation(
            Money.of("60000"), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        )
        assert not verify_first_order(params, skewed, tol=1e-6)

    def test_zero_component_is_out_of_domain(self):
        params = UtilityParams.symmetric()
        a = make_allocation(Money.of("1.00"), (Fraction(1, 2), Fraction(1, 2), Fraction(0, 1)))
        with pytest.raises(DomainError):
            verify_first_order(params, a, tol=1e-6)


class TestGradient:
    def test_against_central_differences(self):
        rng = random.Random(123)
        for _ in range(100):
            params = _random_params(rng)
            d = rng.uniform(5.0, 500.0)
            s = rng.uniform(5.0, 500.0)
            e = rng.uniform(5.0, 500.0)
            total = Money.of(round(d + s + e, 2))
            alloc = Allocation(
                total,
                Money.of(round(d, 2)),
                Money.of(round(s, 2)),
                total - Money.of(round(d, 2)) - Money.of(round(s, 2)),
            )
            grad = utility_gradient(params, alloc)
            dd, ss, ee = alloc.debt.units, alloc.savings.units, alloc.expenses.units
            for axis, (x, g) in enumerate(zip((dd, ss, ee), grad)):
                h = 1e-6 * x
                args_hi = [dd, ss, ee]
                args_lo = [dd, ss, ee]
                args_hi[axis] += h
                args_lo[axis] -= h
                fd = (utility_at(params, *args_hi) - utility_at(params, *args_lo)) / (2 * h)
                assert g == pytest.approx(fd, rel=1e-6)


class TestDeviationPenalty:
    def test_exact_loss_matches_direct_recomputation(self):
        params = UtilityParams.symmetric()
        income = Money.of("60000")
        third = 20000.0
        for d in (1.0, 100.0, -250.0, 4999.0):
            expected = utility_at(params, third, third, third) - utility_at(
                params, third - d, third + d, third
            )
            assert deviation_utility_loss(params, income, d) == pytest.approx(
                expected, rel=1e-12
            )

    def test_loss_positive_and_even_in_sign_to_second_order(self):
        params = UtilityParams.symmetric()
        income = Money.of("300")
        plus = deviation_utility_loss(params, income, 1.0)
        minus = deviation_utility_loss(params, income, -1.0)
        assert plus > 0 and minus > 0
        assert plus == pytest.approx(minus, rel=1e-2)

    def test_small_deviation_curvature_limit(self):
        # finite-difference verified: the exact second-order coefficient of
        # the swap deviation at unit thirds is 1/3, approached from below
        params = UtilityParams.symmetric()
        income = Money.of("3")
        for d, rel in ((1e-2, 1e-2), (1e-3, 1e-3), (1e-4, 1e-4)):
            ratio = deviation_utility_loss(params, income, d) / d**2
            assert ratio == pytest.approx(1.0 / 3.0, rel=3 * rel)

    def test_deviation_must_stay_inside_third(self):
        params = UtilityParams.symmetric()
        with pytest.raises(DomainError):
            deviation_utility_loss(params, Money.of("300"), 100.0)

    def test_penalty_quadratic_printed_example(self):
        assert penalty_quadratic(0.01, 5000.0) == 250000.0

    def test_penalty_quadratic_scaling(self):
        assert penalty_quadratic(2.0, 3.0) == 18.0
        assert penalty_quadratic(2.0, -3.0) == 18.0

    def test_penalty_coefficient_unit_income(self):
        # symmetric params, income 3: U* = 1, coefficient 2U*/(9 (I/3)^2)
        params = UtilityParams.symmetric()
        k = penalty_coefficient(params, Money.of("3"))
        assert k == pytest.approx(2.0 / 9.0, rel=1e-12)

    def test_penalty_coefficient_requires_symmetry(self):
        with pytest.raises(DomainError):
            penalty_coefficient(
                UtilityParams(alpha=0.5, beta=0.3, gamma=0.2), Money.of("3")
            )


# ---------------------------------------------------------------------------
# properties over exponents and incomes, against exact and mpmath oracles

@st.composite
def _params(draw):
    alpha, part = draw(st.tuples(*[st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)] * 2))
    beta = part * (1.0 - alpha)  # savings take a part of what debt leaves
    assume(beta > 0.0 and 1.0 - alpha - beta > 0.0)
    return UtilityParams(alpha, beta, 1.0 - alpha - beta)


_CENTS = st.one_of(st.integers(0, 10**9), st.integers(0, MAX_CENTS))


def _mp_utility(params, debt, savings, expenses):
    """Cobb-Douglas utility at working precision."""
    return debt ** mpmath.mpf(params.alpha) * savings ** mpmath.mpf(params.beta) * (
        expenses ** mpmath.mpf(params.gamma)
    )


@settings(max_examples=300, deadline=None)
@given(_params(), _CENTS)
@example(UtilityParams(0.3, 0.7, 1e-13), 5)  # the exact shares 1.4999… and 3.4999… round down
# both shares a hair past half a cent round up, a cent past income
@example(UtilityParams(0.5 + 1e-13, 0.5 + 1e-13, 1e-13), 1)
# the exact share 0.50000000000000007 rounds up, the float product 0.5 down
@example(UtilityParams(0.16666666666666669, 0.5, 1 - 0.16666666666666669 - 0.5), 3)
def test_optimal_allocation_rounds_the_exponent_shares(params, cents):
    a = optimal_allocation(params, Money(cents))
    assert a.debt.cents + a.savings.cents + a.expenses.cents == cents
    # each exact share rounds half-to-even; shares past income give the
    # overshoot back, from savings first
    debt_c, savings_c = (round(Fraction(x) * cents) for x in (params.alpha, params.beta))
    over = max(debt_c + savings_c - cents, 0)
    back = min(over, savings_c)
    assert (a.debt.cents, a.savings.cents) == (debt_c - (over - back), savings_c - back)


@settings(max_examples=200, deadline=None)
@given(_params(), st.lists(st.integers(1, MAX_CENTS // 3), min_size=3, max_size=3))
def test_gradient_matches_the_mpmath_derivative(params, buckets):
    debt, savings, expenses = map(Money, buckets)
    grad = utility_gradient(params, Allocation(debt + savings + expenses, debt, savings, expenses))
    with mpmath.workdps(40):
        point = [mpmath.mpf(m.cents) / 100 for m in (debt, savings, expenses)]
        for axis, g in enumerate(grad):
            order = [0, 0, 0]
            order[axis] = 1
            want = mpmath.diff(lambda *x: _mp_utility(params, *x), point, tuple(order))
            assert g == pytest.approx(float(want), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(300, MAX_CENTS), st.floats(1e-4, 1e-3), st.booleans())
@example(300, 1e-4, False)  # criterion 03's inputs
def test_deviation_loss_over_d_squared_tends_to_u_star_over_3_t_squared(cents, x, negative):
    params = UtilityParams.symmetric()
    t = cents / 100 / 3.0
    d = -x * t if negative else x * t
    with mpmath.workdps(40):
        limit = _mp_utility(params, t, t, t) / (3 * mpmath.mpf(t) ** 2)
    ratio = deviation_utility_loss(params, Money(cents), d) / d**2
    # the series' next term is x**2 / 3 of the limit; the float loss
    # cancels about 1e-15 of U*, or 1e-15 / x**2 of the limit
    assert ratio == pytest.approx(float(limit), rel=x**2 + 1e-14 / x**2)
