"""Volatility-driven shifts away from equal thirds."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thirdrule import (
    AdjustMode,
    AdjustmentFactors,
    DomainError,
    MAX_SHIFT,
    Money,
    RiskParams,
    ValidationError,
    adjusted_allocation,
    adjustment_factors,
    zero_sum_defect,
)
from thirdrule.domain import MAX_CENTS


class TestAdjustmentFactors:
    def test_closed_forms_under_default_coefficients(self):
        # debt and expense shifts: beta_si * si^2 / (2 beta_dti)
        # savings shift: (beta_si * si^2 + beta_sm * sm^2) / (2 |beta_ser|)
        f = adjustment_factors(RiskParams(), 0.1, 0.1)
        assert f.debt_shift == pytest.approx((1.0 * 0.01) / (2.0 * 2.0), rel=1e-15)
        assert f.expenses_shift == pytest.approx((1.0 * 0.01) / (2.0 * 2.0), rel=1e-15)
        assert f.savings_shift == pytest.approx(
            (1.0 * 0.01 + 0.5 * 0.01) / (2.0 * 1.0), rel=1e-15
        )
        assert not f.clamped

    def test_zero_volatility_means_zero_shift(self):
        f = adjustment_factors(RiskParams(), 0.0, 0.0)
        assert (f.debt_shift, f.savings_shift, f.expenses_shift) == (0.0, 0.0, 0.0)
        assert zero_sum_defect(f) == 0.0

    def test_clamped_at_max_shift(self):
        f = adjustment_factors(RiskParams(), 5.0, 5.0)
        assert f.debt_shift == MAX_SHIFT
        assert f.savings_shift == MAX_SHIFT
        assert f.clamped

    def test_clamp_preserves_sign(self):
        # a negative debt coefficient flips the shift direction
        params = RiskParams(beta_dti=-2.0)
        f = adjustment_factors(params, 5.0, 0.0)
        assert f.debt_shift == -MAX_SHIFT
        assert f.clamped

    def test_zero_denominator_coefficients_rejected(self):
        with pytest.raises(ValidationError):
            adjustment_factors(RiskParams(beta_dti=0.0), 0.1, 0.1)
        with pytest.raises(ValidationError):
            adjustment_factors(RiskParams(beta_ser=0.0), 0.1, 0.1)

    @pytest.mark.parametrize("name", ["sigma_income", "sigma_market"])
    @pytest.mark.parametrize("bad", [-0.1, -math.inf, math.inf, math.nan])
    def test_bad_volatility_names_its_argument(self, name, bad):
        sigmas = {"sigma_income": 0.1, "sigma_market": 0.1, name: bad}
        message = f"{name} must be a nonnegative finite ratio"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            adjustment_factors(RiskParams(), **sigmas)

    @pytest.mark.parametrize(
        "params, sigma_income, sigma_market",
        [
            (RiskParams(beta_sigma_market=-1.0), 1e200, 1e200),  # inf + -inf
            (RiskParams(), 1e200, 0.0),  # one term overflows
            (RiskParams(beta_sigma_income=1e308), 10.0, 0.0),
        ],
    )
    def test_variance_overflow_names_the_inputs(self, params, sigma_income, sigma_market):
        message = (
            r"beta_sigma_income \* sigma_income\*\*2 \+ beta_sigma_market \* sigma_market\*\*2"
            " is not a finite number"
        )
        with pytest.raises(ValidationError, match=f"^{message}$"):
            adjustment_factors(params, sigma_income, sigma_market)

    def test_factor_bounds_validated(self):
        with pytest.raises(ValidationError):
            AdjustmentFactors(debt_shift=0.4, savings_shift=0.0, expenses_shift=0.0)


class TestZeroSumDefect:
    def test_signed_combination(self):
        f = AdjustmentFactors(debt_shift=0.01, savings_shift=0.05, expenses_shift=0.02)
        assert zero_sum_defect(f) == -0.01 + 0.05 - 0.02

    def test_balanced_dyadic_shifts_have_exactly_zero_defect(self):
        f = AdjustmentFactors(debt_shift=0.0625, savings_shift=0.09375, expenses_shift=0.03125)
        assert zero_sum_defect(f) == 0.0


class TestAdjustedAllocation:
    def test_zero_shift_recovers_exact_thirds(self):
        f = AdjustmentFactors(debt_shift=0.0, savings_shift=0.0, expenses_shift=0.0)
        for mode in AdjustMode:
            a = adjusted_allocation(Money.of("60000"), f, mode)
            assert (a.debt.cents, a.savings.cents, a.expenses.cents) == (2000000,) * 3

    def test_residual_mode_worked_example(self):
        f = adjustment_factors(RiskParams(), 0.1, 0.1)
        a = adjusted_allocation(Money.of("90000"), f, AdjustMode.RESIDUAL_EXPENSES)
        # (1/3 - 0.0025, 1/3 + 0.0075) of 90000, expenses keep the rest
        assert str(a.debt) == "29775.00"
        assert str(a.savings) == "30675.00"
        assert str(a.expenses) == "29550.00"

    def test_each_share_rounds_its_exact_value(self):
        # the exact shares of 1800 cents are 595.4999... and 613.4999...;
        # their float products round to 595.5 and 613.5, which would give
        # debt 5.96, savings 6.14 and expenses 5.90
        f = adjustment_factors(RiskParams(), 0.1, 0.1)
        a = adjusted_allocation(Money.of("18"), f, AdjustMode.RESIDUAL_EXPENSES)
        assert (str(a.debt), str(a.savings), str(a.expenses)) == ("5.95", "6.13", "5.92")

    def test_modes_agree_exactly_when_defect_vanishes(self):
        # dyadic shifts make the defect exactly 0.0 in floating point
        f = AdjustmentFactors(
            debt_shift=0.015625, savings_shift=0.046875, expenses_shift=0.03125
        )
        assert zero_sum_defect(f) == 0.0
        for raw in ("60000", "41000.37", "99.99"):
            income = Money.of(raw)
            res = adjusted_allocation(income, f, AdjustMode.RESIDUAL_EXPENSES)
            pro = adjusted_allocation(income, f, AdjustMode.PROPORTIONAL_RESCALE)
            assert res == pro

    def test_identity_exact_in_both_modes_random_factors(self):
        rng = random.Random(31)
        for _ in range(1000):
            f = AdjustmentFactors(
                debt_shift=rng.uniform(-0.12, 0.12),
                savings_shift=rng.uniform(-0.12, 0.12),
                expenses_shift=rng.uniform(-0.12, 0.12),
            )
            income = Money.of(round(rng.uniform(100, 500000), 2))
            for mode in AdjustMode:
                a = adjusted_allocation(income, f, mode)
                assert a.debt.cents + a.savings.cents + a.expenses.cents == income.cents

    def test_proportional_rescale_normalizes_oversubscription(self):
        f = AdjustmentFactors(debt_shift=-0.2, savings_shift=0.2, expenses_shift=-0.1)
        income = Money.of("30000")
        a = adjusted_allocation(income, f, AdjustMode.PROPORTIONAL_RESCALE)
        assert a.debt.cents + a.savings.cents + a.expenses.cents == income.cents
        total = 1.0 + zero_sum_defect(f)
        assert a.debt.cents == round((1 / 3 + 0.2) / total * income.cents)

    def test_residual_mode_rejects_negative_expenses(self):
        f = AdjustmentFactors(debt_shift=-0.33, savings_shift=0.33, expenses_shift=0.0)
        with pytest.raises(DomainError):
            adjusted_allocation(Money.of("1000"), f, AdjustMode.RESIDUAL_EXPENSES)
        # the same factors pass through the rescaling mode
        a = adjusted_allocation(Money.of("1000"), f, AdjustMode.PROPORTIONAL_RESCALE)
        assert a.income.cents == 100000


# ---------------------------------------------------------------------------
# properties over every factor AdjustmentFactors accepts and every income

_SHIFTS = st.one_of(
    st.floats(-MAX_SHIFT, MAX_SHIFT),
    st.sampled_from([-MAX_SHIFT, MAX_SHIFT, 0.0, -0.0]),
)
_FACTORS = st.builds(AdjustmentFactors, _SHIFTS, _SHIFTS, _SHIFTS)
_INCOMES = st.one_of(st.integers(0, MAX_CENTS), st.integers(0, 10**7)).map(Money)


def _outcome(income, factors, mode):
    """The allocation, or the DomainError's message."""
    try:
        return adjusted_allocation(income, factors, mode)
    except DomainError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(_FACTORS, _INCOMES)
@example(AdjustmentFactors(-MAX_SHIFT, MAX_SHIFT, MAX_SHIFT), Money(2))
@example(AdjustmentFactors(-MAX_SHIFT, MAX_SHIFT, -MAX_SHIFT), Money(MAX_CENTS))
def test_both_modes_keep_the_cent_identity(factors, income):
    # Allocation checks the sum, and Money that each bucket is nonnegative
    a = adjusted_allocation(income, factors, AdjustMode.PROPORTIONAL_RESCALE)
    assert a.debt.cents + a.savings.cents + a.expenses.cents == income.cents
    try:
        a = adjusted_allocation(income, factors, AdjustMode.RESIDUAL_EXPENSES)
    except DomainError as exc:
        assert "negative after rounding" in str(exc)
    else:
        assert a.debt.cents + a.savings.cents + a.expenses.cents == income.cents


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-MAX_SHIFT / 2, MAX_SHIFT / 2), st.floats(-MAX_SHIFT / 2, MAX_SHIFT / 2), _INCOMES
)
def test_the_modes_agree_when_the_defect_is_zero(debt_shift, expenses_shift, income):
    f = AdjustmentFactors(debt_shift, debt_shift + expenses_shift, expenses_shift)
    assume(zero_sum_defect(f) == 0.0)
    assert _outcome(income, f, AdjustMode.RESIDUAL_EXPENSES) == _outcome(
        income, f, AdjustMode.PROPORTIONAL_RESCALE
    )


@settings(max_examples=200, deadline=None)
@given(_FACTORS, _INCOMES, st.sampled_from(AdjustMode))
@example(adjustment_factors(RiskParams(), 0.1, 0.1), Money(1800), AdjustMode.RESIDUAL_EXPENSES)
@example(adjustment_factors(RiskParams(), 0.1, 0.1), Money(4200), AdjustMode.PROPORTIONAL_RESCALE)
def test_debt_and_savings_round_their_exact_shares(factors, income, mode):
    # each share is the float the mode computes; Fraction holds it exactly,
    # and round() of a Fraction is half-to-even
    shares = (1.0 / 3.0 - factors.debt_shift, 1.0 / 3.0 + factors.savings_shift)
    if mode is AdjustMode.PROPORTIONAL_RESCALE:
        shares = tuple(share / (1.0 + zero_sum_defect(factors)) for share in shares)
    debt_c, savings_c = (round(Fraction(share) * income.cents) for share in shares)
    expenses_c = income.cents - debt_c - savings_c
    got = _outcome(income, factors, mode)
    if expenses_c < 0:
        assert mode is AdjustMode.RESIDUAL_EXPENSES and "negative after rounding" in got
    else:
        got_c = (got.debt.cents, got.savings.cents, got.expenses.cents)
        assert got_c == (debt_c, savings_c, expenses_c)


_WEIGHTS = st.one_of(st.floats(-1e6, 1e6), st.floats(allow_nan=False, allow_infinity=False))
_SIGMAS = st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1e200))


@settings(max_examples=100, deadline=None)
@given(_WEIGHTS, _WEIGHTS, _WEIGHTS, _WEIGHTS, _SIGMAS, _SIGMAS)
def test_the_clamp_keeps_each_shifts_sign(beta_dti, beta_ser, beta_si, beta_sm, sigma_i, sigma_m):
    assume(beta_dti != 0 and beta_ser != 0)
    params = RiskParams(
        beta_dti=beta_dti, beta_ser=beta_ser, beta_sigma_income=beta_si, beta_sigma_market=beta_sm
    )
    income_var = beta_si * sigma_i * sigma_i
    market_var = beta_sm * sigma_m * sigma_m
    assume(math.isfinite(income_var + market_var))  # else a ValidationError names them
    f = adjustment_factors(params, sigma_i, sigma_m)
    raw = (
        income_var / (2.0 * beta_dti),
        (income_var + market_var) / (2.0 * abs(beta_ser)),
        income_var / (2.0 * beta_dti),
    )
    shifts = (f.debt_shift, f.savings_shift, f.expenses_shift)
    for shift, want in zip(shifts, raw):
        assert math.copysign(1.0, shift) == math.copysign(1.0, want)
        assert abs(shift) == min(abs(want), MAX_SHIFT)
    assert f.clamped == any(abs(want) > MAX_SHIFT for want in raw)
