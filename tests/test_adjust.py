"""Volatility-driven shifts away from equal thirds."""

import math
import random

import pytest

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
