"""Volatility-driven shifts away from the equal-thirds split.

Each factor scales with variance over the matching risk weight:

    debt_shift     = beta_sigma_income * sigma_i**2 / (2 * beta_dti)
    savings_shift  = (beta_sigma_income * sigma_i**2
                      + beta_sigma_market * sigma_m**2) / (2 * |beta_ser|)
    expenses_shift = beta_sigma_income * sigma_i**2 / (2 * beta_dti)

The absolute value on beta_ser is deliberate: its default weight is
negative (savings cover lowers risk) while the shift toward savings must
be positive under higher volatility.  Shares become
(1/3 - debt_shift, 1/3 + savings_shift, 1/3 - expenses_shift), which only
sums to one on a measure-zero set of parameters; the two projection modes
below restore the budget identity either by letting expenses absorb the
gap or by rescaling all three shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .domain import Allocation, Money, _round_div
from .errors import DomainError, ValidationError, finite_number, nonnegative_ratio
from .risk import RiskParams

# Shares must stay positive, so shift magnitudes are capped just under 1/3.
MAX_SHIFT = 0.33


class AdjustMode(str, Enum):
    RESIDUAL_EXPENSES = "residual_expenses"
    PROPORTIONAL_RESCALE = "proportional_rescale"


@dataclass(frozen=True)
class AdjustmentFactors:
    """Signed share shifts.  Positive debt/expenses shifts shrink those
    buckets; a positive savings shift grows savings."""

    debt_shift: float
    savings_shift: float
    expenses_shift: float
    clamped: bool = False

    def __post_init__(self) -> None:
        for name in ("debt_shift", "savings_shift", "expenses_shift"):
            if abs(finite_number(getattr(self, name), name)) > MAX_SHIFT:
                raise ValidationError(f"{name} magnitude must not exceed {MAX_SHIFT}")


def adjustment_factors(
    params: RiskParams, sigma_income: float, sigma_market: float
) -> AdjustmentFactors:
    """Compute the three shifts from volatilities and risk weights.

    Magnitudes are clamped to MAX_SHIFT; the result records whether any
    clamp fired.
    """
    if params.beta_dti == 0 or params.beta_ser == 0:
        raise ValidationError("beta_dti and beta_ser must be nonzero to scale adjustments")
    nonnegative_ratio(sigma_income, "sigma_income")
    nonnegative_ratio(sigma_market, "sigma_market")
    income_var = params.beta_sigma_income * sigma_income * sigma_income
    market_var = params.beta_sigma_market * sigma_market * sigma_market
    if not math.isfinite(income_var + market_var):
        raise ValidationError(
            "beta_sigma_income * sigma_income**2 + beta_sigma_market * sigma_market**2"
            " is not a finite number"
        )
    raw_debt = raw_expenses = income_var / (2.0 * params.beta_dti)
    raw_savings = (income_var + market_var) / (2.0 * abs(params.beta_ser))
    clamped = False
    shifts = []
    for raw in (raw_debt, raw_savings, raw_expenses):
        if abs(raw) > MAX_SHIFT:
            clamped = True
            raw = math.copysign(MAX_SHIFT, raw)
        shifts.append(raw)
    return AdjustmentFactors(shifts[0], shifts[1], shifts[2], clamped=clamped)


def zero_sum_defect(factors: AdjustmentFactors) -> float:
    """Signed gap -debt_shift + savings_shift - expenses_shift.

    Zero exactly when the three adjusted shares still sum to one.
    """
    return -factors.debt_shift + factors.savings_shift - factors.expenses_shift


def adjusted_allocation(
    income: Money,
    factors: AdjustmentFactors,
    mode: AdjustMode = AdjustMode.RESIDUAL_EXPENSES,
) -> Allocation:
    """Apply the shifted shares to an income.

    residual_expenses rounds debt and savings, each share's exact value of
    income half-to-even, and lets expenses absorb the remainder;
    proportional_rescale divides all three shares by their sum first.  The
    two modes agree bit for bit when the zero-sum defect vanishes.
    """
    mode = AdjustMode(mode)
    third = 1.0 / 3.0
    share_debt = third - factors.debt_shift
    share_savings = third + factors.savings_shift
    share_expenses = third - factors.expenses_shift
    for share, name in (
        (share_debt, "debt"),
        (share_savings, "savings"),
        (share_expenses, "expenses"),
    ):
        if share < 0:
            raise DomainError(f"adjusted {name} share is negative ({share})")
    if mode is AdjustMode.PROPORTIONAL_RESCALE:
        # Same expression as zero_sum_defect so a zero defect gives a
        # divisor of exactly 1.0 and both modes coincide.
        total = 1.0 + zero_sum_defect(factors)
        share_debt /= total
        share_savings /= total
    cents = income.cents
    # each share's exact value, not the float product, rounds half-to-even
    debt_c, savings_c = (
        _round_div(cents * num, den)
        for num, den in (share_debt.as_integer_ratio(), share_savings.as_integer_ratio())
    )
    expenses_c = cents - debt_c - savings_c
    if expenses_c < 0:
        raise DomainError(
            "adjusted expenses share is negative after rounding; "
            "use proportional_rescale when shares oversubscribe the budget"
        )
    return Allocation(income, Money(debt_c), Money(savings_c), Money(expenses_c))
