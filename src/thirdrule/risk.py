"""Probit-style bankruptcy risk from leverage, savings cover, and volatility.

The risk index is a linear combination of the debt-to-income ratio, the
savings-to-expense ratio, and the two volatilities, pushed through the
standard normal CDF.  Default weights follow the convention that leverage
and volatility raise risk while savings cover lowers it; they are
illustrative, not fitted to data, and every field can be overridden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DomainError, ValidationError, finite_number, nonnegative_ratio

DEFAULT_DTI_LIMIT = 0.36
DEFAULT_SER_FLOOR = 1.0


@dataclass(frozen=True)
class RiskParams:
    """Index weights and the two stability thresholds."""

    beta_dti: float = 2.0
    beta_ser: float = -1.0
    beta_sigma_income: float = 1.0
    beta_sigma_market: float = 0.5
    dti_limit: float = DEFAULT_DTI_LIMIT
    ser_floor: float = DEFAULT_SER_FLOOR

    def __post_init__(self) -> None:
        for field in fields(self):
            finite_number(getattr(self, field.name), field.name)
        if self.dti_limit <= 0:
            raise ValidationError("dti_limit must be positive")
        if self.ser_floor <= 0:
            raise ValidationError("ser_floor must be positive")


@dataclass(frozen=True)
class StabilityFlags:
    """Inclusive threshold checks: leverage at or under the limit, savings
    cover at or over the floor."""

    dti_ok: bool
    ser_ok: bool


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bankruptcy_probability(
    params: RiskParams,
    dti: float,
    ser: float,
    sigma_income: float = 0.0,
    sigma_market: float = 0.0,
) -> float:
    """Probability that the household's risk index crosses the default
    threshold.  With zero volatilities this reduces to the two-ratio form."""
    for label, value in (
        ("dti", dti),
        ("ser", ser),
        ("sigma_income", sigma_income),
        ("sigma_market", sigma_market),
    ):
        nonnegative_ratio(value, label)
    index = (
        params.beta_dti * dti
        + params.beta_ser * ser
        + params.beta_sigma_income * sigma_income
        + params.beta_sigma_market * sigma_market
    )
    if not math.isfinite(index):
        raise DomainError("risk index overflows a float")
    return std_normal_cdf(index)


def classify_stability(params: RiskParams, dti: float, ser: float) -> StabilityFlags:
    return StabilityFlags(dti_ok=dti <= params.dti_limit, ser_ok=ser >= params.ser_floor)
