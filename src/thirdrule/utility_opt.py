"""Cobb-Douglas utility over (debt repayment, savings, expenses) and the
closed-form optimum under the budget constraint.

With exponents summing to one, utility is homogeneous of degree one and the
budget-constrained maximizer is the proportional split (alpha * I,
beta * I, gamma * I).  The equal-thirds split is that optimum exactly when
all three exponents are one third.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import Allocation, Money, SignedMoney, _settle_residual
from .errors import DomainError, ValidationError

_EXPONENT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class UtilityParams:
    """Cobb-Douglas exponents for debt repayment, savings, and expenses."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValidationError(f"{name} must be a number")
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite")
            if value <= 0:
                raise ValidationError(f"{name} must be positive, got {value}")
        total = self.alpha + self.beta + self.gamma
        if abs(total - 1.0) > _EXPONENT_SUM_TOL:
            raise ValidationError(f"exponents must sum to 1 within {_EXPONENT_SUM_TOL}, got {total}")

    @classmethod
    def symmetric(cls) -> "UtilityParams":
        third = 1.0 / 3.0
        return cls(third, third, third)


def utility_at(params: UtilityParams, debt: float, savings: float, expenses: float) -> float:
    """Utility at real-valued bucket amounts (currency units).

    Zero in any bucket gives zero utility; negative amounts are outside
    the domain.
    """
    if debt < 0 or savings < 0 or expenses < 0:
        raise DomainError("utility is undefined for negative bucket amounts")
    if debt == 0.0 or savings == 0.0 or expenses == 0.0:
        return 0.0
    return debt**params.alpha * savings**params.beta * expenses**params.gamma


def utility(params: UtilityParams, allocation: Allocation) -> float:
    return utility_at(
        params,
        allocation.debt.units,
        allocation.savings.units,
        allocation.expenses.units,
    )


def utility_gradient(params: UtilityParams, allocation: Allocation) -> tuple[float, float, float]:
    """Partial derivatives of utility at an interior allocation."""
    d = allocation.debt.units
    s = allocation.savings.units
    e = allocation.expenses.units
    if d == 0.0 or s == 0.0 or e == 0.0:
        raise DomainError("utility gradient needs strictly positive buckets")
    u = utility_at(params, d, s, e)
    return (params.alpha * u / d, params.beta * u / s, params.gamma * u / e)


def optimal_allocation(params: UtilityParams, income: Money) -> Allocation:
    """Budget-constrained utility maximizer: income split in proportion to
    the exponents.  Cent rounding sends the residual to expenses."""
    cents = income.cents
    debt_c, savings_c, expenses_c = _settle_residual(
        cents, round(params.alpha * cents), round(params.beta * cents)
    )
    return Allocation(income, Money(debt_c), Money(savings_c), Money(expenses_c))


def verify_first_order(params: UtilityParams, allocation: Allocation, tol: float) -> bool:
    """Check the stationarity condition alpha/D = beta/S = gamma/E.

    Compares the three weighted marginal utilities pairwise at relative
    tolerance tol.  The allocation must be interior.
    """
    if tol < 0:
        raise ValidationError("tolerance must be nonnegative")
    gd, gs, ge = utility_gradient(params, allocation)
    pairs = ((gd, gs), (gs, ge), (gd, ge))
    for a, b in pairs:
        scale = max(abs(a), abs(b))
        if scale == 0.0:
            continue
        if abs(a - b) > tol * scale:
            return False
    total = allocation.debt.cents + allocation.savings.cents + allocation.expenses.cents
    return total == allocation.income.cents


def deviation_utility_loss(params: UtilityParams, income: Money, d: SignedMoney) -> float:
    """Utility lost by moving d units from savings into debt repayment,
    relative to the equal-thirds split.

    Exact utility difference, no series approximation.  Requires
    |d| < income / 3 so every bucket stays positive.
    """
    third = income.units / 3.0
    if abs(d) >= third:
        raise DomainError("deviation magnitude must be below one third of income")
    base = utility_at(params, third, third, third)
    moved = utility_at(params, third + d, third - d, third)
    return base - moved


def penalty_quadratic(k: float, d: SignedMoney) -> float:
    """Quadratic deviation penalty k * d^2."""
    if not math.isfinite(k) or k < 0:
        raise ValidationError("penalty coefficient must be finite and nonnegative")
    return k * d * d


def penalty_coefficient(params: UtilityParams, income: Money) -> float:
    """Coefficient 2 * U / (9 * (I/3)^2) evaluated at the equal split.

    Only supported for symmetric exponents, where the equal-thirds split
    is the optimum the penalty is anchored to.
    """
    if max(abs(params.alpha - params.beta), abs(params.beta - params.gamma)) > _EXPONENT_SUM_TOL:
        raise DomainError("penalty coefficient is defined for symmetric exponents only")
    if income.cents == 0:
        raise DomainError("penalty coefficient needs positive income")
    third = income.units / 3.0
    u_star = utility_at(params, third, third, third)
    return 2.0 * u_star / (9.0 * third * third)
