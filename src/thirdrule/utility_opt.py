"""Cobb-Douglas utility over (debt repayment, savings, expenses), the
closed-form optimum under the budget constraint, and two checks of a
candidate split: the first-order condition and a grid best response.

With exponents summing to one, utility is homogeneous of degree one and the
budget-constrained maximizer is the proportional split (alpha * I,
beta * I, gamma * I).  The equal-thirds split is that optimum exactly when
all three exponents are one third.  ``_cobb_douglas`` is the one place the
utility expression is written; the planner's action rewards use it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import Allocation, Money, SignedMoney, _split_cents
from .errors import DomainError, ValidationError, finite_number

_EXPONENT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class UtilityParams:
    """Cobb-Douglas exponents for debt repayment, savings, and expenses."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            value = finite_number(getattr(self, name), name)
            if value <= 0:
                raise ValidationError(f"{name} must be positive, got {value}")
        total = self.alpha + self.beta + self.gamma
        if abs(total - 1.0) > _EXPONENT_SUM_TOL:
            raise ValidationError(f"exponents must sum to 1 within {_EXPONENT_SUM_TOL}, got {total}")

    @classmethod
    def symmetric(cls) -> "UtilityParams":
        third = 1.0 / 3.0
        return cls(third, third, third)


def _cobb_douglas(params: UtilityParams, debt, savings, expenses):
    """debt**alpha * savings**beta * expenses**gamma, for floats or numpy
    arrays alike; callers check the domain."""
    return debt**params.alpha * savings**params.beta * expenses**params.gamma


def utility_at(params: UtilityParams, debt: float, savings: float, expenses: float) -> float:
    """Utility at real-valued bucket amounts (currency units).

    Zero in any bucket gives zero utility; negative amounts are outside
    the domain.
    """
    if debt < 0 or savings < 0 or expenses < 0:
        raise DomainError("utility is undefined for negative bucket amounts")
    if debt == 0.0 or savings == 0.0 or expenses == 0.0:
        return 0.0
    return _cobb_douglas(params, debt, savings, expenses)


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
    the exponents.  Debt and savings round their exact shares half-to-even,
    and expenses take the residual cents."""
    alpha, beta = params.alpha.as_integer_ratio(), params.beta.as_integer_ratio()
    cents = _split_cents(income.cents, *alpha, *beta)
    return Allocation(income, *map(Money, cents))


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


def best_response_check(
    params: UtilityParams, income: Money, candidate: Allocation, resolution: Money
) -> bool:
    """Whether no budget-feasible split beats the candidate's utility by
    more than a 1e-9 relative slack, scanning a grid at the given cent
    resolution.  Vacuously true at zero income."""
    if candidate.income.cents != income.cents:
        raise ValidationError("candidate allocation must be on the same income")
    if resolution.cents <= 0:
        raise ValidationError("grid resolution must be positive")
    cents = income.cents
    if cents == 0:
        return True
    import numpy as np  # only this check needs numpy; the rest of the module runs without it

    step = resolution.cents
    marks = np.arange(0, cents + 1, step, dtype=np.int64)
    if marks[-1] != cents:
        marks = np.append(marks, cents)
    debt = marks[:, None].astype(float)
    savings = marks[None, :].astype(float)
    expenses = cents - debt - savings
    with np.errstate(invalid="ignore"):
        grid_utility = np.where(
            expenses >= 0,
            _cobb_douglas(
                params, debt / 100.0, savings / 100.0, np.maximum(expenses, 0.0) / 100.0
            ),
            -np.inf,
        )
    best = float(np.nanmax(grid_utility))
    target = utility(params, candidate)
    return best <= target + 1e-9 * max(abs(target), 1.0)


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
