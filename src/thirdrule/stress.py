"""Monte Carlo stress testing of allocation rules plus closed-form
debt-clearance and savings projections.

Each trial walks a monthly ledger in integer cents:

1. draw the month's income level (shared discretization with the
   stochastic module), apply the scenario's income shock while active;
2. split the month's income by the rule;
3. expenses due grow with scenario inflation and are paid from the
   expenses bucket, any shortfall from the savings balance;
4. debt accrues the (scenario-scaled) APR monthly; the debt bucket pays
   interest before principal, and interest the bucket cannot cover is
   also drawn from the savings balance;
5. the savings balance takes a market-return shock (correlated with the
   income shock through rho) and then receives the savings bucket plus
   any debt budget left over after full payoff.

A trial defaults in the first month the savings balance would go
negative covering the expense shortfall plus uncovered interest; the
failing month's transactions are not applied.  Households start with a
zero savings balance (the profile schema carries no opening balance).
Unspent expense budget is treated as consumed, not banked.  Every
completed month satisfies the cash identity

    income + savings withdrawals ==
    expenses paid + debt service + savings deposits + residual cash

exactly in cents; the loop checks it and raises ``DomainError`` if not.

The month-only terms (the shock window's income factor, the expenses
due and the monthly debt rate) do not depend on the draws or the
balances, so they are computed once per (profile, scenario) cell and
shared by its trials and rules; the month loop carries only the debt and
savings recursion, the default test and the cash identity.  Building
that schedule checks that income drift, expenses due and interest on the
opening debt stay within ``MAX_CENTS``, and a ``DomainError`` names the
profile or scenario field that breaks the bound.  A trial whose income or
savings still outgrows Money or a float names the field behind it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import count
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .domain import (
    MAX_CENTS,
    AllocationRule,
    HouseholdProfile,
    Money,
    RuleId,
    _round_div,
    _split_cents,
)
from .errors import DebtNeverClearsError, DomainError, ValidationError, finite_number, is_int
from .risk import DEFAULT_DTI_LIMIT, DEFAULT_SER_FLOOR
from .stochastic import PathConfig, income_levels, mix_correlated, derive_trial_rng

_MONTHS_PER_YEAR = 12
_DT = 1.0 / 12.0


@dataclass(frozen=True)
class ScenarioSpec:
    """A named shock window.

    duration_months = 0 means the shock is permanent from its onset.
    """

    name: str
    income_shock: float = 0.0
    apr_multiplier: float = 1.0
    inflation_annual: float = 0.0
    onset_month: int = 1
    duration_months: int = 0

    def __post_init__(self) -> None:
        # A message about one field starts with the field's name, which
        # cli.load_scenarios turns into a JSON path.
        if not isinstance(self.name, str):
            raise ValidationError("name must be a string")
        if not self.name:
            raise ValidationError("scenario name must be nonempty")
        for field_name in ("income_shock", "apr_multiplier", "inflation_annual"):
            finite_number(getattr(self, field_name), field_name)
        if self.income_shock < -1.0:
            raise ValidationError("income_shock cannot cut income below zero")
        if self.apr_multiplier <= 0:
            raise ValidationError("apr_multiplier must be positive")
        if self.inflation_annual <= -1.0:
            raise ValidationError("inflation_annual must exceed -1")
        for field_name in ("onset_month", "duration_months"):
            if not is_int(getattr(self, field_name)):
                raise ValidationError(f"{field_name} must be an integer")
        if self.onset_month < 1:
            raise ValidationError("onset_month counts from 1")
        if self.duration_months < 0:
            raise ValidationError("duration_months must be nonnegative")

    def active(self, month: int) -> bool:
        if month < self.onset_month:
            return False
        if self.duration_months == 0:
            return True
        return month < self.onset_month + self.duration_months

    def months_active_through(self, month: int) -> int:
        """Whole months of the shock window elapsed up to and including
        the given month.  Freezes once the window closes."""
        if month < self.onset_month:
            return 0
        elapsed = month - self.onset_month + 1
        if self.duration_months == 0:
            return elapsed
        return min(elapsed, self.duration_months)


BASELINE_SCENARIO = ScenarioSpec(name="baseline")


@dataclass(frozen=True)
class TrialOutcome:
    defaulted: bool
    default_month: Optional[int]
    debt_cleared_month: Optional[int]
    final_savings: Money
    min_cash_buffer: float
    dti_series: tuple[float, ...]
    ser_series: tuple[float, ...]


@dataclass(frozen=True)
class StressMetrics:
    profile_id: str
    rule: RuleId
    scenario: str
    trials: int
    default_rate: float
    median_clearance_years: Optional[float]
    mean_final_savings: Money
    months_expense_coverage: Optional[float]
    dti_violation_rate: float
    ser_violation_rate: float


def _expenses_due_cents(
    baseline_monthly_cents: int, scenario: ScenarioSpec, month: int
) -> int:
    factor = (1.0 + scenario.inflation_annual) ** (
        scenario.months_active_through(month) / _MONTHS_PER_YEAR
    )
    return round(baseline_monthly_cents * factor)


class _CellTerms(NamedTuple):
    """What a trial's month loop reads that no draw changes."""

    income_units: float
    income_factor: tuple[float, ...]
    due_c: tuple[int, ...]
    rate: tuple[float, ...]


def _out_of_range(field: str, value: float, owner: str, what: str) -> DomainError:
    return DomainError(f"{owner}: {field} {value!r} puts {what} past the money bound")


@lru_cache(maxsize=64)
def _cell_terms(
    profile: HouseholdProfile, scenario: ScenarioSpec, horizon_months: int
) -> _CellTerms:
    """Month schedule of one (profile, scenario) cell, built on its first
    trial and shared by the rest.

    Checks that income drift, expenses due and interest on the opening
    debt stay finite and within ``MAX_CENTS``; the balance only falls, so
    no later month can owe more interest.
    """
    who = f"profile {profile.profile_id!r}"
    where = f"scenario {scenario.name!r}"
    income_units = profile.income.units
    drift_c = income_units * (1.0 + profile.mu * horizon_months * _DT) / _MONTHS_PER_YEAR * 100.0
    if not -math.inf < drift_c <= MAX_CENTS:
        raise _out_of_range("mu", profile.mu, who, "income")

    shock_factor = 1.0 + scenario.income_shock
    monthly_rate_base = profile.debt_apr / _MONTHS_PER_YEAR
    active_rate = monthly_rate_base * scenario.apr_multiplier
    months = range(1, horizon_months + 1)
    active = [scenario.active(month) for month in months]
    income_factor = tuple(shock_factor if a else 1.0 for a in active)
    rate = tuple(active_rate if a else monthly_rate_base for a in active)

    debt_c = profile.debt_balance.cents
    if not debt_c * monthly_rate_base <= MAX_CENTS:
        raise _out_of_range("debt_apr", profile.debt_apr, who, "monthly interest")
    if not debt_c * max(rate) <= MAX_CENTS:
        raise _out_of_range(
            "apr_multiplier", scenario.apr_multiplier, where, f"monthly interest for {who}"
        )

    baseline_monthly_c = _round_div(profile.baseline_expenses.cents, _MONTHS_PER_YEAR)
    try:
        due_c = tuple(_expenses_due_cents(baseline_monthly_c, scenario, month) for month in months)
    except OverflowError:
        due_c = None
    if due_c is None or max(due_c) > MAX_CENTS:
        raise _out_of_range(
            "inflation_annual", scenario.inflation_annual, where, f"expenses due for {who}"
        )

    return _CellTerms(income_units, income_factor, due_c, rate)


def _overflow_cause(
    profile: HouseholdProfile,
    scenario: ScenarioSpec,
    cell: _CellTerms,
    levels: Optional[list[float]],
    z_market: list[float],
) -> DomainError:
    """Name the field behind a trial whose income or savings outgrew a
    float or ``MAX_CENTS``.  ``_cell_terms`` bounds the other fields, so
    income past the bound over the trial is sigma_income's doing, or
    income_shock's when only the shocked months pass it; otherwise the
    larger term of the savings growth factor is."""
    who = f"profile {profile.profile_id!r}"
    if levels is None or not sum(levels) / _MONTHS_PER_YEAR * 100.0 <= MAX_CENTS:
        return _out_of_range("sigma_income", profile.sigma_income, who, "income")
    shocked = sum(level * f for level, f in zip(levels, cell.income_factor))
    if not shocked / _MONTHS_PER_YEAR * 100.0 <= MAX_CENTS:
        where = f"scenario {scenario.name!r}"
        return _out_of_range("income_shock", scenario.income_shock, where, f"income for {who}")
    volatility = profile.sigma_market * math.sqrt(_DT) * max(map(abs, z_market))
    if profile.r_savings / _MONTHS_PER_YEAR >= volatility:
        return _out_of_range("r_savings", profile.r_savings, who, "savings")
    return _out_of_range("sigma_market", profile.sigma_market, who, "savings")


def run_trial(
    profile: HouseholdProfile,
    rule: AllocationRule,
    scenario: ScenarioSpec,
    horizon_months: int,
    rng: np.random.Generator,
) -> TrialOutcome:
    """Simulate one household trajectory.  See the module docstring for
    the month loop."""
    if horizon_months < 1:
        raise ValidationError("horizon_months must be positive")
    if scenario.onset_month > horizon_months:
        raise ValidationError(
            f"scenario {scenario.name!r}: onset_month {scenario.onset_month} "
            f"lies beyond the {horizon_months}-month horizon"
        )
    cell = _cell_terms(profile, scenario, horizon_months)
    f_debt, f_savings, _ = rule.fractions
    fd_num, fd_den = f_debt.numerator, f_debt.denominator
    fs_num, fs_den = f_savings.numerator, f_savings.denominator

    shocks = rng.standard_normal((2, horizon_months))
    z_income = shocks[0]
    z_market = mix_correlated(profile.rho, z_income, shocks[1]).tolist()

    growth_base = 1.0 + profile.r_savings / _MONTHS_PER_YEAR
    growth_scale = profile.sigma_market * math.sqrt(_DT)
    debt_c = profile.debt_balance.cents
    savings_c = 0
    cleared: Optional[int] = 0 if debt_c == 0 else None
    dti_series: list[float] = []
    ser_series: list[float] = []
    default_month: Optional[int] = None

    levels: Optional[list[float]] = None
    try:
        levels = income_levels(
            cell.income_units, profile.mu, profile.sigma_income, _DT, z_income
        )[1:].tolist()

        for month, level, z, factor, due_c, rate in zip(
            count(1), levels, z_market, cell.income_factor, cell.due_c, cell.rate
        ):
            income_c = round(level / _MONTHS_PER_YEAR * factor * 100.0)

            alloc_debt_c, alloc_savings_c, alloc_expenses_c = _split_cents(
                income_c, fd_num, fd_den, fs_num, fs_den
            )

            if alloc_expenses_c < due_c:
                shortfall_c = due_c - alloc_expenses_c
                residual_c = 0
            else:
                shortfall_c = 0
                residual_c = alloc_expenses_c - due_c

            # interest first; what the debt bucket cannot cover comes from savings
            interest_c = round(debt_c * rate)
            spare_c = alloc_debt_c - interest_c
            if spare_c < 0:
                needed_c = shortfall_c - spare_c
                principal_c = excess_c = 0
            else:
                needed_c = shortfall_c
                principal_c = debt_c if debt_c < spare_c else spare_c
                excess_c = spare_c - principal_c

            buffer_c = savings_c - needed_c
            if buffer_c < 0:
                default_month = month
                break

            debt_c -= principal_c
            if debt_c == 0 and cleared is None:
                cleared = month

            growth = growth_base + growth_scale * z
            if growth < 0.0:
                growth = 0.0
            deposit_c = alloc_savings_c + excess_c
            savings_c = round(buffer_c * growth) + deposit_c

            debt_service_c = interest_c + principal_c
            dti_series.append(debt_service_c / income_c if income_c > 0 else 0.0)
            if due_c > 0:
                ser_series.append(deposit_c / due_c)
            else:
                ser_series.append(math.inf if deposit_c > 0 else 1.0)

            if income_c + needed_c != due_c + debt_service_c + deposit_c + residual_c:
                raise DomainError(f"monthly cash identity violated in month {month}")

        return TrialOutcome(
            defaulted=default_month is not None,
            default_month=default_month,
            debt_cleared_month=cleared,
            final_savings=Money(savings_c),
            # month 1 draws on zero savings, so a survivor's buffer is 0 there
            # and at least 0 after; the minimum is the default month's, or 0
            min_cash_buffer=min(buffer_c, 0) / 100.0,
            dti_series=tuple(dti_series),
            ser_series=tuple(ser_series),
        )
    except DomainError:
        raise
    except (ArithmeticError, ValueError, RuntimeWarning):  # an amount outgrew Money or a float
        raise _overflow_cause(profile, scenario, cell, levels, z_market) from None


def _aggregate(
    profile: HouseholdProfile,
    rule: AllocationRule,
    scenario: ScenarioSpec,
    horizon_months: int,
    outcomes: Iterable[TrialOutcome],
    trials: int,
) -> StressMetrics:
    defaults = 0
    clearance_months: list[int] = []
    final_cents_total = 0
    months_total = 0
    dti_violations = 0
    ser_violations = 0
    for outcome in outcomes:
        if outcome.defaulted:
            defaults += 1
        if outcome.debt_cleared_month is not None:
            clearance_months.append(outcome.debt_cleared_month)
        final_cents_total += outcome.final_savings.cents
        months_total += len(outcome.dti_series)
        dti_violations += sum(1 for x in outcome.dti_series if x > DEFAULT_DTI_LIMIT)
        ser_violations += sum(1 for x in outcome.ser_series if x < DEFAULT_SER_FLOOR)
    median_years = (
        statistics.median(clearance_months) / _MONTHS_PER_YEAR if clearance_months else None
    )
    mean_final = Money(_round_div(final_cents_total, trials))
    final_due_c = _cell_terms(profile, scenario, horizon_months).due_c[-1]
    coverage = mean_final.cents / final_due_c if final_due_c > 0 else None
    return StressMetrics(
        profile_id=profile.profile_id,
        rule=rule.rule_id,
        scenario=scenario.name,
        trials=trials,
        default_rate=defaults / trials,
        median_clearance_years=median_years,
        mean_final_savings=mean_final,
        months_expense_coverage=coverage,
        dti_violation_rate=dti_violations / months_total if months_total else 0.0,
        ser_violation_rate=ser_violations / months_total if months_total else 0.0,
    )


def run_stress(
    profiles: Sequence[HouseholdProfile],
    rules: Sequence[AllocationRule],
    scenarios: Sequence[ScenarioSpec],
    cfg: PathConfig,
) -> list[StressMetrics]:
    """Run every (profile, rule, scenario) combination.

    Trial k always draws from the stream derived from
    (cfg.master_seed, k), so all combinations share shocks (common random
    numbers).  Trials run one at a time on the calling thread, each
    aggregated as it finishes.  Output rows are sorted by (profile_id,
    rule, scenario).
    """
    if not profiles:
        raise ValidationError("at least one profile is required")
    if not rules:
        raise ValidationError("at least one rule is required")
    if not scenarios:
        raise ValidationError("at least one scenario is required")
    if abs(cfg.dt_years * _MONTHS_PER_YEAR - 1.0) > 1e-9:
        raise ValidationError("stress runs use a monthly step; set dt_years to 1/12")
    horizon_months = cfg.steps
    metrics: list[StressMetrics] = []
    combos = sorted(
        ((p, r, s) for p in profiles for r in rules for s in scenarios),
        key=lambda c: (c[0].profile_id, c[1].rule_id.value, c[2].name),
    )
    for profile, rule, scenario in combos:
        # lazy, so each trial runs (and can be traced) inside _aggregate
        outcomes = (
            run_trial(profile, rule, scenario, horizon_months, derive_trial_rng(cfg.master_seed, k))
            for k in range(cfg.trials)
        )
        metrics.append(_aggregate(profile, rule, scenario, horizon_months, outcomes, cfg.trials))
    return metrics


def debt_clearance_time(balance: Money, annual_payment: Money, apr: float) -> float:
    """Years to amortize a balance at a constant annual payment.

    Zero APR gives balance / payment.  Otherwise
    -ln(1 - balance * apr / payment) / ln(1 + apr), defined only while
    the payment exceeds the annual interest.
    """
    if annual_payment.cents <= 0:
        raise ValidationError("annual payment must be positive")
    if not math.isfinite(apr) or apr < 0:
        raise ValidationError("apr must be nonnegative and finite")
    if balance.cents == 0:
        return 0.0
    b = balance.units
    p = annual_payment.units
    if apr == 0.0:
        return b / p
    ratio = b * apr / p
    if ratio >= 1.0:
        raise DebtNeverClearsError(
            f"annual payment {p:.2f} does not exceed annual interest {b * apr:.2f}"
        )
    return -math.log1p(-ratio) / math.log1p(apr)


class AnnuityTiming(str, Enum):
    ORDINARY_ANNUAL = "ordinary_annual"
    DUE_ANNUAL = "due_annual"
    MONTHLY = "monthly"


def savings_future_value(
    annual_contribution: Money,
    rate: float,
    years: int,
    timing: AnnuityTiming = AnnuityTiming.ORDINARY_ANNUAL,
) -> Money:
    """Future value of level contributions at a constant return.

    ordinary_annual contributes at each year end, due_annual at each
    year start, monthly spreads the contribution over month ends at
    rate / 12.
    """
    timing = AnnuityTiming(timing)
    if not is_int(years) or years < 0:
        raise ValidationError("years must be a nonnegative integer")
    if not math.isfinite(rate) or rate <= -1.0:
        raise ValidationError("rate must be a finite return above -1")
    c = annual_contribution.units
    if timing is AnnuityTiming.MONTHLY:
        monthly_rate = rate / _MONTHS_PER_YEAR
        n = years * _MONTHS_PER_YEAR
        if monthly_rate == 0.0:
            return Money.of(c / _MONTHS_PER_YEAR * n)
        factor = math.expm1(n * math.log1p(monthly_rate)) / monthly_rate
        return Money.of(c / _MONTHS_PER_YEAR * factor)
    if rate == 0.0:
        value = c * years
    else:
        value = c * math.expm1(years * math.log1p(rate)) / rate
        if timing is AnnuityTiming.DUE_ANNUAL:
            value *= 1.0 + rate
    return Money.of(value)


@dataclass(frozen=True)
class RuleComparison:
    """One rule's standing within a (profile, scenario) cell, ranked by
    default rate, then clearance speed, then expense coverage."""

    profile_id: str
    scenario: str
    rule: RuleId
    rank: int
    default_rate: float
    default_rate_delta: float
    median_clearance_years: Optional[float]
    clearance_delta: Optional[float]
    months_expense_coverage: Optional[float]
    coverage_delta: Optional[float]


def compare_rules(metrics: Sequence[StressMetrics]) -> list[RuleComparison]:
    """Rank rules within each (profile, scenario) cell and report deltas
    against the top-ranked rule.  Every cell must carry the same rule
    set and every profile the same scenario set."""
    if not metrics:
        raise ValidationError("no metrics to compare")
    cells: dict[tuple[str, str], dict[RuleId, StressMetrics]] = {}
    for m in metrics:
        cell = cells.setdefault((m.profile_id, m.scenario), {})
        if m.rule in cell:
            raise ValidationError(
                f"duplicate metrics for {m.profile_id}/{m.rule.value}/{m.scenario}"
            )
        cell[m.rule] = m
    rule_sets = {frozenset(cell) for cell in cells.values()}
    if len(rule_sets) != 1:
        raise ValidationError("metrics do not share a rule axis across cells")
    scenario_sets: dict[str, set[str]] = {}
    for pid, scen in cells:
        scenario_sets.setdefault(pid, set()).add(scen)
    if len({frozenset(s) for s in scenario_sets.values()}) != 1:
        raise ValidationError("metrics do not share a scenario axis across profiles")

    def sort_key(m: StressMetrics) -> tuple:
        clearance = m.median_clearance_years
        coverage = m.months_expense_coverage
        return (
            m.default_rate,
            clearance if clearance is not None else float("inf"),
            -(coverage if coverage is not None else float("-inf")),
            m.rule.value,
        )

    rows: list[RuleComparison] = []
    for (pid, scen), cell in sorted(cells.items()):
        ranked = sorted(cell.values(), key=sort_key)
        best = ranked[0]
        for rank, m in enumerate(ranked, start=1):
            clearance_delta = None
            if m.median_clearance_years is not None and best.median_clearance_years is not None:
                clearance_delta = m.median_clearance_years - best.median_clearance_years
            coverage_delta = None
            if m.months_expense_coverage is not None and best.months_expense_coverage is not None:
                coverage_delta = m.months_expense_coverage - best.months_expense_coverage
            rows.append(
                RuleComparison(
                    profile_id=pid,
                    scenario=scen,
                    rule=m.rule,
                    rank=rank,
                    default_rate=m.default_rate,
                    default_rate_delta=m.default_rate - best.default_rate,
                    median_clearance_years=m.median_clearance_years,
                    clearance_delta=clearance_delta,
                    months_expense_coverage=m.months_expense_coverage,
                    coverage_delta=coverage_delta,
                )
            )
    return rows
