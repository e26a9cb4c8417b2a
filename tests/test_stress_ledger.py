"""The stress month ledger against a frozen reference loop.

``_reference_run_trial`` is the month loop as it stood before the
month-only terms moved out of it: every month recomputes the scenario
window, the expenses due and the debt rate, and keeps each month's DTI
and SER ratio, counting the violations from them at the end.  It is kept
here only as an oracle; ``run_trial`` must return an equal
``TrialOutcome`` for any input, and the CLI report on the benchmark
fixtures must keep its bytes.
"""

import gc
import hashlib
import inspect
import math
import os
import statistics
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thirdrule import (
    BASELINE_SCENARIO,
    AllocationRule,
    HouseholdProfile,
    HouseholdType,
    Money,
    PathConfig,
    ScenarioSpec,
    StressMetrics,
    THREADS_ENV_VAR,
    TrialOutcome,
    derive_trial_rng,
    run_stress,
    run_trial,
    stress,
)
from thirdrule.cli import main
from thirdrule.domain import MAX_CENTS, _round_div, _settle_residual
from thirdrule.errors import DomainError, ValidationError
from thirdrule.risk import DEFAULT_DTI_LIMIT, DEFAULT_SER_FLOOR
from thirdrule.stochastic import MAX_STEPS, income_levels, mix_correlated

_MONTHS_PER_YEAR = 12
_DT = 1.0 / 12.0


def _reference_expenses_due_cents(baseline_monthly_cents, scenario, month):
    factor = (1.0 + scenario.inflation_annual) ** (
        scenario.months_active_through(month) / _MONTHS_PER_YEAR
    )
    return round(baseline_monthly_cents * factor)


def _reference_run_trial(profile, rule, scenario, horizon_months, rng):
    if horizon_months < 1:
        raise ValidationError("horizon_months must be positive")
    if scenario.onset_month > horizon_months:
        raise ValidationError("scenario onset lies beyond the simulation horizon")
    f_debt, f_savings, _ = rule.fractions
    fd_num, fd_den = f_debt.numerator, f_debt.denominator
    fs_num, fs_den = f_savings.numerator, f_savings.denominator

    shocks = rng.standard_normal((2, horizon_months))
    z_income = shocks[0]
    z_market = mix_correlated(profile.rho, z_income, shocks[1])
    levels = income_levels(
        profile.income.units, profile.mu, profile.sigma_income, _DT, z_income
    )

    baseline_monthly_c = _round_div(profile.baseline_expenses.cents, _MONTHS_PER_YEAR)
    sqrt_dt = math.sqrt(_DT)
    monthly_rate_base = profile.debt_apr / _MONTHS_PER_YEAR

    debt_c = profile.debt_balance.cents
    savings_c = 0
    cleared: Optional[int] = 0 if debt_c == 0 else None
    dti_series: list[float] = []
    ser_series: list[float] = []

    def outcome(default_month):
        return TrialOutcome(
            defaulted=default_month is not None,
            default_month=default_month,
            debt_cleared_month=cleared,
            final_savings=Money(savings_c),
            dti_violations=sum(x > DEFAULT_DTI_LIMIT for x in dti_series),
            ser_violations=sum(x < DEFAULT_SER_FLOOR for x in ser_series),
        )

    for month in range(1, horizon_months + 1):
        active = scenario.active(month)
        income_units = levels[month] / _MONTHS_PER_YEAR
        if active:
            income_units *= 1.0 + scenario.income_shock
        income_c = round(income_units * 100.0)

        alloc_debt_c, alloc_savings_c, alloc_expenses_c = _settle_residual(
            income_c,
            _round_div(income_c * fd_num, fd_den),
            _round_div(income_c * fs_num, fs_den),
        )

        due_c = _reference_expenses_due_cents(baseline_monthly_c, scenario, month)
        paid_from_bucket = min(alloc_expenses_c, due_c)
        shortfall_c = due_c - paid_from_bucket
        residual_c = alloc_expenses_c - paid_from_bucket

        rate = monthly_rate_base * (scenario.apr_multiplier if active else 1.0)
        interest_c = round(debt_c * rate)
        interest_from_bucket = min(alloc_debt_c, interest_c)
        interest_gap_c = interest_c - interest_from_bucket

        needed_c = shortfall_c + interest_gap_c
        buffer_c = savings_c - needed_c
        if buffer_c < 0:
            return outcome(month)
        savings_c -= needed_c

        principal_c = min(debt_c, max(0, alloc_debt_c - interest_c))
        excess_c = max(0, alloc_debt_c - interest_c - principal_c)
        debt_c -= principal_c
        if debt_c == 0 and cleared is None:
            cleared = month

        growth = max(
            1.0
            + profile.r_savings / _MONTHS_PER_YEAR
            + profile.sigma_market * sqrt_dt * z_market[month - 1],
            0.0,
        )
        deposit_c = alloc_savings_c + excess_c
        savings_c = round(savings_c * growth) + deposit_c

        debt_service_c = interest_c + principal_c
        dti_series.append(debt_service_c / income_c if income_c > 0 else 0.0)
        if due_c > 0:
            ser_series.append(deposit_c / due_c)
        else:
            ser_series.append(float("inf") if deposit_c > 0 else 1.0)

        ledger_in = income_c + needed_c
        ledger_out = due_c + debt_service_c + deposit_c + residual_c
        if ledger_in != ledger_out:
            raise DomainError(f"monthly cash identity violated in month {month}")

    return outcome(None)


# ---------------------------------------------------------------------------
# differential test


def _custom(debt, savings):
    return AllocationRule.custom((debt, savings, 1 - debt - savings))


_RULES = st.one_of(
    st.sampled_from(
        [
            AllocationRule.one_third(),
            AllocationRule.fifty_thirty_twenty(),
            AllocationRule.seventy_twenty_ten(),
            _custom(Fraction(12345, 99999), Fraction(1, 7)),
            _custom(Fraction(1), Fraction(0)),
            _custom(Fraction(0), Fraction(0)),
        ]
    ),
    st.tuples(st.integers(0, 1000), st.integers(0, 1000), st.integers(1, 1000))
    .filter(lambda t: t[0] + t[1] <= t[2])
    .map(lambda t: _custom(Fraction(t[0], t[2]), Fraction(t[1], t[2]))),
)


def _draw_profile(draw, profile_id="p"):
    debt = draw(st.one_of(st.just(0), st.integers(0, 10_000_000)))
    expenses = draw(st.one_of(st.just(0), st.integers(0, 12_000_000)))
    return HouseholdProfile(
        profile_id=profile_id,
        household_type=HouseholdType.SINGLE_INCOME,
        member_incomes=(Money(draw(st.one_of(st.just(0), st.integers(0, 20_000_000)))),),
        debt_balance=Money(debt),
        debt_apr=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.6))),
        baseline_expenses=Money(expenses),
        # a large sigma_income floors income at zero in some months
        sigma_income=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5), st.floats(2.0, 8.0))),
        sigma_market=draw(st.floats(0.0, 1.5)),
        rho=draw(st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0))),
        mu=draw(st.floats(-0.5, 0.5)),
        r_savings=draw(st.floats(-0.5, 0.3)),
    )


def _draw_scenario(draw, horizon, name="s"):
    return ScenarioSpec(
        name=name,
        income_shock=draw(st.one_of(st.just(0.0), st.just(-1.0), st.floats(-1.0, 0.5))),
        apr_multiplier=draw(st.floats(0.1, 5.0)),
        inflation_annual=draw(st.one_of(st.just(0.0), st.floats(-0.5, 0.5))),
        # onset may land on the horizon itself
        onset_month=draw(st.one_of(st.just(horizon), st.integers(1, horizon))),
        # 0 is a permanent shock; others are windows that may outlast the horizon
        duration_months=draw(st.one_of(st.just(0), st.integers(1, 70))),
    )


@st.composite
def _cases(draw):
    horizon = draw(st.integers(1, 60))
    profile = _draw_profile(draw)
    scenario = _draw_scenario(draw, horizon)
    seed = draw(st.integers(0, 2**32 - 1))
    return profile, draw(_RULES), scenario, horizon, seed


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_run_trial_matches_reference_loop(case):
    profile, rule, scenario, horizon, seed = case
    got = run_trial(profile, rule, scenario, horizon, derive_trial_rng(seed, 0))
    want = _reference_run_trial(profile, rule, scenario, horizon, derive_trial_rng(seed, 0))
    assert got == want


def test_run_trial_matches_reference_loop_on_edge_cases():
    # Hand-picked inputs for the edges the random search may visit rarely.
    base = dict(
        profile_id="p",
        household_type=HouseholdType.SINGLE_INCOME,
        member_incomes=(Money.of("60000"),),
        debt_balance=Money.of("20000"),
        debt_apr=0.18,
        baseline_expenses=Money.of("18000"),
        sigma_income=0.1,
        sigma_market=0.15,
        rho=0.3,
        mu=0.02,
        r_savings=0.04,
    )
    profiles = [
        HouseholdProfile(**base),
        HouseholdProfile(**dict(base, debt_balance=Money(0))),
        HouseholdProfile(**dict(base, baseline_expenses=Money(0))),
        HouseholdProfile(**dict(base, sigma_income=6.0, rho=-1.0)),
        HouseholdProfile(**dict(base, rho=1.0, sigma_market=3.0)),
    ]
    scenarios = [
        ScenarioSpec("permanent", income_shock=-0.4, apr_multiplier=2.0, inflation_annual=0.1),
        ScenarioSpec("window", income_shock=-1.0, onset_month=3, duration_months=4),
        ScenarioSpec("at_horizon", income_shock=-0.2, inflation_annual=0.3, onset_month=60),
    ]
    rules = [
        AllocationRule.one_third(),
        _custom(Fraction(12345, 99999), Fraction(1, 3)),
    ]
    for profile in profiles:
        for scenario in scenarios:
            for rule in rules:
                for k in range(3):
                    got = run_trial(profile, rule, scenario, 60, derive_trial_rng(5, k))
                    want = _reference_run_trial(profile, rule, scenario, 60, derive_trial_rng(5, k))
                    assert got == want, (profile, scenario, rule, k)


# 6000 a month of income against 1500 of expenses due
_NOISY = dict(
    profile_id="p",
    household_type=HouseholdType.SINGLE_INCOME,
    member_incomes=(Money.of("72000"),),
    debt_balance=Money.of("20000"),
    debt_apr=0.18,
    baseline_expenses=Money.of("18000"),
    sigma_income=0.1,
    sigma_market=0.15,
    rho=0.3,
    mu=0.02,
    r_savings=0.04,
)
# the same, flat, with no interest and no market
_FLAT = dict(_NOISY, debt_apr=0.0, sigma_income=0.0, sigma_market=0.0, mu=0.0, r_savings=0.0)


@pytest.mark.parametrize(
    "fields, rule, scenario, horizon, seed, cleared, default, exact",
    [
        # no opening debt: every month is paid off, and income lost from
        # month 25 on drains the savings until a late default
        (dict(_FLAT, debt_balance=Money(0)), AllocationRule.one_third(),
         ScenarioSpec("lost", income_shock=-1.0, onset_month=25), 120, 0, 0, 89, False),
        # 2000 a month clears 10000 in the horizon's last month
        (dict(_FLAT, debt_balance=Money.of("10000")), AllocationRule.one_third(),
         BASELINE_SCENARIO, 5, 0, 5, None, False),
        # 20000 at 18 % under noise, cleared in the last month of 10
        (_NOISY, AllocationRule.one_third(), BASELINE_SCENARIO, 10, 7, 10, None, False),
        # no savings bucket: month 1 clears 3000 and deposits nothing, so
        # the income lost in month 2 defaults right after clearance
        (dict(_FLAT, debt_balance=Money.of("3000")), _custom(Fraction(1, 2), Fraction(0)),
         ScenarioSpec("lost", income_shock=-1.0, onset_month=2), 12, 0, 1, 2, False),
        # an exact lane, its income past the money bound in month 24 alone,
        # that clears its debt in month 2 and defaults in month 10
        (dict(_NOISY, debt_balance=Money.of("2000"), sigma_income=2.0),
         AllocationRule.one_third(), ScenarioSpec("late", income_shock=1e12, onset_month=24),
         24, 164, 2, 10, True),
    ],
)  # fmt: skip
def test_run_trial_matches_reference_loop_past_debt_clearance(
    fields, rule, scenario, horizon, seed, cleared, default, exact
):
    profile = HouseholdProfile(**fields)
    got = run_trial(profile, rule, scenario, horizon, derive_trial_rng(9, seed))
    assert got == _reference_run_trial(profile, rule, scenario, horizon, derive_trial_rng(9, seed))
    assert (got.debt_cleared_month, got.default_month) == (cleared, default)
    draws = _drawn(profile, horizon, [derive_trial_rng(9, seed)])
    _, exact_months = _terms(_built_cell(profile, rule, scenario, horizon), draws)
    assert exact_months.any() == exact


def test_savings_that_outgrow_a_float_after_clearance_raise_in_that_month():
    # Month 1 clears the debt; the savings grow by 1e300 / 12 a month and
    # leave the float range in month 3, where the reference loop fails.
    profile = HouseholdProfile(**dict(_FLAT, debt_balance=Money.of("1000"), r_savings=1e300))
    rule = AllocationRule.one_third()
    with pytest.raises(ValidationError, match="out of range"):  # past MAX_CENTS only
        _reference_run_trial(profile, rule, BASELINE_SCENARIO, 2, derive_trial_rng(0, 0))
    with pytest.raises(OverflowError), np.errstate(over="ignore"):
        _reference_run_trial(profile, rule, BASELINE_SCENARIO, 3, derive_trial_rng(0, 0))
    walked = []
    real = stress.count

    def months(start):  # the month numbers of the lane's walk
        for month in real(start):
            walked.append(month)
            yield month

    with mock.patch.object(stress, "count", months):
        with pytest.raises(DomainError) as err:
            run_trial(profile, rule, BASELINE_SCENARIO, 12, derive_trial_rng(0, 0))
    assert str(err.value) == "profile 'p': r_savings 1e+300 puts savings past the money bound"
    assert walked == [1, 2, 3]


def _recorded_handed(monkeypatch):
    """A list that gets, for each cell of each block run_stress walks, the
    flags of the rows the walk hands to the Python-int loop."""
    handed = []
    walk = stress._walk

    def recorded_walk(cells, draws):
        blocks = walk(cells, draws)
        handed.extend(block.rows.handed[block.k] for block in blocks)
        return blocks

    monkeypatch.setattr(stress, "_walk", recorded_walk)
    return handed


def test_run_stress_hands_savings_that_outgrow_a_float_to_the_python_loop(monkeypatch):
    # the walk stops that row when its savings pass the money bound in
    # month 2, and the Python-int loop raises in month 3 as above
    profile = HouseholdProfile(**dict(_FLAT, debt_balance=Money.of("1000"), r_savings=1e300))
    handed = _recorded_handed(monkeypatch)
    with pytest.raises(DomainError) as err, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run_stress([profile], [AllocationRule.one_third()], [BASELINE_SCENARIO], _grid_config(12, 1, 0))
    assert str(err.value) == "profile 'p': r_savings 1e+300 puts savings past the money bound"
    assert handed == [[True]]


def test_a_row_that_defaults_as_its_debt_bucket_would_clear_the_debt_is_not_cleared():
    # Month 1 pays 2000 of the 2500 owed and banks 2000.  In month 2 the
    # expenses due jump past the expenses bucket and those savings, so the
    # trial defaults in the month its debt bucket would pay off the last 500.
    profile = HouseholdProfile(**dict(_FLAT, debt_balance=Money.of("2500")))
    scenario = ScenarioSpec("jump", inflation_annual=1e6, onset_month=2)
    args = ([profile], [AllocationRule.one_third()], [scenario], _grid_config(12, 3, 0))
    rows = run_stress(*args)
    assert rows == _reference_run_stress(*args)
    assert (rows[0].default_rate, rows[0].median_clearance_years) == (1.0, None)


def test_a_month_at_a_limit_is_no_violation_and_one_cent_past_it_is(monkeypatch):
    # 30000 a year is 250000 cents a month: the 9/25 debt bucket pays the
    # 90000 interest on 90000 at 12 %, DTI exactly 0.36, and the 8/25 savings
    # bucket deposits 80000 against 80000 due, SER exactly 1.0.  In month 2
    # alone, "interest" owes one cent past the debt bucket (DTI 90001 /
    # 250000); from month 2 on, "due" asks 80001 (SER 80000 / 80001).
    # Savings pay the cent, and no month defaults.
    assert (90000 / 250000, 80000 / 80000) == (DEFAULT_DTI_LIMIT, DEFAULT_SER_FLOOR)
    profile = HouseholdProfile(**dict(
        _FLAT,
        member_incomes=(Money.of("30000"),),
        debt_balance=Money.of("90000"),
        debt_apr=0.12,
        baseline_expenses=Money.of("9600"),
    ))  # fmt: skip
    rule = _custom(Fraction(9, 25), Fraction(8, 25))
    scenarios = [
        BASELINE_SCENARIO,
        ScenarioSpec("interest", apr_multiplier=1 + 1 / 90000, onset_month=2, duration_months=1),
        ScenarioSpec("due", inflation_annual=(1 + 1 / 80000) ** 12 - 1, onset_month=2, duration_months=1),
    ]
    want = {"baseline": (0, 0), "interest": (1, 0), "due": (0, 11)}
    for scenario in scenarios:  # the Python-int loop of a trial run alone
        out = run_trial(profile, rule, scenario, 12, derive_trial_rng(0, 0))
        assert not out.defaulted
        assert (out.dti_violations, out.ser_violations) == want[scenario.name]

    handed = _recorded_handed(monkeypatch)
    args = ([profile], [rule], scenarios, _grid_config(12, 4, 0))
    rows = run_stress(*args)
    assert handed == [[False] * 4] * 3  # every row walked
    assert rows == _reference_run_stress(*args)
    rates = {row.scenario: (row.dti_violation_rate, row.ser_violation_rate) for row in rows}
    assert rates == {"baseline": (0.0, 0.0), "interest": (1 / 12, 0.0), "due": (0.0, 11 / 12)}


@st.composite
def _schedule_cases(draw):
    horizon = draw(st.integers(1, 240))
    scenario = draw(st.builds(
        ScenarioSpec,
        name=st.just("s"),
        income_shock=st.floats(-1.0, 2.0),
        apr_multiplier=st.floats(0.1, 5.0),
        inflation_annual=st.one_of(st.just(0.0), st.floats(-0.9, 3.0)),
        onset_month=st.integers(1, horizon),
        duration_months=st.one_of(st.just(0), st.integers(1, 300)),
    ))  # fmt: skip
    return _draw_profile(draw), scenario, horizon


@settings(max_examples=200, deadline=None)
@given(_schedule_cases())
# a window that closes inside the horizon
@example((
    HouseholdProfile(**_NOISY),
    ScenarioSpec("w", inflation_annual=0.3, onset_month=3, duration_months=4),
    12,
))  # fmt: skip
def test_a_schedule_is_its_month_by_month_build(case):
    # built from the window's three runs, each expenses-due power once
    profile, scenario, horizon = case
    income_factor, due_c, rate = stress._cell_terms(profile, scenario, horizon)
    months = range(1, horizon + 1)
    baseline_monthly_c = _round_div(profile.baseline_expenses.cents, _MONTHS_PER_YEAR)
    base = profile.debt_apr / _MONTHS_PER_YEAR
    active = [scenario.active(m) for m in months]
    assert due_c == tuple(_reference_expenses_due_cents(baseline_monthly_c, scenario, m) for m in months)
    assert income_factor == tuple(1.0 + scenario.income_shock if a else 1.0 for a in active)
    assert rate == tuple(base * scenario.apr_multiplier if a else base for a in active)


# ---------------------------------------------------------------------------
# run_stress, whose trials read month terms built for a block of lanes


def _rows_order(profiles, rules, scenarios):
    return sorted(
        ((p, r, s) for p in profiles for r in rules for s in scenarios),
        key=lambda c: (c[0].profile_id, c[1].rule_id.value, c[2].name),
    )


def _reference_run_stress(profiles, rules, scenarios, cfg):
    """run_stress's rows with every trial run by the reference loop on its
    own generator, and aggregated here from the list of outcomes: the
    clearance median by statistics.median, the violation rates over the
    months completed, taken from each trial's default month."""
    rows = []
    for p, r, s in _rows_order(profiles, rules, scenarios):
        outcomes = [
            _reference_run_trial(p, r, s, cfg.steps, derive_trial_rng(cfg.master_seed, k))
            for k in range(cfg.trials)
        ]
        cleared = [o.debt_cleared_month for o in outcomes if o.debt_cleared_month is not None]
        mean_final = Money(round(Fraction(sum(o.final_savings.cents for o in outcomes), cfg.trials)))
        baseline_monthly_c = _round_div(p.baseline_expenses.cents, _MONTHS_PER_YEAR)
        final_due_c = _reference_expenses_due_cents(baseline_monthly_c, s, cfg.steps)
        # a trial completes the months before its default, or all of them
        months = sum(o.default_month - 1 if o.defaulted else cfg.steps for o in outcomes)
        dti_violations = sum(o.dti_violations for o in outcomes)
        ser_violations = sum(o.ser_violations for o in outcomes)
        rows.append(StressMetrics(
            profile_id=p.profile_id,
            rule=r.rule_id,
            scenario=s.name,
            trials=cfg.trials,
            default_rate=sum(o.defaulted for o in outcomes) / cfg.trials,
            median_clearance_years=statistics.median(cleared) / _MONTHS_PER_YEAR if cleared else None,
            mean_final_savings=mean_final,
            months_expense_coverage=mean_final.cents / final_due_c if final_due_c > 0 else None,
            dti_violation_rate=dti_violations / months if months else 0.0,
            ser_violation_rate=ser_violations / months if months else 0.0,
        ))  # fmt: skip
    return rows


def _first_lone_trial_error(profiles, rules, scenarios, cfg):
    """The first error, in row order, that the grid's trials raise when each
    runs alone through run_trial on its own generator; None if none does."""
    for p, r, s in _rows_order(profiles, rules, scenarios):
        for k in range(cfg.trials):
            try:
                run_trial(p, r, s, cfg.steps, derive_trial_rng(cfg.master_seed, k))
            except Exception as exc:
                return exc
    return None


_BASE = dict(
    profile_id="p",
    household_type=HouseholdType.SINGLE_INCOME,
    member_incomes=(Money.of("60000"),),
    debt_balance=Money.of("20000"),
    debt_apr=0.18,
    baseline_expenses=Money.of("18000"),
    sigma_income=0.1,
    sigma_market=0.15,
    rho=0.3,
    mu=0.02,
    r_savings=0.04,
)
def _grid_config(horizon, trials, seed):
    return PathConfig(horizon_years=horizon / 12, trials=trials, master_seed=seed)


# Splits that int64 cannot hold, so they take Python ints: income times a
# numerator past 2**62, and a denominator past 2**63.
_HUGE_NUMERATORS = _custom(Fraction(2**45 + 1, 2**46), Fraction(3**27, 2**46))
_HUGE_DENOMINATOR = _custom(Fraction(1, 2**64 + 1), Fraction(1, 3))
_MIXED_PROFILES = [
    HouseholdProfile(**_BASE),
    # many trials default, some in their first months
    HouseholdProfile(**dict(
        _BASE, profile_id="a", debt_balance=Money.of("60000"), debt_apr=0.25, sigma_income=0.6,
        baseline_expenses=Money.of("40000"), rho=-0.7,
    )),
]  # fmt: skip
_MIXED_RULES = [
    AllocationRule.one_third(),
    AllocationRule.seventy_twenty_ten(),
    _custom(Fraction(12345, 99999), Fraction(1, 7)),
    _HUGE_NUMERATORS,
    _HUGE_DENOMINATOR,
]
_MIXED_SCENARIOS = [
    ScenarioSpec("baseline"),
    ScenarioSpec("drop", income_shock=-0.5, apr_multiplier=1.5, onset_month=3, duration_months=20),
    ScenarioSpec("inflation", inflation_annual=0.2, onset_month=13),
]
_HORIZON = 120
# lanes in a block of a profile's cells
_WIDTH = stress.ROW_MONTHS_PER_BLOCK // (len(_MIXED_RULES) * len(_MIXED_SCENARIOS) * _HORIZON)


@pytest.mark.parametrize("trials", [1, _WIDTH - 1, _WIDTH, _WIDTH + 1, 3 * _WIDTH + 2])
def test_run_stress_matches_reference_loop(trials):
    cfg = PathConfig(horizon_years=_HORIZON / 12, trials=trials, master_seed=trials)
    args = (_MIXED_PROFILES, _MIXED_RULES, _MIXED_SCENARIOS, cfg)
    assert run_stress(*args) == _reference_run_stress(*args)


@st.composite
def _clearance_months(draw):
    """A horizon and a multiset of clearance months in 0..horizon, as
    (month, count) pairs."""
    horizon = draw(st.integers(1, 240))
    return horizon, draw(st.lists(st.tuples(st.integers(0, horizon), st.integers(1, 40)), max_size=12))


@settings(max_examples=300, deadline=None)
@given(_clearance_months())
@example((120, []))
@example((120, [(37, 3)]))  # odd
@example((120, [(3, 1), (10, 1)]))  # even, between two months
@example((12, [(0, 7), (12, 2), (5, 1), (11, 1)]))  # even, across a gap
@example((120, [(0, 6)]))  # all month 0
@example((120, [(120, 4)]))  # all month H
@example((1, [(0, 1), (1, 1)]))
def test_the_count_table_median_is_statistics_median(case):
    horizon, counts = case
    profile, rule = _MIXED_PROFILES[0], AllocationRule.one_third()
    tally = stress._Tally(_built_cell(profile, rule, BASELINE_SCENARIO, horizon))
    months = []
    for month, n in counts:
        tally.cleared[month] += n
        months += [month] * n
    row = stress._aggregate(profile, rule, BASELINE_SCENARIO, tally, max(1, len(months)))
    if not months:
        assert row.median_clearance_years is None
    else:
        assert row.median_clearance_years.hex() == (statistics.median(months) / _MONTHS_PER_YEAR).hex()


# Owes nothing, and month 1's expense shortfall defaults every trial in every cell.
_SETTLED_ZERO_DEBT = HouseholdProfile(
    **dict(_BASE, profile_id="z", debt_balance=Money(0), baseline_expenses=Money.of("600000"))
)


@pytest.mark.parametrize("trials", [10, 5000])
def test_each_cells_tally_holds_one_count_per_clearance_month(monkeypatch, trials):
    # the tally is a table of H + 1 counts, whatever the trial count
    tallies = []
    aggregate = stress._aggregate

    def recorded_aggregate(profile, rule, scenario, tally, n):
        tallies.append(list(tally.cleared))
        return aggregate(profile, rule, scenario, tally, n)

    def unexpected_trial(*args):
        raise AssertionError("the screen settles every trial of this grid")

    monkeypatch.setattr(stress, "_aggregate", recorded_aggregate)
    monkeypatch.setattr(stress, "run_trial", unexpected_trial)
    rules = [AllocationRule.one_third(), AllocationRule.fifty_thirty_twenty(), _MIXED_RULES[1]]
    cfg = PathConfig(horizon_years=10, trials=trials, master_seed=3)
    scenarios = [BASELINE_SCENARIO, ScenarioSpec("drop", income_shock=-0.2, onset_month=3)]
    rows = run_stress([_SETTLED_ZERO_DEBT], rules, scenarios, cfg)
    assert tallies == [[trials] + [0] * 120] * 6
    assert all(row.default_rate == 1.0 and row.median_clearance_years == 0.0 for row in rows)


# Under one_third, most trials of _BASE default in month 1 in both scenarios.
_DROPS = [
    ScenarioSpec(f"drop{-shock}", income_shock=shock, apr_multiplier=1.3, duration_months=6)
    for shock in (-0.12, -0.15)
]


# Two profiles and 8 cells: "p" mixes settled and unsettled trials in both
# seeding runs of its 300 trials, and the screen settles every trial of "q".
_SCREENED_GRID = (
    [
        HouseholdProfile(**_BASE),
        HouseholdProfile(**dict(
            _BASE, profile_id="q", debt_balance=Money.of("2000000"), debt_apr=0.3,
            baseline_expenses=Money(0),
        )),
    ],
    [AllocationRule.one_third(), _custom(Fraction(1, 3), Fraction(1, 2))],
    _DROPS,
    PathConfig(horizon_years=5, trials=300, master_seed=5),
)  # fmt: skip


def test_each_stream_is_derived_once_per_profile_for_all_its_cells(monkeypatch):
    # A block holds 3 lanes of the profile's 4 cells and 60 months, far
    # fewer than the grid's 300 trials.
    monkeypatch.setattr(stress, "ROW_MONTHS_PER_BLOCK", 3 * 4 * 60)
    streams = Counter()

    def derive(master_seed, trial_index):
        streams[master_seed, trial_index] += 1
        return derive_trial_rng(master_seed, trial_index)

    screened = []
    screen = stress._screen

    def counted_screen(cells, first):
        settled = screen(cells, first)
        screened.append((cells[0].profile.profile_id, len(settled), int(settled.sum())))
        return settled

    monkeypatch.setattr(stress, "derive_trial_rng", derive)
    monkeypatch.setattr(stress, "_screen", counted_screen)
    assert run_stress(*_SCREENED_GRID) == _reference_run_stress(*_SCREENED_GRID)
    assert streams == {(5, k): 2 for k in range(300)}
    assert [(pid, n) for pid, n, _ in screened] == [("p", 256), ("p", 44), ("q", 256), ("q", 44)]
    assert all(0 < settled < n for pid, n, settled in screened if pid == "p")
    assert all(settled == n for pid, n, settled in screened if pid == "q")


# Grids for the walk at a given lane count, each with the number of cells
# a profile has; both hold fewer than 1000 trials.
_LANE_GRIDS = {
    # walked rows beside the rows of splits int64 cannot hold, which the
    # walk hands to the Python-int loop
    "mixed": ((_MIXED_PROFILES, _MIXED_RULES, _MIXED_SCENARIOS, _grid_config(_HORIZON, 7, 11)), 15),
    # survivors pooled across two 256-trial runs
    "screened": (_SCREENED_GRID, 4),
}


@pytest.mark.parametrize("lanes", [1, 2, 3, 1000])
@pytest.mark.parametrize("grid", sorted(_LANE_GRIDS))
def test_run_stress_matches_reference_loop_at_any_lane_count(monkeypatch, grid, lanes):
    args, cells = _LANE_GRIDS[grid]
    widths = {}
    draw = stress._draw_block

    def recorded_draw(profile, horizon_months, rngs, first):
        widths.setdefault(profile.profile_id, []).append(len(rngs))
        return draw(profile, horizon_months, rngs, first)

    monkeypatch.setattr(stress, "ROW_MONTHS_PER_BLOCK", lanes * cells * args[3].steps)
    monkeypatch.setattr(stress, "_draw_block", recorded_draw)
    assert run_stress(*args) == _reference_run_stress(*args)
    # every block but a profile's last is full, whichever run its trials come from
    assert widths and all(w[:-1] == [lanes] * (len(w) - 1) and w[-1] <= lanes for w in widths.values())


def _advanced(master_seed, trial_index, normals):
    """The state of trial ``trial_index``'s stream after ``normals`` normals."""
    rng = derive_trial_rng(master_seed, trial_index)
    rng.standard_normal(normals)
    return rng.bit_generator.state


@pytest.mark.parametrize(
    "fields, settled",
    [
        # owes nothing, with expenses near one_third's bucket
        (dict(_BASE, debt_balance=Money(0), baseline_expenses=Money.of("20000")), 38),
        # past the screen's income bound, and still reports
        (dict(_BASE, sigma_income=2e8), 0),
    ],
    ids=["screened", "past_the_bound"],
)
def test_each_trial_draws_its_first_normal_then_the_rest_or_nothing_more(monkeypatch, fields, settled):
    captured = []

    def derive(master_seed, trial_index):
        captured.append((master_seed, trial_index, derive_trial_rng(master_seed, trial_index)))
        return captured[-1][2]

    masks = []
    screen = stress._screen

    def recorded_screen(cells, first):
        masks.append(screen(cells, first))
        return masks[-1]

    monkeypatch.setattr(stress, "derive_trial_rng", derive)
    monkeypatch.setattr(stress, "_screen", recorded_screen)
    profile = HouseholdProfile(**fields)
    rules = [AllocationRule.one_third(), _custom(Fraction(1, 3), Fraction(1, 2))]
    rows = run_stress([profile], rules, [BASELINE_SCENARIO], _grid_config(12, 80, 3))
    assert len(rows) == 2
    assert [k for _, k, _ in captured] == list(range(80))
    normals = Counter()
    for master_seed, k, rng in captured:
        state = rng.bit_generator.state
        used = [n for n in (1, 24) if _advanced(master_seed, k, n) == state]
        assert len(used) == 1, k
        normals[used[0]] += 1
    assert normals == Counter({1: settled, 24: 80 - settled})
    # one screened run of 80 trials, or none past the bound
    assert len(masks) == (1 if settled else 0)
    assert sum(int(mask.sum()) for mask in masks) == settled


def test_each_schedule_is_built_once_per_run(monkeypatch):
    # every block and row of a profile, the screen and _aggregate included,
    # reads the schedules built before its first block
    built = Counter()
    build = stress._cell_terms

    def counted_build(profile, scenario, horizon_months):
        built[profile.profile_id, scenario.name] += 1
        return build(profile, scenario, horizon_months)

    monkeypatch.setattr(stress, "_cell_terms", counted_build)
    run_stress(*_SCREENED_GRID)
    assert built == {(pid, scenario.name): 1 for pid in "pq" for scenario in _DROPS}


def _failing_run_trial(monkeypatch, fail_at):
    """Patch stress.run_trial to raise a DomainError, naming the cell, on
    the cell's n-th trial for each (rule, scenario name): n of ``fail_at``.
    Return the log of the (rule, scenario name, n) it runs."""
    calls = []
    real = stress.run_trial

    def run_trial(profile, rule, scenario, horizon_months, rng):
        key = (rule.rule_id.value, scenario.name)
        calls.append((*key, sum(call[:2] == key for call in calls) + 1))
        if fail_at.get(key) == calls[-1][2]:
            raise DomainError(f"{key} failed")
        return real(profile, rule, scenario, horizon_months, rng)

    monkeypatch.setattr(stress, "run_trial", run_trial)
    return calls


# Nothing is owed in month 1, so the screen settles no trial and each cell
# runs its trials in trial order.
_UNSETTLED = HouseholdProfile(**dict(_BASE, debt_balance=Money(0), baseline_expenses=Money(0)))


def test_an_earlier_cells_later_trial_error_beats_a_later_cells_first(monkeypatch):
    monkeypatch.setattr(stress, "ROW_MONTHS_PER_BLOCK", 3 * 2 * 24)  # 3 lanes of 2 cells
    calls = _failing_run_trial(
        monkeypatch, {("one_third", "baseline"): 40, ("seventy_twenty_ten", "baseline"): 1}
    )
    cfg = PathConfig(horizon_years=2, trials=60, master_seed=2)
    rules = [AllocationRule.seventy_twenty_ten(), AllocationRule.one_third()]
    with pytest.raises(DomainError, match="one_third"):
        run_stress([_UNSETTLED], rules, [BASELINE_SCENARIO], cfg)
    # the later cell failed in the first block, and the earlier ran on alone
    assert calls[:4] == [("one_third", "baseline", k) for k in (1, 2, 3)] + [
        ("seventy_twenty_ten", "baseline", 1)
    ]
    assert calls[4:] == [("one_third", "baseline", k) for k in range(4, 41)]


def test_an_earlier_cells_trial_error_beats_a_later_cells_terms_error(monkeypatch):
    monkeypatch.setattr(stress, "ROW_MONTHS_PER_BLOCK", 3 * 24)  # 3 lanes of the one cell built
    calls = _failing_run_trial(monkeypatch, {("one_third", "a"): 40})
    cfg = PathConfig(horizon_years=2, trials=60, master_seed=2)
    scenarios = [ScenarioSpec("a"), ScenarioSpec("b", onset_month=25)]  # b starts past the horizon
    with pytest.raises(ValidationError, match="onset_month"):
        stress._cell_terms(_UNSETTLED, scenarios[1], 24)
    with pytest.raises(DomainError, match="'a'"):
        run_stress([_UNSETTLED], [AllocationRule.one_third()], scenarios, cfg)
    assert calls == [("one_third", "a", k) for k in range(1, 41)]


def _counted_builds_and_streams(monkeypatch):
    """Patch stress._cell_terms and stress.derive_trial_rng to count their
    calls: (profile id, scenario name) per schedule, and streams in all."""
    counts = Counter()
    build, derive = stress._cell_terms, stress.derive_trial_rng

    def counted_build(profile, scenario, horizon_months):
        counts[profile.profile_id, scenario.name] += 1
        return build(profile, scenario, horizon_months)

    def counted_derive(master_seed, trial_index):
        counts["streams"] += 1
        return derive(master_seed, trial_index)

    monkeypatch.setattr(stress, "_cell_terms", counted_build)
    monkeypatch.setattr(stress, "derive_trial_rng", counted_derive)
    return counts


@pytest.mark.parametrize("twin", ["same_id", "same_profile"])
def test_a_repeated_profile_id_raises_before_any_schedule_or_stream(monkeypatch, twin):
    counts = _counted_builds_and_streams(monkeypatch)
    other = HouseholdProfile(**dict(_BASE, profile_id="o"))
    repeated = _UNSETTLED if twin == "same_profile" else HouseholdProfile(**_BASE)
    cfg = PathConfig(horizon_years=2, trials=10, master_seed=2)
    with pytest.raises(ValidationError, match="duplicate profile id 'p'"):
        run_stress([_UNSETTLED, other, repeated], [AllocationRule.one_third()], [BASELINE_SCENARIO], cfg)
    assert not counts


def test_a_profile_that_fails_in_a_trial_stops_every_later_profile(monkeypatch):
    # profile "o" sorts first, fails in its 40th trial, and profile "p"
    # builds no schedule and derives no stream
    monkeypatch.setattr(stress, "ROW_MONTHS_PER_BLOCK", 3 * 24)  # 3 lanes of the one cell
    calls = _failing_run_trial(monkeypatch, {("one_third", "baseline"): 40})
    counts = _counted_builds_and_streams(monkeypatch)
    earlier = HouseholdProfile(
        **dict(_BASE, profile_id="o", debt_balance=Money(0), baseline_expenses=Money(0))
    )
    cfg = PathConfig(horizon_years=2, trials=60, master_seed=2)
    with pytest.raises(DomainError, match="failed"):
        run_stress([_UNSETTLED, earlier], [AllocationRule.one_third()], [BASELINE_SCENARIO], cfg)
    assert calls == [("one_third", "baseline", k) for k in range(1, 41)]
    assert counts == {("o", "baseline"): 1, "streams": 60}


def _built_cell(profile, rule, scenario, horizon_months):
    """The row's cell record, as run_stress builds it."""
    key = (profile, rule, scenario, horizon_months)
    return stress._cell(key, stress._cell_terms(profile, scenario, horizon_months))


def _drawn(profile, horizon_months, rngs):
    """A block of draws, each trial's first normal drawn first, as run_stress draws it."""
    first = np.array([rng.standard_normal() for rng in rngs])
    return stress._draw_block(profile, horizon_months, rngs, first)


def _terms(cell, draws):
    """One cell's month terms and exact mask over the whole horizon of the
    draws, as one window the size of the horizon."""
    return stress._cell_block([cell], draws.levels, slice(0, draws.growth.shape[1]))


def test_each_walked_row_reads_as_its_trial_run_alone():
    # every outcome field, both violation counts included, for walked rows
    # and the rows the walk hands over
    outcomes = Counter()
    for profile in _MIXED_PROFILES:
        cells = [_built_cell(profile, r, s, 60) for r in _MIXED_RULES for s in _MIXED_SCENARIOS]
        draws = _drawn(profile, 60, [derive_trial_rng(2, k) for k in range(12)])
        for block in stress._walk(cells, draws):
            key = block.cell[:4]
            for i in range(12):
                got = run_trial(*key, (block, i))
                assert got == run_trial(*key, derive_trial_rng(2, i)), (key[1:3], i)
                outcomes[got.defaulted, block.rows.handed[block.k][i]] += 1
    assert outcomes[True, False] and outcomes[False, False] and outcomes[False, True]


def test_a_one_month_horizon_walks_the_whole_of_it():
    profile = HouseholdProfile(**_BASE)
    rule = AllocationRule.one_third()
    # month 1 at the profile's own income: the debt and expense buckets cover it
    draws = stress._Draws(np.array([[60000.0]]), np.zeros((1, 1)), np.zeros(1), np.zeros(1, bool))
    cell = _built_cell(profile, rule, BASELINE_SCENARIO, 1)
    assert stress._screenable([cell])
    lane = (stress._walk([cell], draws)[0], 0)
    assert not run_trial(profile, rule, BASELINE_SCENARIO, 1, lane).defaulted


# Grids on both sides of the income bound past which run_stress draws every
# trial's whole row, and past which income leaves Money or a float.
_BIG_DEBT = dict(debt_balance=Money.of("2000000"), debt_apr=0.3)  # interest swamps any split
_EDGE_PROFILES = [
    dict(_BASE, **_BIG_DEBT),
    dict(_BASE, sigma_income=1e12),  # income leaves Money, a float holds it
    dict(_BASE, sigma_income=1e308),  # income overflows a float, or the zero floor hides it
    dict(_BASE, **_BIG_DEBT, sigma_income=1e308),
    dict(_BASE, mu=1e308),  # the cell's own terms break the bound
    dict(_BASE, sigma_market=1e308),  # savings overflow a float after month 1
]
_EDGE_SCENARIOS = [
    ScenarioSpec("shock", income_shock=1e300, onset_month=13),
    ScenarioSpec("late", onset_month=61),  # past every horizon drawn
    ScenarioSpec("inflation", inflation_annual=1e300),
]


@pytest.mark.parametrize(
    "profile, scenarios",
    [
        # no expenses: only interest the debt bucket cannot cover defaults
        (HouseholdProfile(**dict(_BASE, **_BIG_DEBT, baseline_expenses=Money(0))), _DROPS),
        (HouseholdProfile(**_BASE), _DROPS),
        (HouseholdProfile(**_BASE), _DROPS + [BASELINE_SCENARIO]),
    ],
)
def test_the_screen_settles_the_trials_that_default_in_month_1_in_every_cell(profile, scenarios):
    rules = [AllocationRule.one_third(), _custom(Fraction(1, 3), Fraction(1, 2))]
    cells = [_built_cell(profile, r, s, 24) for r in rules for s in scenarios]
    assert stress._screenable(cells)
    first = np.array([derive_trial_rng(9, k).standard_normal() for k in range(60)])
    settled = stress._screen(cells, first)
    want = [
        all(
            run_trial(profile, rule, scenario, 24, derive_trial_rng(9, k)).default_month == 1
            for rule in rules
            for scenario in scenarios
        )
        for k in range(60)
    ]
    assert settled.tolist() == want


def test_a_profile_past_the_screens_bound_is_never_screened(monkeypatch):
    # Every trial of the indebted profile defaults in month 1, but the
    # shock from month 13 puts income past the bound, so no trial settles
    # and each draws its whole row.
    grid = _edge_grid([_EDGE_PROFILES[0]], [_EDGE_SCENARIOS[0]])
    screened, screen = [], stress._screen
    monkeypatch.setattr(stress, "_screen", lambda *args: screened.append(args) or screen(*args))
    assert not stress._screenable([_built_cell(grid[0][0], grid[1][0], grid[2][0], 24)])
    rows = run_stress(*grid)
    assert screened == []
    assert rows == _reference_run_stress(*grid)
    assert all(row.default_rate == 1.0 for row in rows)


@st.composite
def _grids(draw):
    horizon = draw(st.integers(1, 60))
    profiles = [
        HouseholdProfile(**dict(draw(st.sampled_from(_EDGE_PROFILES)), profile_id=f"p{i}"))
        if draw(st.integers(0, 3)) == 0
        else _draw_profile(draw, f"p{i}")
        for i in range(draw(st.integers(1, 3)))
    ]
    rules = draw(st.lists(
        st.one_of(_RULES, st.sampled_from([_HUGE_NUMERATORS, _HUGE_DENOMINATOR])),
        min_size=1, max_size=3,
    ))  # fmt: skip
    scenarios = [
        draw(st.sampled_from(_EDGE_SCENARIOS)) if draw(st.integers(0, 5)) == 0
        else _draw_scenario(draw, horizon, f"s{i}")
        for i in range(draw(st.integers(1, 3)))
    ]
    trials = draw(st.integers(1, 80))
    return profiles, rules, scenarios, _grid_config(horizon, trials, draw(st.integers(0, 2**32 - 1)))


def _edge_grid(profiles, scenarios, horizon=24, trials=80, seed=3, rules=None):
    profiles = [HouseholdProfile(**dict(p, profile_id=f"p{i}")) for i, p in enumerate(profiles)]
    rules = rules or [AllocationRule.one_third(), _HUGE_NUMERATORS]
    return profiles, rules, scenarios, _grid_config(horizon, trials, seed)


@settings(max_examples=60, deadline=None)
@given(_grids())
# every trial defaults in month 1 in every cell
@example(_edge_grid(
    [_EDGE_PROFILES[0]], [ScenarioSpec("a"), ScenarioSpec("b", income_shock=-0.5)],
    rules=[AllocationRule.one_third(), AllocationRule.fifty_thirty_twenty()],
))  # fmt: skip
# a shock past the bound after every trial has defaulted
@example(_edge_grid([_EDGE_PROFILES[0]], [_EDGE_SCENARIOS[0]]))
# a good profile, then one whose income overflows a float, with and without defaults
@example(_edge_grid([_BASE, _EDGE_PROFILES[2]], [ScenarioSpec("a")]))
@example(_edge_grid([_BASE, _EDGE_PROFILES[3]], [ScenarioSpec("a")], horizon=1, seed=2))
# a cell, then one whose own terms break the bound: the first cell's trials
# all default in month 1, or overflow savings after it
@example(_edge_grid([_EDGE_PROFILES[0]], [ScenarioSpec("a"), _EDGE_SCENARIOS[2]]))
@example(_edge_grid([_EDGE_PROFILES[5]], [ScenarioSpec("a"), _EDGE_SCENARIOS[2]]))
# a good cell, then one whose trials live to income past the bound
@example(_edge_grid([_BASE], [ScenarioSpec("a"), _EDGE_SCENARIOS[0]]))
# a profile past the screen's bound whose trials raise, before one whose trials all settle
@example(_edge_grid([_EDGE_PROFILES[1], _EDGE_PROFILES[0]], [ScenarioSpec("a")]))
# no debt, and expenses past every expense bucket: every trial settles, its
# debt cleared in month 0
@example(_edge_grid(
    [dict(_BASE, debt_balance=Money(0), baseline_expenses=Money.of("60000"))], [ScenarioSpec("a")],
    rules=[AllocationRule.one_third(), AllocationRule.fifty_thirty_twenty()],
))  # fmt: skip
# no debt, and expenses near one_third's bucket: about half the trials settle
@example(_edge_grid(
    [dict(_BASE, debt_balance=Money(0), baseline_expenses=Money.of("20000"))], [ScenarioSpec("a")],
    rules=[AllocationRule.one_third(), _custom(Fraction(1, 3), Fraction(1, 2))],
))  # fmt: skip
def test_run_stress_matches_trials_run_alone(grid):
    # run_stress's rows are the reference loop's; its error is the first one
    # its trials raise when each runs alone, in row order.  RuntimeWarning is
    # an error, as in the CLI.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        want = _first_lone_trial_error(*grid)
        if want is None:
            assert run_stress(*grid) == _reference_run_stress(*grid)
        else:
            with pytest.raises(Exception) as got:
                run_stress(*grid)
            assert (type(got.value), str(got.value)) == (type(want), str(want))


def test_a_block_flags_the_lanes_whose_raw_income_overflows_a_float():
    # At this volatility a lane's raw income overflows once |W(t)| passes
    # about 1, to inf or, floored at zero, to 0.  The levels are those of
    # income_levels past I0 bit for bit, and the flags are the lanes for
    # which numpy reports an overflow.
    profile = HouseholdProfile(**dict(_BASE, sigma_income=3e303))
    args = (profile.income.units, profile.mu, profile.sigma_income, _DT)
    draws = _drawn(profile, 12, [derive_trial_rng(4, k) for k in range(40)])
    for k in range(40):
        shocks = derive_trial_rng(4, k).standard_normal(12)
        with np.errstate(all="ignore"):
            levels = income_levels(*args, shocks)
        assert draws.levels[k].tobytes() == levels[1:].tobytes()
        with np.errstate(over="raise", invalid="raise"):
            try:
                income_levels(*args, shocks)
            except FloatingPointError:
                assert draws.overflowed[k]
            else:
                assert not draws.overflowed[k]
    hidden = draws.overflowed & np.isfinite(draws.levels).all(axis=1)
    assert hidden.any() and not draws.overflowed.all()


@pytest.mark.parametrize("action", ["default", "error", "ignore"])
def test_income_that_overflows_a_float_raises_whatever_the_warnings_filter(action):
    # At seed 2 the one month's income shock is negative: income overflows
    # to -inf and the zero floor turns it into 0.  The lane is flagged when
    # it is drawn, so a trial run alone and run_stress raise, and warn of
    # nothing, under any filter.
    profile = HouseholdProfile(**dict(_BASE, profile_id="h1", sigma_income=1e308))
    rule = AllocationRule.one_third()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        with pytest.raises(DomainError) as alone:
            run_trial(profile, rule, BASELINE_SCENARIO, 1, derive_trial_rng(2, 0))
        with pytest.raises(DomainError) as stressed:
            run_stress([profile], [rule], [BASELINE_SCENARIO], _grid_config(1, 1, 2))
    message = "profile 'h1': sigma_income 1e+308 puts income past the money bound"
    assert str(alone.value) == str(stressed.value) == message
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize(
    "rule, exact",
    [(_HUGE_NUMERATORS, True), (_HUGE_DENOMINATOR, True), (AllocationRule.one_third(), False)],
)
def test_splits_int64_cannot_hold_take_python_ints(rule, exact):
    profile = _MIXED_PROFILES[0]
    draws = _drawn(profile, 12, [derive_trial_rng(0, k) for k in range(3)])
    _, exact_months = _terms(_built_cell(profile, rule, BASELINE_SCENARIO, 12), draws)
    assert exact_months[0].all(axis=1).tolist() == [exact] * 3


# the income, expense and rate shocks open in month 2 and close after month 6
_LATE_WINDOW = ScenarioSpec(
    "late", income_shock=-0.4, apr_multiplier=2.0, inflation_annual=0.5, onset_month=2,
    duration_months=5,
)  # fmt: skip


@pytest.mark.parametrize("rule", [AllocationRule.one_third(), _HUGE_NUMERATORS])
def test_a_window_of_months_is_those_months_of_the_whole_block(rule):
    # the month-1 screen and the walk's windows take the cells' own terms,
    # of every month of the horizon, and each cell's are its own block's
    profile = HouseholdProfile(**_BASE)
    cells = [_built_cell(profile, rule, scenario, 12) for scenario in (_LATE_WINDOW, BASELINE_SCENARIO)]
    draws = _drawn(profile, 12, [derive_trial_rng(4, k) for k in range(5)])
    draws.levels[0] = 1e18  # lane 0's income is past the money bound in every month
    months, exact = stress._cell_block(cells, draws.levels, slice(0, 12))
    # int64 cannot hold the huge numerators' split, so every lane is exact
    assert exact.all(axis=2).tolist() == [[True] + [rule is _HUGE_NUMERATORS] * 4] * 2
    for k, cell in enumerate(cells):
        alone = _terms(cell, draws)
        assert np.array_equal(alone[0], months[:, k : k + 1])
        assert np.array_equal(alone[1], exact[k : k + 1])
    for start, stop in ((0, 1), (0, 2), (1, 6), (5, 12), (11, 12)):
        window = stress._cell_block(cells, draws.levels[:, start:stop], slice(start, stop))
        assert np.array_equal(window[0], months[..., start:stop])
        assert np.array_equal(window[1], exact[..., start:stop])


def test_run_stress_matches_reference_loop_past_the_money_bound():
    # The shock puts income past MAX_CENTS from month 13 on, but interest
    # swamps the debt bucket and every trial defaults before then.
    profile = HouseholdProfile(**dict(_BASE, debt_balance=Money.of("2000000"), debt_apr=0.3))
    scenarios = [ScenarioSpec("shock", income_shock=1e300, onset_month=13)]
    cfg = PathConfig(horizon_years=2, trials=2 * _WIDTH + 3, master_seed=1)
    draws = _drawn(profile, 24, [derive_trial_rng(1, 0)])
    _, exact = _terms(_built_cell(profile, _MIXED_RULES[0], scenarios[0], 24), draws)
    # from month 13 the terms are Python ints' to compute, not the walk's
    assert exact.tolist() == [[[False] * 12 + [True] * 12]]
    args = ([profile], _MIXED_RULES, scenarios, cfg)
    rows = run_stress(*args)
    assert [row.default_rate for row in rows] == [1.0] * len(_MIXED_RULES)
    assert rows == _reference_run_stress(*args)


def test_nothing_outlives_a_run():
    # every trial defaults in month 1, and 64 schedules of 1200 months each
    # are built: none may stay behind once run_stress returns
    profile = HouseholdProfile(**dict(_BASE, **_BIG_DEBT))
    rules = [AllocationRule.one_third()]
    scenarios = [ScenarioSpec(f"s{k}", inflation_annual=1e-5 * (k + 1)) for k in range(64)]
    # a first, shorter run pays the lazy imports and the stream seed cache
    run_stress([profile], rules, scenarios[:1], PathConfig(horizon_years=1, trials=4, master_seed=3))
    tracing = tracemalloc.is_tracing()
    gc.collect()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_stress([profile], rules, scenarios, PathConfig(horizon_years=100, trials=4, master_seed=3))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert held < 0.5e6


@pytest.mark.parametrize(
    "horizon, message",
    [(12.0, "integer"), (True, "integer"), ("12", "integer"), (0, "positive"), (MAX_STEPS + 1, "at most")],
)
def test_run_trial_rejects_a_bad_horizon_before_it_draws(horizon, message):
    rng = derive_trial_rng(0, 0)
    state = rng.bit_generator.state
    with pytest.raises(ValidationError, match=f"horizon_months must be .*{message}"):
        run_trial(_MIXED_PROFILES[0], AllocationRule.one_third(), BASELINE_SCENARIO, horizon, rng)
    assert rng.bit_generator.state == state


def test_a_lane_runs_only_in_its_own_cell():
    profile = _MIXED_PROFILES[0]
    rule = AllocationRule.one_third()
    draws = _drawn(profile, 12, [derive_trial_rng(0, 0)])
    lane = (stress._walk([_built_cell(profile, rule, BASELINE_SCENARIO, 12)], draws)[0], 0)
    assert run_trial(profile, rule, BASELINE_SCENARIO, 12, lane) == run_trial(
        profile, rule, BASELINE_SCENARIO, 12, derive_trial_rng(0, 0)
    )
    with pytest.raises(ValidationError, match="another stress cell"):
        run_trial(profile, AllocationRule.seventy_twenty_ten(), BASELINE_SCENARIO, 12, lane)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(0.0, float(MAX_CENTS)),
            # halves, where round and rint must both go to the even neighbour
            st.integers(0, 2**52 - 1).map(lambda n: n + 0.5),
            st.sampled_from([0.5, 1.5, 2.5, -0.0, float(MAX_CENTS), MAX_CENTS - 0.5]),
        ),
        min_size=1,
    )
)
def test_rint_rounds_like_round(values):
    # the block's income in cents is np.rint of the float a trial alone
    # would round with round()
    assert np.rint(np.array(values)).astype(np.int64).tolist() == [round(v) for v in values]


@st.composite
def _cents_times_factor(draw):
    """int64 amounts up to 2**53 and one finite factor x >= 0, with every
    amount times x within MAX_CENTS: debt × rate, or buffer × growth."""
    x = draw(st.one_of(
        st.floats(0.0, 2.0),  # rates and growth factors
        st.floats(0.0, float(MAX_CENTS)),
        st.sampled_from([0.0, 0.5, 1.5, 0.015, 1.0 + 0.04 / 12]),  # 0.5 and 1.5 make halves
    ))  # fmt: skip
    limit = 2**53 if x <= 1.0 else int(MAX_CENTS / x)
    amounts = draw(st.lists(st.integers(0, limit), min_size=1))
    return [a for a in amounts if a * x <= MAX_CENTS] or [0], x


@settings(max_examples=100, deadline=None)
@given(_cents_times_factor())
def test_rint_of_an_int64_product_rounds_like_round(case):
    # the walk's interest and savings growth against run_trial's round()
    amounts, x = case
    got = np.rint(np.array(amounts, dtype=np.int64) * x).astype(np.int64)
    assert got.tolist() == [round(int(v) * x) for v in amounts]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**53 - 1), st.integers(1, 2**53 - 1)), min_size=1))
def test_int64_true_division_is_pythons(pairs):
    # the walk's DTI ratio, debt service over income, against run_trial's
    s, n = (np.array(column, dtype=np.int64) for column in zip(*pairs))
    assert (s / n).tolist() == [a / b for a, b in pairs]


# ---------------------------------------------------------------------------
# report bytes

_FIXTURES = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "fixtures")

# sha256 of `thirdrule stress` stdout on the benchmark fixtures, recorded
# before the month-only terms left the loop.
_GOLDEN = {
    (0, False): "fd0c4225e855bd03b6447cae998695822f53327db7d97a8d97c657da49110efd",
    (0, True): "5d14aa0a5f1e81f712df7280d39d753ad444a412dca7069ecdcc9c2f1ec23873",
    (7, False): "294157455f6947a0753d68f1c3bef39c1c061a7d71be373d69d0dd95800de20c",
    (7, True): "f8a955137d8ba528ad57be506de731f992f46df22027db859b1656836f7c665f",
}


def test_stress_report_bytes_are_pinned(capsys):
    argv = [
        "stress",
        "--profiles", os.path.join(_FIXTURES, "profiles.csv"),
        "--scenarios", os.path.join(_FIXTURES, "scenarios.json"),
        "--rules", "one_third,fifty_thirty_twenty,seventy_twenty_ten",
        "--trials", "20",
    ]  # fmt: skip
    got = {}
    with mock.patch.dict(os.environ, {THREADS_ENV_VAR: "1"}):
        for seed, compare in _GOLDEN:
            code = main(argv + ["--seed", str(seed)] + (["--compare"] if compare else []))
            out, err = capsys.readouterr()
            assert (code, err) == (0, "")
            got[seed, compare] = hashlib.sha256(out.encode()).hexdigest()
    assert got == _GOLDEN


# ---------------------------------------------------------------------------
# seams the benchmark's traced run and the ``-O`` test patch


def test_stress_seams_keep_their_names():
    assert len(inspect.signature(stress.run_trial).parameters) == 5
    for name in (
        "derive_trial_rng",
        "mix_correlated",
        "income_levels",
        "_aggregate",
        "_split_cents",
    ):
        assert callable(getattr(stress, name)), name


def test_run_stress_calls_its_seams_once_per_row_and_trial(monkeypatch):
    # The traced benchmark times each row in _aggregate and each trial in
    # run_trial, through the module namespace.  run_trial reads each
    # (row, lane) of a walked block, or runs a row the walk handed over in
    # Python ints.  The trials the month-1 screen settles are tallied in
    # closed form and never reach run_trial.
    aggregated, trials, settled = [], Counter(), Counter()
    aggregate, trial, screen = stress._aggregate, stress.run_trial, stress._screen

    def counted_aggregate(profile, rule, scenario, *args):
        aggregated.append((profile.profile_id, rule.rule_id.value, scenario.name))
        return aggregate(profile, rule, scenario, *args)

    def counted_trial(profile, rule, scenario, *args):
        trials[profile.profile_id, rule.rule_id.value, scenario.name] += 1
        return trial(profile, rule, scenario, *args)

    def counted_screen(cells, first):
        mask = screen(cells, first)
        settled[cells[0].profile.profile_id] += int(mask.sum())
        return mask

    monkeypatch.setattr(stress, "_aggregate", counted_aggregate)
    monkeypatch.setattr(stress, "run_trial", counted_trial)
    monkeypatch.setattr(stress, "_screen", counted_screen)
    rows = run_stress(*_SCREENED_GRID)
    assert aggregated == [(row.profile_id, row.rule.value, row.scenario) for row in rows]
    assert len(rows) == 8
    assert {row: trials[row] for row in aggregated} == {row: 300 - settled[row[0]] for row in aggregated}
    assert settled["q"] == 300 and 0 < settled["p"] < 300
