"""The stress month ledger against a frozen reference loop.

``_reference_run_trial`` is the month loop as it stood before the
month-only terms moved out of it: every month recomputes the scenario
window, the expenses due and the debt rate.  It is kept here only as an
oracle; ``run_trial`` must return an equal ``TrialOutcome`` for any
input, and the CLI report on the benchmark fixtures must keep its bytes.
"""

import hashlib
import inspect
import math
import os
from fractions import Fraction
from typing import Optional
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from thirdrule import (
    AllocationRule,
    HouseholdProfile,
    HouseholdType,
    Money,
    ScenarioSpec,
    THREADS_ENV_VAR,
    TrialOutcome,
    derive_trial_rng,
    run_trial,
    stress,
)
from thirdrule.cli import main
from thirdrule.domain import _round_div, _settle_residual
from thirdrule.errors import DomainError, ValidationError
from thirdrule.stochastic import income_levels, mix_correlated

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
    min_buffer_c: Optional[int] = None
    dti_series: list[float] = []
    ser_series: list[float] = []

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
        if min_buffer_c is None or buffer_c < min_buffer_c:
            min_buffer_c = buffer_c
        if buffer_c < 0:
            return TrialOutcome(
                defaulted=True,
                default_month=month,
                debt_cleared_month=cleared,
                final_savings=Money(savings_c),
                min_cash_buffer=buffer_c / 100.0,
                dti_series=tuple(dti_series),
                ser_series=tuple(ser_series),
            )
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

    return TrialOutcome(
        defaulted=False,
        default_month=None,
        debt_cleared_month=cleared,
        final_savings=Money(savings_c),
        min_cash_buffer=(min_buffer_c if min_buffer_c is not None else savings_c) / 100.0,
        dti_series=tuple(dti_series),
        ser_series=tuple(ser_series),
    )


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


@st.composite
def _cases(draw):
    horizon = draw(st.integers(1, 60))
    debt = draw(st.one_of(st.just(0), st.integers(0, 10_000_000)))
    expenses = draw(st.one_of(st.just(0), st.integers(0, 12_000_000)))
    profile = HouseholdProfile(
        profile_id="p",
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
    scenario = ScenarioSpec(
        name="s",
        income_shock=draw(st.one_of(st.just(0.0), st.just(-1.0), st.floats(-1.0, 0.5))),
        apr_multiplier=draw(st.floats(0.1, 5.0)),
        inflation_annual=draw(st.one_of(st.just(0.0), st.floats(-0.5, 0.5))),
        # onset may land on the horizon itself
        onset_month=draw(st.one_of(st.just(horizon), st.integers(1, horizon))),
        # 0 is a permanent shock; others are windows that may outlast the horizon
        duration_months=draw(st.one_of(st.just(0), st.integers(1, 70))),
    )
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
