"""The stress ledger against the closed forms it should reproduce.

On a zero-volatility profile (no income or market noise, no drift) every
month is the same, so the ledger's debt and savings recursions have the
annuity solutions that ``debt_clearance_time`` and ``savings_future_value``
compute.  Expenses due stay within the expenses bucket, so no month draws
on savings and no trial defaults.  The oracle shares no code with the
month loop beyond the rule's cent split, which fixes the monthly buckets.
"""

import math
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from thirdrule import (
    BASELINE_SCENARIO,
    AllocationRule,
    AnnuityTiming,
    HouseholdProfile,
    HouseholdType,
    Money,
    debt_clearance_time,
    derive_trial_rng,
    rule_allocation,
    run_trial,
    savings_future_value,
)

_RULES = st.sampled_from(
    [
        AllocationRule.one_third(),
        AllocationRule.fifty_thirty_twenty(),
        AllocationRule.seventy_twenty_ten(),
    ]
)
# monthly income in cents: 12 000 to 300 000 a year, a whole cent a month
_MONTHLY_CENTS = st.integers(min_value=100_000, max_value=2_500_000)


def _clearable_balance(bucket_c, apr, months):
    """Balances the bucket pays off within the horizon: at most the
    bucket's present value over that many months."""
    rate = apr / 12
    factor = months if rate == 0.0 else -math.expm1(-months * math.log1p(rate)) / rate
    return st.integers(min_value=1, max_value=max(1, math.floor(bucket_c * factor)))


@st.composite
def _quiet_household(draw, with_debt):
    """(profile, rule, years, monthly buckets) with expenses due within the
    expenses bucket and, with_debt, a balance the debt bucket clears."""
    rule = draw(_RULES)
    monthly_c = draw(_MONTHLY_CENTS)
    years = draw(st.integers(min_value=1, max_value=10))
    apr = draw(st.floats(min_value=0.0, max_value=0.3)) if with_debt else 0.0
    buckets = rule_allocation(rule, Money(monthly_c))
    due_c = draw(st.integers(min_value=0, max_value=buckets.expenses.cents))
    balance_c = 0
    if with_debt:
        balance_c = draw(_clearable_balance(buckets.debt.cents, apr, 12 * years))
    r_savings = draw(st.just(0.0) | st.floats(min_value=0.0, max_value=0.12))
    profile = HouseholdProfile(
        "quiet",
        HouseholdType.SINGLE_INCOME,
        (Money(12 * monthly_c),),
        Money(balance_c),
        apr,
        # the ledger's monthly due is this over 12, rounded: exactly due_c
        Money(12 * due_c),
        sigma_income=0.0,
        sigma_market=0.0,
        rho=0.0,
        mu=0.0,
        r_savings=r_savings,
    )
    return profile, rule, years, buckets


def _run(profile, rule, years):
    # with no volatility the draws do not matter
    return run_trial(profile, rule, BASELINE_SCENARIO, 12 * years, derive_trial_rng(0, 0))


@settings(max_examples=150, deadline=None)
@given(_quiet_household(with_debt=False))
def test_final_savings_match_the_monthly_annuity(case):
    # With no debt, every month deposits D = debt bucket + savings bucket
    # after growing the balance by g = 1 + r/12, so the ledger runs
    # S_k = round(S_{k-1} g) + D from S_0 = 0, and the closed form is
    # S*_k = S*_{k-1} g + D.  The error e_k = S_k - S*_k obeys
    # e_k = e_{k-1} g + q_k with |q_k| <= 1/2, so
    # |e_H| <= (1/2)(1 + g + ... + g^(H-1)) <= 0.5 H g^H.
    # savings_future_value rounds S*_H to a cent (1/2 more), and the float
    # error of either side, under 1e-5 cents at these sizes, fits in the
    # other half cent.
    profile, rule, years, buckets = case
    out = _run(profile, rule, years)
    assert not out.defaulted
    contribution = Money(12 * (buckets.debt.cents + buckets.savings.cents))
    expected = savings_future_value(contribution, profile.r_savings, years, AnnuityTiming.MONTHLY)
    horizon = 12 * years
    bound = 0.5 * horizon * (1.0 + profile.r_savings / 12) ** horizon + 1
    assert abs(out.final_savings.cents - expected.cents) <= bound


def _clearance_window(balance_c, payment_c, rate, months):
    """The months a rounding ledger can clear the debt in: (lo, hi), with
    months + 1 standing for any later month.

    The closed-form balance after k payments is b_k = b_{k-1}(1 + i) - P.
    The ledger pays interest round(d_{k-1} i), so its balance before the
    clamp at zero is d_k = d_{k-1}(1 + i) - P + q_k with |q_k| <= 1/2, and
    it clears in the first month with d_k <= 0.  The error e_k = d_k - b_k
    obeys e_k = e_{k-1}(1 + i) + q_k, so |e_k| <= E_k = (1/2) sum of
    (1 + i)^j for j < k; E_k below also carries a thousandth of a cent a
    month for float error.  b_k falls and E_k grows with k, so the ledger
    clears no sooner than the first k with b_k <= E_k (lo) and no later
    than the first k with b_k <= -E_k (hi).  When b is more than E cents
    from zero on both sides of the closed-form month ceil(n), lo = hi =
    ceil(n).  Hypothesis found a case that needs the window: B = 10521.16,
    P = 427.58 a month, APR 0.2665, where b_36 = -1.22 cents and the
    ledger, 2.2 cents behind, clears in month 37 against ceil(n) = 36.
    """
    lo = hi = months + 1
    for k in range(months, 0, -1):
        log_growth = k * math.log1p(rate)
        # the sum of (1 + i)^j over j < k, free of cancellation at tiny i
        paid = k if rate == 0.0 else math.expm1(log_growth) / rate
        owed = balance_c * math.exp(log_growth) - payment_c * paid
        if owed <= 0.501 * paid:
            lo = k
        if owed <= -0.501 * paid:
            hi = k
    return lo, hi


@settings(max_examples=150, deadline=None)
@given(_quiet_household(with_debt=True))
def test_debt_clears_in_the_closed_form_month(case):
    # The debt bucket P pays interest, then principal, each month; the
    # closed form says a balance B at monthly rate i is gone after
    # n = -ln(1 - B i / P) / ln(1 + i) payments, so the last payment
    # falls in month ceil(n), up to the interest rounding that
    # _clearance_window bounds.
    profile, rule, years, buckets = case
    months = 12 * years
    rate = profile.debt_apr / 12
    expected = math.ceil(debt_clearance_time(profile.debt_balance, buckets.debt, rate))
    lo, hi = _clearance_window(profile.debt_balance.cents, buckets.debt.cents, rate, months)
    assert lo <= min(expected, months + 1) <= hi
    out = _run(profile, rule, years)
    assert not out.defaulted
    cleared = out.debt_cleared_month
    assert lo <= (months + 1 if cleared is None else cleared) <= hi


# (rule, monthly income in cents, r_savings, sigma_market, rho, seed); the
# seeds were fixed before the first run
_MOMENT_CASES = [
    (AllocationRule.one_third(), 500_000, 0.04, 0.05, -1.0, 101),
    (AllocationRule.fifty_thirty_twenty(), 250_000, 0.08, 0.3, 1.0, 202),
    (AllocationRule.seventy_twenty_ten(), 1_000_000, 0.0, 0.15, 0.0, 303),
    (AllocationRule.one_third(), 123_456, 0.12, 0.25, -0.4, 404),
]


@pytest.mark.parametrize("rule, monthly_c, r_savings, sigma_market, rho, seed", _MOMENT_CASES)
def test_mean_final_savings_match_the_monthly_annuity(rule, monthly_c, r_savings, sigma_market, rho, seed):
    # With no debt and no income noise nothing defaults, and month k grows
    # the balance by g_k = 1 + r/12 + sigma_market sqrt(1/12) z_k, with z_k
    # standard normal whatever rho is (mix_correlated) and drawn apart from
    # the balance it grows.  The zero floor on g_k sits 11 or more standard
    # deviations out, so E[g_k] = 1 + r/12 and the expected balance follows
    # the closed form's recursion, up to the rounding that the savings
    # identity above bounds by 0.5 H (1 + r/12)^H + 1 cents in mean as
    # well.  The sample mean lies within 4 standard errors of its mean.
    years, trials = 5, 2000
    buckets = rule_allocation(rule, Money(monthly_c))
    profile = HouseholdProfile(
        "moments",
        HouseholdType.SINGLE_INCOME,
        (Money(12 * monthly_c),),
        Money.zero(),
        0.0,
        Money(12 * (buckets.expenses.cents // 2)),
        sigma_income=0.0,
        sigma_market=sigma_market,
        rho=rho,
        mu=0.0,
        r_savings=r_savings,
    )
    finals = []
    for k in range(trials):
        out = run_trial(profile, rule, BASELINE_SCENARIO, 12 * years, derive_trial_rng(seed, k))
        assert not out.defaulted
        finals.append(out.final_savings.cents)
    contribution = Money(12 * (buckets.debt.cents + buckets.savings.cents))
    expected = savings_future_value(contribution, r_savings, years, AnnuityTiming.MONTHLY)
    horizon = 12 * years
    rounding = 0.5 * horizon * (1.0 + r_savings / 12) ** horizon + 1
    standard_error = statistics.stdev(finals) / math.sqrt(trials)
    assert abs(statistics.fmean(finals) - expected.cents) <= 4 * standard_error + rounding
