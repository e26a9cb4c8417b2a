"""The shared input checks and the bounds they guard: one finite-number
rule, one integer rule, Money's cent bound and the planner's shock-sample
cap."""

import math

import pytest

from thirdrule import (
    DomainError,
    Money,
    PathConfig,
    RiskParams,
    ValidationError,
    bankruptcy_probability,
    default_config,
    derive_trial_rng,
    simulate_income_path,
    simulate_savings_path,
)
from thirdrule.domain import MAX_CENTS
from thirdrule.dynamic import MAX_SHOCK_SAMPLES, HouseholdState
from thirdrule.errors import finite_number, is_int


class TestFiniteNumber:
    @pytest.mark.parametrize("value", [0, -3, 2.5, 1e308])
    def test_returns_finite_numbers_unchanged(self, value):
        assert finite_number(value, "x") is value

    @pytest.mark.parametrize("value", [True, "1", None, 1j])
    def test_rejects_non_numbers(self, value):
        with pytest.raises(ValidationError, match=r"^x must be a number$"):
            finite_number(value, "x")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValidationError, match=r"^\$\.x: must be finite$"):
            finite_number(value, "$.x:")


@pytest.mark.parametrize("value, expected", [(0, True), (-7, True), (True, False), (1.0, False)])
def test_is_int(value, expected):
    assert is_int(value) is expected


class TestMoneyBound:
    def test_bound_is_inclusive(self):
        assert Money(MAX_CENTS).cents == 2**53
        with pytest.raises(ValidationError, match="out of range"):
            Money(MAX_CENTS + 1)

    def test_parsed_amount_past_the_bound(self):
        with pytest.raises(ValidationError, match="out of range"):
            Money.of("1e20")

    def test_sum_past_the_bound(self):
        with pytest.raises(ValidationError, match="out of range"):
            Money(MAX_CENTS) + Money(1)


class TestSimulatedPathBound:
    def test_income_level_past_the_bound_is_domain_error(self):
        cfg = PathConfig(horizon_years=1.0)
        with pytest.raises(DomainError, match="money bound"):
            simulate_income_path(Money.of("100"), 1e300, 0.0, cfg, derive_trial_rng(0, 0))

    def test_savings_level_past_the_bound_is_domain_error(self):
        cfg = PathConfig(horizon_years=1.0)
        with pytest.raises(DomainError, match="money bound"):
            simulate_savings_path(
                Money.of("100"), Money.zero(), 1e6, 0.0, cfg, derive_trial_rng(0, 0)
            )

    @pytest.mark.parametrize("mu, sigma", [(math.nan, 0.1), (0.0, math.inf)])
    def test_non_finite_income_parameters(self, mu, sigma):
        cfg = PathConfig(horizon_years=1.0)
        with pytest.raises(ValidationError, match="must be finite"):
            simulate_income_path(Money.of("100"), mu, sigma, cfg, derive_trial_rng(0, 0))

    @pytest.mark.parametrize("rate, sigma", [(math.nan, 0.1), (0.0, -math.inf)])
    def test_non_finite_savings_parameters(self, rate, sigma):
        cfg = PathConfig(horizon_years=1.0)
        with pytest.raises(ValidationError, match="must be finite"):
            simulate_savings_path(
                Money.of("100"), Money.zero(), rate, sigma, cfg, derive_trial_rng(0, 0)
            )


class TestShockSampleCap:
    def _state(self):
        return HouseholdState(Money.of("36000"), Money.zero(), Money.zero())

    def test_cap_is_inclusive(self):
        cfg = default_config(self._state(), 1, shock_std=0.1, shock_samples=MAX_SHOCK_SAMPLES)
        assert cfg.shock_samples == MAX_SHOCK_SAMPLES
        with pytest.raises(ValidationError, match="shock_samples"):
            default_config(self._state(), 1, shock_std=0.1, shock_samples=MAX_SHOCK_SAMPLES + 1)

    def test_nan_rate_names_the_field(self):
        with pytest.raises(ValidationError, match="^debt_apr must be finite$"):
            default_config(self._state(), 1, debt_apr=math.nan)


def test_risk_index_overflow_is_domain_error():
    params = RiskParams(beta_dti=1e308, beta_ser=-1e308)
    with pytest.raises(DomainError, match="overflows"):
        bankruptcy_probability(params, 1e308, 1e308)
