"""Probit bankruptcy risk against a high-precision oracle."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

mpmath = pytest.importorskip("mpmath")

from thirdrule import (
    DEFAULT_DTI_LIMIT,
    DEFAULT_SER_FLOOR,
    RiskParams,
    ValidationError,
    bankruptcy_probability,
    classify_stability,
    std_normal_cdf,
)


def _phi_oracle(x: float) -> float:
    """Standard normal CDF at 50 decimal digits, rounded to a float."""
    with mpmath.workdps(50):
        return float(mpmath.ncdf(mpmath.mpf(x)))


ORACLE_POINTS = [
    -8.0, -6.0, -4.0, -3.0, -2.5, -2.0, -1.5, -1.0, -0.5, -0.1,
    0.0, 0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0,
]


class TestStdNormalCdf:
    def test_at_zero(self):
        assert abs(std_normal_cdf(0.0) - 0.5) <= 1e-12

    def test_tabulated_points_against_oracle(self):
        assert len(ORACLE_POINTS) == 20
        for x in ORACLE_POINTS:
            assert std_normal_cdf(x) == pytest.approx(_phi_oracle(x), abs=1e-6)

    def test_tail_accuracy_is_much_better_than_required(self):
        for x in ORACLE_POINTS:
            assert std_normal_cdf(x) == pytest.approx(_phi_oracle(x), rel=1e-12, abs=1e-300)

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.2):
            assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)


class TestRiskParams:
    def test_defaults(self):
        p = RiskParams()
        assert (p.beta_dti, p.beta_ser) == (2.0, -1.0)
        assert (p.beta_sigma_income, p.beta_sigma_market) == (1.0, 0.5)
        assert p.dti_limit == DEFAULT_DTI_LIMIT == 0.36
        assert p.ser_floor == DEFAULT_SER_FLOOR == 1.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            RiskParams(beta_dti=float("nan"))
        with pytest.raises(ValidationError):
            RiskParams(dti_limit=-0.1)


class TestBankruptcyProbability:
    def test_linear_index_through_oracle(self):
        p = RiskParams()
        cases = [
            (0.30, 1.2, 0.0, 0.0),
            (0.45, 0.8, 0.1, 0.2),
            (0.0, 2.0, 0.0, 0.0),
            (0.9, 0.1, 0.3, 0.3),
        ]
        for dti, ser, si, sm in cases:
            index = 2.0 * dti - 1.0 * ser + 1.0 * si + 0.5 * sm
            assert bankruptcy_probability(p, dti, ser, si, sm) == pytest.approx(
                _phi_oracle(index), rel=1e-12
            )

    def test_balanced_inputs_sit_at_one_half(self):
        # dti 0.4 and ser 0.8 cancel under the default coefficients
        assert bankruptcy_probability(RiskParams(), 0.4, 0.8) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_dti(self):
        p = RiskParams()
        probs = [bankruptcy_probability(p, x, 1.0) for x in (0.0, 0.2, 0.4, 0.8)]
        assert probs == sorted(probs)
        assert probs[0] < probs[-1]

    def test_monotone_down_in_ser(self):
        p = RiskParams()
        probs = [bankruptcy_probability(p, 0.36, s) for s in (0.0, 0.5, 1.0, 2.0)]
        assert probs == sorted(probs, reverse=True)
        assert probs[0] > probs[-1]

    def test_volatility_raises_risk(self):
        p = RiskParams()
        base = bankruptcy_probability(p, 0.3, 1.0)
        assert bankruptcy_probability(p, 0.3, 1.0, sigma_income=0.3) > base
        assert bankruptcy_probability(p, 0.3, 1.0, sigma_market=0.3) > base

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValidationError):
            bankruptcy_probability(RiskParams(), -0.1, 1.0)
        with pytest.raises(ValidationError):
            bankruptcy_probability(RiskParams(), 0.1, -1.0)


class TestClassifyStability:
    def test_thresholds_inclusive(self):
        p = RiskParams()
        ok = classify_stability(p, 0.36, 1.0)
        assert ok.dti_ok and ok.ser_ok
        bad = classify_stability(p, 0.3601, 0.9999)
        assert not bad.dti_ok and not bad.ser_ok

    def test_custom_thresholds(self):
        p = RiskParams(dti_limit=0.5, ser_floor=0.5)
        flags = classify_stability(p, 0.45, 0.6)
        assert flags.dti_ok and flags.ser_ok


# ---------------------------------------------------------------------------
# properties over weights and ratios: the probability against the oracle,
# and its direction in DTI and SER

_WEIGHT = st.floats(-10.0, 10.0)
_RATIO = st.floats(0.0, 10.0)
_SIGMA = st.floats(0.0, 2.0)


def _index_oracle(params, dti, ser, sigma_income, sigma_market):
    """The linear index of the float inputs at 50 decimal digits."""
    with mpmath.workdps(50):
        terms = (
            (params.beta_dti, dti),
            (params.beta_ser, ser),
            (params.beta_sigma_income, sigma_income),
            (params.beta_sigma_market, sigma_market),
        )
        return sum(mpmath.mpf(w) * mpmath.mpf(x) for w, x in terms)


@settings(max_examples=200, deadline=None)
@given(_WEIGHT, _WEIGHT, _WEIGHT, _WEIGHT, _RATIO, _RATIO, _SIGMA, _SIGMA)
@example(2.0, -1.0, 1.0, 0.5, 0.4, 0.8, 0.0, 0.0)  # the index is 0
@example(10.0, -10.0, 0.0, 0.0, 0.0, 3.8, 0.0, 0.0)  # deep in the lower tail
def test_probability_is_the_normal_cdf_of_the_index(b_dti, b_ser, b_si, b_sm, dti, ser, si, sm):
    # |index| <= 240, so the float index is off by under 1e-13; the CDF's
    # relative slope is at most about |index| where it does not underflow
    params = RiskParams(
        beta_dti=b_dti, beta_ser=b_ser, beta_sigma_income=b_si, beta_sigma_market=b_sm
    )
    got = bankruptcy_probability(params, dti, ser, si, sm)
    with mpmath.workdps(50):
        want = float(mpmath.ncdf(_index_oracle(params, dti, ser, si, sm)))
    assert got == pytest.approx(want, rel=1e-9, abs=1e-300)


@settings(max_examples=200, deadline=None)
@given(_WEIGHT, _WEIGHT, _RATIO, _RATIO, _RATIO, _SIGMA, _SIGMA, st.booleans())
def test_probability_moves_with_the_sign_of_each_ratios_weight(
    b_dti, b_ser, x, y, other, si, sm, on_dti
):
    params = RiskParams(beta_dti=b_dti, beta_ser=b_ser)
    weight = b_dti if on_dti else b_ser
    lo, hi = sorted((x, y))

    def probability(ratio):
        dti, ser = (ratio, other) if on_dti else (other, ratio)
        return bankruptcy_probability(params, dti, ser, si, sm)

    p_lo, p_hi = probability(lo), probability(hi)
    if weight == 0.0:
        assert p_lo == p_hi
        return
    # never against the weight's sign, saturated or not
    assert math.copysign(1.0, weight) * (p_hi - p_lo) >= 0.0
    # and strictly where the float CDF resolves a change of the index
    if abs(weight) * (hi - lo) > 1e-6 and 1e-12 < min(p_lo, p_hi) and max(p_lo, p_hi) < 1 - 1e-6:
        assert p_lo != p_hi
