"""Seeded randomness: stream derivation, paths, and their statistics.

The stream-seed test reimplements the mixing recipe from its published
description as an independent oracle, then also checks pinned vectors so
a simultaneous bug in both implementations cannot slip through.
"""

import math

import numpy as np
import pytest

from thirdrule import (
    Money,
    PathConfig,
    ValidationError,
    correlated_normal_pair,
    derive_stream_seed,
    derive_trial_rng,
    income_levels,
    mix_correlated,
    simulate_income_path,
    simulate_savings_path,
)

MASK = (1 << 64) - 1


def _reference_stream_seed(master_seed: int, trial_index: int) -> int:
    """Independent transcription of the 64-bit mix: add (k+1) odd
    increments of the golden-ratio constant, then two xor-multiply
    rounds and a final xor-shift."""
    z = (master_seed + (trial_index + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class TestStreamSeeds:
    def test_against_reference_reimplementation(self):
        for master in (0, 1, 42, 123456789, MASK, 2**63):
            for k in range(20):
                assert derive_stream_seed(master, k) == _reference_stream_seed(master, k)

    def test_pinned_vectors(self):
        # first entry is the published first output of the mix at seed 0
        assert derive_stream_seed(0, 0) == 0xE220A8397B1DCDAF
        assert derive_stream_seed(0, 1) == 0x6E789E6AA1B965F4
        assert derive_stream_seed(0, 2) == 0x06C45D188009454F
        assert derive_stream_seed(42, 0) == 0xBDD732262FEB6E95
        assert derive_stream_seed(42, 7) == 0xCCF635EE9E9E2FA4
        assert derive_stream_seed(MASK, 0) == 0xE4D971771B652C20
        assert derive_stream_seed(123456789, 3) == 0x851E061616A5BEE5

    def test_streams_are_distinct(self):
        seeds = {derive_stream_seed(99, k) for k in range(10000)}
        assert len(seeds) == 10000

    def test_validation(self):
        with pytest.raises(ValidationError):
            derive_stream_seed(-1, 0)
        with pytest.raises(ValidationError):
            derive_stream_seed(0, -1)
        with pytest.raises(ValidationError):
            derive_stream_seed(1 << 64, 0)

    def test_trial_rng_reproducible(self):
        a = derive_trial_rng(7, 3).standard_normal(16)
        b = derive_trial_rng(7, 3).standard_normal(16)
        c = derive_trial_rng(7, 4).standard_normal(16)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestCorrelation:
    def test_mix_endpoints(self):
        z1 = np.array([1.0, -2.0, 0.5])
        z2 = np.array([0.3, 0.7, -1.1])
        assert np.array_equal(mix_correlated(0.0, z1, z2), z2)
        assert np.array_equal(mix_correlated(1.0, z1, z2), z1)

    def test_mix_formula(self):
        z1 = np.array([0.5])
        z2 = np.array([-0.25])
        rho = 0.6
        expected = rho * 0.5 + math.sqrt(1 - rho * rho) * -0.25
        assert mix_correlated(rho, z1, z2)[0] == pytest.approx(expected, rel=1e-15)

    def test_rho_out_of_range(self):
        z = np.zeros(1)
        with pytest.raises(ValidationError):
            mix_correlated(1.5, z, z)

    def test_empirical_correlation(self):
        rng = derive_trial_rng(2024, 0)
        rho = 0.7
        n = 200000
        pairs = np.array([correlated_normal_pair(rho, rng) for _ in range(2000)])
        # the scalar helper is slow; bulk-check through the mixer instead
        z = rng.standard_normal((2, n))
        mixed = mix_correlated(rho, z[0], z[1])
        sample = np.corrcoef(z[0], mixed)[0, 1]
        assert sample == pytest.approx(rho, abs=0.01)
        assert np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1] == pytest.approx(rho, abs=0.08)


class TestPathConfig:
    def test_steps(self):
        cfg = PathConfig(horizon_years=10, dt_years=1 / 12, trials=1, master_seed=0)
        assert cfg.steps == 120

    def test_non_integral_step_count_rejected(self):
        with pytest.raises(ValidationError):
            PathConfig(horizon_years=1.0, dt_years=0.3, trials=1, master_seed=0)

    def test_bad_trials_and_seed(self):
        with pytest.raises(ValidationError):
            PathConfig(horizon_years=1, dt_years=1 / 12, trials=0, master_seed=0)
        with pytest.raises(ValidationError):
            PathConfig(horizon_years=1, dt_years=1 / 12, trials=1, master_seed=-1)


class TestIncomePath:
    def test_zero_volatility_matches_arithmetic_drift(self):
        cfg = PathConfig(horizon_years=5, dt_years=1 / 12, trials=1, master_seed=0)
        path = simulate_income_path(Money.of("41000"), 0.02, 0.0, cfg, derive_trial_rng(0, 0))
        assert len(path.values()) == 61
        assert path.floored_steps == 0
        for k, money in enumerate(path.values()):
            t = k / 12.0
            assert money.cents == round(41000.0 * (1.0 + 0.02 * t) * 100.0)

    def test_recurrence_matches_income_levels_helper(self):
        cfg = PathConfig(horizon_years=2, dt_years=1 / 12, trials=1, master_seed=0)
        rng = derive_trial_rng(5, 9)
        path = simulate_income_path(Money.of("1000"), 0.03, 0.25, cfg, rng)
        shocks = derive_trial_rng(5, 9).standard_normal(cfg.steps)
        expected = income_levels(1000.0, 0.03, 0.25, 1 / 12, shocks)
        assert np.array_equal(path.units, np.rint(expected * 100.0) / 100.0)

    def test_flooring_counts_and_clamps(self):
        # violent downward shocks must clamp at zero, never go negative
        cfg = PathConfig(horizon_years=1, dt_years=1 / 4, trials=1, master_seed=0)
        shocks = np.array([-50.0, -50.0, 1.0, 1.0])
        levels = income_levels(100.0, 0.0, 1.0, 1 / 4, shocks)
        assert levels.min() >= 0.0
        assert levels[1] == 0.0

    def test_time_axis(self):
        cfg = PathConfig(horizon_years=1, dt_years=1 / 2, trials=1, master_seed=3)
        path = simulate_income_path(Money.of("100"), 0.0, 0.1, cfg, derive_trial_rng(3, 0))
        assert np.allclose(path.times, [0.0, 0.5, 1.0])

    def test_terminal_mean_and_std(self):
        # I(T) = I0 (1 + mu T + sigma W_T): check both moments at 3 SE
        i0, mu, sigma, years = 100.0, 0.02, 0.1, 5.0
        cfg = PathConfig(horizon_years=years, dt_years=1 / 12, trials=1, master_seed=11)
        n = 20000
        rng = derive_trial_rng(11, 0)
        all_shocks = rng.standard_normal((n, cfg.steps))
        finals = np.array(
            [income_levels(i0, mu, sigma, 1 / 12, row)[-1] for row in all_shocks]
        )
        expected_mean = i0 * (1.0 + mu * years)
        expected_std = i0 * sigma * math.sqrt(years)
        se = expected_std / math.sqrt(n)
        assert abs(finals.mean() - expected_mean) <= 3 * se
        assert abs(finals.std() - expected_std) <= 4 * expected_std / math.sqrt(2 * n)


class TestSavingsPath:
    def test_zero_volatility_matches_reference_loop(self):
        cfg = PathConfig(horizon_years=5, dt_years=1 / 12, trials=1, master_seed=0)
        path = simulate_savings_path(
            Money.of("1000"), Money.of("200"), 0.04, 0.0, cfg, derive_trial_rng(0, 0)
        )
        value = 1000.0
        expected = [value]
        for _ in range(cfg.steps):
            value = value * (1.0 + 0.04 / 12.0) + 200.0
            expected.append(value)
        got = path.units
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g == round(e * 100.0) / 100.0

    def test_shock_array_matches_sequential_oracle(self):
        cfg = PathConfig(horizon_years=1, dt_years=1 / 12, trials=1, master_seed=0)
        rng = derive_trial_rng(21, 2)
        path = simulate_savings_path(Money.of("500"), Money.of("50"), 0.05, 0.2, cfg, rng)
        z = derive_trial_rng(21, 2).standard_normal(cfg.steps)
        sqrt_dt = math.sqrt(1 / 12)
        value = 500.0
        expected = [value]
        for k in range(cfg.steps):
            factor = max(1.0 + 0.05 / 12 + 0.2 * sqrt_dt * z[k], 0.0)
            value = value * factor + 50.0
            expected.append(value)
        for g, e in zip(path.units, expected):
            assert g == pytest.approx(round(e * 100.0) / 100.0, abs=0.011)

    def test_growth_factor_floored_at_zero(self):
        cfg = PathConfig(horizon_years=1, dt_years=1.0, trials=1, master_seed=0)
        path = simulate_savings_path(
            Money.of("100"),
            Money.of("10"),
            0.0,
            5.0,
            cfg,
            derive_trial_rng(0, 0),
            shocks=np.array([-10.0]),
        )
        # balance wiped by the crash, only the contribution remains
        assert path.units[-1] == 10.0

    def test_shock_shape_validated(self):
        cfg = PathConfig(horizon_years=1, dt_years=1 / 2, trials=1, master_seed=0)
        with pytest.raises(ValidationError):
            simulate_savings_path(
                Money.of("1"),
                Money.of("1"),
                0.0,
                0.1,
                cfg,
                derive_trial_rng(0, 0),
                shocks=np.zeros(5),
            )

    def test_mean_growth_tracks_deterministic_compounding(self):
        cfg = PathConfig(horizon_years=3, dt_years=1 / 12, trials=1, master_seed=0)
        n = 4000
        finals = []
        for k in range(n):
            path = simulate_savings_path(
                Money.of("1000"), Money.of("100"), 0.06, 0.15, cfg, derive_trial_rng(77, k)
            )
            finals.append(path.units[-1])
        value = 1000.0
        for _ in range(cfg.steps):
            value = value * (1.0 + 0.06 / 12.0) + 100.0
        mean = float(np.mean(finals))
        std = float(np.std(finals))
        assert abs(mean - value) <= 3 * std / math.sqrt(n)
