"""Seeded stochastic processes for income and savings.

Income follows an arithmetic form I(t) = I0 * (1 + mu * t + sigma_i * W(t))
floored at zero, with W a standard Brownian motion discretized on the step
grid.  Savings follow a geometric Euler step
S <- S * (1 + r * dt + sigma_m * sqrt(dt) * z) plus an end-of-period
contribution.  The two shock streams can be correlated through
``mix_correlated``.

Reproducibility contract
------------------------
Every Monte Carlo trial draws from its own generator derived from
(master_seed, trial_index) through a SplitMix64 finalizer, bit exactly:

    z = (master_seed + (trial_index + 1) * 0x9E3779B97F4A7C15) mod 2**64
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    seed = z XOR (z >> 31)

``derive_stream_seed(m, k)`` equals the (k+1)-th output of the reference
SplitMix64 sequence started at state m.  The derived 64-bit seed feeds
numpy's PCG64 bit generator.  A trial's draws therefore depend only on
(master_seed, trial_index), not on which other trials run or in what order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import MAX_CENTS, Money
from .errors import DomainError, ValidationError, finite_number, is_int

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB

# Read by nothing (stress runs on one thread); kept because tests and perfbench set it.
THREADS_ENV_VAR = "THIRDRULE_THREADS"
# One float64 per step is 0.8 MB per path array at this bound (over 8000
# years of months); an unbounded count can exhaust memory before any draw.
MAX_STEPS = 100_000


def derive_stream_seed(master_seed: int, trial_index: int) -> int:
    """Mix (master_seed, trial_index) into a 64-bit stream seed.

    See the module docstring for the exact bit recipe.
    """
    if not 0 <= master_seed < 2**64:
        raise ValidationError("master_seed must fit in 64 bits")
    if trial_index < 0:
        raise ValidationError("trial_index must be nonnegative")
    z = (master_seed + (trial_index + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK64
    return z ^ (z >> 31)


def derive_trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Per-trial generator: PCG64 seeded with the derived stream seed."""
    return np.random.Generator(np.random.PCG64(derive_stream_seed(master_seed, trial_index)))


def mix_correlated(rho: float, z_first: np.ndarray, z_second: np.ndarray) -> np.ndarray:
    """Combine two independent standard normal draws into one correlated
    with the first at coefficient rho."""
    if not -1.0 <= rho <= 1.0:
        raise ValidationError("rho must lie in [-1, 1]")
    return rho * z_first + math.sqrt(1.0 - rho * rho) * z_second


@dataclass(frozen=True)
class PathConfig:
    """Simulation clock and trial budget.

    horizon_years must be an integer number of dt_years steps.
    """

    horizon_years: float
    dt_years: float = 1.0 / 12.0
    trials: int = 1
    master_seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.horizon_years) or self.horizon_years <= 0:
            raise ValidationError("horizon_years must be positive and finite")
        if not math.isfinite(self.dt_years) or self.dt_years <= 0:
            raise ValidationError("dt_years must be positive and finite")
        ratio = self.horizon_years / self.dt_years
        if not ratio < MAX_STEPS + 0.5:
            raise ValidationError(f"horizon_years must span at most {MAX_STEPS} dt_years steps")
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValidationError("horizon_years must be a whole number of dt_years steps")
        if not is_int(self.trials) or self.trials < 1:
            raise ValidationError("trials must be a positive integer")
        if not is_int(self.master_seed):
            raise ValidationError("master_seed must be an integer")
        if not 0 <= self.master_seed < 2**64:
            raise ValidationError("master_seed must fit in 64 bits")

    @property
    def steps(self) -> int:
        return round(self.horizon_years / self.dt_years)


def _unit_path(mu: float, sigma_income: float, dt: float, shocks: np.ndarray) -> np.ndarray:
    """Raw income per unit of I0, 1 + mu t + sigma_income W(t), at t = dt, 2 dt, ..."""
    t = np.arange(1, len(shocks) + 1) * dt
    w = np.cumsum(math.sqrt(dt) * np.asarray(shocks, dtype=float))
    return 1.0 + mu * t + sigma_income * w


def _floored(i0_units: float, raw: np.ndarray) -> np.ndarray:
    return np.concatenate(((i0_units,), np.maximum(raw, 0.0)))


def income_levels(
    i0_units: float, mu: float, sigma_income: float, dt: float, shocks: np.ndarray
) -> np.ndarray:
    """Income level at each step given the per-step normal shocks.

    Returns an array of len(shocks) + 1 values starting at I0, floored at
    zero: the discretization ``simulate_income_path`` shares.
    """
    return _floored(i0_units, i0_units * _unit_path(mu, sigma_income, dt, shocks))


@dataclass(frozen=True, eq=False)
class SimulatedPath:
    """One simulated income or savings trajectory, cent-quantized per step.

    floored_steps counts the income steps whose raw level fell below zero
    before the floor; it stays 0 for savings paths.
    """

    times: np.ndarray
    cents: np.ndarray
    floored_steps: int = 0

    @property
    def units(self) -> np.ndarray:
        return self.cents / 100.0

    def values(self) -> list[Money]:
        return [Money(int(c)) for c in self.cents]


def _quantized_path(levels, dt: float, floored_steps: int = 0) -> SimulatedPath:
    """Round per-step levels in units to int64 cents.  A level past
    Money's bound (or NaN) is a DomainError, not a wrapped int64."""
    cents = np.rint(np.asarray(levels) * 100.0)
    if not cents.max() <= MAX_CENTS:
        raise DomainError(f"a simulated level exceeds the money bound of {MAX_CENTS} cents")
    times = np.arange(len(cents)) * dt
    return SimulatedPath(times=times, cents=cents.astype(np.int64), floored_steps=floored_steps)


def simulate_income_path(
    i0: Money,
    mu: float,
    sigma_income: float,
    cfg: PathConfig,
    rng: np.random.Generator,
) -> SimulatedPath:
    """Simulate one income path on cfg's step grid.

    Draws cfg.steps standard normals from rng in a single call.
    """
    finite_number(mu, "mu")
    if finite_number(sigma_income, "sigma_income") < 0:
        raise ValidationError("sigma_income must be nonnegative")
    dt = cfg.dt_years
    raw = i0.units * _unit_path(mu, sigma_income, dt, rng.standard_normal(cfg.steps))
    # a raw level of exactly zero is not a floored step
    return _quantized_path(_floored(i0.units, raw), dt, int(np.count_nonzero(raw < 0.0)))


def simulate_savings_path(
    s0: Money,
    contribution: Money,
    rate: float,
    sigma_market: float,
    cfg: PathConfig,
    rng: np.random.Generator,
    shocks: np.ndarray | None = None,
) -> SimulatedPath:
    """Simulate one savings path with an end-of-period contribution.

    Each step applies the factor (1 + rate * dt + sigma_market * sqrt(dt) * z)
    to the running balance, then adds the contribution.  The factor is
    floored at zero (a total-loss step cannot push the balance negative).
    Pass ``shocks`` to reuse an externally drawn normal stream, for
    example one correlated with an income path.
    """
    finite_number(rate, "rate")
    if finite_number(sigma_market, "sigma_market") < 0:
        raise ValidationError("sigma_market must be nonnegative")
    n = cfg.steps
    dt = cfg.dt_years
    if shocks is None:
        z = rng.standard_normal(n)
    else:
        z = np.asarray(shocks, dtype=float)
        if z.shape != (n,):
            raise ValidationError(f"shocks must have shape ({n},)")
    sqrt_dt = math.sqrt(dt)
    c = contribution.units
    value = s0.units
    values = [value]
    for k in range(n):
        value = value * max(1.0 + rate * dt + sigma_market * sqrt_dt * z[k], 0.0) + c
        values.append(value)
    return _quantized_path(values, dt)
