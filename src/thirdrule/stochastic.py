"""Seeded stochastic processes for income and savings.

Income follows an arithmetic form I(t) = I0 * (1 + mu * t + sigma_i * W(t))
floored at zero, with W a standard Brownian motion discretized on the step
grid.  Savings follow a geometric Euler step
S <- S * (1 + r * dt + sigma_m * sqrt(dt) * z) plus an end-of-period
contribution.  The two shock streams can be correlated through
``correlated_normal_pair``.

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
numpy's PCG64 bit generator.  Results are therefore independent of worker
count and of trial completion order as long as aggregation walks trials in
index order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .domain import MAX_CENTS, Money
from .errors import DomainError, ValidationError, finite_number, is_int

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB

THREADS_ENV_VAR = "THIRDRULE_THREADS"
# The stress pool submits one future per trial, so an unbounded worker
# count could ask the OS for one thread per trial.
MAX_THREADS = 64


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


def correlated_normal_pair(rho: float, rng: np.random.Generator) -> tuple[float, float]:
    """Draw (z1, z2) standard normal with corr(z1, z2) = rho."""
    z = rng.standard_normal(2)
    return float(z[0]), float(mix_correlated(rho, z[0], z[1]))


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


def income_levels(
    i0_units: float, mu: float, sigma_income: float, dt: float, shocks: np.ndarray
) -> np.ndarray:
    """Income level at each step given the per-step normal shocks.

    Returns an array of len(shocks) + 1 values starting at I0, floored at
    zero.  Shared by the path op and the stress harness so both see the
    same discretization.
    """
    steps = len(shocks)
    t = np.arange(1, steps + 1) * dt
    w = np.cumsum(math.sqrt(dt) * np.asarray(shocks, dtype=float))
    levels = i0_units * (1.0 + mu * t + sigma_income * w)
    out = np.empty(steps + 1)
    out[0] = i0_units
    out[1:] = np.maximum(levels, 0.0)
    return out


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
    z = rng.standard_normal(cfg.steps)
    levels = income_levels(i0.units, mu, sigma_income, dt, z)
    # A raw level is below zero exactly where the mirrored path (start
    # -I0, same shocks) is above its floor: negating I0 negates each raw
    # level exactly.  A raw level of exactly zero is not a floored step.
    mirrored = income_levels(-i0.units, mu, sigma_income, dt, z)
    return _quantized_path(levels, dt, int(np.count_nonzero(mirrored[1:] > 0.0)))


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


def thread_count() -> int:
    """Worker cap from the THIRDRULE_THREADS env var.  0 or unset = auto
    (at most 8); values above MAX_THREADS are rejected."""
    raw = os.environ.get(THREADS_ENV_VAR, "").strip()
    if raw == "":
        requested = 0
    else:
        try:
            requested = int(raw)
        except ValueError as exc:
            raise ValidationError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if requested < 0:
        raise ValidationError(f"{THREADS_ENV_VAR} must be nonnegative")
    if requested > MAX_THREADS:
        raise ValidationError(f"{THREADS_ENV_VAR} must be at most {MAX_THREADS}, got {requested}")
    if requested == 0:
        return min(8, os.cpu_count() or 1)
    return requested
