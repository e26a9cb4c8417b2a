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

``PCG64(seed)`` spends most of its time in numpy's ``SeedSequence(seed)``,
which hashes the seed into the 4 words that set PCG64's state.
``derive_trial_rng`` computes those words for a block of 256 consecutive
trial indices at once: the SplitMix64 mix and SeedSequence's pool mixing
and output hash, in numpy uint64 and uint32 arithmetic over the whole
block.  It keeps the last two blocks, keyed by (master_seed, block).  Each
trial's PCG64 still takes its state through numpy's own seeding, from a
seed sequence that hands over the trial's precomputed words.  Every block
checks its first row against ``SeedSequence(seed).generate_state(4,
np.uint64)`` from the installed numpy.  If they differ, the block falls
back to ``PCG64(seed)`` for each of its trials.  The draws are the same
either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

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


# numpy's SeedSequence constants: pool mixing (A), output hash (B), and mix().
_HASH_INIT_A = 0x43B0D7E5
_HASH_MULT_A = 0x931E8875
_HASH_INIT_B = 0x8B51F9DD
_HASH_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_BLOCK = 256


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[np.uint32, np.uint32]]:
    """The (xor, multiply) pair of each successive hashmix: the multiplier
    is the running constant times mult, and becomes the next xor."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return [(np.uint32(a), np.uint32(b)) for a, b in zip(consts, consts[1:])]


# 4 hashes fill the pool and 12 mix it; 8 hashes give 4 uint64 words.
_POOL_HASHES = _hash_constants(_HASH_INIT_A, _HASH_MULT_A, 16)
_OUTPUT_HASHES = _hash_constants(_HASH_INIT_B, _HASH_MULT_B, 8)


def _hashmix(value: np.ndarray, consts: tuple[np.uint32, np.uint32]) -> np.ndarray:
    value = (value ^ consts[0]) * consts[1]
    return value ^ (value >> _XSHIFT)


def _seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every seed in
    a uint64 array, one row per seed.

    A seed's entropy is its low and high 32-bit words, zero-padded to the
    pool size of 4; a seed below 2**32 hashes the same with or without its
    zero high word.
    """
    zeros = np.zeros(len(seeds), dtype=np.uint32)
    entropy = (
        (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32),
        (seeds >> np.uint64(32)).astype(np.uint32),
        zeros,
        zeros,
    )
    hashes = iter(_POOL_HASHES)
    pool = [_hashmix(word, next(hashes)) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hashmix(pool[src], next(hashes))
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    halves = [
        _hashmix(pool[i % 4], consts).astype(np.uint64) for i, consts in enumerate(_OUTPUT_HASHES)
    ]
    words = np.empty((len(seeds), 4), dtype=np.uint64)
    for j in range(4):
        words[:, j] = halves[2 * j] | (halves[2 * j + 1] << np.uint64(32))
    return words


@lru_cache(maxsize=2)
def _block_words(master_seed: int, block: int):
    """PCG64 seeding words of trials block*256 .. block*256 + 255, one row
    each, or None if the installed numpy hashes the block's first seed
    differently."""
    first = block * _BLOCK
    start = (master_seed + (first + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = np.arange(_BLOCK, dtype=np.uint64) * np.uint64(_SPLITMIX_GAMMA) + np.uint64(start)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_2)
    words = _seed_sequence_words(z ^ (z >> np.uint64(31)))
    reference = np.random.SeedSequence(derive_stream_seed(master_seed, first))
    if words[0].tolist() != reference.generate_state(4, np.uint64).tolist():
        return None
    words.flags.writeable = False
    return words


class _StreamSeedSequence(ISpawnableSeedSequence):
    """``SeedSequence(seed)`` whose PCG64 seeding words are known already.

    ``generate_state(4, np.uint64)``, the one call PCG64 makes while it is
    built, returns a copy of those words.  Other sizes, ``spawn``,
    ``entropy`` and the other attributes, and pickling go to a real
    ``SeedSequence(seed)``, built on first need.
    """

    def __init__(self, seed: int, words: np.ndarray) -> None:
        self._seed = seed
        self._words = words
        self._sequence = None

    def _real(self) -> np.random.SeedSequence:
        if self._sequence is None:
            self._sequence = np.random.SeedSequence(self._seed)
        return self._sequence

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:
            return self._words.copy()
        return self._real().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._real().spawn(n_children)

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._real(), name)

    def __repr__(self) -> str:
        return repr(self._real())

    def __reduce__(self):
        return self._real().__reduce__()


def derive_trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Per-trial generator: PCG64 seeded with the derived stream seed."""
    seed = derive_stream_seed(master_seed, trial_index)
    block, row = divmod(trial_index, _BLOCK)
    words = _block_words(master_seed, block)
    if words is None:
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(_StreamSeedSequence(seed, words[row])))


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


@lru_cache(maxsize=8)
def _drift(mu: float, steps: int, dt: float) -> np.ndarray:
    """1 + mu t at t = dt, 2 dt, ..., steps dt; read-only, since it is shared."""
    drift = 1.0 + mu * (np.arange(1, steps + 1) * dt)
    drift.flags.writeable = False
    return drift


def _unit_path(mu: float, sigma_income: float, dt: float, shocks: np.ndarray) -> np.ndarray:
    """Raw income per unit of I0, 1 + mu t + sigma_income W(t), at t = dt, 2 dt, ..."""
    path = math.sqrt(dt) * np.asarray(shocks, dtype=float)
    np.add.accumulate(path, out=path)  # np.cumsum, without its Python wrapper
    path *= sigma_income
    try:
        drift = _drift(mu, len(path), dt)
    except TypeError:  # an unhashable mu or dt, such as a 0-d array, is not cached
        drift = _drift.__wrapped__(mu, len(path), dt)
    # sigma_income W(t) + (1 + mu t): the same sum as (1 + mu t) + sigma_income W(t)
    path += drift
    return path


def _floored(i0_units: float, raw: np.ndarray) -> np.ndarray:
    levels = np.empty(len(raw) + 1)
    levels[0] = i0_units
    np.maximum(raw, 0.0, out=levels[1:])
    return levels


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
) -> SimulatedPath:
    """Simulate one savings path with an end-of-period contribution.

    Each step applies the factor (1 + rate * dt + sigma_market * sqrt(dt) * z)
    to the running balance, then adds the contribution.  The factor is
    floored at zero (a total-loss step cannot push the balance negative).
    """
    finite_number(rate, "rate")
    if finite_number(sigma_market, "sigma_market") < 0:
        raise ValidationError("sigma_market must be nonnegative")
    n = cfg.steps
    dt = cfg.dt_years
    z = rng.standard_normal(n)
    sqrt_dt = math.sqrt(dt)
    c = contribution.units
    value = s0.units
    values = [value]
    for k in range(n):
        value = value * max(1.0 + rate * dt + sigma_market * sqrt_dt * z[k], 0.0) + c
        values.append(value)
    return _quantized_path(values, dt)
