"""Finite-horizon allocation planning by backward induction.

States are (income, debt balance, savings balance) on a rectangular grid;
actions are (debt, savings, expenses) fractions on a simplex lattice with
a configurable step (1/30 by default, which contains the equal-thirds
point exactly).  The per-period reward is the Cobb-Douglas utility of the
allocated amounts plus a small state term
state_weight * (log(1 + savings) - log(1 + debt)) that makes carried
savings valuable and carried debt costly.  Income shocks are integrated
with Gauss-Hermite quadrature; continuation values are interpolated
multilinearly, clamping states that leave the grid to its edges.

The interpolation is separable.  Next-period debt depends on the action,
income and debt only, and next-period savings on the savings numerator,
income and savings only.  So each period first blends the expected value
surface along savings once per savings numerator, a (q + 1, ni, nb, ns)
array, and then blends that along debt per action with two row gathers.
Blending savings first and adding the reward and state term after the
discounted continuation evaluates the textbook expression
(1 - bw) * ((1 - sw) * v00 + sw * v01) + bw * ((1 - sw) * v10 + sw * v11)
operation for operation, so values and chosen actions are exactly those
of a sweep that gathers all four corners per action.

The debt blend runs over blocks of actions, SWEEP_BLOCK_BYTES per buffer,
so the two gathered rows and the expression over them stay in cache.  Each
block's maxima are folded into the period's values with a strict greater
than (and a NaN beating any number), which picks the first maximum in
action order exactly as one np.argmax over all actions would.  A block
sums its reward plus state term into a buffer it has finished with, so
the sweep's working memory does not grow with the action count.

A block is skipped when _block_bounds proves that none of its totals can
beat the running best at any node; as a later block wins only with a
greater value or a NaN, the result is exactly the full sweep's.  The first
block always runs, and a NaN or inf in the blend disables the skip.

Ties in the action choice break toward the action closest to the
equal-thirds point in L1 distance (action lists are pre-sorted by that
distance, so the first maximum wins).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .domain import Allocation, Money
from .errors import DomainError, ValidationError, finite_number, is_int
from .utility_opt import UtilityParams, _cobb_douglas

DEFAULT_ACTION_STEP = Fraction(1, 30)
DEFAULT_GRID_NODES = 11
# Gauss-Hermite nodes come from an eigenproblem on a square matrix of this
# order, so an unbounded count can exhaust memory before solving starts.
MAX_SHOCK_SAMPLES = 64
# The policy stores 14 bytes per grid node and period: about 19 MB at this
# many periods on the default 11^3 grid.
MAX_HORIZON = 1000
# solve_plan sweeps the actions in blocks whose per-action working buffers
# hold about this many bytes each, so a block stays in a typical L2 cache:
# 49 actions at a time on the default 11^3 grid.
SWEEP_BLOCK_BYTES = 1 << 19


@dataclass(frozen=True)
class HouseholdState:
    income: Money
    debt: Money
    savings: Money


@dataclass(frozen=True)
class DynamicConfig:
    """Planner inputs: horizon, rates, shock model, grids, and reward."""

    horizon: int
    income_grid: tuple[float, ...]
    debt_grid: tuple[float, ...]
    savings_grid: tuple[float, ...]
    discount: float = 0.95
    debt_apr: float = 0.0
    savings_return: float = 0.0
    income_growth: float = 0.0
    shock_std: float = 0.0
    shock_samples: int = 7
    action_step: Fraction = DEFAULT_ACTION_STEP
    params: UtilityParams = UtilityParams.symmetric()
    state_weight: float = 0.1

    def __post_init__(self) -> None:
        if not is_int(self.horizon) or not 1 <= self.horizon <= MAX_HORIZON:
            raise ValidationError(f"horizon must be an integer in 1..{MAX_HORIZON} periods")
        for name in ("income_grid", "debt_grid", "savings_grid"):
            raw = getattr(self, name)
            grid = tuple(float(x) for x in raw)
            if len(grid) < 2:
                raise ValidationError(f"{name} needs at least two nodes")
            if any(not math.isfinite(x) for x in grid):
                raise ValidationError(f"{name} must be finite")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValidationError(f"{name} must be strictly increasing")
            if grid[0] < 0:
                raise ValidationError(f"{name} must be nonnegative")
            object.__setattr__(self, name, grid)
        if not 0.0 < finite_number(self.discount, "discount") <= 1.0:
            raise ValidationError("discount must lie in (0, 1]")
        if finite_number(self.debt_apr, "debt_apr") < 0:
            raise ValidationError("debt_apr must be nonnegative")
        if finite_number(self.savings_return, "savings_return") <= -1.0:
            raise ValidationError("savings_return must exceed -1")
        if finite_number(self.income_growth, "income_growth") <= -1.0:
            raise ValidationError("income_growth must exceed -1")
        if finite_number(self.shock_std, "shock_std") < 0:
            raise ValidationError("shock_std must be nonnegative")
        if not is_int(self.shock_samples) or not 1 <= self.shock_samples <= MAX_SHOCK_SAMPLES:
            raise ValidationError(f"shock_samples must be an integer in 1..{MAX_SHOCK_SAMPLES}")
        step = self.action_step
        if not isinstance(step, Fraction) or step <= 0 or step > 1:
            raise ValidationError("action_step must be a Fraction in (0, 1]")
        if (1 / step).denominator != 1:
            raise ValidationError("action_step must divide 1 exactly")
        if finite_number(self.state_weight, "state_weight") < 0:
            raise ValidationError("state_weight must be nonnegative")


def default_config(initial: HouseholdState, horizon: int, **overrides) -> DynamicConfig:
    """Grids centered on the initial state: income log-spaced over
    [0.25x, 4x] starting income, debt and savings linear over [0, 3x]."""
    i0 = initial.income.units
    if i0 <= 0:
        raise ValidationError("default grids need positive starting income")
    fields = dict(
        horizon=horizon,
        income_grid=tuple(np.geomspace(0.25 * i0, 4.0 * i0, DEFAULT_GRID_NODES)),
        debt_grid=tuple(np.linspace(0.0, 3.0 * i0, DEFAULT_GRID_NODES)),
        savings_grid=tuple(np.linspace(0.0, 3.0 * i0, DEFAULT_GRID_NODES)),
    )
    fields.update(overrides)
    return DynamicConfig(**fields)


def transition(
    state: HouseholdState, action: Allocation, shock: float, cfg: DynamicConfig
) -> HouseholdState:
    """One-period state update for an allocation of the state's income.

    debt' = max(0, debt * (1 + apr) - debt_payment)
    savings' = savings * (1 + return) + savings_deposit
    income' = max(0, income * (1 + growth + shock_std * shock))

    A shock that is not a finite number is a ValidationError, since the
    income floor would turn NaN into zero income.  A next state past the
    money bound is a DomainError naming the field behind it, as in
    ``solve_plan``: income_growth when the drift alone passes it, else
    shock_std.
    """
    finite_number(shock, "shock")
    if action.income.cents != state.income.cents:
        raise ValidationError("action must allocate exactly the state's income")
    growth = 1.0 + cfg.income_growth
    drift = max(0.0, state.income.units * growth)
    _next_money(drift, cfg, "income_growth", "income")  # the drift alone
    income_next = max(0.0, state.income.units * (growth + cfg.shock_std * shock))
    debt_next = max(0.0, state.debt.units * (1.0 + cfg.debt_apr) - action.debt.units)
    savings_next = state.savings.units * (1.0 + cfg.savings_return) + action.savings.units
    return HouseholdState(
        income=_next_money(income_next, cfg, "shock_std", "income"),
        debt=_next_money(debt_next, cfg, "debt_apr", "debt"),
        savings=_next_money(savings_next, cfg, "savings_return", "savings"),
    )


def _next_money(units: float, cfg: DynamicConfig, field: str, what: str) -> Money:
    """A next-period amount as Money, or a DomainError naming ``field`` if
    it is not a finite float or passes the money bound."""
    try:
        return Money.of(units)
    except ValidationError:
        raise DomainError(
            f"{field} {getattr(cfg, field)!r} puts next-period {what} past the money bound"
        ) from None


def _simplex_actions(step: Fraction) -> tuple[np.ndarray, int]:
    """All lattice fraction triples, sorted by L1 distance to the
    equal-thirds point (then lexicographically) for deterministic
    tie-breaking."""
    q = int(1 / step)
    triples = []
    for kd in range(q + 1):
        for ks in range(q + 1 - kd):
            ke = q - kd - ks
            dist = abs(3 * kd - q) + abs(3 * ks - q) + abs(3 * ke - q)
            triples.append((dist, kd, ks, ke))
    triples.sort()
    return np.array([(kd, ks, ke) for _, kd, ks, ke in triples], dtype=np.int64), q


def _quad_nodes(cfg: DynamicConfig) -> tuple[np.ndarray, np.ndarray]:
    """Standard normal quadrature nodes and weights."""
    if cfg.shock_std == 0.0:
        return np.zeros(1), np.ones(1)
    x, w = np.polynomial.hermite.hermgauss(cfg.shock_samples)
    return x * math.sqrt(2.0), w / math.sqrt(math.pi)


def _block_bounds(
    top_reward: np.ndarray, state_term: np.ndarray, blend: np.ndarray, discount: float
) -> Iterator[np.ndarray]:
    """Each action block's bound on its totals this period, in turn, in
    one reused (ni, nb, ns) array.

    A total is fl(base + fl(discount * c)), c = fl(fl(L * fl(1 - bw)) +
    fl(U * bw)), with blend entries L, U <= C = high and |L|, |U| <= M =
    size at the node's (i, s).  The weights are nonnegative and sum to 1
    within u = 2^-53, so fl(discount * c) <= discount * C + 6 u M, plus
    subnormal steps under 1e-300; the slack 1e-12 M covers these and the
    bound's own roundings.  Rounding is monotone, so base <= fl(top_reward
    + state_term) and the total is at most that plus cont.  M + M
    overflows before c can, and a NaN or inf in the blend makes cont NaN
    or inf.
    """
    by_node = blend.reshape((-1, top_reward.shape[1]) + state_term.shape)  # (q + 1, ni, nb, ns)
    high = by_node.max(axis=0).max(axis=1, keepdims=True)
    size = np.maximum(high, -by_node.min(axis=0).min(axis=1, keepdims=True))
    # An inf or NaN bound only skips nothing; solve_plan's errstate, which
    # holds while it resumes this generator, keeps its overflow quiet.
    cont = discount * high + (5e-13 * (size + size) + 1e-300)  # (ni, 1, ns)
    out = np.empty(by_node.shape[1:])
    for top in top_reward:
        np.add(top, state_term, out=out)
        np.add(out, cont, out=out)
        yield out


def _bracket(grid: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower index, upper index, and upper weight for linear interpolation
    with clamping at the grid edges."""
    xc = np.clip(x, grid[0], grid[-1])
    hi = np.searchsorted(grid, xc, side="left")
    hi = np.clip(hi, 1, len(grid) - 1)
    lo = hi - 1
    w = (xc - grid[lo]) / (grid[hi] - grid[lo])
    return lo, hi, w


@dataclass(frozen=True, eq=False)
class Policy:
    """Solved plan: per period, the chosen action at every grid node plus
    the value surface."""

    config: DynamicConfig
    initial: HouseholdState
    action_denominator: int
    numerators: np.ndarray  # (horizon, ni, nb, ns, 3) int16
    values: np.ndarray  # (horizon, ni, nb, ns) float64

    def node_fractions(self, t: int, node: tuple[int, int, int]) -> tuple[Fraction, Fraction, Fraction]:
        if not 1 <= t <= self.config.horizon:
            raise ValidationError(f"period must lie in 1..{self.config.horizon}")
        kd, ks, ke = (int(v) for v in self.numerators[t - 1][node])
        q = self.action_denominator
        return (Fraction(kd, q), Fraction(ks, q), Fraction(ke, q))

    def nearest_node(self, state: HouseholdState) -> tuple[int, int, int]:
        cfg = self.config
        picks = []
        for grid, value in (
            (cfg.income_grid, state.income.units),
            (cfg.debt_grid, state.debt.units),
            (cfg.savings_grid, state.savings.units),
        ):
            diffs = np.abs(np.asarray(grid) - value)
            picks.append(int(np.argmin(diffs)))
        return picks[0], picks[1], picks[2]


def _in_float_range(
    values: np.ndarray, cfg: DynamicConfig, field: str, what: str, *grids: str
) -> None:
    """Raise a DomainError naming ``field``, and the top node of each of
    ``grids`` that ``values`` also grow with, if any value has left the
    float range."""
    if not np.isfinite(values).all():
        tops = " and ".join(f"{name} up to {getattr(cfg, name)[-1]!r}" for name in grids)
        joined = f" with {tops}" if grids else ""
        raise DomainError(
            f"{field} {getattr(cfg, field)!r}{joined} puts {what} past the float range"
        )


@np.errstate(over="ignore", invalid="ignore")  # each result is checked instead
def solve_plan(initial: HouseholdState, cfg: DynamicConfig) -> Policy:
    """Backward induction over the full grid.  Terminal value is zero.

    A next-period state or the state term past the float range is a
    DomainError naming the field behind it and the grids the state grows
    from, and so is a value surface that overflows; no float warning is
    raised under any filter.
    """
    inc_g = np.asarray(cfg.income_grid)
    debt_g = np.asarray(cfg.debt_grid)
    sav_g = np.asarray(cfg.savings_grid)
    ni, nb, ns = len(inc_g), len(debt_g), len(sav_g)
    acts, q = _simplex_actions(cfg.action_step)
    frac = acts / q  # (n_a, 3) float
    u_act = _cobb_douglas(cfg.params, frac[:, 0], frac[:, 1], frac[:, 2])
    reward = inc_g[None, :] * u_act[:, None]  # (n_a, ni)
    state_term = cfg.state_weight * (
        np.log1p(sav_g)[None, :] - np.log1p(debt_g)[:, None]
    )  # (nb, ns)
    _in_float_range(state_term, cfg, "state_weight", "the state term")

    z_nodes, z_weights = _quad_nodes(cfg)
    mix = np.zeros((ni, ni))
    _in_float_range(
        inc_g * (1.0 + cfg.income_growth), cfg, "income_growth", "next-period income", "income_grid"
    )
    for z, wq in zip(z_nodes, z_weights):
        nxt = inc_g * (1.0 + cfg.income_growth + cfg.shock_std * z)
        _in_float_range(nxt, cfg, "shock_std", "next-period income", "income_grid")
        lo, hi, w = _bracket(inc_g, np.maximum(nxt, 0.0))
        np.add.at(mix, (np.arange(ni), lo), wq * (1.0 - w))
        np.add.at(mix, (np.arange(ni), hi), wq * w)

    debt_next = np.maximum(
        debt_g[None, None, :] * (1.0 + cfg.debt_apr) - frac[:, 0][:, None, None] * inc_g[None, :, None],
        0.0,
    )  # (n_a, ni, nb)
    _in_float_range(debt_next, cfg, "debt_apr", "next-period debt", "debt_grid")
    bi0, bi1, bw = _bracket(debt_g, debt_next)
    # Savings-next depends on the action only through its savings
    # numerator, so its brackets are computed once per numerator.
    sav_next = (
        sav_g[None, None, :] * (1.0 + cfg.savings_return)
        + (np.arange(q + 1) / q)[:, None, None] * inc_g[None, :, None]
    )  # (q + 1, ni, ns)
    _in_float_range(
        sav_next, cfg, "savings_return", "next-period savings", "savings_grid", "income_grid"
    )
    si0, si1, sw = _bracket(sav_g, sav_next)

    # Flat indices into vbar for the savings blend, (q + 1, ni, nb, ns).
    node_row = np.arange(ni * nb).reshape(1, ni, nb, 1) * ns
    s_lo = node_row + si0[:, :, None, :]
    s_hi = node_row + si1[:, :, None, :]
    swx = sw[:, :, None, :]
    swx_c = 1.0 - swx
    # Row indices into the savings blend for the debt blend, (n_a, ni, nb).
    blend_row = (acts[:, 1][:, None] * ni + np.arange(ni)[None, :]) * nb
    b_lo = blend_row[:, :, None] + bi0
    b_hi = blend_row[:, :, None] + bi1
    del debt_next, bi0, bi1, sav_next, si0, si1  # the sweep reads only the indices and weights
    bwx = bw[:, :, :, None]
    bwx_c = 1.0 - bwx
    n_a = len(acts)
    block = max(1, min(n_a, SWEEP_BLOCK_BYTES // (ni * nb * ns * 8)))
    top_reward = np.maximum.reduceat(reward, range(0, n_a, block))[:, :, None, None]
    total = np.empty((block, ni, nb, ns))
    upper = np.empty_like(total)
    best = np.empty((ni, nb, ns), dtype=np.intp)
    acts16 = acts.astype(np.int16)

    numerators = np.empty((cfg.horizon, ni, nb, ns, 3), dtype=np.int16)
    values = np.empty((cfg.horizon, ni, nb, ns))
    v_next = np.zeros((ni, nb, ns))
    for t in range(cfg.horizon, 0, -1):
        vbar = mix @ v_next.reshape(ni, -1)
        blend = (swx_c * vbar.take(s_lo) + swx * vbar.take(s_hi)).reshape(-1, ns)
        v_next = values[t - 1]
        v_next.fill(-np.inf)
        best.fill(0)
        bounds = _block_bounds(top_reward, state_term, blend, cfg.discount)
        for start, bound in zip(range(0, n_a, block), bounds):
            if (bound < v_next).all():
                continue
            stop = min(start + block, n_a)
            tot = total[: stop - start]
            up = upper[: stop - start]
            # rows are in range (_bracket), so "clip" only skips numpy's copy of out
            np.take(blend, b_lo[start:stop], axis=0, out=tot, mode="clip")
            np.take(blend, b_hi[start:stop], axis=0, out=up, mode="clip")
            # (reward + state term) + discount * ((1 - bw) * lower + bw *
            # upper), operation for operation, so the maxima and their first
            # argmax are exact
            tot *= bwx_c[start:stop]
            up *= bwx[start:stop]
            tot += up
            tot *= cfg.discount
            np.add(reward[start:stop, :, None, None], state_term, out=up)
            tot += up
            arg = np.argmax(tot, axis=0)
            top = np.take_along_axis(tot, arg[None, :, :, :], axis=0)[0]
            # a later block wins only with a greater value or with a NaN
            # over a number, so the first maximum stands, as in np.argmax
            later = (top > v_next) | (np.isnan(top) & ~np.isnan(v_next))
            np.copyto(v_next, top, where=later)
            np.copyto(best, arg + start, where=later)
        if not np.isfinite(v_next).all():
            raise DomainError(f"the plan's values overflow a float in period {t}")
        numerators[t - 1] = acts16[best]
    return Policy(
        config=cfg,
        initial=initial,
        action_denominator=q,
        numerators=numerators,
        values=values,
    )


def policy_adjustments(
    policy: Policy, t: int, state: HouseholdState
) -> tuple[Fraction, Fraction, Fraction]:
    """Deviation of the planned action from equal thirds at the grid node
    nearest the state, as exact rationals (debt, savings, expenses).

    The signed combination -debt + savings - expenses is zero exactly
    because the fractions sum to one.
    """
    node = policy.nearest_node(state)
    fd, fs, fe = policy.node_fractions(t, node)
    third = Fraction(1, 3)
    return (third - fd, fs - third, third - fe)
