"""Monte Carlo stress testing of allocation rules plus closed-form
debt-clearance and savings projections.

Each trial walks a monthly ledger in integer cents:

1. draw the month's income level (shared discretization with the
   stochastic module), apply the scenario's income shock while active;
2. split the month's income by the rule;
3. expenses due grow with scenario inflation and are paid from the
   expenses bucket, any shortfall from the savings balance;
4. debt accrues the (scenario-scaled) APR monthly; the debt bucket pays
   interest before principal, and interest the bucket cannot cover is
   also drawn from the savings balance;
5. the savings balance takes a market-return shock (correlated with the
   income shock through rho) and then receives the savings bucket plus
   any debt budget left over after full payoff.

A trial defaults in the first month the savings balance would go
negative covering the expense shortfall plus uncovered interest; the
failing month's transactions are not applied.  Households start with a
zero savings balance (the profile schema carries no opening balance).
Unspent expense budget is treated as consumed, not banked.  Every
completed month satisfies the cash identity

    income + savings withdrawals ==
    expenses paid + debt service + savings deposits + residual cash

exactly in cents; the loop checks it and raises ``DomainError`` if not.
A trial's outcome counts the months it completed whose debt service over
income (DTI, 0 with no income) passes ``DEFAULT_DTI_LIMIT``, and those
whose deposit over the expenses due (SER) falls short of
``DEFAULT_SER_FLOOR``; a month with nothing due never does.

Most of a month's terms never read a balance, so they are computed
ahead of the recursion, in layers:

- per (profile, scenario) cell, once per run, shared by the profile's
  rules: the shock window's income factor, the expenses due and the
  monthly debt rate (``_cell_terms``), built from the window's three
  constant runs.  Building them checks that income drift, expenses due
  and interest on the opening debt stay within ``MAX_CENTS``, and a
  ``DomainError`` names the profile or scenario field that breaks the
  bound.  Each row's tally (``_Tally``) takes the expenses due in month H
  from it, the unit of the row's expense coverage;
- per profile, for a run of up to 512 trials (the block that
  ``derive_trial_rng`` seeds at once): each trial draws its first normal,
  the month-1 income shock.  When a bound on the profile's income shows
  that no month of any trial can leave ``MAX_CENTS`` or overflow a float
  (``_screenable``), so no month the screen skips could raise, the
  month-1 screen (``_screen``) tests month 1 for every rule and scenario
  cell of the profile at once.  Savings start at zero, so a trial
  defaults in month 1 exactly when its expense shortfall plus the interest
  its debt bucket cannot cover is positive.  A trial that defaults there
  in every cell is settled: it draws nothing more and never reaches
  ``run_trial``; ``_Tally.add_settled`` counts it as a default, and as
  cleared in month 0 if it owes nothing.  The others are pooled across
  successive runs into blocks of lanes and draw the rest of their rows
  from the same generators, as a trial run alone does; split draws are the
  bytes of one draw (``_trial_blocks``);
- per profile, for a block of lanes: each trial's shocks from its own
  stream, then the income levels and the savings growth factors of months
  1..H, indexed by month as the schedule is, the mixed market shocks'
  largest size and each lane's overflow flag (``_draw_block``).  Every
  rule and scenario cell of the profile runs the block before the next is
  drawn, so ``run_stress`` makes one pass over a profile's trials.  The
  lane count (``_block_width``) charges a block for what it holds at once,
  its draws (lanes × H) and four times the walk's window (cells × lanes ×
  12), each within ``ROW_MONTHS_PER_BLOCK``;
- for cells × lanes and a window of months: income in cents, the rule's
  cent split through ``_split_cents`` and the expense shortfall and
  residual (``_cell_block``), which the month-1 screen and the walk build.

``_walk`` carries the debt and savings recursion of every (cell, lane) row
of a block at once in int64 and float64 arrays, building the terms of the
rows still live 12 months at a time.  It records each row's default month,
its clearance month, its final savings and its DTI and SER violation
counts, and checks the cash identity.  ``run_trial`` is called once per
(row, lane) and reads that row's outcome.  A row the walk cannot
prove exact is handed to ``run_trial``'s Python-int month loop instead,
from month 1: income past the money bound in some month, a split that
int64 cannot hold, a savings growth product of 2**53 or more, savings past
``MAX_CENTS`` or a broken cash identity.  A trial run alone takes the same
loop, which builds each month's terms itself in Python ints through the
same ``_split_cents`` and ``_expense_terms``.  So a trial whose income or
savings outgrows Money or a float raises in the same month as when run
alone, naming the field behind it.  A lane whose raw income level is not
a finite float in some month, even one that the zero floor hides or that
comes after a default, is flagged when its block is drawn, and its trial
raises before its first month, naming sigma_income, as
``simulate_income_path`` rejects such a path; no warnings filter changes
that.  ``run_stress`` raises the first error in row order, whichever
block it comes from.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, compress, count
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .domain import (
    MAX_CENTS,
    AllocationRule,
    HouseholdProfile,
    Money,
    RuleId,
    _round_div,
    _split_cents,
)
from .errors import DebtNeverClearsError, DomainError, ValidationError, finite_number, is_int
from .risk import DEFAULT_DTI_LIMIT, DEFAULT_SER_FLOOR
from .stochastic import (
    _BLOCK, MAX_STEPS, PathConfig, _unit_path, derive_trial_rng, income_levels, mix_correlated
)

_MONTHS_PER_YEAR = 12
_DT = 1.0 / 12.0


@dataclass(frozen=True)
class ScenarioSpec:
    """A named shock window.

    duration_months = 0 means the shock is permanent from its onset.
    """

    name: str
    income_shock: float = 0.0
    apr_multiplier: float = 1.0
    inflation_annual: float = 0.0
    onset_month: int = 1
    duration_months: int = 0

    def __post_init__(self) -> None:
        # A message about one field starts with the field's name, which
        # cli.load_scenarios turns into a JSON path.
        if not isinstance(self.name, str):
            raise ValidationError("name must be a string")
        if not self.name:
            raise ValidationError("scenario name must be nonempty")
        for field_name in ("income_shock", "apr_multiplier", "inflation_annual"):
            finite_number(getattr(self, field_name), field_name)
        if self.income_shock < -1.0:
            raise ValidationError("income_shock cannot cut income below zero")
        if self.apr_multiplier <= 0:
            raise ValidationError("apr_multiplier must be positive")
        if self.inflation_annual <= -1.0:
            raise ValidationError("inflation_annual must exceed -1")
        for field_name in ("onset_month", "duration_months"):
            if not is_int(getattr(self, field_name)):
                raise ValidationError(f"{field_name} must be an integer")
        if self.onset_month < 1:
            raise ValidationError("onset_month counts from 1")
        if self.duration_months < 0:
            raise ValidationError("duration_months must be nonnegative")

    def active(self, month: int) -> bool:
        if month < self.onset_month:
            return False
        if self.duration_months == 0:
            return True
        return month < self.onset_month + self.duration_months

    def months_active_through(self, month: int) -> int:
        """Whole months of the shock window elapsed up to and including
        the given month.  Freezes once the window closes."""
        if month < self.onset_month:
            return 0
        elapsed = month - self.onset_month + 1
        if self.duration_months == 0:
            return elapsed
        return min(elapsed, self.duration_months)


BASELINE_SCENARIO = ScenarioSpec(name="baseline")


@dataclass(frozen=True)
class TrialOutcome:
    defaulted: bool
    default_month: Optional[int]
    debt_cleared_month: Optional[int]
    final_savings: Money
    dti_violations: int  # months completed past the DTI limit (module docstring)
    ser_violations: int  # months completed short of the SER floor


@dataclass(frozen=True)
class StressMetrics:
    profile_id: str
    rule: RuleId
    scenario: str
    trials: int
    default_rate: float
    median_clearance_years: Optional[float]
    mean_final_savings: Money
    months_expense_coverage: Optional[float]
    dti_violation_rate: float
    ser_violation_rate: float


# A (profile, scenario) cell's month schedule, which neither a draw nor the rule
# changes: each month's income factor, expenses due and debt rate.
_Schedule = tuple[tuple[float, ...], tuple[int, ...], tuple[float, ...]]


class _Cell(NamedTuple):
    """One row of a stress run, as every layer below ``run_stress`` reads it."""

    profile: HouseholdProfile
    rule: AllocationRule
    scenario: ScenarioSpec
    horizon_months: int
    # the schedule, shared by every rule of the (profile, scenario) cell
    income_factor: tuple[float, ...]
    due_c: tuple[int, ...]
    rate: tuple[float, ...]
    split: tuple[int, int, int, int]  # the rule's fractions as _split_cents takes them


def _cell(key: tuple, schedule: _Schedule) -> _Cell:
    """The row ``key``, (profile, rule, scenario, horizon_months), on its schedule."""
    f_debt, f_savings, _ = key[1].fractions
    split = (f_debt.numerator, f_debt.denominator, f_savings.numerator, f_savings.denominator)
    return _Cell(*key, *schedule, split)


def _out_of_range(field: str, value: float, owner: str, what: str) -> DomainError:
    return DomainError(f"{owner}: {field} {value!r} puts {what} past the money bound")


def _cell_terms(profile: HouseholdProfile, scenario: ScenarioSpec, horizon_months: int) -> _Schedule:
    """Month schedule of one (profile, scenario) cell, built once per
    ``run_stress`` call and shared by the profile's rules, or once per
    ``run_trial`` call on a generator; nothing keeps it after.

    Checks the horizon, an int in 1..``MAX_STEPS``, and the shock window
    before it builds anything, then that income drift, expenses due and
    interest on the opening debt stay finite and within ``MAX_CENTS``; the
    balance only falls, so no later month can owe more interest.
    """
    if not is_int(horizon_months) or horizon_months > MAX_STEPS:
        raise ValidationError(f"horizon_months must be an integer of at most {MAX_STEPS}")
    if horizon_months < 1:
        raise ValidationError("horizon_months must be positive")
    if scenario.onset_month > horizon_months:
        raise ValidationError(
            f"scenario {scenario.name!r}: onset_month {scenario.onset_month} "
            f"lies beyond the {horizon_months}-month horizon"
        )
    who = f"profile {profile.profile_id!r}"
    where = f"scenario {scenario.name!r}"
    drift_c = _raw_income_c(profile.income.units * (1.0 + profile.mu * horizon_months * _DT), 1.0)
    if not -math.inf < drift_c <= MAX_CENTS:
        raise _out_of_range("mu", profile.mu, who, "income")

    # the window's three constant runs: before the onset, active, after it closes
    before = scenario.onset_month - 1
    active = horizon_months - before
    if scenario.duration_months:
        active = min(active, scenario.duration_months)
    after = horizon_months - before - active

    def runs(outside, inside):
        return (outside,) * before + (inside,) * active + (outside,) * after

    monthly_rate_base = profile.debt_apr / _MONTHS_PER_YEAR
    income_factor = runs(1.0, 1.0 + scenario.income_shock)
    rate = runs(monthly_rate_base, monthly_rate_base * scenario.apr_multiplier)

    debt_c = profile.debt_balance.cents
    if not debt_c * monthly_rate_base <= MAX_CENTS:
        raise _out_of_range("debt_apr", profile.debt_apr, who, "monthly interest")
    if not debt_c * max(rate) <= MAX_CENTS:
        raise _out_of_range(
            "apr_multiplier", scenario.apr_multiplier, where, f"monthly interest for {who}"
        )

    baseline_monthly_c = _round_div(profile.baseline_expenses.cents, _MONTHS_PER_YEAR)
    try:
        # expenses due once k months of the window have passed: 0 before the
        # onset, then 1..active, then it stays
        growth = 1.0 + scenario.inflation_annual
        due = [round(baseline_monthly_c * growth ** (k / _MONTHS_PER_YEAR)) for k in range(active + 1)]
        due_c = (due[0],) * before + tuple(due[1:]) + (due[-1],) * after
    except OverflowError:
        due_c = None
    if due_c is None or max(due_c) > MAX_CENTS:
        raise _out_of_range(
            "inflation_annual", scenario.inflation_annual, where, f"expenses due for {who}"
        )

    return income_factor, due_c, rate


def _overflow_cause(cell: _Cell, levels: Optional[list[float]], z_peak: float) -> DomainError:
    """Name the field behind a trial of ``cell`` whose income or savings
    outgrew a float or ``MAX_CENTS``.  The cell's schedule bounds the other
    fields, so income past the bound over the trial is sigma_income's
    doing, or income_shock's when only the shocked months of the schedule
    pass it; otherwise the larger term of the savings growth factor is;
    z_peak is the largest market shock in size."""
    profile, scenario = cell.profile, cell.scenario
    who = f"profile {profile.profile_id!r}"
    if levels is None or not _raw_income_c(sum(levels), 1.0) <= MAX_CENTS:
        return _out_of_range("sigma_income", profile.sigma_income, who, "income")
    shocked = sum(level * f for level, f in zip(levels, cell.income_factor))
    if not _raw_income_c(shocked, 1.0) <= MAX_CENTS:
        where = f"scenario {scenario.name!r}"
        return _out_of_range("income_shock", scenario.income_shock, where, f"income for {who}")
    volatility = profile.sigma_market * math.sqrt(_DT) * z_peak
    if profile.r_savings / _MONTHS_PER_YEAR >= volatility:
        return _out_of_range("r_savings", profile.r_savings, who, "savings")
    return _out_of_range("sigma_market", profile.sigma_market, who, "savings")


# The row-months a block may hold at once (``_block_width``): its draws, a
# few floats a lane-month of the horizon (lanes × H), and the walk's window,
# about twenty numbers a row-month of a year (cells × lanes × 12), charged
# four times over to keep the window's peak memory near the draws'.
ROW_MONTHS_PER_BLOCK = 27_000
# No standard normal numpy draws is larger in size.  Its ziggurat returns
# a point of a rectangle, all within r = 3.6541528853610088, or from its
# tail r + x with x = -ln(1 - U) / r for a uniform U of 53 bits, at most
# 1 - 2**-53; so |z| <= r + 53 ln 2 / r ~= 13.71.  20 leaves room to spare.
_NORMAL_BOUND = 20.0


class _Draws(NamedTuple):
    """One profile's draws for a block of trials, one row (lane) a trial,
    of H months, the horizon: column j of ``levels`` and ``growth`` is
    month j + 1, as in a cell's schedule."""

    levels: np.ndarray  # (lanes, H) income levels of months 1..H, floored at zero
    growth: np.ndarray  # (lanes, H) savings growth factors, floored at zero
    z_peak: np.ndarray  # (lanes,) largest market shock in size
    overflowed: np.ndarray  # (lanes,) some raw level not finite, floored or not


def _block_width(cells: int, horizon_months: int) -> int:
    """Lanes in a block of one profile's ``cells``: the most whose draws and
    walk window, four times over, each fit ``ROW_MONTHS_PER_BLOCK``."""
    window = min(_MONTHS_PER_YEAR, horizon_months)
    return max(1, ROW_MONTHS_PER_BLOCK // max(horizon_months, 4 * cells * window))


def _draw_block(
    profile: HouseholdProfile, horizon_months: int, rngs: Sequence, first: np.ndarray
) -> _Draws:
    """Each trial's (2, H) shocks from its own generator, then the income
    levels, market shocks and growth factors of the whole block.  Each trial
    drew its first normal (``first``) already and draws the other 2H - 1: a
    generator's draws split at any point are the bytes of one draw."""
    z_income = np.empty((len(rngs), horizon_months))
    z_second = np.empty((len(rngs), horizon_months))
    z_income[:, 0] = first
    for rng, row, second in zip(rngs, z_income[:, 1:], z_second):
        rng.standard_normal(out=row)
        rng.standard_normal(out=second)
    # each array is freed once read, to keep the peak low
    z_market = mix_correlated(profile.rho, z_income, z_second)
    del z_second
    growth_base = 1.0 + profile.r_savings / _MONTHS_PER_YEAR
    growth_scale = profile.sigma_market * math.sqrt(_DT)
    with np.errstate(all="ignore"):  # run_trial raises for the lanes that overflow
        growth = growth_scale * z_market
        growth += growth_base
        np.maximum(growth, 0.0, out=growth)
    z_peak = np.abs(z_market, out=z_market).max(axis=1)
    del z_market
    # income_levels' levels past I0: the raw path shows the overflow the floor hides
    with np.errstate(all="ignore"):  # run_trial raises for the lanes that overflow
        levels = profile.income.units * _unit_path(profile.mu, profile.sigma_income, _DT, z_income)
        del z_income
        overflowed = ~np.isfinite(levels).all(axis=1)
        np.maximum(levels, 0.0, out=levels)
    return _Draws(levels, growth, z_peak, overflowed)


def _raw_income_c(level, factor):
    """A month's income in cents before rounding, from its level in units."""
    return level / _MONTHS_PER_YEAR * factor * 100.0


def _expense_terms(expenses_c, due_c):
    """(shortfall, residual): the expenses due past the expenses bucket,
    and the bucket left over; ints, or int arrays elementwise."""
    gap_c = due_c - expenses_c
    shortfall_c = gap_c * (gap_c > 0)
    return shortfall_c, shortfall_c - gap_c


def _split_limit(split: tuple[int, int, int, int]) -> int:
    """The largest income in cents whose split int64 holds: the
    denominators, and twice each income × numerator product; -1 if none."""
    fd_num, fd_den, fs_num, fs_den = split
    if max(fd_den, fs_den) >= 2**63:
        return -1
    return min(MAX_CENTS, (2**63 - 2) // (2 * max(fd_num, fs_num, 1)))


def _cell_block(cells: Sequence[_Cell], levels: np.ndarray, months: slice) -> tuple:
    """The month terms of each of one profile's ``cells`` for the schedule's
    ``months``, given each lane's income levels in those months, (lanes, W):
    five (cells, lanes, W) int64 arrays of income, debt bucket, savings
    bucket, shortfall and residual, and the (cells, lanes, W) mask of exact ones,
    income past the money bound or a split int64 cannot hold.  Those read 0;
    run_trial computes them in Python ints."""
    factor = np.array([cell.income_factor[months] for cell in cells])
    limits = [_split_limit(cell.split) for cell in cells]
    # a split past int64 computes on (0, 1, 0, 1), its rows all exact
    splits = [cell.split if limit >= 0 else (0, 1, 0, 1) for cell, limit in zip(cells, limits)]
    with np.errstate(all="ignore"):
        income = _raw_income_c(levels, factor[:, None])  # (cells, lanes, W)
        exact = ~(income <= MAX_CENTS)  # NaN is not <= either
        income[exact] = 0.0
        income_c = np.rint(income, out=income).astype(np.int64)
    split_past = income_c > np.array(limits)[:, None, None]
    income_c[split_past] = 0
    exact |= split_past
    columns = np.array(splits, dtype=np.int64).T[..., None, None]  # 4 × (cells, 1, 1)
    debt_c, savings_c, expenses_c = _split_cents(income_c, *columns)
    due_c = np.array([cell.due_c[months] for cell in cells])[:, None]
    shortfall_c, residual_c = _expense_terms(expenses_c, due_c)
    return (income_c, debt_c, savings_c, shortfall_c, residual_c), exact


def _screenable(cells: list[_Cell]) -> bool:
    """Whether the month-1 screen may run over one profile's built cells:
    not when income may leave the money bound or overflow a float in some
    month, so that a trial's later months raise even though it defaulted
    in month 1."""
    profile, horizon_months = cells[0].profile, cells[0].horizon_months
    peak_factor = max(max(1.0, 1.0 + cell.scenario.income_shock) for cell in cells)
    # |W(t)| <= sqrt(dt) H _NORMAL_BOUND bounds each month's income per unit of I0
    unit_peak = (
        1.0
        + abs(profile.mu) * horizon_months * _DT
        + profile.sigma_income * math.sqrt(_DT) * horizon_months * _NORMAL_BOUND
    )
    # twice the bound covers the rounding of the path and of the cents
    return 2.0 * _raw_income_c(profile.income.units * unit_peak, peak_factor) <= MAX_CENTS


def _screen(cells: list[_Cell], first: np.ndarray) -> np.ndarray:
    """The mask of a run's trials that default in month 1 in every one of
    one profile's ``cells``, given each trial's first normal, its month-1
    income shock.  It draws nothing.  Savings start at zero, so a trial
    defaults then exactly when its shortfall plus the interest its debt
    bucket cannot cover is positive."""
    profile = cells[0].profile
    levels = income_levels(profile.income.units, profile.mu, profile.sigma_income, _DT, first[:, None])
    terms, exact = _cell_block(cells, levels[:, 1:], slice(0, 1))
    if exact.any():  # int64 cannot hold some cell's split
        return np.zeros(len(first), dtype=bool)
    _, debt_c, _, shortfall_c, _ = (term[..., 0] for term in terms)
    interest_c = np.array([[round(profile.debt_balance.cents * cell.rate[0])] for cell in cells])
    return (shortfall_c + np.maximum(interest_c - debt_c, 0) > 0).all(axis=0)


class _Rows(NamedTuple):
    """The walk's record of a block's (cell, lane) rows: (cells, lanes)
    arrays, the ones ``run_trial`` reads turned to nested lists at the end."""

    debt: np.ndarray  # owed after the months completed
    cleared: np.ndarray  # the clearance month, or -1
    default: np.ndarray  # the default month, or 0
    savings: np.ndarray  # after the months completed
    dti: np.ndarray  # DTI violations in the months completed
    ser: np.ndarray  # SER violations in the months completed
    live: np.ndarray  # neither defaulted nor handed over
    handed: np.ndarray  # left to run_trial's Python-int month loop


class _CellBlock(NamedTuple):
    """A cell's share of a walked block of draws, row ``k`` of ``rows``, as
    ``run_trial`` reads it."""

    cell: _Cell
    draws: _Draws
    rows: _Rows
    k: int


def _walk(cells: list[_Cell], draws: _Draws) -> list[_CellBlock]:
    """Walk the debt and savings recursion of every (cell, lane) row of one
    profile's block at once, a year of months at a time, over the rows
    still live, counting each row's DTI and SER violations as it goes."""
    shape = (len(cells), len(draws.z_peak))
    horizon_months = draws.growth.shape[1]
    debt_c = cells[0].profile.debt_balance.cents
    rows = _Rows(
        np.full(shape, debt_c, dtype=np.int64),
        np.full(shape, 0 if debt_c == 0 else -1, dtype=np.int64),
        *np.zeros((4, *shape), dtype=np.int64),
        np.ones(shape, dtype=bool),
        np.zeros(shape, dtype=bool),
    )
    rates = np.array([cell.rate for cell in cells])
    dues = np.array([cell.due_c for cell in cells])
    with np.errstate(all="ignore"):
        for start in range(0, horizon_months, _MONTHS_PER_YEAR):
            if not rows.live.any():
                break
            window = slice(start, min(start + _MONTHS_PER_YEAR, horizon_months))
            _walk_window(cells, draws, window, rows, rates, dues)
    read = ("cleared", "default", "savings", "dti", "ser", "handed")
    rows = rows._replace(**{name: getattr(rows, name).tolist() for name in read})
    return [_CellBlock(cell, draws, rows, k) for k, cell in enumerate(cells)]


def _walk_window(cells, draws, window: slice, rows: _Rows, rates, dues) -> None:
    """Walk the live rows through the window's months and record them,
    adding each row's violations over the months it completed.  A row stops
    in the first month whose income is exact or that defaults, or whose
    savings or cash identity the walk cannot vouch for; the months after
    that read garbage that nothing counts."""
    c, lane = np.nonzero(rows.live)
    start, n_months, n = window.start, window.stop - window.start, len(c)
    lanes = rows.live.any(axis=0)
    position = np.cumsum(lanes) - 1
    terms, exact = _cell_block(cells, draws.levels[lanes, window], window)
    at = c, position[lane]
    # (W, rows) each: a month of the rows is a row
    income, alloc_debt, alloc_savings, shortfall, residual = (term[at].T for term in terms)
    exact = exact[at].T
    del terms
    rate = np.ascontiguousarray(rates[c, window].T)
    growth = np.ascontiguousarray(draws.growth[lane, window].T)
    due = dues[c, window].T

    # debt and savings before each month, and each month's buffer,
    # interest, excess debt budget and grown savings
    owed, saved = np.empty((2, n_months + 1, n), dtype=np.int64)
    owed[0], saved[0] = rows.debt[c, lane], rows.savings[c, lane]
    buffers, interest, excess = np.empty((3, n_months, n), dtype=np.int64)
    grown = np.empty((n_months, n))
    for j in range(n_months):
        np.rint(np.multiply(owed[j], rate[j], out=grown[j]), out=grown[j])
        interest[j] = grown[j]
        spare = alloc_debt[j] - interest[j]
        paid = np.maximum(spare, 0)  # what the debt bucket holds past interest
        left = owed[j] - paid
        np.maximum(left, 0, out=owed[j + 1])
        np.subtract(owed[j + 1], left, out=excess[j])
        np.subtract(saved[j], shortfall[j] + (paid - spare), out=buffers[j])
        np.rint(np.multiply(buffers[j], growth[j], out=grown[j]), out=grown[j])
        saved[j + 1] = grown[j]
        saved[j + 1] += alloc_savings[j]
        saved[j + 1] += excess[j]
    service = interest + (owed[:-1] - owed[1:])
    deposit = alloc_savings + excess

    defaults = (buffers < 0) & ~exact
    unproven = (
        exact
        | ~(grown < 2.0**53)
        | (saved[1:] > MAX_CENTS)
        | (income + (saved[:-1] - buffers) != due + service + deposit + residual)
    )
    stops = defaults | unproven
    stopped = stops.any(axis=0)
    month = np.where(stopped, stops.argmax(axis=0), n_months)  # months completed
    columns = np.arange(n)
    at = np.minimum(month, n_months - 1), columns
    failed = stopped & defaults[at]
    paid_off = owed[1:] == 0
    cleared_at = paid_off.argmax(axis=0)
    clears = (owed[0] > 0) & paid_off.any(axis=0) & (cleared_at < month)
    done = np.arange(n_months)[:, None] < month
    # DTI 0 where there is no income; SER inf where nothing is due
    dti = np.divide(service, income, out=np.zeros(grown.shape), where=income > 0)
    ser = np.divide(deposit, due, out=np.full(grown.shape, math.inf), where=due > 0)

    rows.debt[c, lane] = owed[month, columns]
    rows.savings[c, lane] = saved[month, columns]
    rows.dti[c, lane] += (done & (dti > DEFAULT_DTI_LIMIT)).sum(axis=0)
    rows.ser[c, lane] += (done & (ser < DEFAULT_SER_FLOOR)).sum(axis=0)
    rows.cleared[c[clears], lane[clears]] = start + cleared_at[clears] + 1
    rows.default[c[failed], lane[failed]] = start + month[failed] + 1
    rows.handed[c, lane] = stopped & ~failed
    rows.live[c, lane] = ~stopped


def _ledger(cell: _Cell, levels: list, growth: list) -> TrialOutcome:
    """One lane's month loop in Python ints (see the module docstring),
    given its income levels and savings growth factors of months 1..H.
    It builds each month's income, split, shortfall and residual itself,
    so income that leaves the int range raises in its own month, after
    any default that comes first."""
    debt_c = cell.profile.debt_balance.cents
    savings_c = 0
    cleared: Optional[int] = 0 if debt_c == 0 else None
    dti_violations = ser_violations = 0
    default_month: Optional[int] = None
    for month, level, factor, g, due_c, rate in zip(
        count(1), levels, cell.income_factor, growth, cell.due_c, cell.rate
    ):
        income_c = round(_raw_income_c(level, factor))
        alloc_debt_c, alloc_savings_c, expenses_c = _split_cents(income_c, *cell.split)
        shortfall_c, residual_c = _expense_terms(expenses_c, due_c)
        # interest first; what the debt bucket cannot cover comes from savings
        interest_c = round(debt_c * rate)
        spare_c = alloc_debt_c - interest_c
        if spare_c < 0:
            needed_c = shortfall_c - spare_c
            principal_c = excess_c = 0
        else:
            needed_c = shortfall_c
            principal_c = debt_c if debt_c < spare_c else spare_c
            excess_c = spare_c - principal_c

        buffer_c = savings_c - needed_c
        if buffer_c < 0:
            default_month = month
            break

        debt_c -= principal_c
        deposit_c = alloc_savings_c + excess_c
        savings_c = round(buffer_c * g) + deposit_c

        debt_service_c = interest_c + principal_c
        if income_c > 0 and debt_service_c / income_c > DEFAULT_DTI_LIMIT:
            dti_violations += 1
        if due_c > 0 and deposit_c / due_c < DEFAULT_SER_FLOOR:
            ser_violations += 1

        if income_c + needed_c != due_c + debt_service_c + deposit_c + residual_c:
            raise DomainError(f"monthly cash identity violated in month {month}")
        if cleared is None and debt_c == 0:
            cleared = month

    return TrialOutcome(
        defaulted=default_month is not None,
        default_month=default_month,
        debt_cleared_month=cleared,
        final_savings=Money(savings_c),
        dti_violations=dti_violations,
        ser_violations=ser_violations,
    )


def run_trial(
    profile: HouseholdProfile,
    rule: AllocationRule,
    scenario: ScenarioSpec,
    horizon_months: int,
    rng,
) -> TrialOutcome:
    """Simulate one household trajectory (see the module docstring).

    rng is the trial's ``np.random.Generator``, or a (cell block, lane
    index) pair that ``run_stress`` walked for this cell, whose row, with
    the violation counts the walk made, is read unless the walk handed it
    to the Python-int month loop, which counts them itself.  A generator
    gets a cell record of its own, schedule included, draws its first
    normal and then the rest, as in ``run_stress``, into a block of one
    lane, and runs that loop, which builds the lane's month terms itself;
    a bad horizon raises ``ValidationError`` before anything is built.
    """
    key = (profile, rule, scenario, horizon_months)
    if isinstance(rng, tuple):
        (cell, draws, rows, k), i = rng
        if cell[:4] != key:
            raise ValidationError("the lane was built for another stress cell")
    else:
        cell = _cell(key, _cell_terms(profile, scenario, horizon_months))
        first = np.array([rng.standard_normal()])
        draws, rows, k, i = _draw_block(profile, horizon_months, [rng], first), None, 0, 0

    if draws.overflowed[i]:
        raise _overflow_cause(cell, None, draws.z_peak[i].item())
    levels = draws.levels[i]
    try:
        if rows is None or rows.handed[k][i]:
            return _ledger(cell, levels.tolist(), draws.growth[i].tolist())
        default_month, cleared = rows.default[k][i], rows.cleared[k][i]
        return TrialOutcome(
            defaulted=default_month > 0,
            default_month=default_month or None,
            debt_cleared_month=cleared if cleared >= 0 else None,
            final_savings=Money(rows.savings[k][i]),
            dti_violations=rows.dti[k][i],
            ser_violations=rows.ser[k][i],
        )
    except DomainError:
        raise
    except (ArithmeticError, ValueError):  # an amount outgrew Money or a float
        raise _overflow_cause(cell, levels.tolist(), draws.z_peak[i].item()) from None


class _Tally:
    """The running sums ``_aggregate`` reads from a row's trial outcomes,
    with the horizon H and the expenses due in month H of the row's built
    cell; ``cleared`` counts trials by clearance month, 0 (no opening debt)
    to H, and ``months`` the months the trials completed."""

    def __init__(self, cell: _Cell) -> None:
        self.defaults = self.final_cents = self.months = self.dti_violations = self.ser_violations = 0
        self.horizon_months, self.final_due_c = cell.horizon_months, cell.due_c[-1]
        self.cleared = [0] * (cell.horizon_months + 1)

    def add(self, outcome: TrialOutcome) -> None:
        self.defaults += outcome.defaulted
        if outcome.debt_cleared_month is not None:
            self.cleared[outcome.debt_cleared_month] += 1
        self.final_cents += outcome.final_savings.cents
        self.months += outcome.default_month - 1 if outcome.defaulted else self.horizon_months
        self.dti_violations += outcome.dti_violations
        self.ser_violations += outcome.ser_violations

    def add_settled(self, n: int, debt_c: int) -> None:
        """Add ``n`` trials that default in month 1 on opening debt ``debt_c``."""
        self.defaults += n  # no month completes: no savings, no violations
        self.cleared[0] += n * (debt_c == 0)  # owing nothing, cleared before month 1


def _aggregate(
    profile: HouseholdProfile, rule: AllocationRule, scenario: ScenarioSpec, tally: _Tally, trials: int
) -> StressMetrics:
    """A row's metrics over its ``trials``, from its tally; expense
    coverage is in months of the expenses due in the horizon's last month."""
    by_month = list(accumulate(tally.cleared))  # trials cleared by each month
    n = by_month[-1]  # an even count's median is the mean of its two middle months
    middle = bisect_right(by_month, (n - 1) // 2) + bisect_right(by_month, n // 2)
    median_years = middle / 2 / _MONTHS_PER_YEAR if n else None
    mean_final = Money(_round_div(tally.final_cents, trials))
    coverage = mean_final.cents / tally.final_due_c if tally.final_due_c > 0 else None
    return StressMetrics(
        profile_id=profile.profile_id,
        rule=rule.rule_id,
        scenario=scenario.name,
        trials=trials,
        default_rate=tally.defaults / trials,
        median_clearance_years=median_years,
        mean_final_savings=mean_final,
        months_expense_coverage=coverage,
        dti_violation_rate=tally.dti_violations / tally.months if tally.months else 0.0,
        ser_violation_rate=tally.ser_violations / tally.months if tally.months else 0.0,
    )


def _trial_blocks(cells: list[_Cell], cfg: PathConfig, width: int) -> Iterator[int | _Draws]:
    """The trials of one profile's built ``cells`` in the order each cell
    runs them.  Per run of up to 512 trials, each trial draws its first
    normal, and the count of those ``_screen`` settles comes (0 when
    ``_screenable`` rules the screen out): they draw nothing more.  The
    other trials are pooled across runs and follow in blocks of ``width``
    lanes, each drawn when asked for."""
    profile, horizon_months = cells[0].profile, cfg.steps
    screened = _screenable(cells)
    rngs, first = [], np.empty(0)  # the pool
    for start in range(0, cfg.trials, _BLOCK):
        trials = range(start, min(start + _BLOCK, cfg.trials))
        run = [derive_trial_rng(cfg.master_seed, k) for k in trials]
        normals = np.fromiter((rng.standard_normal() for rng in run), float, len(run))
        settled = _screen(cells, normals) if screened else np.zeros(len(run), dtype=bool)
        yield int(settled.sum())
        rngs += compress(run, ~settled)
        first = np.concatenate((first, normals[~settled]))
        del run  # the settled trials' generators
        last = trials.stop == cfg.trials
        while len(rngs) >= width or (last and rngs):
            draws = _draw_block(profile, horizon_months, rngs[:width], first[:width])
            rngs, first = rngs[width:], first[width:]
            yield draws


def run_stress(
    profiles: Sequence[HouseholdProfile],
    rules: Sequence[AllocationRule],
    scenarios: Sequence[ScenarioSpec],
    cfg: PathConfig,
) -> list[StressMetrics]:
    """Run every (profile, rule, scenario) combination.

    Trial k always draws from the stream derived from
    (cfg.master_seed, k), so all combinations share shocks (common random
    numbers).  Each profile makes one pass over its trials, in runs of up
    to 512: the month-1 screen settles the trials that default in month 1
    in every cell, which draw only their first normal and are tallied in
    closed form, never reaching ``run_trial``; the others are pooled into
    blocks of lanes, one at a time.  Every cell of the profile walks a block
    together before the next is drawn, so a trial's stream is derived once
    per profile, and ``run_trial`` is called for each (row, lane).
    Output rows are sorted by (profile_id, rule, scenario).

    Each (profile, scenario) schedule is built once and shared by the
    profile's rules.  A repeated profile id is a ``ValidationError`` before
    any schedule or stream, so each profile's rows are one run.  The error
    raised is the first in row order: a cell stops at its first error, from
    its schedule or a trial, and so does every later row.
    """
    if not profiles:
        raise ValidationError("at least one profile is required")
    if not rules:
        raise ValidationError("at least one rule is required")
    if not scenarios:
        raise ValidationError("at least one scenario is required")
    if abs(cfg.dt_years * _MONTHS_PER_YEAR - 1.0) > 1e-9:
        raise ValidationError("stress runs use a monthly step; set dt_years to 1/12")
    seen: set[str] = set()
    for profile in profiles:
        if profile.profile_id in seen:
            raise ValidationError(f"duplicate profile id {profile.profile_id!r}")
        seen.add(profile.profile_id)
    horizon_months = cfg.steps
    metrics: list[StressMetrics] = []
    for profile in sorted(profiles, key=lambda p: p.profile_id):
        keys = sorted(
            ((profile, r, s, horizon_months) for r in rules for s in scenarios),
            key=lambda c: (c[1].rule_id.value, c[2].name),
        )
        # the profile's cells in row order, up to the first whose schedule raises
        cells: list[_Cell] = []
        schedules: dict[ScenarioSpec, _Schedule] = {}
        error = None  # the first failed row's error
        for key in keys:
            try:
                if key[2] not in schedules:
                    schedules[key[2]] = _cell_terms(profile, key[2], horizon_months)
            except ValueError as exc:  # DomainError or ValidationError
                error = exc
                break
            cells.append(_cell(key, schedules[key[2]]))
        if not cells:
            raise error
        tallies = [_Tally(cell) for cell in cells]  # each built with its row's cell
        stop = len(cells)  # the first failed row, or the count of cells
        for draws in _trial_blocks(cells, cfg, _block_width(len(cells), horizon_months)):
            if isinstance(draws, int):  # the run's settled trials
                for tally in tallies[:stop]:
                    tally.add_settled(draws, profile.debt_balance.cents)
                continue
            blocks = _walk(cells[:stop], draws)
            for k, block in enumerate(blocks):
                try:
                    for i in range(len(draws.z_peak)):
                        tallies[k].add(run_trial(*keys[k], (block, i)))
                except ValueError as exc:
                    stop, error = k, exc
                    break
            del draws, blocks, block  # before the next block is drawn
            if stop == 0:  # every cell of the profile has stopped
                break
        if error is not None:
            raise error
        metrics += [_aggregate(*key[:3], tally, cfg.trials) for key, tally in zip(keys, tallies)]
    return metrics


def debt_clearance_time(balance: Money, annual_payment: Money, apr: float) -> float:
    """Years to amortize a balance at a constant annual payment.

    Zero APR gives balance / payment.  Otherwise
    -ln(1 - balance * apr / payment) / ln(1 + apr), defined only while
    the payment exceeds the annual interest.
    """
    if annual_payment.cents <= 0:
        raise ValidationError("annual payment must be positive")
    if not math.isfinite(apr) or apr < 0:
        raise ValidationError("apr must be nonnegative and finite")
    if balance.cents == 0:
        return 0.0
    b = balance.units
    p = annual_payment.units
    if apr == 0.0:
        return b / p
    ratio = b * apr / p
    if ratio >= 1.0:
        raise DebtNeverClearsError(
            f"annual payment {p:.2f} does not exceed annual interest {b * apr:.2f}"
        )
    return -math.log1p(-ratio) / math.log1p(apr)


class AnnuityTiming(str, Enum):
    ORDINARY_ANNUAL = "ordinary_annual"
    DUE_ANNUAL = "due_annual"
    MONTHLY = "monthly"


def savings_future_value(
    annual_contribution: Money,
    rate: float,
    years: int,
    timing: AnnuityTiming = AnnuityTiming.ORDINARY_ANNUAL,
) -> Money:
    """Future value of level contributions at a constant return.

    ordinary_annual contributes at each year end, due_annual at each
    year start, monthly spreads the contribution over month ends at
    rate / 12.
    """
    timing = AnnuityTiming(timing)
    if not is_int(years) or years < 0:
        raise ValidationError("years must be a nonnegative integer")
    if not math.isfinite(rate) or rate <= -1.0:
        raise ValidationError("rate must be a finite return above -1")
    c = annual_contribution.units
    if timing is AnnuityTiming.MONTHLY:
        monthly_rate = rate / _MONTHS_PER_YEAR
        n = years * _MONTHS_PER_YEAR
        if monthly_rate == 0.0:
            return Money.of(c / _MONTHS_PER_YEAR * n)
        factor = math.expm1(n * math.log1p(monthly_rate)) / monthly_rate
        return Money.of(c / _MONTHS_PER_YEAR * factor)
    if rate == 0.0:
        value = c * years
    else:
        value = c * math.expm1(years * math.log1p(rate)) / rate
        if timing is AnnuityTiming.DUE_ANNUAL:
            value *= 1.0 + rate
    return Money.of(value)


@dataclass(frozen=True)
class RuleComparison:
    """One rule's standing within a (profile, scenario) cell, ranked by
    default rate, then clearance speed, then expense coverage."""

    profile_id: str
    scenario: str
    rule: RuleId
    rank: int
    default_rate: float
    default_rate_delta: float
    median_clearance_years: Optional[float]
    clearance_delta: Optional[float]
    months_expense_coverage: Optional[float]
    coverage_delta: Optional[float]


def compare_rules(metrics: Sequence[StressMetrics]) -> list[RuleComparison]:
    """Rank rules within each (profile, scenario) cell and report deltas
    against the top-ranked rule.  Every cell must carry the same rule
    set and every profile the same scenario set."""
    if not metrics:
        raise ValidationError("no metrics to compare")
    cells: dict[tuple[str, str], dict[RuleId, StressMetrics]] = {}
    for m in metrics:
        cell = cells.setdefault((m.profile_id, m.scenario), {})
        if m.rule in cell:
            raise ValidationError(
                f"duplicate metrics for {m.profile_id}/{m.rule.value}/{m.scenario}"
            )
        cell[m.rule] = m
    rule_sets = {frozenset(cell) for cell in cells.values()}
    if len(rule_sets) != 1:
        raise ValidationError("metrics do not share a rule axis across cells")
    scenario_sets: dict[str, set[str]] = {}
    for pid, scen in cells:
        scenario_sets.setdefault(pid, set()).add(scen)
    if len({frozenset(s) for s in scenario_sets.values()}) != 1:
        raise ValidationError("metrics do not share a scenario axis across profiles")

    def sort_key(m: StressMetrics) -> tuple:
        clearance = m.median_clearance_years
        coverage = m.months_expense_coverage
        return (
            m.default_rate,
            clearance if clearance is not None else float("inf"),
            -(coverage if coverage is not None else float("-inf")),
            m.rule.value,
        )

    rows: list[RuleComparison] = []
    for (pid, scen), cell in sorted(cells.items()):
        ranked = sorted(cell.values(), key=sort_key)
        best = ranked[0]
        for rank, m in enumerate(ranked, start=1):
            clearance_delta = None
            if m.median_clearance_years is not None and best.median_clearance_years is not None:
                clearance_delta = m.median_clearance_years - best.median_clearance_years
            coverage_delta = None
            if m.months_expense_coverage is not None and best.months_expense_coverage is not None:
                coverage_delta = m.months_expense_coverage - best.months_expense_coverage
            rows.append(
                RuleComparison(
                    profile_id=pid,
                    scenario=scen,
                    rule=m.rule,
                    rank=rank,
                    default_rate=m.default_rate,
                    default_rate_delta=m.default_rate - best.default_rate,
                    median_clearance_years=m.median_clearance_years,
                    clearance_delta=clearance_delta,
                    months_expense_coverage=m.months_expense_coverage,
                    coverage_delta=coverage_delta,
                )
            )
    return rows
