"""Finite-horizon planner: policies, values, and their scalar replay."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from thirdrule import (
    DynamicConfig,
    HouseholdState,
    Money,
    UtilityParams,
    ValidationError,
    default_config,
    make_allocation,
    policy_adjustments,
    solve_plan,
    transition,
)
from thirdrule.cli import main
from thirdrule.dynamic import _bracket, _quad_nodes
from thirdrule.errors import DomainError


def _state(income="36000", debt="10000", savings="5000"):
    return HouseholdState(
        income=Money.of(income), debt=Money.of(debt), savings=Money.of(savings)
    )


def replay_node_value(policy, t, node):
    """Recompute the stored value at one node with scalar arithmetic:
    reward of the stored action plus the discounted quadrature expectation
    of the next period's interpolated value."""
    cfg = policy.config
    i, b, s = node
    inc = cfg.income_grid[i]
    debt = cfg.debt_grid[b]
    sav = cfg.savings_grid[s]
    fd, fs, fe = (float(f) for f in policy.node_fractions(t, node))
    p = cfg.params
    reward = inc * (fd**p.alpha * fs**p.beta * fe**p.gamma)
    reward += cfg.state_weight * (math.log1p(sav) - math.log1p(debt))
    if t == cfg.horizon:
        return reward
    v_next = policy.values[t]
    inc_g = np.asarray(cfg.income_grid)
    debt_g = np.asarray(cfg.debt_grid)
    sav_g = np.asarray(cfg.savings_grid)
    debt_nxt = max(0.0, debt * (1.0 + cfg.debt_apr) - fd * inc)
    sav_nxt = sav * (1.0 + cfg.savings_return) + fs * inc
    blo, bhi, bw = _bracket(debt_g, np.asarray([debt_nxt]))
    slo, shi, sw = _bracket(sav_g, np.asarray([sav_nxt]))
    z_nodes, z_weights = _quad_nodes(cfg)
    expected = 0.0
    for z, wq in zip(z_nodes, z_weights):
        inc_nxt = max(0.0, inc * (1.0 + cfg.income_growth + cfg.shock_std * z))
        ilo, ihi, iw = _bracket(inc_g, np.asarray([inc_nxt]))
        acc = 0.0
        for idx, w_i in ((ilo[0], 1.0 - iw[0]), (ihi[0], iw[0])):
            for bdx, w_b in ((blo[0], 1.0 - bw[0]), (bhi[0], bw[0])):
                for sdx, w_s in ((slo[0], 1.0 - sw[0]), (shi[0], sw[0])):
                    acc += w_i * w_b * w_s * v_next[idx, bdx, sdx]
        expected += wq * acc
    return reward + cfg.discount * expected


class TestConfig:
    def test_default_grids_span_the_initial_income(self):
        cfg = default_config(_state(), 5)
        assert cfg.horizon == 5
        assert cfg.income_grid[0] == pytest.approx(9000.0)
        assert cfg.income_grid[-1] == pytest.approx(144000.0)
        assert cfg.debt_grid[0] == 0.0
        assert cfg.debt_grid[-1] == pytest.approx(108000.0)
        assert len(cfg.income_grid) == 11

    def test_overrides_pass_through(self):
        cfg = default_config(_state(), 3, discount=0.9, shock_std=0.2, shock_samples=5)
        assert cfg.discount == 0.9
        assert cfg.shock_std == 0.2
        assert cfg.shock_samples == 5

    def test_validation(self):
        with pytest.raises(ValidationError):
            default_config(_state(), 0)
        with pytest.raises(ValidationError):
            default_config(_state(), 3, discount=1.5)
        with pytest.raises(ValidationError):
            default_config(_state(), 3, action_step=Fraction(2, 7))
        with pytest.raises(ValidationError):
            DynamicConfig(
                horizon=2,
                income_grid=(1.0,),
                debt_grid=(0.0, 1.0),
                savings_grid=(0.0, 1.0),
            )
        with pytest.raises(ValidationError):
            DynamicConfig(
                horizon=2,
                income_grid=(2.0, 1.0),
                debt_grid=(0.0, 1.0),
                savings_grid=(0.0, 1.0),
            )


class TestTransition:
    def test_worked_example(self):
        cfg = default_config(
            _state(), 2, debt_apr=0.06, savings_return=0.03, income_growth=0.02
        )
        state = _state(income="36000", debt="20000", savings="5000")
        action = make_allocation(state.income, (Fraction(1, 3),) * 3)
        nxt = transition(state, action, 0.0, cfg)
        # debt 20000 * 1.06 - 12000, savings 5000 * 1.03 + 12000, income * 1.02
        assert nxt.debt == Money.of("9200")
        assert nxt.savings == Money.of("17150")
        assert nxt.income == Money.of("36720")

    def test_debt_floors_at_zero(self):
        cfg = default_config(_state(), 2, debt_apr=0.06)
        state = _state(debt="10000")
        action = make_allocation(state.income, (Fraction(1, 3),) * 3)
        assert transition(state, action, 0.0, cfg).debt == Money.zero()

    def test_income_shock_applies_through_shock_std(self):
        cfg = default_config(_state(), 2, shock_std=0.1)
        state = _state()
        action = make_allocation(state.income, (Fraction(1, 3),) * 3)
        up = transition(state, action, 1.0, cfg)
        down = transition(state, action, -1.0, cfg)
        assert up.income == Money.of("39600")
        assert down.income == Money.of("32400")

    def test_income_floors_at_zero(self):
        cfg = default_config(_state(), 2, shock_std=1.0)
        state = _state()
        action = make_allocation(state.income, (Fraction(1, 3),) * 3)
        assert transition(state, action, -50.0, cfg).income == Money.zero()

    def test_action_income_must_match(self):
        cfg = default_config(_state(), 2)
        action = make_allocation(Money.of("100"), (Fraction(1, 3),) * 3)
        with pytest.raises(ValidationError):
            transition(_state(), action, 0.0, cfg)


@pytest.mark.parametrize(
    "overrides, shock, field, what",
    [
        (dict(income_growth=1e308), 0.0, "income_growth", "income"),
        (dict(income_growth=1e10), -1.0, "income_growth", "income"),  # finite, past the bound
        (dict(shock_std=1e10), 1.0, "shock_std", "income"),
        (dict(debt_apr=1e308), 0.0, "debt_apr", "debt"),
        (dict(debt_apr=1e10), 0.0, "debt_apr", "debt"),
        (dict(savings_return=1e308), 0.0, "savings_return", "savings"),
        (dict(savings_return=1e11), 0.0, "savings_return", "savings"),
    ],
    ids=[
        "growth-float", "growth-money", "shock-money", "apr-float", "apr-money", "return-float",
        "return-money",
    ],
)
def test_a_next_state_past_the_money_bound_names_its_field(overrides, shock, field, what):
    state = _state(income="60000", debt="20000")
    cfg = default_config(state, 2, **overrides)
    action = make_allocation(state.income, (Fraction(1, 3),) * 3)
    with pytest.raises(DomainError, match=f"^{field} .* puts next-period {what} past the money bound$"):
        transition(state, action, shock, cfg)


@pytest.mark.parametrize(
    "shock_std, shock, message",
    [
        (0.1, math.nan, "shock must be finite"),
        (0.0, math.inf, "shock must be finite"),
        (0.0, -math.inf, "shock must be finite"),
        (0.1, "1.0", "shock must be a number"),
    ],
    ids=["nan", "inf", "minus-inf", "text"],
)
def test_a_shock_that_is_not_a_finite_number_is_rejected(shock_std, shock, message):
    # max(0.0, nan) is 0.0, so an unchecked NaN income factor reads as zero income
    state = _state(income="60000", debt="20000")
    cfg = default_config(state, 2, shock_std=shock_std)
    action = make_allocation(state.income, (Fraction(1, 3),) * 3)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        transition(state, action, shock, cfg)


class TestSolvedPolicy:
    def test_thirds_at_every_node_without_state_pressure(self):
        # no shocks, no balance reward: per-period preferences alone decide,
        # and the closed-form optimum is representable on the 1/30 lattice
        initial = _state()
        cfg = default_config(initial, 4, state_weight=0.0)
        policy = solve_plan(initial, cfg)
        assert policy.action_denominator == 30
        assert np.all(policy.numerators == 10)

    def test_asymmetric_preferences_on_the_lattice(self):
        # (0.5, 0.3, 0.2) is exactly representable in thirtieths
        initial = _state()
        cfg = default_config(
            initial,
            2,
            state_weight=0.0,
            params=UtilityParams(alpha=0.5, beta=0.3, gamma=0.2),
        )
        policy = solve_plan(initial, cfg)
        fd, fs, fe = policy.node_fractions(1, (0, 0, 0))
        assert (fd, fs, fe) == (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))

    def test_unrepresentable_optimum_breaks_ties_deterministically(self):
        # the (0.5, 0.25, 0.25) optimum falls between lattice points; the
        # equal-utility neighbors are resolved by distance then index, so
        # the result is stable across runs
        initial = _state()
        cfg = default_config(
            initial,
            2,
            state_weight=0.0,
            params=UtilityParams(alpha=0.5, beta=0.25, gamma=0.25),
        )
        policy = solve_plan(initial, cfg)
        assert policy.node_fractions(1, (0, 0, 0)) == (
            Fraction(1, 2),
            Fraction(7, 30),
            Fraction(4, 15),
        )

    def test_stationary_when_nothing_changes(self):
        initial = _state()
        cfg = default_config(initial, 6, state_weight=0.1, debt_apr=0.1, savings_return=0.02)
        policy = solve_plan(initial, cfg)
        node = policy.nearest_node(initial)
        first = policy.node_fractions(1, node)
        for t in range(2, 7):
            assert policy.node_fractions(t, node) == first

    def test_value_monotone_in_balances(self):
        initial = _state()
        cfg = default_config(initial, 3)
        policy = solve_plan(initial, cfg)
        values = policy.values[0]
        # more savings can only help, more debt can only hurt
        assert np.all(np.diff(values, axis=2) >= -1e-9)
        assert np.all(np.diff(values, axis=1) <= 1e-9)

    def test_balance_pressure_moves_the_plan_off_thirds(self):
        # when the balance-sheet term dominates, the plan cuts consumption
        # for balance repair; with zero savings the log-shaped term makes
        # the savings channel the steepest
        initial = _state(income="36000", debt="100000", savings="0")
        cfg = default_config(initial, 5, debt_apr=0.5, state_weight=20000.0)
        policy = solve_plan(initial, cfg)
        node = policy.nearest_node(initial)
        fd, fs, fe = policy.node_fractions(1, node)
        assert fs > Fraction(1, 3)
        assert fe < Fraction(1, 3)

    def test_replay_matches_stored_values(self):
        initial = _state()
        cfg = default_config(
            initial,
            4,
            debt_apr=0.12,
            savings_return=0.04,
            income_growth=0.03,
            shock_std=0.15,
            shock_samples=7,
            state_weight=0.25,
        )
        policy = solve_plan(initial, cfg)
        ni = len(cfg.income_grid)
        nb = len(cfg.debt_grid)
        ns = len(cfg.savings_grid)
        for t in (1, 2, 4):
            for node in [(0, 0, 0), (ni // 2, nb // 2, ns // 2), (ni - 1, nb - 1, ns - 1), (3, 7, 2)]:
                stored = policy.values[t - 1][node]
                replayed = replay_node_value(policy, t, node)
                assert replayed == pytest.approx(stored, rel=1e-9, abs=1e-9)

    def test_period_bounds_checked(self):
        policy = solve_plan(_state(), default_config(_state(), 2))
        with pytest.raises(ValidationError):
            policy.node_fractions(0, (0, 0, 0))
        with pytest.raises(ValidationError):
            policy.node_fractions(3, (0, 0, 0))

    def test_single_period_value_is_the_immediate_reward(self):
        initial = _state()
        cfg = default_config(initial, 1, state_weight=0.0)
        policy = solve_plan(initial, cfg)
        node = policy.nearest_node(initial)
        income_node = cfg.income_grid[node[0]]
        expected = income_node * (1.0 / 3.0)  # utility of thirds is I/3
        assert policy.values[0][node] == pytest.approx(expected, rel=1e-12)


class TestAdjustments:
    def test_exact_rationals_and_zero_signed_sum(self):
        initial = _state(income="36000", debt="100000", savings="0")
        cfg = default_config(initial, 3, debt_apr=0.3, state_weight=2.0)
        policy = solve_plan(initial, cfg)
        for t in (1, 2, 3):
            ad, as_, ae = policy_adjustments(policy, t, initial)
            assert isinstance(ad, Fraction)
            assert -ad + as_ - ae == 0

    def test_zero_adjustments_on_the_thirds_plan(self):
        initial = _state()
        cfg = default_config(initial, 3, state_weight=0.0)
        policy = solve_plan(initial, cfg)
        assert policy_adjustments(policy, 1, initial) == (
            Fraction(0),
            Fraction(0),
            Fraction(0),
        )


def test_nearest_node():
    initial = _state()
    cfg = default_config(initial, 2)
    policy = solve_plan(initial, cfg)
    i, b, s = policy.nearest_node(initial)
    assert cfg.income_grid[i] == pytest.approx(36000.0, rel=0.2)
    # debt 10000 against a 0..108000 grid lands on the 10800 node
    assert cfg.debt_grid[b] == pytest.approx(10800.0)


# (plan options past the income, horizon, and the error's start): a rate
# that puts a next-period state or the state term past the float range,
# and a state weight whose values overflow only over many periods
_OVERFLOWS = [
    ("--debt-apr 1e308", 2, "debt_apr 1e+308 with debt_grid up to 180000.0 puts next-period debt"),
    ("--savings-return 1e308", 2, "savings_return 1e+308 with savings_grid up to 180000.0 and income_grid"),
    ("--income-growth 1e308", 2, "income_growth 1e+308 with income_grid up to 240000.0 puts next-period"),
    ("--shock-std 1e307", 2, "shock_std 1e+307 with income_grid up to 240000.0 puts next-period"),
    ("--state-weight 1e308", 2, "state_weight 1e+308 puts the state term"),
    ("--debt 20000 --state-weight 1e306", 30, "the plan's values overflow a float"),
]


@pytest.mark.parametrize("options, horizon, want", _OVERFLOWS)
@pytest.mark.parametrize("action", ["default", "error"])
def test_plan_overflow_is_a_domain_error_without_a_warning(options, horizon, want, action):
    words = options.split()
    fields = {name[2:].replace("-", "_"): value for name, value in zip(words[::2], words[1::2])}
    initial = _state(income="60000", debt=fields.pop("debt", "0"), savings="0")
    cfg = default_config(initial, horizon, **{name: float(v) for name, v in fields.items()})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        with pytest.raises(DomainError) as info:
            solve_plan(initial, cfg)
    assert str(info.value).startswith(want)
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("options, horizon, want", _OVERFLOWS)
def test_plan_overflow_exits_1_with_one_line_naming_its_cause(options, horizon, want, capsys):
    argv = ["plan", "--income", "60000", "--horizon", str(horizon), *options.split()]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err.count("\n")) == ("", 1)
    assert err.startswith(f"error: {want}")
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize(
    "grids, rates, want",
    [
        (
            {"savings_grid": (0.0, 1e308)},
            {"savings_return": 1.0},
            "savings_return 1.0 with savings_grid up to 1e+308 and income_grid up to 240000.0",
        ),
        (  # the top node plus the largest deposit
            {"savings_grid": (0.0, 1e308), "income_grid": (1.0, 1e308)},
            {},
            "savings_return 0.0 with savings_grid up to 1e+308 and income_grid up to 1e+308",
        ),
        ({"debt_grid": (0.0, 1e308)}, {"debt_apr": 1.0}, "debt_apr 1.0 with debt_grid up to 1e+308"),
        (
            {"income_grid": (1.0, 1e308)},
            {"income_growth": 1.0},
            "income_growth 1.0 with income_grid up to 1e+308",
        ),
    ],
)
def test_plan_overflow_from_a_grid_names_the_grid(grids, rates, want):
    # A library grid near the largest double overflows at a modest rate, or
    # with a deposit, so the message names each grid's top node beside the rate.
    initial = _state(income="60000", debt="0", savings="0")
    cfg = default_config(initial, 2, **grids, **rates)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as info:
            solve_plan(initial, cfg)
    assert str(info.value).startswith(want)
