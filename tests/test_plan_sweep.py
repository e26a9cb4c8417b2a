"""The planner's backward sweep against a frozen reference sweep.

``_reference_sweep`` is the period loop of ``solve_plan`` as it stood
before the separable continuation blend: every period gathers the four
corners of each action's (debt, savings) cell from the expected value
surface and blends them in one expression.  It is kept here only as an
oracle; ``solve_plan`` must return bit-identical numerators and values
for any config and any sweep block size, and the ``plan`` command must
keep its bytes.
"""

import dataclasses
import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thirdrule import DynamicConfig, HouseholdState, Money, UtilityParams, solve_plan
from thirdrule import dynamic
from thirdrule.cli import main
from thirdrule.dynamic import _bracket, _quad_nodes, _simplex_actions


def _reference_sweep(cfg):
    """(numerators, values) of the four-gather sweep."""
    inc_g = np.asarray(cfg.income_grid)
    debt_g = np.asarray(cfg.debt_grid)
    sav_g = np.asarray(cfg.savings_grid)
    ni, nb, ns = len(inc_g), len(debt_g), len(sav_g)
    acts, q = _simplex_actions(cfg.action_step)
    frac = acts / q
    p = cfg.params
    u_act = frac[:, 0] ** p.alpha * frac[:, 1] ** p.beta * frac[:, 2] ** p.gamma
    reward = inc_g[None, :] * u_act[:, None]
    state_term = cfg.state_weight * (np.log1p(sav_g)[None, :] - np.log1p(debt_g)[:, None])

    z_nodes, z_weights = _quad_nodes(cfg)
    mix = np.zeros((ni, ni))
    for z, wq in zip(z_nodes, z_weights):
        nxt = np.maximum(inc_g * (1.0 + cfg.income_growth + cfg.shock_std * z), 0.0)
        lo, hi, w = _bracket(inc_g, nxt)
        np.add.at(mix, (np.arange(ni), lo), wq * (1.0 - w))
        np.add.at(mix, (np.arange(ni), hi), wq * w)

    debt_next = np.maximum(
        debt_g[None, None, :] * (1.0 + cfg.debt_apr) - frac[:, 0][:, None, None] * inc_g[None, :, None],
        0.0,
    )
    bi0, bi1, bw = _bracket(debt_g, debt_next)
    sav_next = (
        sav_g[None, None, :] * (1.0 + cfg.savings_return)
        + frac[:, 1][:, None, None] * inc_g[None, :, None]
    )
    si0, si1, sw = _bracket(sav_g, sav_next)

    ii = np.arange(ni).reshape(1, ni, 1, 1)
    b0 = bi0[:, :, :, None]
    b1 = bi1[:, :, :, None]
    bwx = bw[:, :, :, None]
    s0 = si0[:, :, None, :]
    s1 = si1[:, :, None, :]
    swx = sw[:, :, None, :]

    numerators = np.empty((cfg.horizon, ni, nb, ns, 3), dtype=np.int16)
    values = np.empty((cfg.horizon, ni, nb, ns))
    v_next = np.zeros((ni, nb, ns))
    for t in range(cfg.horizon, 0, -1):
        vbar = (mix @ v_next.reshape(ni, -1)).reshape(ni, nb, ns)
        g00 = vbar[ii, b0, s0]
        g01 = vbar[ii, b0, s1]
        g10 = vbar[ii, b1, s0]
        g11 = vbar[ii, b1, s1]
        cont = (1.0 - bwx) * ((1.0 - swx) * g00 + swx * g01) + bwx * (
            (1.0 - swx) * g10 + swx * g11
        )
        total = reward[:, :, None, None] + state_term[None, None, :, :] + cfg.discount * cont
        best = np.argmax(total, axis=0)
        v_next = np.take_along_axis(total, best[None, :, :, :], axis=0)[0]
        numerators[t - 1] = acts.astype(np.int16)[best]
        values[t - 1] = v_next
    return numerators, values


# Grids of 2-6 nodes with uneven gaps.  Balances on a scale of a few
# thousand units against incomes of up to a few thousand, so next-period
# states land inside the grid, below its first node and past its last.
def _grid(low, high_gap):
    return st.tuples(
        st.floats(min_value=0.0, max_value=low),
        st.lists(st.floats(min_value=1.0, max_value=high_gap), min_size=1, max_size=5),
    ).map(lambda drawn: tuple(np.cumsum((drawn[0],) + tuple(drawn[1]))))


_PARAMS = st.sampled_from(
    [
        UtilityParams.symmetric(),
        UtilityParams(alpha=0.5, beta=0.3, gamma=0.2),
        UtilityParams(alpha=0.2, beta=0.7, gamma=0.1),
    ]
)
CONFIGS = st.builds(
    DynamicConfig,
    horizon=st.integers(min_value=1, max_value=4),
    income_grid=_grid(500.0, 3000.0),
    debt_grid=_grid(100.0, 2000.0),
    savings_grid=_grid(100.0, 2000.0),
    discount=st.floats(min_value=0.5, max_value=1.0),
    debt_apr=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5), st.just(50.0)),
    savings_return=st.floats(min_value=-0.9, max_value=0.5),
    income_growth=st.floats(min_value=-0.5, max_value=0.5),
    shock_std=st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.5)),
    shock_samples=st.sampled_from([1, 7]),
    # 1/12 (91 actions) and 1/60 (1891 actions) span several sweep blocks,
    # with a short last one, at 5 actions per block and (1/60) at the
    # default block on the larger grids
    action_step=st.sampled_from(
        [Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(1, 12), Fraction(1, 30), Fraction(1, 60)]
    ),
    params=_PARAMS,
    state_weight=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0), st.just(1e4)),
)
_INITIAL = HouseholdState(income=Money.of("1000"), debt=Money.zero(), savings=Money.zero())


def _block_bytes(cfg, actions):
    """SWEEP_BLOCK_BYTES that makes solve_plan sweep this many actions
    per block."""
    nodes = len(cfg.income_grid) * len(cfg.debt_grid) * len(cfg.savings_grid)
    return actions * nodes * 8


@settings(max_examples=200, deadline=None)
@given(CONFIGS, st.sampled_from([None, 1, 5]))
def test_solve_plan_matches_reference_sweep(cfg, block):
    # block: actions per sweep block, None for the default block size
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(dynamic, "SWEEP_BLOCK_BYTES", _block_bytes(cfg, block))
        policy = solve_plan(_INITIAL, cfg)
    numerators, values = _reference_sweep(cfg)
    assert np.array_equal(policy.numerators, numerators)
    assert np.array_equal(policy.values, values)


# the plan_deep benchmark's shape: 11 nodes per axis, 496 actions, seven
# shock samples, states clamped at both ends of every grid
_DEEP_INITIAL = HouseholdState(
    income=Money.of("60000"), debt=Money.of("20000"), savings=Money.of("5000")
)


def _deep_config(horizon):
    return DynamicConfig(
        horizon=horizon,
        income_grid=tuple(np.geomspace(15000.0, 240000.0, 11)),
        debt_grid=tuple(np.linspace(0.0, 180000.0, 11)),
        savings_grid=tuple(np.linspace(0.0, 180000.0, 11)),
        debt_apr=0.18,
        savings_return=0.04,
        income_growth=0.02,
        shock_std=0.1,
    )


@pytest.mark.parametrize("actions", [None, 1, 7, 497])
def test_solve_plan_matches_reference_sweep_on_the_default_grid(monkeypatch, actions):
    # 496 actions: the default 49 per block, one per block, a last block
    # of 6, and a single block
    cfg = _deep_config(3)
    if actions is not None:
        monkeypatch.setattr(dynamic, "SWEEP_BLOCK_BYTES", _block_bytes(cfg, actions))
    policy = solve_plan(_DEEP_INITIAL, cfg)
    numerators, values = _reference_sweep(cfg)
    assert np.array_equal(policy.numerators, numerators)
    assert np.array_equal(policy.values, values)


@pytest.mark.parametrize("actions", [None, 1, 7])
def test_ties_across_blocks_keep_the_first_action(monkeypatch, actions):
    # With no income, no state term and no future, every action is worth
    # zero at the income-0 nodes, so the first action, the thirds, wins.
    cfg = DynamicConfig(
        horizon=1,
        income_grid=(0.0, 1000.0),
        debt_grid=(0.0, 500.0),
        savings_grid=(0.0, 500.0),
        state_weight=0.0,
    )
    if actions is not None:
        monkeypatch.setattr(dynamic, "SWEEP_BLOCK_BYTES", _block_bytes(cfg, actions))
    policy = solve_plan(_INITIAL, cfg)
    assert (policy.numerators[0, 0] == (10, 10, 10)).all()
    assert (policy.values[0, 0] == 0.0).all()


@pytest.mark.parametrize("actions", [None, 1, 5])
def test_nan_beats_an_earlier_number_across_blocks(monkeypatch, actions):
    # The state term overflows at the top savings node, and the zero
    # weights of an unshocked income mix turn that inf into NaN (0 * inf).
    # Actions that carry savings into the top cell then score NaN while
    # the thirds stay finite, and np.argmax picks the first NaN action.
    cfg = DynamicConfig(
        horizon=2,
        income_grid=(1000.0, 3000.0),
        debt_grid=(0.0, 1.0),
        savings_grid=(0.0, 1500.0, 1e6),
        action_step=Fraction(1, 6),
        state_weight=1.5e307,
    )
    if actions is not None:
        monkeypatch.setattr(dynamic, "SWEEP_BLOCK_BYTES", _block_bytes(cfg, actions))
    with np.errstate(over="ignore", invalid="ignore"):
        policy = solve_plan(_INITIAL, cfg)
        numerators, values = _reference_sweep(cfg)
    assert np.isnan(values[0]).any() and not np.isnan(values[0]).all()
    assert np.array_equal(policy.numerators, numerators)
    assert np.array_equal(policy.values, values, equal_nan=True)


def test_plan_deep_working_memory_stays_bounded():
    # Peak Python and numpy allocations of the benchmark's plan_deep solve:
    # 26.4 MB when every period held three full (496, 11, 11, 11) arrays,
    # about 12.6 MB with the blocked sweep, 5.3 MB of it the one such array
    # that is left, the per-action reward plus state term.
    cfg = _deep_config(30)
    tracemalloc.start()
    try:
        solve_plan(_DEEP_INITIAL, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


# sha256 of ``thirdrule plan`` stdout, recorded from the four-gather sweep:
# the benchmark's plan_deep argv at horizons 3 and 30, and the README
# example.
_PLAN_DEEP = (
    "--income 60000 --debt 20000 --savings 5000 --horizon {} --debt-apr 0.18 "
    "--savings-return 0.04 --income-growth 0.02 --shock-std 0.1"
)
_GOLDEN = {
    _PLAN_DEEP.format(3): "33c757d5b1e85c7ab390255c6a6e1ddc7264e24884e97a1572f791a0fcd4974d",
    _PLAN_DEEP.format(30): "26ffeec47697db3067e65aadd9ad44161f4ed4fcf9b29f7a6bc3a9994b79ea00",
    "--income 36000 --horizon 5 --state-weight 0": (
        "b7a7fa71c2eac28be31059c11489d7f1dfd28209d58678fe8cf45ec7ae2c193a"
    ),
}


def test_plan_report_bytes_are_pinned(capsys):
    got = {}
    for args in _GOLDEN:
        code = main(["plan"] + args.split())
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        got[args] = hashlib.sha256(out.encode()).hexdigest()
    assert got == _GOLDEN


# Block skipping: solve_plan passes over a block whose bound lies below the
# running best at every node, so the bound must hold every total the block
# would compute, and at the default state weight it should leave only the
# first block to compute.


@settings(max_examples=100, deadline=None)
@given(CONFIGS, st.sampled_from([None, 1, 5]), st.sampled_from([None, 0.0, 100.0, 1e5]))
# With no state term the continuation is flat along debt, so only the
# debt blend's rounding lifts a total above top base + discount * C: a
# bound without the slack fails here.
@example(
    DynamicConfig(
        horizon=2,
        income_grid=(0.0, 126.0),
        debt_grid=(0.0, 171.0),
        savings_grid=(0.0, 1.0),
        discount=1.0,
        action_step=Fraction(1, 6),
        state_weight=0.0,
    ),
    1,
    None,
)
def test_block_bounds_hold_every_total(cfg, block, weight):
    # weight: none, or a state weight whose state term rivals the reward,
    # so that actions in later blocks come within a few ulps of the best
    if weight is not None:
        cfg = dataclasses.replace(cfg, state_weight=weight)
    bounds, totals = [], []
    block_bounds, argmax = dynamic._block_bounds, np.argmax

    def recording(*args):
        # one call per period; each bound is yielded in one reused buffer
        bounds.append([])
        for bound in block_bounds(*args):
            bounds[-1].append(bound.copy())
            yield bound

    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(dynamic, "SWEEP_BLOCK_BYTES", _block_bytes(cfg, block))
        patch.setattr(dynamic, "_block_bounds", recording)
        solve_plan(_INITIAL, cfg)
        # the reference computes each period's totals operation for
        # operation as the block body does, and ranks them with one argmax
        patch.setattr(np, "argmax", lambda x, axis: totals.append(x) or argmax(x, axis=axis))
        _reference_sweep(cfg)
        size = max(1, dynamic.SWEEP_BLOCK_BYTES // totals[0][0].nbytes)
    assert len(bounds) == len(totals) == cfg.horizon
    for period_bounds, total in zip(bounds, totals):
        assert len(period_bounds) == -(-len(total) // size)
        for k, bound in enumerate(period_bounds):
            # a NaN or +inf bound never skips, so it need not hold
            held = (total[k * size : (k + 1) * size] <= bound) | ~(bound < np.inf)
            assert held.all(), (k, bound[~held.all(axis=0)])


class _CountingNumpy:
    """numpy, counting argmax calls: solve_plan makes one per block it
    computes."""

    def __init__(self):
        self.argmax_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def argmax(self, *args, **kwargs):
        self.argmax_calls += 1
        return np.argmax(*args, **kwargs)


def test_plan_deep_computes_one_block_per_period(monkeypatch):
    # plan_deep's 496 actions are 11 blocks of 49 (6 in the last); the
    # thirds lead the first block and win everywhere at the default state
    # weight, and the bound proves it for the other ten blocks
    counting = _CountingNumpy()
    monkeypatch.setattr(dynamic, "np", counting)
    cfg = _deep_config(30)
    policy = solve_plan(_DEEP_INITIAL, cfg)
    assert counting.argmax_calls == cfg.horizon
    assert (policy.numerators == (10, 10, 10)).all()


@pytest.mark.parametrize(
    "weight, discount",
    [
        # the blend nears 1e308, so M + M and the bound overflow to inf
        ("7.5e307", "0.5"),
        # the best total lies 1e-13 below the largest double, so only the
        # bound's last addition, carrying the slack, overflows
        ("6.483807426764345e+307", "1"),
    ],
)
def test_block_bounds_near_the_largest_double_stay_quiet(capsys, weight, discount):
    # An inf bound skips nothing, and no total overflows, so the plan must
    # not turn the bound's overflow into the error that the CLI makes of
    # numpy's RuntimeWarning.
    argv = f"plan --income 1 --horizon 2 --state-weight {weight} --discount {discount}"
    assert main(argv.split()) == 0
    assert capsys.readouterr() == (
        "period 1 debt 0 savings 1 expenses 0 shifts (1/3, 2/3, 1/3)\n"
        "period 2 debt 1/3 savings 1/3 expenses 1/3 shifts (0, 0, 0)\n",
        "",
    )
