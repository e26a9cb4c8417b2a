"""Property test of the CLI contract: any argv built from the option
grammar, with any profile, scenario or report file it names, ends with
exit code 0, 1 or 2, never an uncaught exception or a warning; an error
is one stderr line and prints nothing on stdout; a success prints no NaN,
no infinity and no wrapped int64."""

import contextlib
import io
import json
import os
import re
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from thirdrule.cli import PROFILE_COLUMNS, REPORT_COLUMNS, main
from thirdrule.stochastic import MAX_STEPS

_SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), 1e308, -1e308]
# At least half the draws are plain values, so that commands also get
# past validation and print results.
FLOATS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.one_of(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(_SPECIAL_FLOATS),
    ),
).map(repr)
_AMOUNTS = st.floats(min_value=1.0, max_value=1e7).map(lambda x: f"{x:.2f}")
MONEY = st.one_of(
    _AMOUNTS,
    st.one_of(
        _AMOUNTS,
        st.sampled_from(["36000", "0", "0.005", "-5", "9e13", "1e26", "1e308", "nan", "abc"]),
    ),
)
RISK_FLAGS = (
    "--beta-dti",
    "--beta-ser",
    "--beta-sigma-income",
    "--beta-sigma-market",
    "--dti-limit",
    "--ser-floor",
)

_GARBAGE = re.compile(r"\bnan\b|\binf\b|-9\.22337e\+16", re.IGNORECASE)


def _command(name, required=(), **optional):
    """argv for one command: each required flag takes a value, each
    optional one is left out or takes a value.  Values are joined with
    '=' so that a leading '-' reads as a value, not as a flag."""
    drawn = dict(required)
    drawn.update({flag: st.none() | strategy for flag, strategy in optional.items()})
    return st.fixed_dictionaries(drawn).map(
        lambda values: [name] + [f"{flag}={v}" for flag, v in values.items() if v is not None]
    )


RISK_OPTIONS = {flag: FLOATS for flag in RISK_FLAGS}
ALLOCATE = _command(
    "allocate",
    [("--income", MONEY)],
    **{
        "--rule": st.sampled_from(
            ["one_third", "fifty_thirty_twenty", "seventy_twenty_ten", "custom"]
        ),
        "--fractions": st.sampled_from(
            ["1/3,1/3,1/3", "0.5,0.3,0.2", "nan,0,1", "1,1,-1", "a,b,c", "1/0,0,1"]
        ),
    },
)
RISK = _command(
    "risk",
    [("--dti", FLOATS), ("--ser", FLOATS)],
    **{"--sigma-income": FLOATS, "--sigma-market": FLOATS},
    **RISK_OPTIONS,
)
ADJUST = _command(
    "adjust",
    [("--income", MONEY), ("--sigma-income", FLOATS), ("--sigma-market", FLOATS)],
    **{"--mode": st.sampled_from(["residual_expenses", "proportional_rescale"])},
    **RISK_OPTIONS,
)
# At most 2 years and 3 trials keep each example to a few milliseconds;
# the longer horizons pass the step bound and are rejected before any draw.
SIMULATE = _command(
    "simulate",
    [
        ("--start", MONEY),
        ("--horizon-years", st.sampled_from(["1", "2", "1/2", str(MAX_STEPS + 1), "1e9"])),
    ],
    **{
        "--kind": st.sampled_from(["income", "savings"]),
        "--mu": FLOATS,
        "--sigma-income": FLOATS,
        "--contribution": MONEY,
        "--rate": FLOATS,
        "--sigma-market": FLOATS,
        "--dt-years": st.sampled_from(["1/12", "1/4", "1", "0", "1e400"]),
        "--trials": st.integers(min_value=0, max_value=3),
        "--seed": st.integers(min_value=-1, max_value=2**64),
    },
)
# A horizon of at most 2 and at most 9 shock samples keep each solve
# under about 0.1 s on the default grid.
PLAN = _command(
    "plan",
    [("--income", MONEY), ("--horizon", st.integers(min_value=1, max_value=2))],
    **{
        "--debt": MONEY,
        "--savings": MONEY,
        "--discount": FLOATS,
        "--debt-apr": FLOATS,
        "--savings-return": FLOATS,
        "--income-growth": FLOATS,
        "--shock-std": FLOATS,
        "--shock-samples": st.integers(min_value=0, max_value=9),
        "--state-weight": FLOATS,
    },
)


# Member lists reach 40 members, past the superadditivity cap of 16, and
# the long ones hold plain amounts so that most of them get past parsing;
# short member lists and size tables may hold empty entries, and size
# tables may list more sizes than members; member indices may repeat, fall
# out of range or not parse.
_MONEY_LIST = st.one_of(
    st.lists(MONEY | st.just(""), max_size=12), st.lists(_AMOUNTS, min_size=13, max_size=40)
).map(",".join)
_SIZE_TABLE = st.one_of(
    st.lists(st.sampled_from(["", "0", "12.50", "300"]), max_size=12),
    st.lists(MONEY | st.just(""), max_size=12),
).map(",".join)
_SIZE_TABLES = {"--scale-benefit": _SIZE_TABLE, "--coordination-cost": _SIZE_TABLE}
SHAPLEY = _command("shapley", [("--incomes", _MONEY_LIST)], **_SIZE_TABLES)
_MEMBER = st.one_of(
    st.integers(min_value=-1, max_value=12).map(str), st.sampled_from(["a", " 1", "1.5", ""])
)
COALITION = st.tuples(
    _command(
        "coalition",
        [("--incomes", _MONEY_LIST), ("--members", st.lists(_MEMBER, max_size=4).map(",".join))],
        **_SIZE_TABLES,
    ),
    st.booleans(),
).map(lambda drawn: drawn[0] + ["--check-superadditive"] * drawn[1])


def _assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    assert not caught, (argv, [str(w.message) for w in caught])
    assert "Traceback" not in stderr and "Warning" not in stderr, (argv, stderr)
    if code == 0:
        assert stderr == "", (argv, stderr)
        assert not _GARBAGE.search(stdout), (argv, stdout)
    else:
        assert stderr.startswith(("error:", "usage error:")), (argv, stderr)
        assert stderr.count("\n") == 1, (argv, stderr)
        assert stdout == "", (argv, stdout)
    return code


@settings(max_examples=250, deadline=None)
@given(st.one_of(ALLOCATE, RISK, ADJUST, SIMULATE, PLAN))
def test_cli_keeps_the_exit_contract(argv):
    _assert_contract(argv)


def _has_gap(argv):
    """Whether --incomes or a size table has an empty entry before an
    amount, which would shift that amount to the wrong member or size."""
    return any(
        flag in ("--incomes", *_SIZE_TABLES) and "" in value.rstrip(",").split(",")[:-1]
        for flag, _, value in (arg.partition("=") for arg in argv)
    )


@settings(max_examples=200, deadline=None)
@given(st.one_of(SHAPLEY, COALITION))
def test_game_commands_keep_the_exit_contract(argv):
    code = _assert_contract(argv)
    if _has_gap(argv):
        assert code == 1, argv


# One profile row and one scenario; at most 3 trials over at most 2 years
# keep each run to a few milliseconds.  Up to three cells of a plain row
# are redrawn, so that most runs get past validation.  Rule lists may
# repeat a rule.
_PLAIN_ROW = dict(
    id="h1",
    household_type="single_income",
    income_annual="60000",
    debt_balance="20000",
    debt_apr="0.18",
    baseline_expenses_annual="18000",
    sigma_income="0.1",
    sigma_market="0.15",
    rho="0.3",
    mu="0.02",
    r_savings="0.04",
)
_CELLS = {
    column: MONEY if column.endswith(("_annual", "_balance")) else FLOATS
    for column in PROFILE_COLUMNS[2:]
}
_CELLS["household_type"] = st.sampled_from(["single_income", "dual_income", "couple"])
PROFILE_ROW = (
    st.sets(st.sampled_from(sorted(_CELLS)), max_size=3)
    .flatmap(lambda columns: st.fixed_dictionaries({c: _CELLS[c] for c in columns}))
    .map(lambda cells: ",".join({**_PLAIN_ROW, **cells}[c] for c in PROFILE_COLUMNS))
)
_MONTHS = st.integers(min_value=-1, max_value=30)
SCENARIO = st.fixed_dictionaries(
    {"name": st.just("a")},
    optional={
        "income_shock": FLOATS.map(float),
        "apr_multiplier": FLOATS.map(float),
        "inflation_annual": FLOATS.map(float),
        "onset_month": _MONTHS,
        "duration_months": _MONTHS,
    },
)
_RULES = st.sampled_from(["one_third", "fifty_thirty_twenty", "seventy_twenty_ten"])
STRESS_OPTIONS = _command(
    "stress",
    [
        ("--rules", st.lists(_RULES, min_size=1, max_size=3).map(",".join)),
        ("--trials", st.integers(min_value=1, max_value=3)),
        ("--horizon-years", st.sampled_from(["1", "2"])),
    ],
    **{
        "--seed": st.integers(min_value=0, max_value=2**64 - 1),
        "--format": st.sampled_from(["csv", "json"]),
    },
)

# Report rows: the standard columns with values of any JSON type, or a
# column missing, or no array at all.
_JSON_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from(["h1", "one_third", "", "x,y", "1.5"]),
    st.lists(st.integers(), max_size=2),
)
_REPORT_ROW = st.fixed_dictionaries({column: _JSON_VALUE for column in REPORT_COLUMNS})
REPORT_DATA = st.one_of(
    st.lists(_REPORT_ROW, max_size=3),
    st.lists(_REPORT_ROW.map(lambda row: dict(list(row.items())[1:])), min_size=1, max_size=1),
    _JSON_VALUE,
)


def _with_output(tmp, argv, output):
    return argv + ["--output", os.path.join(tmp, "out.txt")] if output else argv


@settings(max_examples=150, deadline=None)
@given(PROFILE_ROW, SCENARIO, STRESS_OPTIONS, st.booleans(), st.booleans())
def test_stress_keeps_the_exit_contract(row, scenario, argv, compare, output):
    with tempfile.TemporaryDirectory() as tmp:
        profiles = os.path.join(tmp, "p.csv")
        with open(profiles, "w") as handle:
            handle.write(",".join(PROFILE_COLUMNS) + "\n" + row + "\n")
        scenarios = os.path.join(tmp, "s.json")
        with open(scenarios, "w") as handle:
            json.dump(scenario, handle)
        argv = argv + ["--profiles", profiles, "--scenarios", scenarios]
        _assert_contract(_with_output(tmp, argv + ["--compare"] * compare, output))


@settings(max_examples=150, deadline=None)
@given(REPORT_DATA, st.sampled_from(["csv", "json"]), st.booleans())
def test_report_keeps_the_exit_contract(data, fmt, output):
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "r.json")
        with open(report, "w") as handle:
            json.dump(data, handle)
        _assert_contract(_with_output(tmp, ["report", "--input", report, "--format", fmt], output))
