"""Property test of the CLI contract: any argv built from the option
grammar ends with exit code 0, 1 or 2, never an uncaught exception or a
warning; an error is one stderr line; a success prints no NaN, no
infinity and no wrapped int64."""

import contextlib
import io
import re
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from thirdrule.cli import main

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
# At most 2 years and 3 trials keep each example to a few milliseconds.
SIMULATE = _command(
    "simulate",
    [("--start", MONEY), ("--horizon-years", st.sampled_from(["1", "2", "1/2"]))],
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


@settings(max_examples=250, deadline=None)
@given(st.one_of(ALLOCATE, RISK, ADJUST, SIMULATE, PLAN))
def test_cli_keeps_the_exit_contract(argv):
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
