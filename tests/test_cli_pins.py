"""Pinned CLI bytes: the benchmark's digests, the risk and planner flags
(whose defaults come from ``RiskParams`` and ``DynamicConfig``), the
flag lists in ``--help``, and the JSON report number format."""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thirdrule import HouseholdState, Money, RiskParams, cli, default_config
from thirdrule.cli import REPORT_COLUMNS, main, render_report

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(_REPO, "perfbench", "fixtures", "digests.json"), encoding="utf-8") as _handle:
    _BENCH_DIGESTS = json.load(_handle)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(_BENCH_DIGESTS))
def test_benchmark_digest(argv, monkeypatch):
    monkeypatch.chdir(_REPO)  # the stress argvs name the fixtures relative to the repo
    code, out, err = _run(argv.split())
    assert (code, err) == (0, "")
    assert _sha(out) == _BENCH_DIGESTS[argv]


# ---------------------------------------------------------------------------
# risk, adjust and plan flags

_RISK = "risk --dti 0.4 --ser 0.8 --sigma-income 0.1 --sigma-market 0.15"
_ADJUST = "adjust --income 90000 --sigma-income 0.3 --sigma-market 0.2 --mode "
_RESIDUAL = _ADJUST + "residual_expenses"
_RESCALE = _ADJUST + "proportional_rescale"
# A state weight this large lets the planner flags move the printed policy.
_PLAN = (
    "plan --income 60000 --debt 20000 --savings 5000 --horizon 2 --shock-std 0.05 "
    "--state-weight 100000"
)
_RISK_OVERRIDES = (
    ("--beta-dti", "1.5"),
    ("--beta-ser", "-2e-1"),
    ("--beta-sigma-income", "2"),
    ("--beta-sigma-market", "0.25"),
    ("--dti-limit", "0.45"),
    ("--ser-floor", "0.5"),
)
_PLAN_OVERRIDES = (
    ("--discount", "0.5"),
    ("--debt-apr", "0.3"),
    ("--savings-return", "0.2"),
    ("--income-growth", "0.3"),
    ("--shock-std", "0.4"),
    ("--shock-samples", "2"),
    ("--state-weight", "30000"),
)

# sha256 of stdout, recorded while each flag was still a hand-written literal.
_FLAG_GOLDEN = {
    _RISK: "81820d90dc991934abde507fda83601e989da4e236cf394f004030cd1b1b0016",
    _RISK + " --beta-dti 1.5": "e8217d7bf2b7fbefa4da831c86548c72b33f79dbdc61eca3d07ee0677a84617c",
    _RISK + " --beta-ser -2e-1": "73daea1d9df2e9ab5a2de079171a4ed91b8bafa88cb00440bc6cd58a205bd0ca",
    _RISK + " --beta-sigma-income 2": (
        "ae90cd834639c2fcb7283e6963175c9735c57b6c1c6d1411a48f1768f9a1d53a"
    ),
    _RISK + " --beta-sigma-market 0.25": (
        "61eac294a197739116fae9d3bad81fd69ec76c03b2721544b51cbca6974dd305"
    ),
    _RISK + " --dti-limit 0.45": "031f2e6131f72b68e702a368a0fb20dca86bc7ad8af2acd1505f8f10a26b6d4e",
    _RISK + " --ser-floor 0.5": "3d9a2521931207b2a189d5b62f839c8ced90e3ba1200398a73977a0c76f8e152",
    _RESIDUAL: "ea5d5d6555d0bf1b1c0cab8c28c3821188f25455685d65ab0caa74a0ff26cb91",
    _RESIDUAL + " --beta-dti 1.5": (
        "1036e0996c87b4b3be649b275dbe225675204bdc1b5672dc44ea2c268c579999"
    ),
    _RESIDUAL + " --beta-ser -2e-1": (
        "ad8a7ea7be09878757751ff9125008d90d49f260accef474e943b16d5d8b3ed6"
    ),
    _RESIDUAL + " --beta-sigma-income 2": (
        "4967146b48a4deb2f956d691a76755a5ef390f74928a93e42ee0d44f69100d64"
    ),
    _RESIDUAL + " --beta-sigma-market 0.25": (
        "834bdea3143fc2be01fb3b9514f1ec957509b9dfec3701663850ba5ffbde091a"
    ),
    _RESIDUAL + " --dti-limit 0.45": (
        "ea5d5d6555d0bf1b1c0cab8c28c3821188f25455685d65ab0caa74a0ff26cb91"
    ),
    _RESIDUAL + " --ser-floor 0.5": (
        "ea5d5d6555d0bf1b1c0cab8c28c3821188f25455685d65ab0caa74a0ff26cb91"
    ),
    _RESCALE: "d2c733ec282ec0d57bf90791f9425e49c58c51e0224efb5e7388461568a72324",
    _RESCALE + " --beta-dti 1.5": (
        "d69ab6f2fc430546e7475eb4d07ea3795b01f68beece232f08637af01c0335a0"
    ),
    _RESCALE + " --beta-ser -2e-1": (
        "8b153f700bcf7f95e5f71c5cc17fcdede8c4342733d59f2bf38e94f9f7b2d387"
    ),
    _RESCALE + " --beta-sigma-income 2": (
        "8e787180f30038d61a511b5dfc53ef3e73b1ab6bb0e5f9bcb3a1a41a9f09100c"
    ),
    _RESCALE + " --beta-sigma-market 0.25": (
        "2ce14e6c22df1c6e8e5bf91990243ae448b0f4c651b6b00241f0ea04e240085d"
    ),
    _RESCALE + " --dti-limit 0.45": (
        "d2c733ec282ec0d57bf90791f9425e49c58c51e0224efb5e7388461568a72324"
    ),
    _RESCALE + " --ser-floor 0.5": (
        "d2c733ec282ec0d57bf90791f9425e49c58c51e0224efb5e7388461568a72324"
    ),
    _PLAN: "b0b2212ab5b02c3a2eeab6e95724146bd00e2dcec297b2edaeb6885e2e6382ba",
    _PLAN + " --discount 0.5": "82396fdcc7bf34a3976616210056f7d8a5bdff97c8733c13d394f755b3265796",
    _PLAN + " --debt-apr 0.3": "f9fa7ac0817e6fc068a81c53a4a9137c20d3b01269a37088a2fbff7b05980b96",
    _PLAN + " --savings-return 0.2": (
        "b0b2212ab5b02c3a2eeab6e95724146bd00e2dcec297b2edaeb6885e2e6382ba"
    ),
    _PLAN + " --income-growth 0.3": (
        "b0b2212ab5b02c3a2eeab6e95724146bd00e2dcec297b2edaeb6885e2e6382ba"
    ),
    _PLAN + " --shock-std 0.4": "b0b2212ab5b02c3a2eeab6e95724146bd00e2dcec297b2edaeb6885e2e6382ba",
    _PLAN + " --shock-samples 2": (
        "b0b2212ab5b02c3a2eeab6e95724146bd00e2dcec297b2edaeb6885e2e6382ba"
    ),
    _PLAN + " --state-weight 30000": (
        "8b54bb21380c259d726fe9cc0874fa13076e2575da94e2d7ed170601f571323a"
    ),
}


@pytest.mark.parametrize("argv", sorted(_FLAG_GOLDEN))
def test_flag_output_is_pinned(argv):
    code, out, err = _run(argv.split())
    assert (code, err) == (0, "")
    assert _sha(out) == _FLAG_GOLDEN[argv]


# Several overrides leave the printed numbers unchanged (the thresholds do
# not enter the adjust shifts, and most planner inputs do not move this
# plan), so each override is also checked where the CLI hands it on:
# (argv prefix, cli attribute that receives the object, its position).
_SEAMS = (
    (_RISK, "bankruptcy_probability", 0, _RISK_OVERRIDES),
    (_RESIDUAL, "adjustment_factors", 0, _RISK_OVERRIDES),
    (_RESCALE, "adjustment_factors", 0, _RISK_OVERRIDES),
    (_PLAN, "solve_plan", 1, _PLAN_OVERRIDES),
)


def _received(argv, seam, position):
    with mock.patch.object(cli, seam, wraps=getattr(cli, seam)) as spy:
        code, _, err = _run(argv.split())
    assert (code, err) == (0, "")
    return spy.call_args.args[position]


@pytest.mark.parametrize(
    "base, seam, position, flag, value",
    [(b, s, p, f, v) for b, s, p, overrides in _SEAMS for f, v in overrides],
)
def test_flag_reaches_its_field(base, seam, position, flag, value):
    received = _received(f"{base} {flag} {value}", seam, position)
    field = flag[2:].replace("-", "_")
    expected = int(value) if field == "shock_samples" else float(value)
    got = getattr(received, field)
    assert (type(got), got) == (type(expected), expected)


def test_flag_defaults_are_the_dataclass_defaults():
    assert _received(_RISK, "bankruptcy_probability", 0) == RiskParams()
    assert _received(_RESIDUAL, "adjustment_factors", 0) == RiskParams()
    initial = HouseholdState(Money.of("36000"), Money.zero(), Money.zero())
    cfg = _received("plan --income 36000 --horizon 1", "solve_plan", 1)
    assert cfg == default_config(initial, 1)


def test_fractional_shock_samples_is_a_usage_error():
    code, out, err = _run((_PLAN + " --shock-samples 2.5").split())
    assert (code, out) == (1, "")
    assert err == "usage error: argument --shock-samples: invalid int value: '2.5'\n"


_HELP_FLAGS = {
    "coalition": [
        "--help",
        "--incomes",
        "--scale-benefit",
        "--coordination-cost",
        "--members",
        "--check-superadditive",
    ],
    "shapley": ["--help", "--incomes", "--scale-benefit", "--coordination-cost"],
    "risk": [
        "--help",
        "--dti",
        "--ser",
        "--sigma-income",
        "--sigma-market",
        "--beta-dti",
        "--beta-ser",
        "--beta-sigma-income",
        "--beta-sigma-market",
        "--dti-limit",
        "--ser-floor",
    ],
    "plan": [
        "--help",
        "--income",
        "--debt",
        "--savings",
        "--horizon",
        "--discount",
        "--debt-apr",
        "--savings-return",
        "--income-growth",
        "--shock-std",
        "--shock-samples",
        "--state-weight",
    ],
}


@pytest.mark.parametrize("command", sorted(_HELP_FLAGS))
def test_help_lists_the_same_flags(command):
    code, out, err = _run([command, "--help"])
    assert (code, err) == (0, "")
    usage, options = out.split("\noptions:\n")
    flag = re.compile(r"--[a-z][a-z-]*")
    assert flag.findall(usage) == _HELP_FLAGS[command][1:]  # usage shows -h, not --help
    listed = [
        flag.search(line).group() for line in options.splitlines() if line.lstrip()[:1] == "-"
    ]
    assert listed == _HELP_FLAGS[command]


# ---------------------------------------------------------------------------
# JSON report numbers

_TEXT_COLUMNS = {"profile_id", "rule", "scenario"}
_MONEY_COLUMNS = {"mean_final_savings"}


def _oracle_json_cell(column, value):
    """The JSON cell formula as it stood with its own .2f/.6g copy."""
    if value is None or column in _TEXT_COLUMNS:
        return value
    if column in _MONEY_COLUMNS:
        return float(str(value)) if isinstance(value, Money) else float(f"{float(value):.2f}")
    return float(f"{float(value):.6g}")


def _oracle_json(rows):
    payload = [{col: _oracle_json_cell(col, row[col]) for col in REPORT_COLUMNS} for row in rows]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


_MAGNITUDES = st.floats(min_value=1e-300, max_value=1e15)
NUMBERS = st.one_of(
    st.just(0.0),
    st.tuples(st.sampled_from([1.0, -1.0]), _MAGNITUDES).map(lambda t: t[0] * t[1]),
)
MONEY_CELLS = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=2**53).map(Money),
    NUMBERS,
)


@st.composite
def report_rows(draw, text=st.text(max_size=6)):
    row = {}
    for column in REPORT_COLUMNS:
        if column in _TEXT_COLUMNS:
            row[column] = draw(text)
        elif column in _MONEY_COLUMNS:
            row[column] = draw(MONEY_CELLS)
        else:
            row[column] = draw(st.one_of(st.none(), NUMBERS))
    return row


@settings(max_examples=200, deadline=None)
@given(st.lists(report_rows(), max_size=4))
def test_json_cells_match_the_oracle(rows):
    assert render_report(rows, "json") == _oracle_json(rows)


# Line breaks, quotes and commas in the text cells, alone and mixed in.
_AWKWARD_TEXT = st.one_of(st.text(max_size=6), st.text(alphabet='a\r\n",', max_size=6))


@settings(max_examples=200, deadline=None)
@given(st.lists(report_rows(_AWKWARD_TEXT), max_size=4))
def test_csv_report_reads_back_one_record_per_row(rows):
    text = render_report(rows, "csv")
    header, *records = csv.reader(io.StringIO(text, newline=""))
    assert header == list(REPORT_COLUMNS)
    assert len(records) == len(rows)
    for row, record in zip(rows, records):
        cells = dict(zip(REPORT_COLUMNS, record, strict=True))
        assert {c: cells[c] for c in _TEXT_COLUMNS} == {c: row[c] for c in _TEXT_COLUMNS}


# Above 2**52 cents (about 4.5e13) the float nearest an amount can print as
# the next cent, so CSV re-emitted from a JSON report may be a cent off the
# CSV written directly.
_FLOAT_EXACT_CENTS = 2**52


def _cents_fit_a_float(row):
    money = row["mean_final_savings"]
    return not isinstance(money, Money) or money.cents <= _FLOAT_EXACT_CENTS


@settings(max_examples=100, deadline=None)
@given(st.lists(report_rows(), max_size=4))
def test_report_command_round_trips(rows):
    json_text = render_report(rows, "json")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json_text)
        assert _run(["report", "--input", path, "--format", "json"]) == (0, json_text, "")
        code, csv_text, err = _run(["report", "--input", path])
        out_path = os.path.join(tmp, "report.csv")
        written = _run(["report", "--input", path, "--output", out_path])
        with open(out_path, newline="", encoding="utf-8") as handle:
            assert handle.read() == csv_text
    assert (code, err) == (0, "")
    assert written == (0, f"wrote {out_path}\n", "")
    assert csv_text == render_report(json.loads(json_text), "csv")
    for row, loaded in zip(rows, json.loads(json_text), strict=True):
        if _cents_fit_a_float(row):
            assert render_report([loaded], "csv") == render_report([row], "csv")
