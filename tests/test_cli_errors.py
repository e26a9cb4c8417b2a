"""Inputs that must end with exit code 1 and one stderr line: no garbage
on stdout, no warning and no traceback."""

import json
import os
import warnings
from unittest import mock

import pytest

from thirdrule import THREADS_ENV_VAR
from thirdrule.cli import PROFILE_COLUMNS, REPORT_COLUMNS, main
from thirdrule.dynamic import MAX_HORIZON, MAX_SHOCK_SAMPLES
from thirdrule.stochastic import MAX_STEPS, derive_trial_rng, income_levels

PROFILE = dict(
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


def _one_line_error(capsys, argv):
    """Run argv and return its stderr, which must be one error line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1, out
    assert out == ""
    assert err.startswith(("error:", "usage error:"))
    assert err.count("\n") == 1
    assert not caught, [str(w.message) for w in caught]
    return err


def test_usage_error_says_why(capsys):
    err = _one_line_error(capsys, ["allocate", "--income", "1e26"])
    assert err == "usage error: argument --income: money amount 1E+26 is out of range\n"


def test_oversized_fraction_argument_is_a_usage_error(capsys):
    err = _one_line_error(capsys, ["simulate", "--start", "100", "--horizon-years", "1e400"])
    assert err.startswith("usage error: argument --horizon-years: ")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--sigma-income", "nan"], "error: sigma_income must be finite\n"),
        (["--mu", "inf"], "error: mu must be finite\n"),
        (["--kind", "savings", "--rate", "nan"], "error: rate must be finite\n"),
        *(
            (flags, "error: a simulated level exceeds the money bound of 9007199254740992 cents\n")
            for flags in (
                ["--mu", "1e300"],
                # levels that overflow a float, not only the money bound
                ["--start", "1e13", "--mu", "1e300"],
                ["--mu", "1e307"],
                ["--sigma-income", "1e308"],
                # -inf, which the zero floor would hide
                ["--mu", "-1e308"],
                ["--kind", "savings", "--rate", "1e307"],
                ["--kind", "savings", "--start", "1e13", "--sigma-market", "1e300"],
            )
        ),
    ],
)
def test_simulate_never_prints_garbage(flags, message, capsys):
    argv = ["simulate", "--start", "100", "--horizon-years", "1", *flags]
    assert _one_line_error(capsys, argv) == message


@pytest.mark.parametrize("samples", [MAX_SHOCK_SAMPLES + 1, 100000])
def test_plan_caps_shock_samples(samples, capsys):
    argv = ["plan", "--income", "100", "--shock-std", "0.1", "--shock-samples", str(samples)]
    err = _one_line_error(capsys, argv)
    assert err == f"error: shock_samples must be an integer in 1..{MAX_SHOCK_SAMPLES}\n"


@pytest.mark.parametrize("horizon", [MAX_HORIZON + 1, 1000000000])
def test_plan_caps_horizon(horizon, capsys):
    err = _one_line_error(capsys, ["plan", "--income", "60000", "--horizon", str(horizon)])
    assert err == f"error: horizon must be an integer in 1..{MAX_HORIZON} periods\n"


_STEPS_ERROR = f"error: horizon_years must span at most {MAX_STEPS} dt_years steps\n"


@pytest.mark.parametrize("years, dt", [(str(MAX_STEPS + 1), "1"), ("1e9", "1/12")])
def test_simulate_caps_path_steps(years, dt, capsys):
    argv = ["simulate", "--start", "1", "--horizon-years", years, "--dt-years", dt]
    assert _one_line_error(capsys, argv) == _STEPS_ERROR


@pytest.mark.parametrize("years", [f"{MAX_STEPS + 1}/12", "1e9"])
def test_stress_caps_path_steps(years, tmp_path, capsys):
    profiles = tmp_path / "p.csv"
    profiles.write_text(
        ",".join(PROFILE_COLUMNS) + "\n" + ",".join(PROFILE[c] for c in PROFILE_COLUMNS) + "\n",
        encoding="utf-8",
    )
    scenarios = tmp_path / "s.json"
    scenarios.write_text(json.dumps(dict(name="a")), encoding="utf-8")
    argv = ["stress", "--profiles", str(profiles), "--scenarios", str(scenarios), "--trials", "1"]
    assert _one_line_error(capsys, argv + ["--horizon-years", years]) == _STEPS_ERROR


def test_numpy_overflow_is_an_error_not_a_warning(capsys):
    _one_line_error(capsys, ["plan", "--income", "100", "--horizon", "2", "--debt-apr", "1e308"])


def test_risk_index_overflow_is_an_error(capsys):
    argv = ["risk", "--dti=1e308", "--ser=1e308", "--beta-dti=1e308", "--beta-ser=-1e308"]
    assert _one_line_error(capsys, argv) == "error: risk index overflows a float\n"


@pytest.mark.parametrize("flag", ["--sigma-income", "--sigma-market"])
@pytest.mark.parametrize("value", ["inf", "nan", "-inf", "-0.1"])
def test_adjust_names_a_bad_volatility(capsys, flag, value):
    argv = ["adjust", "--income", "60000", "--sigma-income", "0", "--sigma-market", "0"]
    err = _one_line_error(capsys, argv + [f"{flag}={value}"])
    assert err == f"error: {flag[2:].replace('-', '_')} must be a nonnegative finite ratio\n"


@pytest.mark.parametrize(
    "flags",
    [
        ["--sigma-income", "1e200", "--sigma-market", "1e200", "--beta-sigma-market", "-1"],
        ["--sigma-income", "1e200", "--sigma-market", "0"],
    ],
)
def test_adjust_variance_overflow_names_the_inputs(capsys, flags):
    err = _one_line_error(capsys, ["adjust", "--income", "60000", *flags])
    assert err == (
        "error: beta_sigma_income * sigma_income**2 + beta_sigma_market * sigma_market**2"
        " is not a finite number\n"
    )


def test_adjust_failure_prints_no_partial_result(capsys):
    argv = ["adjust", "--income=1", "--sigma-income=1", "--sigma-market=0", "--beta-dti=-1"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: adjusted expenses share is negative")


def test_shapley_past_the_money_bound_prints_no_partial_result(capsys):
    # each share is within the bound, the grand coalition's total is not
    err = _one_line_error(capsys, ["shapley", "--incomes", "9e13,9e13"])
    assert err == "error: money amount 180000000000000.00 is out of range\n"


def test_coalition_superadditivity_cap_prints_no_partial_result(capsys):
    argv = ["coalition", "--incomes", ",".join(["1"] * 17), "--members", "0"]
    err = _one_line_error(capsys, argv + ["--check-superadditive"])
    assert err == "error: superadditivity check supports at most 16 members\n"


@pytest.mark.parametrize(
    "flag, table, size",
    [("--scale-benefit", ",5", 1), ("--coordination-cost", "1,,3", 2), ("--scale-benefit", " ,1,", 1)],
)
def test_size_table_gap_names_the_flag_and_size(flag, table, size, capsys):
    err = _one_line_error(capsys, ["shapley", "--incomes", "1,2,3", flag + "=" + table])
    assert err == f"error: {flag} size {size} is empty (write 0 for no amount)\n"


@pytest.mark.parametrize(
    "command, incomes, entry",
    [
        ("coalition", "1,,2", 2),
        ("shapley", ",5", 1),
        ("shapley", " ,1,", 1),
        ("coalition", "1,2,,3,,", 3),
    ],
)
def test_incomes_gap_names_the_entry(command, incomes, entry, capsys):
    members = ["--members", "0"] if command == "coalition" else []
    err = _one_line_error(capsys, [command, "--incomes=" + incomes] + members)
    assert err == f"error: --incomes entry {entry} is empty (write 0 for no amount)\n"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["shapley", "--incomes", "1,abc"], "--incomes entry 2: cannot parse money amount 'abc'"),
        (
            ["coalition", "--incomes", "1,2", "--members", "0", "--coordination-cost", "nan"],
            "--coordination-cost size 1: money amount must be finite",
        ),
        (
            ["shapley", "--incomes", "1,2", "--scale-benefit", "0,1e26"],
            "--scale-benefit size 2: money amount 1E+26 is out of range",
        ),
        (["shapley", "--incomes", "inf"], "--incomes entry 1: money amount must be finite"),
    ],
    ids=["income-text", "cost-nan", "benefit-range", "income-inf"],
)
def test_bad_list_amount_names_the_flag_and_position(argv, expected, capsys):
    assert _one_line_error(capsys, argv) == f"error: {expected}\n"


_SCALE_PAST = "--scale-benefit size 3 is out of range 1..2"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--incomes", "1,2", "--scale-benefit", "0,1,2"], _SCALE_PAST),
        (["--incomes", "1,2", "--coordination-cost", "0,1,2"],
         "--coordination-cost size 3 is out of range 1..2"),
        # incomes first, then scale benefit, then coordination cost
        (["--incomes", "", "--scale-benefit", "1"], "a coalition game needs at least one member"),
        (["--incomes", "1,x", "--scale-benefit", "0,1,2"],
         "--incomes entry 2: cannot parse money amount 'x'"),
        (["--incomes", "1,2", "--coordination-cost", "x", "--scale-benefit", "0,1,2"], _SCALE_PAST),
        (["--incomes", "1,2", "--coordination-cost", "0,1,2", "--scale-benefit", "x"],
         "--scale-benefit size 1: cannot parse money amount 'x'"),
    ],
)
def test_size_table_past_the_members_names_the_flag(argv, expected, capsys):
    assert _one_line_error(capsys, ["shapley"] + argv) == f"error: {expected}\n"


def test_trailing_empty_incomes_are_dropped(capsys):
    assert main(["shapley", "--incomes", "1,2,,"]) == 0
    assert capsys.readouterr().out == "member 0 1.00\nmember 1 2.00\ntotal 3.00\n"


def test_coalition_names_the_bad_member(capsys):
    argv = ["coalition", "--incomes", "1,2", "--members", "0,a"]
    assert _one_line_error(capsys, argv) == "error: member index 'a' is not an integer\n"


# int(), float(), Decimal and Fraction all read digit grouping, "6_0000"
# as 60000; a money or number input refuses it and names the flag or field.
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["allocate", "--income", "6_0000"],
         "usage error: argument --income: cannot parse money amount '6_0000'"),
        (["risk", "--dti", "0_4", "--ser", "1"], "usage error: argument --dti: invalid float value: '0_4'"),
        (["risk", "--dti", "0.4", "--ser", "1", "--dti-limit", "0_36"],
         "usage error: argument --dti-limit: invalid float value: '0_36'"),
        (["plan", "--income", "100", "--shock-samples", "1_0"],
         "usage error: argument --shock-samples: invalid int value: '1_0'"),
        (["simulate", "--start", "1", "--horizon-years", "1_0"],
         "usage error: argument --horizon-years: cannot parse '1_0' as a finite fraction"),
        (["simulate", "--start", "1", "--horizon-years", "1", "--trials", "1_0"],
         "usage error: argument --trials: invalid int value: '1_0'"),
        (["shapley", "--incomes", "1,2_0"], "error: --incomes entry 2: cannot parse money amount '2_0'"),
        (["coalition", "--incomes", "1,2", "--members", "0_1"],
         "error: member index '0_1' is not an integer"),
        (["allocate", "--income", "1", "--rule", "custom", "--fractions", "1_0/30,1/3,1/3"],
         "error: cannot parse debt fraction '1_0/30'"),
    ],
)  # fmt: skip
def test_digit_grouping_is_refused(argv, expected, capsys):
    assert _one_line_error(capsys, argv) == expected + "\n"


@pytest.mark.parametrize(
    "row, message",
    [
        ({"income_annual": "6_0000"}, "row 2, field income_annual: cannot parse money amount '6_0000'"),
        ({"income_annual": "30000;3_0000", "household_type": "dual_income"},
         "row 2, field income_annual: cannot parse money amount '3_0000'"),
        ({"debt_balance": "2_0000"}, "row 2, field debt_balance: cannot parse money amount '2_0000'"),
        ({"rho": "0_3"}, "row 2, field rho: cannot parse number '0_3'"),
    ],
)  # fmt: skip
def test_digit_grouping_in_a_profile_cell_is_refused(row, message, tmp_path, capsys):
    assert _stress_error(tmp_path, capsys, [row]) == f"error: {message}\n"


def test_stress_seed_with_digit_grouping_is_refused(tmp_path, capsys):
    err = _stress_error(tmp_path, capsys, [{}], ["--seed", "1_0"])
    assert err == "usage error: argument --seed: invalid int value: '1_0'\n"


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(
    "profile, scenario",
    [
        ({"mu": "1e308"}, {}),
        ({"debt_apr": "1e308"}, {}),
        ({}, {"inflation_annual": 1e300}),
    ],
)
def test_stress_overflow_is_one_line_error(profile, scenario, threads, tmp_path, capsys):
    row = dict(PROFILE, **profile)
    profiles = tmp_path / "p.csv"
    profiles.write_text(
        ",".join(PROFILE_COLUMNS) + "\n" + ",".join(row[c] for c in PROFILE_COLUMNS) + "\n",
        encoding="utf-8",
    )
    scenarios = tmp_path / "s.json"
    scenarios.write_text(json.dumps(dict(name="a", **scenario)), encoding="utf-8")
    argv = ["stress", "--profiles", str(profiles), "--scenarios", str(scenarios)]
    with mock.patch.dict(os.environ, {THREADS_ENV_VAR: threads}):
        _one_line_error(capsys, argv + ["--trials", "3", "--horizon-years", "2"])


@pytest.mark.parametrize(
    "profile, scenario, message",
    [
        ({"mu": "1e308"}, {}, "profile 'h1': mu 1e+308 puts income"),
        ({"debt_apr": "1e308"}, {}, "profile 'h1': debt_apr 1e+308 puts monthly interest"),
        (
            {},
            {"inflation_annual": 1e300},
            "scenario 'a': inflation_annual 1e+300 puts expenses due for profile 'h1'",
        ),
        (
            {},
            {"apr_multiplier": 1e307},
            "scenario 'a': apr_multiplier 1e+307 puts monthly interest for profile 'h1'",
        ),
        ({"sigma_income": "1e308"}, {}, "profile 'h1': sigma_income 1e+308 puts income"),
        ({"sigma_income": "1e300"}, {}, "profile 'h1': sigma_income 1e+300 puts income"),
        (
            {"sigma_income": "1e12"},
            {},
            "profile 'h1': sigma_income 1000000000000.0 puts income",
        ),
        ({"sigma_market": "1e308"}, {}, "profile 'h1': sigma_market 1e+308 puts savings"),
        ({"r_savings": "1e300"}, {}, "profile 'h1': r_savings 1e+300 puts savings"),
        ({"r_savings": "1e3"}, {}, "profile 'h1': r_savings 1000.0 puts savings"),
        (
            {},
            {"income_shock": 1e300},
            "scenario 'a': income_shock 1e+300 puts income for profile 'h1'",
        ),
        (
            {},
            {"income_shock": 1e12},
            "scenario 'a': income_shock 1000000000000.0 puts income for profile 'h1'",
        ),
    ],
)
def test_stress_overflow_names_its_input(profile, scenario, message, tmp_path, capsys):
    row = dict(PROFILE, **profile)
    profiles = tmp_path / "p.csv"
    profiles.write_text(
        ",".join(PROFILE_COLUMNS) + "\n" + ",".join(row[c] for c in PROFILE_COLUMNS) + "\n",
        encoding="utf-8",
    )
    scenarios = tmp_path / "s.json"
    scenarios.write_text(json.dumps(dict(name="a", **scenario)), encoding="utf-8")
    argv = ["stress", "--profiles", str(profiles), "--scenarios", str(scenarios)]
    err = _one_line_error(capsys, argv + ["--trials", "3", "--horizon-years", "2"])
    assert err == f"error: {message} past the money bound\n"


def _stress_files(tmp_path, profile, scenario):
    profiles = tmp_path / "p.csv"
    row = dict(PROFILE, **profile)
    profiles.write_text(
        ",".join(PROFILE_COLUMNS) + "\n" + ",".join(row[c] for c in PROFILE_COLUMNS) + "\n",
        encoding="utf-8",
    )
    scenarios = tmp_path / "s.json"
    scenarios.write_text(json.dumps(dict(name="a", **scenario)), encoding="utf-8")
    return ["stress", "--profiles", str(profiles), "--scenarios", str(scenarios)]


def test_stress_shock_past_the_bound_after_every_default_still_reports(tmp_path, capsys):
    # Interest swamps the debt bucket, so every trial defaults before the
    # shock's onset in month 13 and no month reads the shocked income.
    # The report is the one trials run one at a time gave.
    argv = _stress_files(
        tmp_path, {"debt_balance": "2000000", "debt_apr": "0.3"},
        {"income_shock": 1e300, "onset_month": 13},
    )  # fmt: skip
    argv += ["--trials", "5", "--horizon-years", "2", "--rules", "one_third,fifty_thirty_twenty"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (
        ",".join(REPORT_COLUMNS) + "\n"
        "h1,fifty_thirty_twenty,a,1,,0.00,0,0,0\n"
        "h1,one_third,a,1,,0.00,0,0,0\n"
    )
    # a household that lives to the onset meets the bound there
    argv = _stress_files(tmp_path, {}, {"income_shock": 1e300, "onset_month": 13})
    err = _one_line_error(capsys, argv + ["--trials", "5", "--horizon-years", "2"])
    assert err == (
        "error: scenario 'a': income_shock 1e+300 puts income for profile 'h1' past the money bound\n"
    )


def test_stress_overflow_the_zero_floor_hides_is_an_error(tmp_path, capsys):
    # At seed 2 the one month's income shock is negative: income overflows
    # to -inf and the zero floor turns it into 0.  numpy still reports the
    # overflow; stress flags the lane when it draws it, and the CLI names
    # the field, as for a trial drawn alone.
    shocks = derive_trial_rng(2, 0).standard_normal((2, 1))
    with pytest.warns(RuntimeWarning, match="overflow"):
        levels = income_levels(60000.0, 0.02, 1e308, 1 / 12, shocks[0])
    assert shocks[0, 0] < 0 and levels.tolist() == [60000.0, 0.0]
    argv = _stress_files(tmp_path, {"sigma_income": "1e308"}, {})
    err = _one_line_error(capsys, argv + ["--trials", "1", "--horizon-years", "1/12", "--seed", "2"])
    assert err == "error: profile 'h1': sigma_income 1e+308 puts income past the money bound\n"


def test_stress_near_the_money_bound_still_reports(tmp_path, capsys):
    # Only inputs that overflow get the named error: a volatility just
    # short of that keeps the report it gave before the fields were named.
    row = dict(PROFILE, sigma_income="1e9")
    profiles = tmp_path / "p.csv"
    profiles.write_text(
        ",".join(PROFILE_COLUMNS) + "\n" + ",".join(row[c] for c in PROFILE_COLUMNS) + "\n",
        encoding="utf-8",
    )
    scenarios = tmp_path / "s.json"
    scenarios.write_text(json.dumps(dict(name="a")), encoding="utf-8")
    argv = ["stress", "--profiles", str(profiles), "--scenarios", str(scenarios)]
    assert main(argv + ["--trials", "3", "--horizon-years", "2"]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row == "h1,one_third,a,0,0.0833333,37576572339612.04,2.5051e+10,0,0.0972222"


def test_stress_int_past_the_float_range_names_its_field(tmp_path, capsys):
    profiles = tmp_path / "p.csv"
    profiles.write_text(
        ",".join(PROFILE_COLUMNS) + "\n" + ",".join(PROFILE[c] for c in PROFILE_COLUMNS) + "\n",
        encoding="utf-8",
    )
    scenarios = tmp_path / "s.json"
    scenarios.write_text(json.dumps(dict(name="a", income_shock=10**400)), encoding="utf-8")
    argv = ["stress", "--profiles", str(profiles), "--scenarios", str(scenarios)]
    err = _one_line_error(capsys, argv + ["--trials", "3", "--horizon-years", "2"])
    assert err == "error: $.income_shock: must be within the float range\n"


def test_report_int_past_the_float_range_names_its_cell(tmp_path, capsys):
    row = dict.fromkeys(REPORT_COLUMNS, 0.5)
    row.update(profile_id="h1", rule="one_third", scenario="a", default_rate=10**400)
    report = tmp_path / "r.json"
    report.write_text(json.dumps([row]), encoding="utf-8")
    err = _one_line_error(capsys, ["report", "--input", str(report)])
    assert err == "error: $[0].default_rate: must be within the float range\n"


def test_scenario_onset_past_the_horizon_names_the_scenario(tmp_path, capsys):
    profiles = tmp_path / "p.csv"
    profiles.write_text(
        ",".join(PROFILE_COLUMNS) + "\n" + ",".join(PROFILE[c] for c in PROFILE_COLUMNS) + "\n",
        encoding="utf-8",
    )
    scenarios = tmp_path / "s.json"
    scenarios.write_text(
        json.dumps([dict(name="early"), dict(name="late", onset_month=121)]), encoding="utf-8"
    )
    argv = ["stress", "--profiles", str(profiles), "--scenarios", str(scenarios)]
    err = _one_line_error(capsys, argv + ["--trials", "1", "--horizon-years", "10"])
    assert err == "error: scenario 'late': onset_month 121 lies beyond the 120-month horizon\n"


def _stress_error(tmp_path, capsys, rows, extra=()):
    profiles = tmp_path / "p.csv"
    lines = [",".join(PROFILE_COLUMNS)]
    lines += [",".join(dict(PROFILE, **row)[c] for c in PROFILE_COLUMNS) for row in rows]
    profiles.write_text("\n".join(lines) + "\n", encoding="utf-8")
    scenarios = tmp_path / "s.json"
    scenarios.write_text(json.dumps(dict(name="a")), encoding="utf-8")
    argv = ["stress", "--profiles", str(profiles), "--scenarios", str(scenarios), *extra]
    return _one_line_error(capsys, argv + ["--trials", "1", "--horizon-years", "1"])


_TYPE_ERROR = (
    "row 2, field household_type: must be one of "
    "['single_income', 'dual_income', 'multigenerational'], got 'commune'"
)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([{"id": ""}], "row 2, field id: must be nonempty"),
        ([{"household_type": "commune"}], _TYPE_ERROR),
        ([{"debt_apr": "nan"}], "row 2, field debt_apr: must be finite"),
        ([{"rho": "huh"}], "row 2, field rho: cannot parse number 'huh'"),
        ([{}, {}], "row 3, field id: duplicate id 'h1'"),
        ([{"debt_balance": "x"}], "row 2, field debt_balance: cannot parse money amount 'x'"),
        # range checks name their field as well
        ([{"rho": "1.5"}], "row 2, field rho: must lie in [-1, 1]"),
        ([{"debt_apr": "-0.1"}], "row 2, field debt_apr: must be nonnegative"),
        ([{"sigma_market": "-1"}], "row 2, field sigma_market: must be nonnegative"),
        ([{"r_savings": "-1"}], "row 2, field r_savings: must exceed -1"),
        # a message about the whole row names only the row
        ([{"household_type": "dual_income"}],
         "row 2: dual_income expects 2 member income(s), got 1"),
    ],
)
def test_profile_error_names_row_and_column(rows, message, tmp_path, capsys):
    assert _stress_error(tmp_path, capsys, rows) == f"error: {message}\n"


_NAMED_RULES = "(one of one_third, fifty_thirty_twenty, seventy_twenty_ten)"


@pytest.mark.parametrize(
    "rules, message",
    [
        ("one_third,,bogus", f"--rules entry 3: unknown allocation rule 'bogus' {_NAMED_RULES}"),
        ("custom,one_third",
         f"--rules entry 1: custom rules need explicit fractions {_NAMED_RULES}"),
        # the first bad entry from the left is the one reported
        ("one_third,one_third,bogus", "--rules names 'one_third' twice"),
    ],
)
def test_rule_error_names_the_flag_and_entry(rules, message, tmp_path, capsys):
    err = _stress_error(tmp_path, capsys, [{}], ["--rules", rules])
    assert err == f"error: {message}\n"
