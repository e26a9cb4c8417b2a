"""File formats, subcommand behavior, exit codes, output determinism."""

import json
import os
import subprocess
import sys
from unittest import mock

import pytest

import thirdrule
from thirdrule import (
    AllocationRule,
    Money,
    PathConfig,
    ScenarioSpec,
    THREADS_ENV_VAR,
    ValidationError,
    run_stress,
)
from thirdrule.cli import (
    PROFILE_COLUMNS,
    REPORT_COLUMNS,
    load_profiles,
    load_report_json,
    load_scenarios,
    main,
    metrics_rows,
    render_report,
)

HEADER = ",".join(PROFILE_COLUMNS)

GOOD_ROWS = [
    "h1,single_income,60000,20000,0.18,18000,0.10,0.15,0.3,0.02,0.04",
    "d1,dual_income,40000;35000,10000,0.12,30000,0.08,0.12,0.2,0.01,0.03",
    "m1,multigenerational,30000;28000;22000,5000,0.10,36000,0.05,0.10,0.1,0.0,0.02",
]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _profiles_file(tmp_path, rows=GOOD_ROWS, name="profiles.csv"):
    return _write(tmp_path, name, HEADER + "\n" + "\n".join(rows) + "\n")


class TestLoadProfiles:
    def test_valid_file(self, tmp_path):
        profiles = load_profiles(_profiles_file(tmp_path))
        assert [p.profile_id for p in profiles] == ["h1", "d1", "m1"]
        assert profiles[0].income == Money.of("60000")
        assert profiles[1].member_incomes == (Money.of("40000"), Money.of("35000"))
        assert len(profiles[2].member_incomes) == 3
        assert profiles[2].income == Money.of("80000")

    def test_blank_rows_skipped(self, tmp_path):
        text = HEADER + "\n\n" + GOOD_ROWS[0] + "\n   \n"
        profiles = load_profiles(_write(tmp_path, "p.csv", text))
        assert len(profiles) == 1

    def test_utf8_bom_is_skipped(self, tmp_path):
        # spreadsheet programs save "CSV UTF-8" with a byte order mark
        path = tmp_path / "p.csv"
        path.write_bytes(f"\ufeff{HEADER}\n{GOOD_ROWS[0]}\n".encode())
        assert [p.profile_id for p in load_profiles(str(path))] == ["h1"]

    def test_header_must_match(self, tmp_path):
        path = _write(tmp_path, "p.csv", "id,income\nh1,60000\n")
        with pytest.raises(ValidationError, match="header must be exactly"):
            load_profiles(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValidationError, match="empty"):
            load_profiles(_write(tmp_path, "p.csv", ""))

    def test_field_error_names_row_and_field(self, tmp_path):
        bad = "h1,single_income,60000,not_money,0.18,18000,0.1,0.1,0.0,0.0,0.0"
        with pytest.raises(ValidationError, match=r"row 2, field debt_balance:"):
            load_profiles(_profiles_file(tmp_path, [bad]))

    def test_bad_float_field(self, tmp_path):
        bad = "h1,single_income,60000,0,0.18,18000,0.1,0.1,huh,0.0,0.0"
        with pytest.raises(ValidationError, match=r"row 2, field rho: cannot parse"):
            load_profiles(_profiles_file(tmp_path, [bad]))

    def test_bad_member_income(self, tmp_path):
        bad = "h1,dual_income,60000;x,0,0.18,18000,0.1,0.1,0.0,0.0,0.0"
        with pytest.raises(ValidationError, match=r"row 2, field income_annual:"):
            load_profiles(_profiles_file(tmp_path, [bad]))

    def test_unknown_household_type(self, tmp_path):
        bad = "h1,commune,60000,0,0.18,18000,0.1,0.1,0.0,0.0,0.0"
        with pytest.raises(ValidationError, match=r"row 2, field household_type:"):
            load_profiles(_profiles_file(tmp_path, [bad]))

    def test_duplicate_id(self, tmp_path):
        rows = [GOOD_ROWS[0], GOOD_ROWS[0]]
        with pytest.raises(ValidationError, match=r"row 3, field id: duplicate"):
            load_profiles(_profiles_file(tmp_path, rows))

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(ValidationError, match=r"row 2: expected 11 fields, got 2"):
            load_profiles(_profiles_file(tmp_path, ["h1,single_income"]))

    def test_domain_violation_carries_row_number(self, tmp_path):
        # dual_income with a single member income
        bad = "h1,dual_income,60000,0,0.18,18000,0.1,0.1,0.0,0.0,0.0"
        with pytest.raises(ValidationError, match=r"row 2:"):
            load_profiles(_profiles_file(tmp_path, [bad]))


class TestLoadScenarios:
    def test_single_object(self, tmp_path):
        path = _write(tmp_path, "s.json", json.dumps({"name": "base"}))
        [s] = load_scenarios(path)
        assert s.name == "base"
        assert s.income_shock == 0.0

    def test_array(self, tmp_path):
        data = [
            {"name": "a", "income_shock": -0.15, "onset_month": 2, "duration_months": 6},
            {"name": "b", "apr_multiplier": 1.5, "inflation_annual": 0.03},
        ]
        path = _write(tmp_path, "s.json", json.dumps(data))
        out = load_scenarios(path)
        assert [s.name for s in out] == ["a", "b"]
        assert out[0].onset_month == 2
        assert out[1].apr_multiplier == 1.5

    def test_utf8_bom_is_skipped(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_bytes(("\ufeff" + json.dumps({"name": "été"}, ensure_ascii=False)).encode())
        assert [s.name for s in load_scenarios(str(path))] == ["été"]

    def test_unknown_key_has_json_path(self, tmp_path):
        data = [{"name": "a"}, {"name": "b", "bogus": 1}]
        path = _write(tmp_path, "s.json", json.dumps(data))
        with pytest.raises(ValidationError, match=r"\$\[1\]\.bogus: unknown key"):
            load_scenarios(path)

    def test_missing_name(self, tmp_path):
        path = _write(tmp_path, "s.json", json.dumps({"income_shock": -0.1}))
        with pytest.raises(ValidationError, match=r"\$\.name: required"):
            load_scenarios(path)

    def test_name_must_be_string(self, tmp_path):
        path = _write(tmp_path, "s.json", json.dumps({"name": 3}))
        with pytest.raises(ValidationError, match=r"\$\.name: must be a string"):
            load_scenarios(path)

    def test_booleans_are_not_numbers(self, tmp_path):
        path = _write(tmp_path, "s.json", json.dumps({"name": "a", "income_shock": True}))
        with pytest.raises(ValidationError, match=r"\$\.income_shock: must be a number"):
            load_scenarios(path)

    def test_onset_must_be_integer(self, tmp_path):
        path = _write(tmp_path, "s.json", json.dumps({"name": "a", "onset_month": 1.5}))
        with pytest.raises(ValidationError, match=r"\$\.onset_month: must be an integer"):
            load_scenarios(path)

    def test_duplicate_names(self, tmp_path):
        data = [{"name": "a"}, {"name": "a"}]
        path = _write(tmp_path, "s.json", json.dumps(data))
        with pytest.raises(ValidationError, match="duplicate scenario"):
            load_scenarios(path)

    def test_empty_array(self, tmp_path):
        path = _write(tmp_path, "s.json", "[]")
        with pytest.raises(ValidationError, match="no scenarios"):
            load_scenarios(path)

    def test_scalar_document(self, tmp_path):
        path = _write(tmp_path, "s.json", "42")
        with pytest.raises(ValidationError, match="object or array"):
            load_scenarios(path)

    def test_non_object_item(self, tmp_path):
        path = _write(tmp_path, "s.json", json.dumps([{"name": "a"}, 7]))
        with pytest.raises(ValidationError, match=r"\$\[1\]: scenario must be"):
            load_scenarios(path)

    def test_invalid_json(self, tmp_path):
        path = _write(tmp_path, "s.json", "{nope")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_scenarios(path)

    def test_field_validation_keeps_path(self, tmp_path):
        path = _write(tmp_path, "s.json", json.dumps({"name": "a", "onset_month": 0}))
        with pytest.raises(ValidationError, match=r"^\$\.onset_month: counts from 1$"):
            load_scenarios(path)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"name": "a", "income_shock": -2}, r"^\$\[1\]\.income_shock: cannot cut income"),
            ({"name": "a", "apr_multiplier": 0}, r"^\$\[1\]\.apr_multiplier: must be positive$"),
            (
                {"name": "a", "inflation_annual": 10**400},
                r"^\$\[1\]\.inflation_annual: must be within the float range$",
            ),
            ({"name": "a", "duration_months": -1}, r"^\$\[1\]\.duration_months: must be nonneg"),
            ({"name": 3}, r"^\$\[1\]\.name: must be a string$"),
            ({"name": ""}, r"^\$\[1\]: scenario name must be nonempty$"),
        ],
    )
    def test_scenario_checks_get_the_json_path(self, tmp_path, obj, message):
        # the checks live in ScenarioSpec; load_scenarios only puts the path in front
        path = _write(tmp_path, "s.json", json.dumps([{"name": "ok"}, obj]))
        with pytest.raises(ValidationError, match=message):
            load_scenarios(path)
        with pytest.raises(ValidationError, match=message.split(": ", 1)[1]):
            ScenarioSpec(**obj)

SAMPLE_ROW = {
    "profile_id": "h1",
    "rule": "one_third",
    "scenario": "baseline",
    "default_rate": 0.03125,
    "median_clearance_years": 1.1666666666666667,
    "mean_final_savings": Money.of("451753.77"),
    "months_coverage": 301.16890123,
    "dti_violation_rate": 0.0,
    "ser_violation_rate": 0.011166666666,
}

NO_CLEAR_ROW = dict(
    SAMPLE_ROW, profile_id="h2", median_clearance_years=None, default_rate=1.0
)


class TestRenderReport:
    def test_csv_layout(self):
        text = render_report([SAMPLE_ROW, NO_CLEAR_ROW], "csv")
        lines = text.splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert lines[1] == "h1,one_third,baseline,0.03125,1.16667,451753.77,301.169,0,0.0111667"
        # a missing median renders as an empty cell
        assert lines[2].split(",")[4] == ""
        assert text.endswith("\n")

    def test_json_layout(self):
        text = render_report([SAMPLE_ROW], "json")
        [row] = json.loads(text)
        assert row["mean_final_savings"] == 451753.77
        assert row["median_clearance_years"] == 1.16667
        assert row["default_rate"] == 0.03125
        assert text.endswith("\n")
        # keys are sorted for byte stability
        keys = list(json.loads(text)[0])
        assert keys == sorted(keys)

    def test_json_null_for_missing(self):
        [row] = json.loads(render_report([NO_CLEAR_ROW], "json"))
        assert row["median_clearance_years"] is None

    def test_unknown_format(self):
        with pytest.raises(ValidationError):
            render_report([SAMPLE_ROW], "xml")

    def test_json_round_trip_preserves_csv_bytes(self, tmp_path):
        direct_csv = render_report([SAMPLE_ROW, NO_CLEAR_ROW], "csv")
        json_path = _write(tmp_path, "r.json", render_report([SAMPLE_ROW, NO_CLEAR_ROW], "json"))
        rows = load_report_json(json_path)
        assert render_report(rows, "csv") == direct_csv

    def test_load_report_rejects_wrong_columns(self, tmp_path):
        path = _write(tmp_path, "r.json", json.dumps([{"profile_id": "x"}]))
        with pytest.raises(ValidationError, match=r"\$\[0\]"):
            load_report_json(path)

    def test_load_report_rejects_non_array(self, tmp_path):
        path = _write(tmp_path, "r.json", json.dumps({"a": 1}))
        with pytest.raises(ValidationError, match="array"):
            load_report_json(path)


class TestMainExitCodes:
    def test_success(self, capsys):
        assert main(["allocate", "--income", "60000"]) == 0
        out = capsys.readouterr().out
        assert "debt 20000.00" in out

    def test_usage_error(self, capsys):
        assert main(["allocate"]) == 1
        assert "usage error:" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error:" in capsys.readouterr().err

    def test_validation_error(self, capsys):
        assert main(["allocate", "--income", "-5"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["allocate", "--income", "inf"],
            ["allocate", "--income", "1e26"],
            ["shapley", "--incomes", "1e40,1"],
        ],
    )
    def test_out_of_range_money_is_one_line_error(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(("error:", "usage error:"))
        assert err.count("\n") == 1

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        scen = _write(tmp_path, "s.json", json.dumps({"name": "a"}))
        code = main(
            ["stress", "--profiles", str(tmp_path / "nope.csv"), "--scenarios", scen]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "allocate" in capsys.readouterr().out


class TestAllocateCommand:
    def test_one_third_split(self, capsys):
        main(["allocate", "--income", "60000"])
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "income 60000.00",
            "debt 20000.00",
            "savings 20000.00",
            "expenses 20000.00",
        ]

    def test_named_rule(self, capsys):
        main(["allocate", "--income", "1000", "--rule", "fifty_thirty_twenty"])
        out = capsys.readouterr().out
        assert "debt 100.00" in out
        assert "expenses 800.00" in out

    def test_custom_fractions(self, capsys):
        assert main(
            ["allocate", "--income", "1000", "--rule", "custom", "--fractions", "1/2,3/10,1/5"]
        ) == 0
        out = capsys.readouterr().out
        assert "debt 500.00" in out
        assert "savings 300.00" in out
        assert "expenses 200.00" in out

    def test_custom_requires_fractions(self, capsys):
        assert main(["allocate", "--income", "1000", "--rule", "custom"]) == 1

    def test_fractions_only_for_custom(self, capsys):
        assert main(["allocate", "--income", "1000", "--fractions", "1/3,1/3,1/3"]) == 1


class TestRiskCommand:
    def test_neutral_point_is_half(self, capsys):
        assert main(["risk", "--dti", "0.4", "--ser", "0.8"]) == 0
        out = capsys.readouterr().out
        assert "bankruptcy_probability 0.5" in out
        assert "dti_ok False" in out
        assert "ser_ok False" in out

    def test_flags_pass_at_thresholds(self, capsys):
        main(["risk", "--dti", "0.36", "--ser", "1.0"])
        out = capsys.readouterr().out
        assert "dti_ok True" in out
        assert "ser_ok True" in out

    def test_custom_betas(self, capsys):
        main(["risk", "--dti", "0", "--ser", "0", "--beta-ser", "0"])
        out = capsys.readouterr().out
        assert "bankruptcy_probability 0.5" in out


class TestAdjustCommand:
    def test_zero_volatility_prints_even_split(self, capsys):
        assert main(
            ["adjust", "--income", "90000", "--sigma-income", "0", "--sigma-market", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "debt_shift 0" in out
        assert "zero_sum_defect 0" in out
        assert "debt 30000.00" in out

    def test_volatile_household_tilts_to_savings(self, capsys):
        main(["adjust", "--income", "90000", "--sigma-income", "0.1", "--sigma-market", "0.1"])
        out = capsys.readouterr().out
        assert "savings_shift 0.0075" in out
        assert "savings 30675.00" in out


class TestPlanCommand:
    def test_prints_one_line_per_period(self, capsys):
        assert main(["plan", "--income", "36000", "--horizon", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("period 1 debt ")
        assert "shifts (" in lines[0]

    def test_calm_household_stays_on_thirds(self, capsys):
        main(["plan", "--income", "36000", "--horizon", "2", "--state-weight", "0"])
        for line in capsys.readouterr().out.splitlines():
            assert "debt 1/3 savings 1/3 expenses 1/3" in line
            assert "shifts (0, 0, 0)" in line


class TestShapleyCommand:
    def test_symmetric_members_split_evenly(self, capsys):
        assert main(["shapley", "--incomes", "30000,30000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == lines[1].replace("member 1", "member 0")
        assert lines[2].startswith("total ")

    def test_benefit_table(self, capsys):
        main(
            [
                "shapley",
                "--incomes",
                "30000,30000",
                "--scale-benefit",
                "0,1200",
                "--coordination-cost",
                "0,200",
            ]
        )
        out = capsys.readouterr().out
        assert "member 0 30500.00" in out
        assert "total 61000.00" in out

    def test_oversized_table_rejected(self, capsys):
        assert main(
            ["shapley", "--incomes", "30000", "--scale-benefit", "0,1,2"]
        ) == 1

    def test_trailing_commas_in_a_size_table_are_dropped(self, capsys):
        argv = ["shapley", "--incomes", "30000,30000", "--scale-benefit"]
        assert main(argv + ["0,1200"]) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["0,1200,,"]) == 0
        assert capsys.readouterr().out == plain

    def test_more_members_than_the_old_cap(self, capsys):
        incomes = ",".join(["1000"] * 40)
        assert main(["shapley", "--incomes", incomes, "--scale-benefit", "0," * 39 + "40"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "member 0 1001.00"
        assert lines[39] == "member 39 1001.00"
        assert lines[40] == "total 40040.00"


class TestCoalitionCommand:
    def test_value_of_pair(self, capsys):
        assert main(
            [
                "coalition",
                "--incomes",
                "30000,30000,20000",
                "--members",
                "0,1",
                "--scale-benefit",
                "0,1200,3000",
                "--check-superadditive",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "value 61200.00" in out
        assert "superadditive True" in out

    def test_bad_member_index(self, capsys):
        assert main(["coalition", "--incomes", "30000", "--members", "5"]) == 1


class TestSimulateCommand:
    def test_zero_volatility_income_is_exact(self, capsys):
        assert main(
            [
                "simulate",
                "--kind",
                "income",
                "--start",
                "60000",
                "--mu",
                "0.02",
                "--horizon-years",
                "1",
                "--trials",
                "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "trials 3" in out
        assert "final_mean 61200" in out
        assert "final_std 0" in out
        assert "floored_step_rate 0" in out

    def test_savings_with_flat_rate(self, capsys):
        assert main(
            [
                "simulate",
                "--kind",
                "savings",
                "--start",
                "0",
                "--contribution",
                "100",
                "--horizon-years",
                "1",
                "--dt-years",
                "1/12",
            ]
        ) == 0
        # the contribution lands once per step
        out = capsys.readouterr().out
        assert "final_mean 1200" in out

    def test_floored_step_rate_counts_only_negative_raw_income(self, capsys):
        # with mu = -1 the raw level is exactly 0 after year 1 (not floored)
        # and -100 after year 2 (floored); a zero start is never floored
        base = ["simulate", "--mu", "-1", "--horizon-years", "2", "--dt-years", "1"]
        assert main(base + ["--start", "100"]) == 0
        assert "floored_step_rate 0.5\n" in capsys.readouterr().out
        assert main(base + ["--start", "0"]) == 0
        assert "floored_step_rate 0\n" in capsys.readouterr().out

    def test_fraction_arg_rejected_text(self, capsys):
        assert main(
            ["simulate", "--start", "1", "--horizon-years", "x/y"]
        ) == 1


SCEN_TEXT = json.dumps(
    [{"name": "baseline"}, {"name": "recession", "income_shock": -0.15, "duration_months": 12}]
)


class TestStressCommand:
    def test_csv_output_matches_library(self, tmp_path, capsys):
        profiles = _profiles_file(tmp_path, [GOOD_ROWS[0]])
        scenarios = _write(tmp_path, "s.json", SCEN_TEXT)
        code = main(
            [
                "stress",
                "--profiles",
                profiles,
                "--scenarios",
                scenarios,
                "--rules",
                "one_third,fifty_thirty_twenty",
                "--trials",
                "8",
                "--horizon-years",
                "1",
                "--seed",
                "11",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lib = run_stress(
            load_profiles(profiles),
            [AllocationRule.one_third(), AllocationRule.fifty_thirty_twenty()],
            load_scenarios(scenarios),
            PathConfig(horizon_years=1, dt_years=1 / 12, trials=8, master_seed=11),
        )
        assert out == render_report(metrics_rows(lib), "csv")
        assert out.count("\n") == 5  # header + 2 rules x 2 scenarios

    def test_output_file_and_json(self, tmp_path, capsys):
        profiles = _profiles_file(tmp_path, [GOOD_ROWS[0]])
        scenarios = _write(tmp_path, "s.json", json.dumps({"name": "baseline"}))
        out_path = tmp_path / "report.json"
        code = main(
            [
                "stress",
                "--profiles",
                profiles,
                "--scenarios",
                scenarios,
                "--trials",
                "4",
                "--horizon-years",
                "1",
                "--format",
                "json",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        assert f"wrote {out_path}" in capsys.readouterr().out
        rows = json.loads(out_path.read_text())
        assert len(rows) == 1
        assert set(rows[0]) == set(REPORT_COLUMNS)

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        # Under the POSIX locale with UTF-8 mode off, the default encoding
        # is ASCII; the profile id must still read and write as UTF-8.
        profiles = tmp_path / "p.csv"
        profiles.write_bytes(f"{HEADER}\n{GOOD_ROWS[0].replace('h1', 'été', 1)}\n".encode())
        scenarios = _write(tmp_path, "s.json", json.dumps({"name": "baseline"}))
        src = os.path.dirname(os.path.dirname(thirdrule.__file__))
        code = "import sys; from thirdrule.cli import main; sys.exit(main(sys.argv[1:]))"
        reports = []
        for locale_env in (
            {"PYTHONUTF8": "1"},
            {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "POSIX"},
        ):
            out_path = tmp_path / f"report-{len(reports)}.csv"
            argv = ["stress", "--profiles", str(profiles), "--scenarios", scenarios]
            argv += ["--trials", "2", "--horizon-years", "1", "--output", str(out_path)]
            env = dict(os.environ, PYTHONPATH=src, **locale_env)
            done = subprocess.run(
                [sys.executable, "-c", code, *argv], env=env, capture_output=True, timeout=60
            )
            assert (done.returncode, done.stderr) == (0, b"")
            reports.append(out_path.read_bytes())
        assert "\nété,one_third,baseline,".encode() in reports[0]
        assert reports[1] == reports[0]

    def test_thread_count_never_changes_bytes(self, tmp_path):
        profiles = _profiles_file(tmp_path, GOOD_ROWS)
        scenarios = _write(tmp_path, "s.json", SCEN_TEXT)
        outputs = []
        for threads in ("1", "8"):
            out_path = tmp_path / f"report-{threads}.csv"
            with mock.patch.dict(os.environ, {THREADS_ENV_VAR: threads}):
                code = main(
                    [
                        "stress",
                        "--profiles",
                        profiles,
                        "--scenarios",
                        scenarios,
                        "--rules",
                        "one_third,seventy_twenty_ten",
                        "--trials",
                        "12",
                        "--horizon-years",
                        "2",
                        "--seed",
                        "29",
                        "--output",
                        str(out_path),
                    ]
                )
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_compare_flag_prints_ranking(self, tmp_path, capsys):
        profiles = _profiles_file(tmp_path, [GOOD_ROWS[0]])
        scenarios = _write(tmp_path, "s.json", json.dumps({"name": "baseline"}))
        main(
            [
                "stress",
                "--profiles",
                profiles,
                "--scenarios",
                scenarios,
                "--rules",
                "one_third,fifty_thirty_twenty",
                "--trials",
                "6",
                "--horizon-years",
                "1",
                "--compare",
            ]
        )
        out = capsys.readouterr().out
        assert "compare h1/baseline: rank 1" in out
        assert "rank 2" in out

    def test_infinite_money_cell_is_one_line_error(self, tmp_path, capsys):
        bad = "h1,single_income,inf,0,0.18,18000,0.1,0.1,0.0,0.0,0.0"
        profiles = _profiles_file(tmp_path, [bad])
        scenarios = _write(tmp_path, "s.json", json.dumps({"name": "baseline"}))
        assert main(["stress", "--profiles", profiles, "--scenarios", scenarios]) == 1
        assert capsys.readouterr().err == (
            "error: row 2, field income_annual: money amount must be finite\n"
        )

    @pytest.mark.parametrize("extra", [[], ["--compare"], ["--output", "report.csv"]])
    def test_repeated_rule_is_rejected_before_any_run(self, extra, tmp_path, capsys):
        profiles = _profiles_file(tmp_path, [GOOD_ROWS[0]])
        scenarios = _write(tmp_path, "s.json", json.dumps({"name": "baseline"}))
        extra = [str(tmp_path / arg) if arg == "report.csv" else arg for arg in extra]
        argv = ["stress", "--profiles", profiles, "--scenarios", scenarios, "--trials", "2"]
        argv += ["--horizon-years", "1", "--rules", "one_third,fifty_thirty_twenty,one_third"]
        assert main(argv + extra) == 1
        assert capsys.readouterr() == ("", "error: --rules names 'one_third' twice\n")
        assert not (tmp_path / "report.csv").exists()

    def test_unknown_rule_name(self, tmp_path, capsys):
        profiles = _profiles_file(tmp_path, [GOOD_ROWS[0]])
        scenarios = _write(tmp_path, "s.json", json.dumps({"name": "baseline"}))
        assert main(
            ["stress", "--profiles", profiles, "--scenarios", scenarios, "--rules", "zippy"]
        ) == 1


class TestReportCommand:
    def test_json_to_csv(self, tmp_path, capsys):
        json_text = render_report([SAMPLE_ROW, NO_CLEAR_ROW], "json")
        path = _write(tmp_path, "r.json", json_text)
        assert main(["report", "--input", path]) == 0
        assert capsys.readouterr().out == render_report(
            [SAMPLE_ROW, NO_CLEAR_ROW], "csv"
        )

    def test_json_to_json_is_stable(self, tmp_path, capsys):
        json_text = render_report([SAMPLE_ROW], "json")
        path = _write(tmp_path, "r.json", json_text)
        assert main(["report", "--input", path, "--format", "json"]) == 0
        assert capsys.readouterr().out == json_text

    def test_missing_input(self, tmp_path, capsys):
        assert main(["report", "--input", str(tmp_path / "nope.json")]) == 2

    def test_utf8_bom_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_bytes(("\ufeff" + render_report([SAMPLE_ROW], "json")).encode())
        assert main(["report", "--input", str(path)]) == 0
        assert capsys.readouterr().out == render_report([SAMPLE_ROW], "csv")


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["risk", "--dti", "0.3", "--ser", "1"], "--beta-ser", "-1e-3"),
        (["risk", "--dti", "0.3", "--ser", "1"], "--beta-ser", "-.5E+2"),
        (["simulate", "--start", "100", "--horizon-years", "1"], "--mu", "-2e-2"),
    ],
)
def test_negative_exponent_value_reads_as_a_value(argv, flag, value, capsys):
    assert main(argv + [flag, value]) == 0
    spaced = capsys.readouterr()
    assert main(argv + [f"{flag}={value}"]) == 0
    assert capsys.readouterr() == spaced
