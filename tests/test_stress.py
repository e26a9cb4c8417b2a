"""Monthly ledger simulation, closed-form projections, rule comparison.

The golden trial pins every cent of one seeded trajectory; the identity
tests prove the ledger balances; the closed forms are checked against
plain summation loops written here.
"""

import ast
import json
import math
import os
import statistics
import subprocess
import sys
import textwrap
import threading
from unittest import mock

import pytest

import thirdrule
from thirdrule import (
    AllocationRule,
    AnnuityTiming,
    BASELINE_SCENARIO,
    DebtNeverClearsError,
    HouseholdProfile,
    HouseholdType,
    Money,
    PathConfig,
    RuleId,
    ScenarioSpec,
    THREADS_ENV_VAR,
    ValidationError,
    compare_rules,
    debt_clearance_time,
    derive_trial_rng,
    run_stress,
    run_trial,
    savings_future_value,
)


def _profile(**kw):
    fields = dict(
        profile_id="h1",
        household_type=HouseholdType.SINGLE_INCOME,
        member_incomes=(Money.of("60000"),),
        debt_balance=Money.of("20000"),
        debt_apr=0.18,
        baseline_expenses=Money.of("18000"),
        sigma_income=0.10,
        sigma_market=0.15,
        rho=0.3,
        mu=0.02,
        r_savings=0.04,
    )
    fields.update(kw)
    return HouseholdProfile(**fields)


def _cfg(trials=1, seed=0, years=10):
    return PathConfig(horizon_years=years, dt_years=1 / 12, trials=trials, master_seed=seed)


# The five commands of the benchmark's cli_quick workload, none of which
# needs an array.
ARRAY_FREE_COMMANDS = [
    ["allocate", "--income", "60000", "--rule", "fifty_thirty_twenty"],
    ["risk", "--dti", "0.4", "--ser", "0.8", "--sigma-income", "0.1", "--sigma-market", "0.15"],
    ["adjust", "--income", "90000", "--sigma-income", "0.1", "--sigma-market", "0.1"],
    ["coalition", "--incomes", "30000,30000,20000", "--members", "0,1", "--scale-benefit",
     "0,1200,2000", "--coordination-cost", "0,200,500", "--check-superadditive"],
    ["shapley", "--incomes", "52000,48000,45000", "--scale-benefit", "0,1200,2100",
     "--coordination-cost", "0,200,450"],
]


_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_FIXTURES = os.path.join(_REPO, "perfbench", "fixtures")

# A small run of each command that needs numpy.
ARRAY_COMMANDS = [
    ["plan", "--income", "36000", "--horizon", "1"],
    ["stress", "--profiles", os.path.join(_FIXTURES, "profiles.csv"),
     "--scenarios", os.path.join(_FIXTURES, "scenarios.json"),
     "--rules", "one_third,fifty_thirty_twenty", "--trials", "2", "--horizon-years", "2",
     "--compare"],
    ["simulate", "--start", "100", "--horizon-years", "1"],
]

# The thirdrule modules each command loads besides the package root, cli,
# domain and errors.
COMMAND_MODULES = {
    "allocate": [],
    "risk": ["risk"],
    "adjust": ["adjust", "risk"],
    "coalition": ["game"],
    "shapley": ["game"],
    "plan": ["dynamic", "utility_opt"],
    "stress": ["risk", "stochastic", "stress"],
    "simulate": ["stochastic"],
}

# The thirdrule.cli names each command calls that perfbench/traced.py
# replaces with span wrappers.
TRACED_CLI_CALLS = {
    "allocate": ["rule_allocation"],
    "risk": ["bankruptcy_probability", "classify_stability"],
    "adjust": ["adjustment_factors", "adjusted_allocation"],
    "coalition": ["coalition_value", "is_superadditive"],
    "shapley": ["shapley_values"],
    "plan": ["solve_plan", "policy_adjustments"],
    "stress": ["load_profiles", "load_scenarios", "run_stress", "emit_report", "compare_rules"],
}


def _traced_patches():
    """(module, attribute) for each name perfbench/traced.py patches: every
    ``CLI_CALLS`` entry on ``cli`` and every ``patch(module, "name", ...)``."""
    with open(os.path.join(_REPO, "perfbench", "traced.py")) as handle:
        tree = ast.parse(handle.read())
    patched = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "CLI_CALLS":
            patched |= {("cli", attr) for attr, _ in ast.literal_eval(node.value)}
        elif (
            isinstance(node, ast.Call)
            and ast.unparse(node.func) == "patch"
            and isinstance(node.args[1], ast.Constant)
        ):
            patched.add((node.args[0].id, node.args[1].value))
    return patched


def _fresh_python(*args):
    """Run a new interpreter that imports this checkout's thirdrule."""
    src = os.path.dirname(os.path.dirname(thirdrule.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


class TestScenarioSpec:
    def test_window_bounds(self):
        s = ScenarioSpec(name="w", onset_month=3, duration_months=2)
        assert not s.active(2)
        assert s.active(3)
        assert s.active(4)
        assert not s.active(5)

    def test_permanent_when_duration_zero(self):
        s = ScenarioSpec(name="p", onset_month=5)
        assert s.active(5)
        assert s.active(500)
        assert not s.active(4)

    def test_months_active_freezes_after_close(self):
        s = ScenarioSpec(name="w", onset_month=3, duration_months=2)
        assert s.months_active_through(2) == 0
        assert s.months_active_through(3) == 1
        assert s.months_active_through(4) == 2
        assert s.months_active_through(10) == 2

    def test_validation(self):
        with pytest.raises(ValidationError):
            ScenarioSpec(name="")
        with pytest.raises(ValidationError):
            ScenarioSpec(name="x", income_shock=-1.5)
        with pytest.raises(ValidationError):
            ScenarioSpec(name="x", apr_multiplier=0.0)
        with pytest.raises(ValidationError):
            ScenarioSpec(name="x", onset_month=0)
        with pytest.raises(ValidationError):
            ScenarioSpec(name="x", duration_months=-1)


class TestRunTrial:
    def test_golden_trajectory(self):
        # full pin of one seeded trial; any change to the ledger
        # arithmetic, the stream derivation, or the rounding shows here
        out = run_trial(
            _profile(), AllocationRule.one_third(), BASELINE_SCENARIO, 120, derive_trial_rng(42, 0)
        )
        assert not out.defaulted
        assert out.default_month is None
        assert out.debt_cleared_month == 15
        assert out.final_savings.cents == 77464383
        assert out.min_cash_buffer == 0.0
        assert len(out.dti_series) == 120
        assert out.dti_series[0] == pytest.approx(0.3333326659565778, abs=1e-16)
        assert out.ser_series[0] == pytest.approx(1.1099266666666667, abs=1e-16)
        assert out.ser_series[-1] == pytest.approx(3.24432, abs=1e-12)

    def test_cash_identity_checked_under_python_O(self):
        # Expenses get one cent more than the split leaves; the monthly
        # identity check must still catch it when asserts are stripped.
        code = textwrap.dedent(
            """
            import sys
            from thirdrule import stress
            from thirdrule import (AllocationRule, BASELINE_SCENARIO, DomainError,
                HouseholdProfile, HouseholdType, Money, derive_trial_rng)

            real = stress._split_cents
            def one_cent_more(*args):
                debt, savings, expenses = real(*args)
                return debt, savings, expenses + 1
            stress._split_cents = one_cent_more
            profile = HouseholdProfile("h1", HouseholdType.SINGLE_INCOME, (Money.of("60000"),),
                Money.of("20000"), 0.18, Money.of("18000"), 0.1, 0.15, 0.3, 0.02, 0.04)
            try:
                stress.run_trial(profile, AllocationRule.one_third(), BASELINE_SCENARIO, 12,
                                 derive_trial_rng(0, 0))
            except DomainError as exc:
                print(sys.flags.optimize, exc)
            """
        )
        done = _fresh_python("-O", "-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "1 monthly cash identity violated in month 1\n"

    def test_deterministic_across_calls(self):
        a = run_trial(
            _profile(), AllocationRule.one_third(), BASELINE_SCENARIO, 60, derive_trial_rng(7, 3)
        )
        b = run_trial(
            _profile(), AllocationRule.one_third(), BASELINE_SCENARIO, 60, derive_trial_rng(7, 3)
        )
        assert a == b

    def test_immediate_default_when_interest_swamps_the_bucket(self):
        # 200000 at 12%: 2000 monthly interest against a 1666.67 bucket
        # and an empty savings account
        p = _profile(
            debt_balance=Money.of("200000"),
            debt_apr=0.12,
            sigma_income=0.0,
            sigma_market=0.0,
            mu=0.0,
        )
        out = run_trial(p, AllocationRule.one_third(), BASELINE_SCENARIO, 12, derive_trial_rng(0, 0))
        assert out.defaulted
        assert out.default_month == 1
        assert out.debt_cleared_month is None
        assert out.final_savings == Money.zero()
        assert out.min_cash_buffer == pytest.approx(-333.33)
        assert out.dti_series == ()

    def test_debt_free_household_marks_clearance_at_zero(self):
        p = _profile(debt_balance=Money.zero(), sigma_income=0.0, sigma_market=0.0, mu=0.0)
        out = run_trial(p, AllocationRule.one_third(), BASELINE_SCENARIO, 12, derive_trial_rng(0, 0))
        assert out.debt_cleared_month == 0
        assert all(x == 0.0 for x in out.dti_series)

    def test_zero_volatility_ledger_is_exactly_predictable(self):
        # flat income 6000/month, thirds 2000 each, debt 10000 at 0%,
        # expenses due 1500: debt clears in month 5, then the bucket
        # overflow joins the savings deposit
        p = _profile(
            member_incomes=(Money.of("72000"),),
            debt_balance=Money.of("10000"),
            debt_apr=0.0,
            baseline_expenses=Money.of("18000"),
            sigma_income=0.0,
            sigma_market=0.0,
            mu=0.0,
            r_savings=0.0,
        )
        out = run_trial(p, AllocationRule.one_third(), BASELINE_SCENARIO, 6, derive_trial_rng(0, 0))
        assert out.debt_cleared_month == 5
        # months 1-4 repay 2000; month 5 repays the last 2000 exactly;
        # month 6 sends the whole bucket to savings
        assert out.final_savings == Money.of(6 * 2000 + 2000)
        assert out.ser_series[5] == pytest.approx((2000 + 2000) / 1500)

    def test_expense_shortfall_draws_savings_then_defaults(self):
        # expenses 2500/month against an 1666.67 bucket: the 833.33 gap
        # burns the savings balance built at 1666.67/month, so the
        # account grows; raise expenses to overwhelm it instead
        p = _profile(
            debt_balance=Money.zero(),
            baseline_expenses=Money.of("66000"),  # 5500 due, 1666.67 bucket
            sigma_income=0.0,
            sigma_market=0.0,
            mu=0.0,
            r_savings=0.0,
        )
        out = run_trial(p, AllocationRule.one_third(), BASELINE_SCENARIO, 12, derive_trial_rng(0, 0))
        assert out.defaulted
        assert out.default_month == 1

    def test_scenario_income_shock_reduces_the_surviving_margin(self):
        quiet = _profile(
            baseline_expenses=Money.of("12000"), sigma_income=0.0, sigma_market=0.0, mu=0.0
        )
        base = run_trial(
            quiet, AllocationRule.one_third(), BASELINE_SCENARIO, 24, derive_trial_rng(0, 0)
        )
        shocked = run_trial(
            quiet,
            AllocationRule.one_third(),
            ScenarioSpec(name="drop", income_shock=-0.15),
            24,
            derive_trial_rng(0, 0),
        )
        assert not base.defaulted and not shocked.defaulted
        assert shocked.final_savings < base.final_savings
        assert shocked.debt_cleared_month > base.debt_cleared_month

    def test_apr_multiplier_slows_clearance(self):
        quiet = run_trial(
            _profile(sigma_income=0.0, sigma_market=0.0, mu=0.0),
            AllocationRule.one_third(),
            BASELINE_SCENARIO,
            60,
            derive_trial_rng(0, 0),
        )
        costly = run_trial(
            _profile(sigma_income=0.0, sigma_market=0.0, mu=0.0),
            AllocationRule.one_third(),
            ScenarioSpec(name="apr", apr_multiplier=2.0),
            60,
            derive_trial_rng(0, 0),
        )
        assert costly.debt_cleared_month > quiet.debt_cleared_month

    def test_inflation_grows_expenses_inside_the_window_only(self):
        p = _profile(
            debt_balance=Money.zero(),
            sigma_income=0.0,
            sigma_market=0.0,
            mu=0.0,
            r_savings=0.0,
        )
        windowed = ScenarioSpec(
            name="infl", inflation_annual=0.24, onset_month=1, duration_months=12
        )
        out = run_trial(p, AllocationRule.one_third(), windowed, 36, derive_trial_rng(0, 0))
        # deposit keeps pace at 1666.67 while the 1500 due grows by 24%
        # during year one and then freezes
        assert out.ser_series[0] < out.ser_series[0] / 0.9  # sanity
        assert out.ser_series[11] == pytest.approx(out.ser_series[12], rel=1e-12)
        assert out.ser_series[11] == pytest.approx(out.ser_series[35], rel=1e-12)
        assert out.ser_series[0] > out.ser_series[11]

    def test_onset_beyond_horizon_rejected(self):
        s = ScenarioSpec(name="late", onset_month=200)
        with pytest.raises(ValidationError):
            run_trial(_profile(), AllocationRule.one_third(), s, 120, derive_trial_rng(0, 0))


class TestRunStress:
    def test_aggregates_match_manual_reaggregation(self):
        p = _profile()
        rule = AllocationRule.one_third()
        cfg = _cfg(trials=10, seed=5, years=5)
        [metrics] = run_stress([p], [rule], [BASELINE_SCENARIO], cfg)
        outcomes = [
            run_trial(p, rule, BASELINE_SCENARIO, 60, derive_trial_rng(5, k))
            for k in range(10)
        ]
        assert metrics.trials == 10
        assert metrics.default_rate == sum(o.defaulted for o in outcomes) / 10
        cleared = [o.debt_cleared_month for o in outcomes if o.debt_cleared_month is not None]
        assert metrics.median_clearance_years == statistics.median(cleared) / 12
        total = sum(o.final_savings.cents for o in outcomes)
        assert metrics.mean_final_savings.cents == round(total / 10)
        months = sum(len(o.dti_series) for o in outcomes)
        dti_v = sum(sum(1 for x in o.dti_series if x > 0.36) for o in outcomes)
        ser_v = sum(sum(1 for x in o.ser_series if x < 1.0) for o in outcomes)
        assert metrics.dti_violation_rate == dti_v / months
        assert metrics.ser_violation_rate == ser_v / months

    def test_rows_sorted_and_complete(self):
        p1 = _profile(profile_id="a")
        p2 = _profile(profile_id="b")
        rules = [AllocationRule.fifty_thirty_twenty(), AllocationRule.one_third()]
        scen = [ScenarioSpec(name="s2"), ScenarioSpec(name="s1")]
        rows = run_stress([p1, p2], rules, scen, _cfg(trials=2, years=1))
        keys = [(m.profile_id, m.rule.value, m.scenario) for m in rows]
        assert keys == sorted(keys)
        assert len(rows) == 8

    def test_rule_built_from_a_plain_id_runs_as_the_named_rule(self):
        # the id becomes a RuleId, which the rows are sorted and keyed by
        p = _profile()
        cfg = _cfg(trials=2, years=1)
        plain = AllocationRule("one_third", ("1/3", "1/3", "1/3"))
        rows = run_stress([p], [plain, AllocationRule.seventy_twenty_ten()], [BASELINE_SCENARIO], cfg)
        named = run_stress([p], [AllocationRule.one_third()], [BASELINE_SCENARIO], cfg)
        assert rows[0] == named[0]

    def test_common_random_numbers_isolate_the_rule_axis(self):
        # a rule's metrics must not depend on which other rules share the
        # run: trial k always uses stream (seed, k)
        p = _profile()
        cfg = _cfg(trials=20, seed=99, years=3)
        both = run_stress(
            [p],
            [AllocationRule.one_third(), AllocationRule.seventy_twenty_ten()],
            [BASELINE_SCENARIO],
            cfg,
        )
        alone = run_stress([p], [AllocationRule.one_third()], [BASELINE_SCENARIO], cfg)
        third_row = next(m for m in both if m.rule is RuleId.ONE_THIRD)
        assert third_row == alone[0]

    def test_thread_count_does_not_change_results(self):
        p = _profile()
        cfg = _cfg(trials=16, seed=3, years=2)
        with mock.patch.dict(os.environ, {THREADS_ENV_VAR: "1"}):
            serial = run_stress([p], [AllocationRule.one_third()], [BASELINE_SCENARIO], cfg)
        with mock.patch.dict(os.environ, {THREADS_ENV_VAR: "8"}):
            threaded = run_stress([p], [AllocationRule.one_third()], [BASELINE_SCENARIO], cfg)
        assert serial == threaded

    def test_runs_on_the_calling_thread(self):
        p = _profile()
        cfg = _cfg(trials=16, seed=3, years=2)
        with mock.patch.dict(os.environ, {THREADS_ENV_VAR: "8"}), mock.patch.object(
            threading.Thread, "start", side_effect=AssertionError("stress started a thread")
        ):
            rows = run_stress([p], [AllocationRule.one_third()], [BASELINE_SCENARIO], cfg)
        assert rows[0].trials == 16

    def test_cli_import_leaves_out_concurrent_futures(self):
        code = "import sys, thirdrule.cli; print('concurrent.futures' in sys.modules)"
        done = _fresh_python("-c", code)
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr

    @pytest.mark.parametrize(
        "argv", [[], ["--help"]] + ARRAY_FREE_COMMANDS, ids=lambda a: a[0] if a else "import"
    )
    def test_array_free_commands_never_load_numpy(self, argv):
        code = textwrap.dedent(
            """
            import json, sys
            from thirdrule import cli
            argv = json.loads(sys.argv[1])
            status = cli.main(argv) if argv else 0
            print(status, "numpy" in sys.modules, file=sys.stderr)
            """
        )
        done = _fresh_python("-c", code, json.dumps(argv))
        assert (done.returncode, done.stderr) == (0, "0 False\n")

    @pytest.mark.parametrize(
        "argv",
        [None, [], pytest.param(["--help"], id="--help")]
        + [pytest.param(["plan", "--help"], id="plan --help")]
        + ARRAY_FREE_COMMANDS
        + ARRAY_COMMANDS,
        ids=lambda a: "import thirdrule" if a is None else a[0] if a else "import thirdrule.cli",
    )
    def test_command_loads_only_its_modules(self, argv):
        code = textwrap.dedent(
            """
            import json, sys
            argv = json.loads(sys.argv[1])
            if argv is None:
                import thirdrule
                status = 0
            else:
                import thirdrule.cli
                status = thirdrule.cli.main(argv) if argv else 0
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "thirdrule")
            print(json.dumps([status, loaded]), file=sys.stderr)
            """
        )
        done = _fresh_python("-c", code, json.dumps(argv))
        if argv is None:
            expected = ["thirdrule"]
        else:
            extra = COMMAND_MODULES.get(argv[0], []) if argv else []
            expected = sorted(
                ["thirdrule", "thirdrule.cli", "thirdrule.domain", "thirdrule.errors"]
                + [f"thirdrule.{module}" for module in extra]
            )
        assert (done.returncode, done.stderr) == (0, json.dumps([0, expected]) + "\n")

    @pytest.mark.parametrize(
        "argv",
        [a for a in ARRAY_FREE_COMMANDS + ARRAY_COMMANDS if a[0] not in ("stress", "simulate")],
        ids=lambda a: a[0],
    )
    def test_command_leaves_csv_json_and_statistics_unloaded(self, argv):
        # Only stress and report (csv, json) and simulate (statistics) need
        # them.  The argv comes through sys.argv so that the harness imports
        # none of the three itself.
        code = textwrap.dedent(
            """
            import sys
            import thirdrule.cli
            status = thirdrule.cli.main(sys.argv[1:])
            loaded = sorted({"csv", "json", "statistics"} & set(sys.modules))
            print(status, loaded, file=sys.stderr)
            """
        )
        done = _fresh_python("-c", code, *argv)
        assert (done.returncode, done.stderr) == (0, "0 []\n")

    def test_every_traced_cli_name_is_reached(self):
        reached = {name for names in TRACED_CLI_CALLS.values() for name in names}
        assert reached == {attr for module, attr in _traced_patches() if module == "cli"}

    @pytest.mark.parametrize("command", sorted(TRACED_CLI_CALLS))
    def test_patched_cli_name_is_the_one_called(self, command):
        # In a fresh interpreter no command has bound its names yet: the
        # patch must still be what the command calls, as in traced.py.
        code = textwrap.dedent(
            """
            import json, sys
            import pytest
            import thirdrule.cli as cli
            argv, names = json.loads(sys.argv[1])
            ran = set()

            def spy(name, real):
                def called(*args, **kwargs):
                    ran.add(name)
                    return real(*args, **kwargs)
                return called

            with pytest.MonkeyPatch.context() as mp:
                for name in names:
                    mp.setattr(cli, name, spy(name, getattr(cli, name)))
                status = cli.main(argv)
            print(json.dumps([status, sorted(ran)]), file=sys.stderr)
            """
        )
        argv = next(a for a in ARRAY_FREE_COMMANDS + ARRAY_COMMANDS if a[0] == command)
        names = TRACED_CLI_CALLS[command]
        done = _fresh_python("-c", code, json.dumps([argv, names]))
        assert (done.returncode, done.stderr) == (0, json.dumps([0, sorted(names)]) + "\n")

    def test_traced_stress_and_game_names_exist(self):
        patched = {(m, a) for m, a in _traced_patches() if m != "cli"}
        assert {m for m, _ in patched} == {"stress", "game"}
        for module, attr in patched:
            assert callable(getattr(getattr(thirdrule, module), attr)), (module, attr)

    def test_deeper_shock_is_weakly_worse(self):
        p = _profile()
        cfg = _cfg(trials=50, seed=17, years=5)
        mild = ScenarioSpec(name="mild", income_shock=-0.05)
        deep = ScenarioSpec(name="deep", income_shock=-0.30)
        rows = run_stress([p], [AllocationRule.one_third()], [mild, deep], cfg)
        by_name = {m.scenario: m for m in rows}
        assert by_name["deep"].default_rate >= by_name["mild"].default_rate
        assert (
            by_name["deep"].mean_final_savings.cents
            < by_name["mild"].mean_final_savings.cents
        )

    def test_monthly_step_required(self):
        bad = PathConfig(horizon_years=1, dt_years=1 / 4, trials=1, master_seed=0)
        with pytest.raises(ValidationError):
            run_stress([_profile()], [AllocationRule.one_third()], [BASELINE_SCENARIO], bad)

    def test_empty_axes_rejected(self):
        cfg = _cfg()
        with pytest.raises(ValidationError):
            run_stress([], [AllocationRule.one_third()], [BASELINE_SCENARIO], cfg)
        with pytest.raises(ValidationError):
            run_stress([_profile()], [], [BASELINE_SCENARIO], cfg)
        with pytest.raises(ValidationError):
            run_stress([_profile()], [AllocationRule.one_third()], [], cfg)


class TestClearanceTime:
    def test_interest_free_division(self):
        assert debt_clearance_time(Money.of("63000"), Money.of("13666.67"), 0.0) == (
            pytest.approx(4.6097, abs=5e-4)
        )
        assert debt_clearance_time(Money.of("120000"), Money.of("30000"), 0.0) == 4.0
        assert debt_clearance_time(Money.of("105000"), Money.of("24000"), 0.0) == 4.375

    def test_amortization_formula(self):
        # independent recomputation in logs
        b, p, r = 20000.0, 5100.0, 0.18
        expected = -math.log(1.0 - b * r / p) / math.log(1.0 + r)
        got = debt_clearance_time(Money.of("20000"), Money.of("5100"), 0.18)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_interest_shortens_nothing(self):
        flat = debt_clearance_time(Money.of("10000"), Money.of("4000"), 0.0)
        steep = debt_clearance_time(Money.of("10000"), Money.of("4000"), 0.2)
        assert steep > flat

    def test_zero_balance(self):
        assert debt_clearance_time(Money.zero(), Money.of("1"), 0.5) == 0.0

    def test_never_clears(self):
        with pytest.raises(DebtNeverClearsError):
            debt_clearance_time(Money.of("20000"), Money.of("3600"), 0.18)
        with pytest.raises(DebtNeverClearsError):
            debt_clearance_time(Money.of("20000"), Money.of("3000"), 0.18)

    def test_validation(self):
        with pytest.raises(ValidationError):
            debt_clearance_time(Money.of("1"), Money.zero(), 0.1)
        with pytest.raises(ValidationError):
            debt_clearance_time(Money.of("1"), Money.of("1"), -0.1)


class TestFutureValue:
    def test_ordinary_annual_matches_summation_loop(self):
        c, r, years = 13666.67, 0.04, 5
        total = 0.0
        for k in range(1, years + 1):
            total += c * (1.0 + r) ** (years - k)
        got = savings_future_value(Money.of("13666.67"), r, years)
        # result is rounded to the cent, the loop is not
        assert got.units == pytest.approx(total, abs=0.0051)

    def test_due_annual_is_one_extra_period_of_growth(self):
        ordinary = savings_future_value(Money.of("1000"), 0.05, 10, AnnuityTiming.ORDINARY_ANNUAL)
        due = savings_future_value(Money.of("1000"), 0.05, 10, AnnuityTiming.DUE_ANNUAL)
        # both sides carry independent cent rounding
        assert due.units == pytest.approx(ordinary.units * 1.05, abs=0.011)

    def test_monthly_matches_summation_loop(self):
        c, r, years = 12000.0, 0.06, 3
        total = 0.0
        for k in range(1, years * 12 + 1):
            total += (c / 12.0) * (1.0 + r / 12.0) ** (years * 12 - k)
        got = savings_future_value(Money.of("12000"), r, years, AnnuityTiming.MONTHLY)
        assert got.units == pytest.approx(total, abs=0.0051)

    def test_zero_rate_is_plain_accumulation(self):
        assert savings_future_value(Money.of("100"), 0.0, 7) == Money.of("700")
        assert savings_future_value(
            Money.of("120"), 0.0, 2, AnnuityTiming.MONTHLY
        ) == Money.of("240")

    def test_zero_years(self):
        assert savings_future_value(Money.of("100"), 0.08, 0) == Money.zero()

    @pytest.mark.parametrize("timing", list(AnnuityTiming))
    def test_tiny_rate_is_plain_accumulation(self, timing):
        # (1 + r)**n - 1 cancels to 0 once 1 + r rounds to 1
        assert savings_future_value(Money.of("1200"), 1e-300, 2, timing) == Money.of("2400")

    def test_validation(self):
        with pytest.raises(ValidationError):
            savings_future_value(Money.of("1"), -1.5, 5)
        with pytest.raises(ValidationError):
            savings_future_value(Money.of("1"), 0.05, -1)


class TestCompareRules:
    def _metrics(self, trials=30, seed=12):
        p = _profile(debt_balance=Money.of("40000"), debt_apr=0.20)
        rules = [AllocationRule.one_third(), AllocationRule.fifty_thirty_twenty()]
        return run_stress([p], rules, [BASELINE_SCENARIO], _cfg(trials=trials, seed=seed, years=8))

    def test_ranking_and_deltas(self):
        rows = compare_rules(self._metrics())
        assert len(rows) == 2
        best, second = rows[0], rows[1]
        assert (best.rank, second.rank) == (1, 2)
        assert best.default_rate_delta == 0.0
        assert best.clearance_delta == 0.0
        assert second.default_rate_delta >= 0.0
        if second.median_clearance_years is not None and best.median_clearance_years is not None:
            assert second.clearance_delta == pytest.approx(
                second.median_clearance_years - best.median_clearance_years
            )

    def test_one_third_outranks_the_thin_debt_bucket_under_debt_load(self):
        rows = compare_rules(self._metrics())
        assert rows[0].rule is RuleId.ONE_THIRD

    def test_mismatched_rule_axis_rejected(self):
        p = _profile()
        cfg = _cfg(trials=2, years=1)
        a = run_stress([p], [AllocationRule.one_third()], [BASELINE_SCENARIO], cfg)
        b = run_stress(
            [_profile(profile_id="h2")],
            [AllocationRule.seventy_twenty_ten()],
            [BASELINE_SCENARIO],
            cfg,
        )
        with pytest.raises(ValidationError):
            compare_rules(a + b)

    def test_duplicate_cell_rejected(self):
        p = _profile()
        cfg = _cfg(trials=2, years=1)
        rows = run_stress([p], [AllocationRule.one_third()], [BASELINE_SCENARIO], cfg)
        with pytest.raises(ValidationError):
            compare_rules(rows + rows)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            compare_rules([])
