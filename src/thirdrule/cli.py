"""Command line interface and file formats.

Subcommands: allocate, risk, simulate, stress, shapley, coalition, plan,
adjust, report.  Exit codes: 0 success, 1 validation, usage or arithmetic
error, 2 I/O error; every error is one stderr line.

Profile CSV columns, in order:
id, household_type, income_annual, debt_balance, debt_apr,
baseline_expenses_annual, sigma_income, sigma_market, rho, mu, r_savings.
Multiple member incomes in income_annual are joined with ';'.

Scenario files hold one JSON object or an array of them with keys
name, income_shock, apr_multiplier, inflation_annual, onset_month,
duration_months; unknown keys are rejected.

Reports are CSV or JSON with columns profile_id, rule, scenario,
default_rate, median_clearance_years, mean_final_savings,
months_coverage, dti_violation_rate, ser_violation_rate.  Money prints
with two decimals, other numbers with six significant digits, missing
values as empty cells (CSV) or null (JSON).  Output bytes are a pure
function of the inputs and the master seed.
"""

from __future__ import annotations

import argparse
import importlib
import io
import re
import sys
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from typing import Collection, Optional, Sequence

from . import _EXPORTS, _HOME
from .domain import (
    Allocation,
    AllocationRule,
    HouseholdProfile,
    Money,
    RuleId,
    rule_allocation,
)
from .errors import ValidationError, finite_number


def _bind(*modules: str) -> None:
    """Import the named thirdrule modules and make their public names (the
    package's ``_EXPORTS``) globals of this module, where the commands call
    them.  A name already set stays, so a replacement put on this module (a
    test's spy, a benchmark's span wrapper) is what runs."""
    for module in modules:
        loaded = importlib.import_module(f".{module}", __package__)
        for name in _EXPORTS[module]:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    if name in _HOME:
        _bind(_HOME[name])
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _ungrouped(parse):
    """parse, refusing digit grouping: int() and float() read "6_0000" as
    60000, which in an amount, rate or count is more likely a typo.  The
    result keeps parse's name, which argparse puts in its error."""

    def parse_ungrouped(text: str):
        if "_" in text:
            raise ValueError(f"digit grouping in {text!r}")
        return parse(text)

    parse_ungrouped.__name__ = parse.__name__
    return parse_ungrouped


_float = _ungrouped(float)
_int = _ungrouped(int)


def _parse_number(text: str) -> float:
    try:
        return _float(text)
    except ValueError:
        raise ValidationError(f"cannot parse number {text!r}") from None


# HouseholdProfile field: (CSV column, parser of the cell's text), in column
# order.  The profile checks every field it is given.
_PROFILE_FIELDS = {
    "profile_id": ("id", str),
    "household_type": ("household_type", str),
    "member_incomes": (
        "income_annual",
        lambda text: tuple(Money.of(part.strip()) for part in text.split(";")),
    ),
    "debt_balance": ("debt_balance", Money.of),
    "debt_apr": ("debt_apr", _parse_number),
    "baseline_expenses": ("baseline_expenses_annual", Money.of),
    "sigma_income": ("sigma_income", _parse_number),
    "sigma_market": ("sigma_market", _parse_number),
    "rho": ("rho", _parse_number),
    "mu": ("mu", _parse_number),
    "r_savings": ("r_savings", _parse_number),
}
PROFILE_COLUMNS = tuple(column for column, _ in _PROFILE_FIELDS.values())

REPORT_COLUMNS = (
    "profile_id",
    "rule",
    "scenario",
    "default_rate",
    "median_clearance_years",
    "mean_final_savings",
    "months_coverage",
    "dti_violation_rate",
    "ser_violation_rate",
)

_MONEY_COLUMNS = {"mean_final_savings"}
_TEXT_COLUMNS = {"profile_id", "rule", "scenario"}


def load_profiles(path: str) -> list[HouseholdProfile]:
    """Parse and validate a profile CSV.  Errors name the row and column."""
    import csv

    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("profile file is empty") from None
        if tuple(h.strip() for h in header) != PROFILE_COLUMNS:
            raise ValidationError(
                "profile header must be exactly: " + ",".join(PROFILE_COLUMNS)
            )
        profiles: list[HouseholdProfile] = []
        seen: set[str] = set()
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(PROFILE_COLUMNS):
                raise ValidationError(
                    f"row {row_no}: expected {len(PROFILE_COLUMNS)} fields, got {len(row)}"
                )
            record = dict(zip(PROFILE_COLUMNS, (cell.strip() for cell in row)))
            profiles.append(_parse_profile(record, row_no, seen))
    return profiles


def _split_field(message: str, names: Collection[str]) -> tuple[Optional[str], str]:
    """(field, rest) of a message that starts with a field name and a space,
    as the input types' messages about one field do, else (None, message)."""
    field, _, rest = message.partition(" ")
    return (field, rest) if field in names else (None, message)


def _parse_profile(record: dict[str, str], row_no: int, seen: set[str]) -> HouseholdProfile:
    """The row's profile; a message that names a field becomes
    ``row N, field <column>: ...``, any other ``row N: ...``."""
    if record["id"] in seen:
        raise ValidationError(f"row {row_no}, field id: duplicate id {record['id']!r}")
    seen.add(record["id"])
    values = {}
    try:
        for field, (column, parse) in _PROFILE_FIELDS.items():
            try:
                values[field] = parse(record[column])
            except ValidationError as exc:
                raise ValidationError(f"{field} {exc}") from None
        return HouseholdProfile(**values)
    except ValidationError as exc:
        field, rest = _split_field(str(exc), _PROFILE_FIELDS)
        where = f", field {_PROFILE_FIELDS[field][0]}" if field else ""
        raise ValidationError(f"row {row_no}{where}: {rest}") from None


def load_scenarios(path: str) -> list[ScenarioSpec]:
    """Parse a scenario JSON file (single object or array).  Unknown keys
    are rejected with their JSON path."""
    import json

    _bind("stress")
    keys = {f.name for f in fields(ScenarioSpec)}
    with open(path, encoding="utf-8-sig") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"scenario file is not valid JSON: {exc}") from None
    if isinstance(data, dict):
        items = [(data, "$")]
    elif isinstance(data, list):
        items = [(obj, f"$[{idx}]") for idx, obj in enumerate(data)]
    else:
        raise ValidationError("scenario file must hold a JSON object or array")
    scenarios: list[ScenarioSpec] = []
    names: set[str] = set()
    for obj, where in items:
        if not isinstance(obj, dict):
            raise ValidationError(f"{where}: scenario must be a JSON object")
        unknown = set(obj) - keys
        if unknown:
            key = sorted(unknown)[0]
            raise ValidationError(f"{where}.{key}: unknown key")
        if "name" not in obj:
            raise ValidationError(f"{where}.name: required")
        try:
            scenario = ScenarioSpec(**obj)
        except ValidationError as exc:
            key, problem = _split_field(str(exc), keys)
            label = f"{where}.{key}" if key else where
            raise ValidationError(f"{label}: {problem}") from None
        if scenario.name in names:
            raise ValidationError(f"{where}.name: duplicate scenario {scenario.name!r}")
        names.add(scenario.name)
        scenarios.append(scenario)
    if not scenarios:
        raise ValidationError("scenario file holds no scenarios")
    return scenarios


def metrics_rows(metrics: Sequence[StressMetrics]) -> list[dict]:
    rows = []
    for m in metrics:
        rows.append(
            {
                "profile_id": m.profile_id,
                "rule": m.rule.value,
                "scenario": m.scenario,
                "default_rate": m.default_rate,
                "median_clearance_years": m.median_clearance_years,
                "mean_final_savings": m.mean_final_savings,
                "months_coverage": m.months_expense_coverage,
                "dti_violation_rate": m.dti_violation_rate,
                "ser_violation_rate": m.ser_violation_rate,
            }
        )
    return rows


def _csv_cell(column: str, value) -> str:
    if value is None:
        return ""
    if column in _TEXT_COLUMNS:
        return str(value)
    if column in _MONEY_COLUMNS:
        return str(value) if isinstance(value, Money) else f"{float(value):.2f}"
    return f"{float(value):.6g}"


def _json_cell(column: str, value):
    if value is None or column in _TEXT_COLUMNS:
        return value
    return float(_csv_cell(column, value))


def render_report(rows: Sequence[dict], fmt: str) -> str:
    """Render report rows as CSV or JSON text (deterministic bytes)."""
    if fmt == "csv":
        import csv

        lines = [[_csv_cell(col, row[col]) for col in REPORT_COLUMNS] for row in rows]
        # The writer quotes a cell holding "\n" but not a bare "\r", which
        # reads back as a row break; quote every cell of such a report.
        bare_cr = any("\r" in cell for line in lines for cell in line)
        buffer = io.StringIO()
        writer = csv.writer(
            buffer, lineterminator="\n", quoting=csv.QUOTE_ALL if bare_cr else csv.QUOTE_MINIMAL
        )
        writer.writerow(REPORT_COLUMNS)
        writer.writerows(lines)
        return buffer.getvalue()
    if fmt == "json":
        import json

        payload = [
            {col: _json_cell(col, row[col]) for col in REPORT_COLUMNS} for row in rows
        ]
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    raise ValidationError(f"unknown report format {fmt!r}")


def load_report_json(path: str) -> list[dict]:
    import json

    with open(path, encoding="utf-8-sig") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"report file is not valid JSON: {exc}") from None
    if not isinstance(data, list):
        raise ValidationError("report JSON must be an array of rows")
    rows = []
    for idx, obj in enumerate(data):
        if not isinstance(obj, dict) or set(obj) != set(REPORT_COLUMNS):
            raise ValidationError(f"$[{idx}]: report rows need exactly the standard columns")
        for column, value in obj.items():
            if column in _TEXT_COLUMNS and not isinstance(value, str):
                raise ValidationError(f"$[{idx}].{column}: must be a string")
            if column not in _TEXT_COLUMNS and value is not None:
                finite_number(value, f"$[{idx}].{column}:")
        rows.append(obj)
    return rows


def emit_report(rows: Sequence[dict], fmt: str, path: Optional[str]) -> None:
    """Write the rendered report to path and say so, or to stdout."""
    text = render_report(rows, fmt)
    if path:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _parse_money_arg(text: str) -> Money:
    try:
        return Money.of(text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_fraction_arg(text: str) -> float:
    try:
        return float(_ungrouped(Fraction)(text))
    except (ValueError, ArithmeticError):
        raise argparse.ArgumentTypeError(f"cannot parse {text!r} as a finite fraction") from None


def _rule_from_args(args: argparse.Namespace) -> AllocationRule:
    if args.rule == RuleId.CUSTOM:
        if not args.fractions:
            raise ValidationError("--fractions is required with --rule custom")
        return AllocationRule.custom([p.strip() for p in args.fractions.split(",")])
    if args.fractions:
        raise ValidationError("--fractions only applies to --rule custom")
    return AllocationRule.named(args.rule)


_PLAN_FIELDS = (
    "discount",
    "debt_apr",
    "savings_return",
    "income_growth",
    "shock_std",
    "shock_samples",
    "state_weight",
)


def _add_field_flags(
    parser: argparse.ArgumentParser, cls: type, names: Optional[Sequence[str]] = None
) -> None:
    """One --name-with-dashes flag per named field (every field if names is
    None), typed and defaulted by the field."""
    defaults = {f.name: f.default for f in fields(cls)}
    for name in defaults if names is None else names:
        default = defaults[name]
        parser.add_argument(
            "--" + name.replace("_", "-"), type=_ungrouped(type(default)), default=default
        )


def _risk_params(args: argparse.Namespace) -> RiskParams:
    return RiskParams(**{f.name: getattr(args, f.name) for f in fields(RiskParams)})


def _add_coalition_flags(parser: argparse.ArgumentParser) -> None:
    by_size = "comma list by coalition size, starting at size 1"
    parser.add_argument("--incomes", required=True, help="comma list of member incomes")
    parser.add_argument("--scale-benefit", help=by_size)
    parser.add_argument("--coordination-cost", help=by_size)


def _print_allocation(allocation: Allocation) -> None:
    print(f"income {allocation.income}")
    print(f"debt {allocation.debt}")
    print(f"savings {allocation.savings}")
    print(f"expenses {allocation.expenses}")


def _cmd_allocate(args: argparse.Namespace) -> int:
    rule = _rule_from_args(args)
    _print_allocation(rule_allocation(rule, args.income))
    return 0


def _cmd_risk(args: argparse.Namespace) -> int:
    params = _risk_params(args)
    probability = bankruptcy_probability(
        params, args.dti, args.ser, args.sigma_income, args.sigma_market
    )
    flags = classify_stability(params, args.dti, args.ser)
    print(f"bankruptcy_probability {probability:.6g}")
    print(f"dti_ok {flags.dti_ok}")
    print(f"ser_ok {flags.ser_ok}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import statistics

    cfg = PathConfig(
        horizon_years=args.horizon_years,
        dt_years=args.dt_years,
        trials=args.trials,
        master_seed=args.seed,
    )
    finals = []
    floored = 0
    for k in range(cfg.trials):
        rng = derive_trial_rng(cfg.master_seed, k)
        if args.kind == "income":
            path = simulate_income_path(args.start, args.mu, args.sigma_income, cfg, rng)
            floored += path.floored_steps
        else:
            path = simulate_savings_path(
                args.start, args.contribution, args.rate, args.sigma_market, cfg, rng
            )
        finals.append(path.units[-1])
    mean = statistics.fmean(finals)
    std = statistics.pstdev(finals) if len(finals) > 1 else 0.0
    print(f"trials {cfg.trials}")
    print(f"final_mean {mean:.6g}")
    print(f"final_std {std:.6g}")
    if args.kind == "income":
        print(f"floored_step_rate {floored / (cfg.trials * cfg.steps):.6g}")
    return 0


def _cmd_stress(args: argparse.Namespace) -> int:
    profiles = load_profiles(args.profiles)
    scenarios = load_scenarios(args.scenarios)
    rules = []
    for position, part in enumerate(args.rules.split(","), start=1):
        if not part.strip():
            continue
        try:
            rule = AllocationRule.named(part.strip())
        except ValidationError as exc:
            names = ", ".join(r.value for r in RuleId if r is not RuleId.CUSTOM)
            raise ValidationError(f"--rules entry {position}: {exc} (one of {names})") from None
        if rule in rules:
            raise ValidationError(f"--rules names {rule.rule_id.value!r} twice")
        rules.append(rule)
    cfg = PathConfig(horizon_years=args.horizon_years, trials=args.trials, master_seed=args.seed)
    metrics = run_stress(profiles, rules, scenarios, cfg)
    emit_report(metrics_rows(metrics), args.format, args.output)
    if args.compare and len(rules) > 1:
        for row in compare_rules(metrics):
            delta = f" (+{row.default_rate_delta:.6g} default rate)" if row.rank > 1 else ""
            print(
                f"compare {row.profile_id}/{row.scenario}: "
                f"rank {row.rank} {row.rule.value} default_rate {row.default_rate:.6g}{delta}"
            )
    return 0


def _parse_amounts(text: Optional[str], flag: str, item: str) -> list[Money]:
    """A comma list of amounts.  Trailing empty entries are dropped; an
    empty entry before an amount would shift it to the wrong position, so
    it is an error.  Errors name the flag and the position, counted from 1."""
    parts = [part.strip() for part in (text or "").split(",")]
    while parts and not parts[-1]:
        parts.pop()
    amounts = []
    for position, part in enumerate(parts, start=1):
        if not part:
            raise ValidationError(f"{flag} {item} {position} is empty (write 0 for no amount)")
        try:
            amounts.append(Money.of(part))
        except ValidationError as exc:
            raise ValidationError(f"{flag} {item} {position}: {exc}") from None
    return amounts


def _coalition_from_args(args: argparse.Namespace) -> CoalitionSpec:
    """The game the flags describe.  ``CoalitionSpec`` checks each flag as it
    is added, in flag order; a size-table message names the flag."""
    spec = CoalitionSpec(tuple(_parse_amounts(args.incomes, "--incomes", "entry")))
    for flag in ("--scale-benefit", "--coordination-cost"):
        name = flag[2:].replace("-", "_")
        table = dict(enumerate(_parse_amounts(getattr(args, name), flag, "size"), start=1))
        try:
            spec = replace(spec, **{name: table})
        except ValidationError as exc:
            raise ValidationError(f"{flag} {_split_field(str(exc), (name,))[1]}") from None
    return spec


def _cmd_shapley(args: argparse.Namespace) -> int:
    result = shapley_values(_coalition_from_args(args))
    total = result.total  # checks the money bound before anything prints
    for idx, value in enumerate(result.values):
        print(f"member {idx} {value}")
    print(f"total {total}")
    return 0


def _cmd_coalition(args: argparse.Namespace) -> int:
    spec = _coalition_from_args(args)
    members = []
    for part in filter(str.strip, args.members.split(",")):
        try:
            members.append(_int(part))
        except ValueError:
            raise ValidationError(f"member index {part.strip()!r} is not an integer") from None
    lines = [f"value {coalition_value(spec, members)}"]
    if args.check_superadditive:
        lines.append(f"superadditive {is_superadditive(spec)}")
    print("\n".join(lines))  # nothing prints until every check has passed
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    initial = HouseholdState(income=args.income, debt=args.debt, savings=args.savings)
    overrides = {name: getattr(args, name) for name in _PLAN_FIELDS}
    cfg = default_config(initial, args.horizon, **overrides)
    policy = solve_plan(initial, cfg)
    node = policy.nearest_node(initial)
    for t in range(1, cfg.horizon + 1):
        fd, fs, fe = policy.node_fractions(t, node)
        ad, as_, ae = policy_adjustments(policy, t, initial)
        print(
            f"period {t} debt {fd} savings {fs} expenses {fe} "
            f"shifts ({ad}, {as_}, {ae})"
        )
    return 0


def _cmd_adjust(args: argparse.Namespace) -> int:
    params = _risk_params(args)
    factors = adjustment_factors(params, args.sigma_income, args.sigma_market)
    allocation = adjusted_allocation(args.income, factors, AdjustMode(args.mode))
    print(f"debt_shift {factors.debt_shift:.6g}")
    print(f"savings_shift {factors.savings_shift:.6g}")
    print(f"expenses_shift {factors.expenses_shift:.6g}")
    print(f"clamped {factors.clamped}")
    print(f"zero_sum_defect {zero_sum_defect(factors):.6g}")
    _print_allocation(allocation)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    emit_report(load_report_json(args.input), args.format, args.output)
    return 0


# argparse's own pattern, ^-\d+$|^-\d*\.\d+$, has no exponent
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """argparse with one-line usage errors.  Negative numbers in exponent
    notation (``--mu -2e-2``) read as values, as ``-0.02`` already does;
    subparsers inherit the class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str) -> None:  # type: ignore[override]
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser(command: Optional[str]) -> _Parser:
    """The CLI parser.  Every command is listed, but only ``command`` gets
    its flags and loads its modules; with no command, as for ``thirdrule
    --help``, none does, since argparse then reads no command's flags.
    Each ``add`` call names the thirdrule modules, beyond domain and
    errors, that the command runs."""
    parser = _Parser(prog="thirdrule", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *modules: str) -> Optional[_Parser]:
        p = sub.add_parser(name, help=help_text)
        if command != name:
            return None
        _bind(*modules)
        return p

    if p := add("allocate", "split an income by a rule"):
        p.add_argument("--income", type=_parse_money_arg, required=True)
        p.add_argument("--rule", default="one_third", choices=[r.value for r in RuleId])
        p.add_argument("--fractions", help="comma list like 1/3,1/3,1/3 for --rule custom")
        p.set_defaults(func=_cmd_allocate)

    if p := add("risk", "bankruptcy probability and stability flags", "risk"):
        p.add_argument("--dti", type=_float, required=True)
        p.add_argument("--ser", type=_float, required=True)
        p.add_argument("--sigma-income", type=_float, default=0.0)
        p.add_argument("--sigma-market", type=_float, default=0.0)
        _add_field_flags(p, RiskParams)
        p.set_defaults(func=_cmd_risk)

    if p := add("simulate", "simulate income or savings paths", "stochastic"):
        p.add_argument("--kind", choices=["income", "savings"], default="income")
        p.add_argument("--start", type=_parse_money_arg, required=True)
        p.add_argument("--mu", type=_float, default=0.0)
        p.add_argument("--sigma-income", type=_float, default=0.0)
        p.add_argument("--contribution", type=_parse_money_arg, default=Money.zero())
        p.add_argument("--rate", type=_float, default=0.0)
        p.add_argument("--sigma-market", type=_float, default=0.0)
        p.add_argument("--horizon-years", type=_parse_fraction_arg, required=True)
        p.add_argument("--dt-years", type=_parse_fraction_arg, default=PathConfig.dt_years)
        p.add_argument("--trials", type=_int, default=1)
        p.add_argument("--seed", type=_int, default=0)
        p.set_defaults(func=_cmd_simulate)

    if p := add(
        "stress",
        "Monte Carlo stress test from profile and scenario files",
        "stress",
        "stochastic",
    ):
        p.add_argument("--profiles", required=True)
        p.add_argument("--scenarios", required=True)
        p.add_argument("--rules", default="one_third", help="comma list of rule names")
        p.add_argument("--trials", type=_int, default=1000)
        p.add_argument("--horizon-years", type=_parse_fraction_arg, default=10.0)
        p.add_argument("--seed", type=_int, default=0)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--output")
        p.add_argument("--compare", action="store_true")
        p.set_defaults(func=_cmd_stress)

    if p := add("shapley", "fair split of pooled household value", "game"):
        _add_coalition_flags(p)
        p.set_defaults(func=_cmd_shapley)

    if p := add("coalition", "value of one coalition", "game"):
        _add_coalition_flags(p)
        p.add_argument("--members", required=True, help="comma list of member indices")
        p.add_argument("--check-superadditive", action="store_true")
        p.set_defaults(func=_cmd_coalition)

    if p := add("plan", "multi-period allocation plan", "dynamic"):
        p.add_argument("--income", type=_parse_money_arg, required=True)
        p.add_argument("--debt", type=_parse_money_arg, default=Money.zero())
        p.add_argument("--savings", type=_parse_money_arg, default=Money.zero())
        p.add_argument("--horizon", type=_int, default=5)
        _add_field_flags(p, DynamicConfig, _PLAN_FIELDS)
        p.set_defaults(func=_cmd_plan)

    if p := add("adjust", "volatility-adjusted allocation", "adjust", "risk"):
        p.add_argument("--income", type=_parse_money_arg, required=True)
        p.add_argument("--sigma-income", type=_float, required=True)
        p.add_argument("--sigma-market", type=_float, required=True)
        p.add_argument(
            "--mode", choices=[m.value for m in AdjustMode], default="residual_expenses"
        )
        _add_field_flags(p, RiskParams)
        p.set_defaults(func=_cmd_adjust)

    if p := add("report", "re-emit a JSON report as CSV or JSON"):
        p.add_argument("--input", required=True)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--output")
        p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Reports and errors carry text from UTF-8 files: print as UTF-8
    # whatever the locale.
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):  # not an io.StringIO
            stream.reconfigure(encoding="utf-8", errors=stream.errors)
    # No top-level option takes a value, so argparse runs the first word
    # that is not an option as the command, if it names one.
    parser = build_parser(next((arg for arg in argv if not arg.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error already reported
        return exc.code if isinstance(exc.code, int) else 0
    try:
        with warnings.catch_warnings():
            # numpy reports float overflow as a RuntimeWarning: make it one
            # error line, not a warning beside a meaningless result.
            warnings.simplefilter("error", RuntimeWarning)
            return args.func(args)
    except (ValueError, ArithmeticError, RuntimeWarning, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1


if __name__ == "__main__":
    sys.exit(main())
