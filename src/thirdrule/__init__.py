"""Budget allocation by thirds: utilities, risk, games, plans, stress tests.

The package splits an income into debt service, savings, and essential
expenses, defends the equal split as the optimum of a symmetric
preference model, prices deviations through a bankruptcy-risk index,
adapts the split to income and market volatility, divides pooled gains
fairly across household members, plans allocations over multiple
periods, and stress tests rules under adverse scenarios with seeded
Monte Carlo.

Importing the package loads none of its modules.  A public name loads
its module on first access (PEP 562), so a command pays only for the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "adjust": (
        "MAX_SHIFT",
        "AdjustMode",
        "AdjustmentFactors",
        "adjusted_allocation",
        "adjustment_factors",
        "zero_sum_defect",
    ),
    "domain": (
        "Allocation",
        "AllocationRule",
        "HouseholdProfile",
        "HouseholdType",
        "IncomeBand",
        "Money",
        "RuleId",
        "SignedMoney",
        "check_fractions",
        "classify_income",
        "dti",
        "make_allocation",
        "rule_allocation",
        "ser",
        "total_income",
    ),
    "dynamic": (
        "DEFAULT_ACTION_STEP",
        "DEFAULT_GRID_NODES",
        "DynamicConfig",
        "HouseholdState",
        "Policy",
        "default_config",
        "policy_adjustments",
        "solve_plan",
        "transition",
    ),
    "errors": ("DebtNeverClearsError", "DomainError", "ValidationError"),
    "game": (
        "CoalitionSpec",
        "MultigenAllocation",
        "ShapleyResult",
        "best_response_check",
        "coalition_value",
        "is_superadditive",
        "nested_multigen_allocation",
        "shapley_values",
    ),
    "risk": (
        "DEFAULT_DTI_LIMIT",
        "DEFAULT_SER_FLOOR",
        "RiskParams",
        "StabilityFlags",
        "bankruptcy_probability",
        "classify_stability",
        "std_normal_cdf",
    ),
    "stochastic": (
        "THREADS_ENV_VAR",
        "PathConfig",
        "SimulatedPath",
        "derive_stream_seed",
        "derive_trial_rng",
        "income_levels",
        "mix_correlated",
        "simulate_income_path",
        "simulate_savings_path",
    ),
    "stress": (
        "BASELINE_SCENARIO",
        "AnnuityTiming",
        "RuleComparison",
        "ScenarioSpec",
        "StressMetrics",
        "TrialOutcome",
        "compare_rules",
        "debt_clearance_time",
        "run_stress",
        "run_trial",
        "savings_future_value",
    ),
    "utility_opt": (
        "UtilityParams",
        "deviation_utility_loss",
        "optimal_allocation",
        "penalty_coefficient",
        "penalty_quadratic",
        "utility",
        "utility_at",
        "utility_gradient",
        "verify_first_order",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value  # later reads skip this hook
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
