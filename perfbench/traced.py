"""Traced run: per-layer spans and counts for one workload.

The workload's commands, plus small probe commands for the layers the
workload does not reach, run in-process through ``thirdrule.cli.main``.
Each iteration makes three passes over them:

1. untraced at THIRDRULE_THREADS=1,
2. untraced at THIRDRULE_THREADS=nproc (pool speed-up, byte identity),
3. traced at THIRDRULE_THREADS=1, with the module-level names that the
   CLI and the stress harness call replaced by span-recording wrappers
   from this file.  The program itself is not changed.

Iterations repeat until ``--seconds`` have passed; each per-layer metric
is the median over iterations, and the exact counts must agree across
iterations.  Afterwards every command runs once more through the CLI in
a fresh interpreter at nproc threads, and its stdout must be
byte-identical to the in-process outputs (so the 1-thread traced report
equals the multi-thread report), and to the pinned digest of its argv.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import os
import statistics
import sys
import time
import traceback
from collections import Counter
from time import perf_counter_ns

import common

sys.path.insert(0, str(common.SRC))

# (attribute of thirdrule.cli, span name): the layer calls the CLI makes.
CLI_CALLS = (
    ("load_profiles", "cli.load_profiles"),
    ("load_scenarios", "cli.load_scenarios"),
    ("emit_report", "cli.emit_report"),
    ("compare_rules", "stress.compare_rules"),
    ("policy_adjustments", "dynamic.policy_adjustments"),
    ("shapley_values", "game.shapley_values"),
    ("is_superadditive", "game.is_superadditive"),
    ("coalition_value", "game.coalition_value"),
    ("rule_allocation", "domain.rule_allocation"),
    ("bankruptcy_probability", "risk.bankruptcy_probability"),
    ("classify_stability", "risk.classify_stability"),
    ("adjustment_factors", "adjust.adjustment_factors"),
    ("adjusted_allocation", "adjust.adjusted_allocation"),
)

EXACT_COUNTS = (
    "stress.live_month_ratio",
    "stress.trials_defaulted",
    "stochastic.streams_per_trial",
    "game.coalition_values",
)

SUBPROCESS_REPEATS = 5
GUARD_CALLS = 2000
GUARD_FILE_CALLS = 50


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent, run_id];
    parent is the index of the enclosing span, -1 for a root."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0
        self.counts: Counter = Counter()
        self.trial_streams: set[tuple[int, int]] = set()
        self.stress_results: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0, 0, parent, self.run_id])
        self.stack.append(idx)
        self.spans[idx][1] = perf_counter_ns()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self.stack.pop()

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced


class _TracedGenerator:
    """Stands in for a trial's numpy Generator so its draws get a span."""

    def __init__(self, rng, tracer: Tracer) -> None:
        self._rng = rng
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        idx = self._tracer.open("stochastic.standard_normal")
        try:
            return self._rng.standard_normal(*args, **kwargs)
        finally:
            self._tracer.close(idx)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Swap span-recording wrappers into the CLI, stress and game module
    namespaces for the duration of the block."""
    from thirdrule import cli, dynamic, game, stress

    saved = []

    def patch(module, attr, replacement):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    for attr, name in CLI_CALLS:
        patch(cli, attr, tracer.wrap(name, getattr(cli, attr)))

    real_run_stress = cli.run_stress

    def run_stress(*args, **kwargs):
        rows = real_run_stress(*args, **kwargs)
        tracer.stress_results.append(rows)
        return rows

    patch(cli, "run_stress", tracer.wrap("stress.run_stress", run_stress))
    # run_stress aggregates each cell once.  At 1 thread it hands
    # _aggregate a lazy map, so the cell's stream derivation and trials
    # run, and nest, inside this span.
    patch(stress, "_aggregate", tracer.wrap("stress.cell", stress._aggregate))

    real_solve = cli.solve_plan

    def solve_plan(initial, cfg):
        idx = tracer.open("dynamic.solve_plan")
        try:
            policy = real_solve(initial, cfg)
        finally:
            tracer.close(idx)
        horizon, *grid = policy.numerators.shape[:4]
        tracer.counts["plan_actions"] += len(dynamic._simplex_actions(cfg.action_step)[0])
        tracer.counts["plan_nodes"] += math.prod(grid)
        tracer.counts["plan_periods"] += horizon
        return policy

    patch(cli, "solve_plan", solve_plan)

    real_derive = stress.derive_trial_rng

    def derive_trial_rng(master_seed, trial_index):
        idx = tracer.open("stochastic.derive_trial_rng")
        try:
            rng = real_derive(master_seed, trial_index)
        finally:
            tracer.close(idx)
        tracer.counts["streams"] += 1
        tracer.trial_streams.add((master_seed, trial_index))
        return _TracedGenerator(rng, tracer)

    patch(stress, "derive_trial_rng", derive_trial_rng)

    real_trial = stress.run_trial

    def run_trial(profile, rule, scenario, horizon_months, rng):
        idx = tracer.open("stress.run_trial")
        try:
            outcome = real_trial(profile, rule, scenario, horizon_months, rng)
        finally:
            tracer.close(idx)
        tracer.counts["trials"] += 1
        tracer.counts["months_total"] += horizon_months
        tracer.counts["months_walked"] += (
            outcome.default_month if outcome.defaulted else horizon_months
        )
        tracer.counts["defaulted"] += outcome.defaulted
        return outcome

    patch(stress, "run_trial", run_trial)
    patch(stress, "mix_correlated", tracer.wrap("stochastic.mix_correlated", stress.mix_correlated))
    patch(stress, "income_levels", tracer.wrap("stochastic.income_levels", stress.income_levels))

    real_value = game._value_cents

    def value_cents(spec, mask):
        if tracer.current() == "game.shapley_values":
            tracer.counts["coalition_values"] += 1
        return real_value(spec, mask)

    patch(game, "_value_cents", value_cents)
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def run_inprocess(command: common.Command, threads: int, tracer: Tracer | None = None):
    """(wall_s, returncode, stdout, stderr) of cli.main on the command."""
    from thirdrule import cli

    os.environ["THIRDRULE_THREADS"] = str(threads)
    out, err = io.StringIO(), io.StringIO()
    idx = None
    if tracer is not None:
        tracer.run_id += 1
        idx = tracer.open("cli.command")
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(command.argv))
        except Exception:
            traceback.print_exc()
            rc = 1
    wall = time.perf_counter() - start
    if idx is not None:
        tracer.close(idx)
    return wall, rc, out.getvalue().encode(), err.getvalue().encode()


def self_times(spans: list[list]) -> list[int]:
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def nesting_problems(spans: list[list]) -> list[str]:
    problems = []
    for i, (name, start, end, parent, run_id) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if not (p[1] <= start and end <= p[2] and p[4] == run_id):
                problems.append(f"span {i} {name} lies outside its parent {p[0]}")
    for i, self_ns in enumerate(self_times(spans)):
        if self_ns < 0:
            problems.append(f"span {i} {spans[i][0]} has negative self time")
    return problems


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self time in ms."""
    summary: dict[str, dict] = {}
    for (name, start, end, _, _), self_ns in zip(spans, self_times(spans)):
        entry = summary.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["total_ms"] += (end - start) / 1e6
        entry["self_ms"] += self_ns / 1e6
    return summary


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans, counts = tracer.spans, tracer.counts
    selfs = self_times(spans)
    total: Counter = Counter()
    calls: Counter = Counter()
    trial_ns_by_cell: Counter = Counter()
    for (name, start, end, parent, _), self_ns in zip(spans, selfs):
        total[name] += end - start
        total["self:" + name] += self_ns
        calls[name] += 1
        if name == "stress.run_trial":
            trial_ns_by_cell[parent] += end - start
    cells = [(i, s[2] - s[1]) for i, s in enumerate(spans) if s[0] == "stress.cell"]
    draws_ns = (
        total["stochastic.standard_normal"]
        + total["stochastic.mix_correlated"]
        + total["stochastic.income_levels"]
    )
    solve_s = total["dynamic.solve_plan"] / 1e9
    plan_calls = calls["dynamic.solve_plan"]
    actions = counts["plan_actions"] / plan_calls
    nodes = counts["plan_nodes"] / plan_calls
    return {
        "stress.us_per_live_month": total["self:stress.run_trial"] / 1e3 / counts["months_walked"],
        "stress.cell_ms": statistics.fmean(ns for _, ns in cells) / 1e6,
        "stress.overhead_ms": statistics.fmean(ns - trial_ns_by_cell[i] for i, ns in cells) / 1e6,
        "stress.live_month_ratio": counts["months_walked"] / counts["months_total"],
        "stress.trials_defaulted": counts["defaulted"],
        "stochastic.derive_us_per_trial": total["stochastic.derive_trial_rng"] / 1e3 / calls["stochastic.derive_trial_rng"],
        "stochastic.draw_us_per_trial": draws_ns / 1e3 / calls["stress.run_trial"],
        "stochastic.streams_per_trial": counts["streams"] / len(tracer.trial_streams),
        "dynamic.solve_ms": solve_s * 1e3 / plan_calls,
        "dynamic.period_ms": solve_s * 1e3 / counts["plan_periods"],
        "dynamic.node_actions_per_s": actions * nodes * counts["plan_periods"] / solve_s,
        "dynamic.gather_mb_per_period": 4 * actions * nodes * 8 / 1e6,
        "game.shapley_ms": total["game.shapley_values"] / 1e6 / calls["game.shapley_values"],
        "game.superadditive_ms": total["game.is_superadditive"] / 1e6 / calls["game.is_superadditive"],
        "game.coalition_values": counts["coalition_values"] / calls["game.shapley_values"],
    }


def _per_call_s(fn, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def guard_metrics(stress_command: common.Command, stress_rows) -> dict[str, float]:
    """Sub-millisecond layers, timed over many calls."""
    from thirdrule.cli import load_profiles, load_scenarios, metrics_rows, render_report
    from thirdrule.domain import AllocationRule, Money, rule_allocation
    from thirdrule.utility_opt import UtilityParams, optimal_allocation

    argv = stress_command.argv
    profiles = argv[argv.index("--profiles") + 1]
    scenarios = argv[argv.index("--scenarios") + 1]
    rule = AllocationRule.named("fifty_thirty_twenty")
    params = UtilityParams.symmetric()
    income = Money.of("60000")
    rows = metrics_rows(stress_rows)
    return {
        "cli.load_inputs_ms": 1e3 * _per_call_s(
            lambda: (load_profiles(profiles), load_scenarios(scenarios)), GUARD_FILE_CALLS),
        "cli.render_ms": 1e3 * _per_call_s(lambda: render_report(rows, "csv"), GUARD_FILE_CALLS),
        "domain.rule_allocation_us": 1e6 * _per_call_s(
            lambda: rule_allocation(rule, income), GUARD_CALLS),
        "utility_opt.optimal_allocation_us": 1e6 * _per_call_s(
            lambda: optimal_allocation(params, income), GUARD_CALLS),
    }


def interpreter_metrics(env: dict[str, str]) -> tuple[dict[str, float], list[str]]:
    """Cold-start costs, each the median of fresh interpreters."""
    floor, numpy_ms, problems = [], [], []
    timer = "import time; t = time.perf_counter(); import numpy; print(repr((time.perf_counter() - t) * 1e3))"
    for _ in range(SUBPROCESS_REPEATS):
        floor.append(common.run_child(["-c", "pass"], env).wall_s * 1e3)
        child = common.run_child(["-c", timer], env)
        if child.returncode != 0:
            problems.append("cli: import numpy failed in a fresh interpreter")
            continue
        numpy_ms.append(float(child.stdout))
    return {
        "cli.interpreter_floor_ms": statistics.median(floor),
        "cli.numpy_import_ms": statistics.median(numpy_ms) if numpy_ms else 0.0,
    }, problems


def traced_run(work: common.Workload, seconds: float) -> tuple[dict, dict]:
    import thirdrule.cli  # noqa: F401  (import cost stays out of the passes)

    os.chdir(common.ROOT)
    threads = common.nproc()
    saved_threads = os.environ.get("THIRDRULE_THREADS")
    commands = work.commands + work.probes
    pinned = common.pinned_digests()
    reference: dict[str, bytes] = {}
    problems: list[str] = []
    attempted = failed = 0

    def check(command, rc, out, err):
        nonlocal attempted, failed
        found = common.check_output(command, rc, out, err, reference, pinned)
        attempted += 1
        failed += bool(found)
        problems.extend(found)

    stress_cmds = [c for c in commands if c.is_stress]
    per_iteration: list[dict[str, float]] = []
    pass_walls: dict[str, list[float]] = {"untraced_1": [], "traced_1": []}
    for command in commands:  # warm-up: first calls pay lazy imports and caches
        check(command, *run_inprocess(command, 1)[1:])
    start = time.perf_counter()
    try:
        while not per_iteration or time.perf_counter() - start < seconds:
            walls = {}
            for mode, n_threads in (("untraced_1", 1), ("untraced_n", threads)):
                walls[mode] = {}
                for command in commands:
                    wall, rc, out, err = run_inprocess(command, n_threads)
                    check(command, rc, out, err)
                    walls[mode][command] = wall
            tracer = Tracer()
            walls["traced_1"] = {}
            with instrumented(tracer):
                for command in commands:
                    wall, rc, out, err = run_inprocess(command, 1, tracer)
                    check(command, rc, out, err)
                    walls["traced_1"][command] = wall
            problems.extend(nesting_problems(tracer.spans))
            metrics = layer_metrics(tracer)
            metrics.update(guard_metrics(stress_cmds[0], tracer.stress_results[0]))
            metrics["stress.pool_speedup"] = (
                sum(walls["untraced_1"][c] for c in stress_cmds)
                / sum(walls["untraced_n"][c] for c in stress_cmds)
            )
            for mode, walls_s in pass_walls.items():
                walls_s.append(sum(walls[mode].values()))
            metrics["trace.overhead_ratio"] = (
                pass_walls["traced_1"][-1] / pass_walls["untraced_1"][-1]
            )
            per_iteration.append(metrics)
    finally:
        if saved_threads is None:
            os.environ.pop("THIRDRULE_THREADS", None)
        else:
            os.environ["THIRDRULE_THREADS"] = saved_threads

    env = common.child_env(threads)
    for command in commands:
        child = common.run_cli(command, env)
        check(command, child.returncode, child.stdout, child.stderr)
    for command in common.canary_commands(work):
        child = common.run_cli(command, env)
        check(command, child.returncode, child.stdout, child.stderr)
    cold, cold_problems = interpreter_metrics(env)
    problems.extend(cold_problems)

    for name in EXACT_COUNTS:
        seen = {m[name] for m in per_iteration}
        if len(seen) != 1:
            problems.append(f"{name} differs between iterations: {sorted(seen)}")

    units = {m["name"]: m["unit"] for m in common.load_benchmark()["per_layer"]}
    values = {name: statistics.median(m[name] for m in per_iteration) for name in per_iteration[0]}
    values.update(cold)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    stem = common.out_stem(work.name, work.seed, 1, work.scale)
    common.OUT_DIR.mkdir(exist_ok=True)
    span_names = sorted({s[0] for s in tracer.spans})
    index = {name: i for i, name in enumerate(span_names)}
    with gzip.open(stem.with_suffix(".spans.json.gz"), "wt") as handle:
        json.dump(
            {
                "fields": ["name", "start_ns", "end_ns", "parent", "run_id", "self_ns"],
                "names": span_names,
                "spans": [
                    [index[s[0]], s[1], s[2], s[3], s[4], self_ns]
                    for s, self_ns in zip(tracer.spans, self_times(tracer.spans))
                ],
            },
            handle,
        )
    record = {
        "iterations": len(per_iteration),
        "samples": {name: len(per_iteration) for name in per_iteration[0]},
        "per_iteration": per_iteration,
        "span_summary": summarize(tracer.spans),
        "tracing_overhead_ratio": values["trace.overhead_ratio"],
        "traced_pass_walls_s": pass_walls["traced_1"],
        "untraced_pass_walls_s": pass_walls["untraced_1"],
        "probes": [list(c.argv) for c in work.probes],
        "spans_file": str(stem.with_suffix(".spans.json.gz").relative_to(common.ROOT)),
        "problems": problems,
    }
    result = common.result_line(not problems, attempted, failed, metrics)
    return result, record
