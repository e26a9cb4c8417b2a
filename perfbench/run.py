"""thirdrule benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  ``--trace 0`` runs the workload
through the ``thirdrule`` CLI, one fresh interpreter per command and one
command at a time, with THIRDRULE_THREADS=1, and reports the end-to-end metrics of
BENCHMARK.json, with every time scaled to the speed of a fixed
reference job run between passes (see Timeline).
``--trace 1`` runs the same commands in-process with spans around each
layer and reports the per-layer metrics (see traced.py).  The last line
of stdout is the JSON result; the run record goes to stderr and, with
the spans, to .perfbench_out/.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import common
import reference


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--scale", choices=["full", "tiny"], default="full",
        help="tiny shrinks every command for the self-test; digests apply only to full",
    )
    return parser.parse_args(argv)


SETUP_REPEATS = 11
TIMED_THREADS = 1


class Timeline:
    """Children of one timed run in the order they ran, with the speed
    reference (reference.py) run between passes.

    The host's speed drifts by tens of percent over seconds to minutes,
    and a workload command slows with it.  So each sample is reported at
    the reference speed: its wall time times the nominal reference time
    over the mean of the two reference runs around it.  The raw times
    and the reference runs go to the run record.
    """

    def __init__(self, env: dict[str, str], problems: list[str]) -> None:
        self.env = env
        self.problems = problems
        self.references: list[float] = []
        # (wall_s, index of the reference run just before it)
        self.samples: list[tuple[float, int]] = []

    def reference(self) -> None:
        child = common.run_child([str(common.BENCH_DIR / "reference.py")], self.env)
        if child.returncode != 0 or child.stdout.decode().strip() != reference.CHECKSUM:
            self.problems.append("reference.py failed or printed a wrong checksum")
        self.references.append(child.wall_s)

    def add(self, wall_s: float) -> int:
        self.samples.append((wall_s, len(self.references) - 1))
        return len(self.samples) - 1

    def setup(self) -> int:
        """Time one ``import thirdrule.cli`` in a fresh interpreter."""
        child = common.run_child(["-c", "import thirdrule.cli"], self.env)
        if child.returncode != 0:
            self.problems.append("setup: import thirdrule.cli failed: "
                                 + child.stderr.decode("utf-8", "replace").strip()[-500:])
        return self.add(child.wall_s)

    def scaled(self, index: int) -> float:
        wall, before = self.samples[index]
        around = (self.references[before] + self.references[before + 1]) / 2.0
        return wall * reference.NOMINAL_S / around


def timed_run(work: common.Workload, seconds: float) -> tuple[dict, dict]:
    # Only the stress harness reads THIRDRULE_THREADS.  At 2 threads its
    # GIL-bound trials pass the lock between CPUs, which times the host's
    # scheduler more than the program (see README.md).
    env = common.child_env(TIMED_THREADS)
    problems: list[str] = []
    timeline = Timeline(env, problems)
    pinned = common.pinned_digests()
    reference_out: dict[str, bytes] = {}
    setups: list[int] = []
    passes: list[list[int]] = []
    peak_kb = 0
    attempted = failed = 0
    timeline.reference()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        # Set-up samples are spread over the run, one before each pass.
        setups.append(timeline.setup())
        commands = []
        for command in work.commands:
            child = common.run_cli(command, env)
            attempted += 1
            found = common.check_output(
                command, child.returncode, child.stdout, child.stderr, reference_out, pinned)
            failed += bool(found)
            problems.extend(found)
            commands.append(timeline.add(child.wall_s))
            peak_kb = max(peak_kb, child.maxrss_kb)
        passes.append(commands)
        timeline.reference()
    while len(setups) < SETUP_REPEATS:
        setups.append(timeline.setup())
        timeline.reference()
    for command in common.canary_commands(work):
        child = common.run_cli(command, env)
        attempted += 1
        found = common.check_output(
            command, child.returncode, child.stdout, child.stderr, reference_out, pinned)
        failed += bool(found)
        problems.extend(found)
    setup_walls = [timeline.scaled(i) for i in setups]
    pass_walls = [sum(timeline.scaled(i) for i in p) for p in passes]
    cmd_walls = [timeline.scaled(i) * 1000.0 for p in passes for i in p]
    tail_ms, tail_pct, tail_n = common.tail(cmd_walls)
    metrics = {
        "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
        "wall_s": {"value": statistics.median(pass_walls), "unit": "s"},
        "cmd_p50_ms": {"value": statistics.median(cmd_walls), "unit": "ms"},
        "cmd_tail_ms": {"value": tail_ms, "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }
    raw_pass_walls = [sum(timeline.samples[i][0] for i in p) for p in passes]
    record = {
        "samples": {
            "setup_s": len(setup_walls),
            "wall_s": len(pass_walls),
            "cmd_p50_ms": len(cmd_walls),
            "cmd_tail_ms": tail_n,
            "peak_rss_mb": len(cmd_walls),
        },
        "cmd_tail_percentile": tail_pct,
        "reference_nominal_s": reference.NOMINAL_S,
        "reference_walls_s": timeline.references,
        "pass_walls_s": pass_walls,
        "raw_pass_walls_s": raw_pass_walls,
        "raw_wall_s": statistics.median(raw_pass_walls),
        "setup_walls_s": setup_walls,
        "raw_setup_walls_s": [timeline.samples[i][0] for i in setups],
        "problems": problems,
    }
    stress = [c for c in work.commands if c.is_stress]
    if stress:
        trials = int(work.params["trials"])
        months = sum(trials * c.cells * c.horizon_months for c in stress)
        record["trial_months"] = months
        record["trial_months_per_s"] = months / statistics.median(pass_walls)
    result = common.result_line(not problems, attempted, failed, metrics)
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (common.SRC / "thirdrule" / "cli.py").is_file():
        print(f"error: no thirdrule sources under {common.SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    seed = args.seed % 2**64
    work = common.load_workload(args.workload, seed, args.scale)
    if args.trace:
        import traced

        result, record = traced.traced_run(work, args.seconds)
    else:
        result, record = timed_run(work, args.seconds)
    record.update(
        workload=work.name,
        seed=seed,
        scale=work.scale,
        seconds=args.seconds,
        trace=args.trace,
        thirdrule_threads=TIMED_THREADS if not args.trace else [1, common.nproc()],
        params=work.params,
        stress_horizon_months={c.label: c.horizon_months for c in work.commands if c.is_stress},
        commands=[list(c.argv) for c in work.commands],
        machine=common.machine_record(),
        software=common.software_record(),
    )
    common.emit(record, result, common.out_stem(work.name, seed, args.trace, work.scale))
    return 0


if __name__ == "__main__":
    sys.exit(main())
