"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload it checks that a timed run and a traced run report
every metric of BENCHMARK.json with its unit, that the spans the traced
run writes out nest (each inside its parent, self time at least zero),
and that the exact counts repeat exactly across two traced runs.  It
also checks that a copy of the benchmark with wrong pinned digests
reports ``correct: false`` at a seed other than the default, and that
the benchmark fails without a result in a directory holding only
BENCHMARK.json and the benchmark's own files.  Exits non-zero on any
failure.
"""

from __future__ import annotations

import gzip
import json
import math
import shutil
import subprocess
import sys

import common
from traced import EXACT_COUNTS, nesting_problems

SEED = 11


def run(workload: str, trace: int, cwd=common.ROOT, scale="tiny") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--scale", scale],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess, label: str, errors: list[str]) -> dict:
    if proc.returncode != 0:
        errors.append(f"{label}: exit code {proc.returncode}: {proc.stderr[-1000:]}")
        return {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys are {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"{label}: not correct: {proc.stderr[-2000:]}")
    return result


def check_metrics(result: dict, expected: list[dict], label: str, errors: list[str]) -> None:
    metrics = result.get("metrics", {})
    names = {m["name"] for m in expected}
    if set(metrics) != names:
        errors.append(f"{label}: metrics {sorted(set(metrics) ^ names)} missing or extra")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{label}: {m['name']} has unit {got.get('unit')!r}, not {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {m['name']} value {value!r} is not a finite number")


def check_spans(workload: str, errors: list[str]) -> None:
    path = common.out_stem(workload, SEED, 1, "tiny").with_suffix(".spans.json.gz")
    with gzip.open(path, "rt") as handle:
        data = json.load(handle)
    spans = [[data["names"][s[0]], *s[1:5]] for s in data["spans"]]
    if not spans:
        errors.append(f"{workload}: no spans recorded")
    errors.extend(f"{workload}: {problem}" for problem in nesting_problems(spans))


def copy_benchmark(dest, with_src: bool) -> None:
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy(common.ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(common.BENCH_DIR, dest / "perfbench", ignore=skip)
    if with_src:
        shutil.copytree(common.SRC, dest / "src", ignore=skip)


def check_wrong_digests(errors: list[str]) -> None:
    """With the pinned digest of a seed-free command and of a seed-0
    stress command altered, runs at a non-default seed must fail: the
    first is checked directly, the second through the seed-0 canary."""
    copy = common.OUT_DIR / "wrong_digests"
    copy_benchmark(copy, with_src=True)
    digests_path = copy / "perfbench" / "fixtures" / "digests.json"
    digests = json.loads(digests_path.read_text())
    allocate = " ".join(common.load_workload("cli_quick", SEED, "full").commands[0].argv)
    stress = " ".join(common.load_workload("stress_full", common.default_seed(), "full").commands[0].argv)
    for key in (allocate, stress):
        digests[key] = "0" * 64
    digests_path.write_text(json.dumps(digests))
    try:
        for workload, trace, scale in (("cli_quick", 0, "tiny"), ("cli_quick", 1, "tiny"),
                                       ("stress_full", 0, "full")):
            label = f"wrong digests, {workload} trace {trace}"
            proc = run(workload, trace, cwd=copy, scale=scale)
            if proc.returncode != 0:
                errors.append(f"{label}: exit code {proc.returncode}: {proc.stderr[-1000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if result["correct"] or result["failed"] < 1 or "pinned digest" not in proc.stderr:
                errors.append(f"{label}: the wrong digest was not caught: {result}")
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def check_bare_copy(errors: list[str]) -> None:
    """Only BENCHMARK.json and perfbench/: the run must fail, printing no result."""
    bare = common.OUT_DIR / "bare"
    copy_benchmark(bare, with_src=False)
    try:
        proc = run("stress_full", 0, cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            errors.append("bare copy: the benchmark did not fail without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = common.load_benchmark()
    errors: list[str] = []
    for workload in (w["name"] for w in bench["workloads"]):
        timed = result_of(run(workload, 0), f"{workload} trace 0", errors)
        check_metrics(timed, bench["end_to_end"], f"{workload} trace 0", errors)
        counts = []
        for attempt in (1, 2):
            label = f"{workload} trace 1 (run {attempt})"
            traced = result_of(run(workload, 1), label, errors)
            check_metrics(traced, bench["per_layer"], label, errors)
            counts.append({n: traced.get("metrics", {}).get(n, {}).get("value") for n in EXACT_COUNTS})
        check_spans(workload, errors)
        if counts[0] != counts[1]:
            errors.append(f"{workload}: exact counts differ between runs: {counts}")
        print(f"{workload}: checked, counts {counts[0]}", flush=True)
    check_wrong_digests(errors)
    check_bare_copy(errors)
    for error in errors:
        print("FAIL " + error)
    print("selftest: " + ("FAIL" if errors else "PASS"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
