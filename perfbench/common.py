"""Shared pieces of the thirdrule benchmark: workload definitions, child
process timing, output checks, statistics and the run record."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIXTURES = BENCH_DIR / "fixtures"
OUT_DIR = ROOT / ".perfbench_out"
SRC = ROOT / "src"

REPORT_COLUMNS = [
    "profile_id",
    "rule",
    "scenario",
    "default_rate",
    "median_clearance_years",
    "mean_final_savings",
    "months_coverage",
    "dti_violation_rate",
    "ser_violation_rate",
]
RATE_COLUMNS = ("default_rate", "dti_violation_rate", "ser_violation_rate")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Command:
    """One CLI invocation: argv after ``python -m thirdrule.cli``."""

    label: str
    argv: tuple[str, ...]
    cells: int = 0  # stress report rows expected, 0 for other commands
    horizon_months: int = 0

    @property
    def is_stress(self) -> bool:
        return self.argv[0] == "stress"


@dataclass
class Workload:
    name: str
    seed: int
    scale: str
    commands: list[Command]
    probes: list[Command]
    params: dict


def _expand(spec: dict, layer: str, seed: int, scale: str) -> tuple[list[Command], dict]:
    params = dict(spec["params"][scale])
    values = dict(params, seed=seed)
    commands = []
    for idx, template in enumerate(spec["commands"]):
        argv = tuple(part.format(**values) for part in template)
        commands.append(
            Command(
                label=f"{layer}[{idx}] {argv[0]}",
                argv=argv,
                cells=spec.get("cells", 0),
                horizon_months=spec.get("horizon_months", 0),
            )
        )
    return commands, params


def load_workload(name: str, seed: int, scale: str) -> Workload:
    data = json.loads((FIXTURES / "workloads.json").read_text())
    if name not in data["workloads"]:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(data['workloads'])}")
    spec = data["workloads"][name]
    commands, params = _expand(spec, name, seed, scale)
    probes: list[Command] = []
    for probe in spec["probes"]:
        probes.extend(_expand(data["probes"][probe], probe, seed, scale)[0])
    return Workload(name, seed, scale, commands, probes, params)


def default_seed() -> int:
    return json.loads((FIXTURES / "workloads.json").read_text())["default_seed"]


def pinned_digests() -> dict[str, str]:
    """sha256 of stdout for each command line of the workloads and probes
    at the default seed and full scale, taken from the unmodified program.
    The keys are whole argvs, so a command is checked whenever its argv
    matches: seed-free commands at every seed, stress commands at seed 0."""
    return json.loads((FIXTURES / "digests.json").read_text())


def canary_commands(work: Workload) -> list[Command]:
    """Commands of the same workload at the default seed and full scale
    that this run does not already execute: the seed-0 stress commands
    when the run uses another seed.  Run once, untimed, so that the
    pinned digests check every command whatever seed the run uses."""
    if work.scale != "full":
        return []
    pinned = load_workload(work.name, default_seed(), "full")
    seen = {c.argv for c in work.commands + work.probes}
    return [c for c in pinned.commands + pinned.probes if c.argv not in seen]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["THIRDRULE_THREADS"] = str(threads)
    return env


@dataclass
class ChildResult:
    wall_s: float
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def run_child(args: list[str], env: dict[str, str]) -> ChildResult:
    """Run one fresh interpreter to completion; wall time covers spawn to
    reap, and the peak RSS is that child's own (from wait4)."""
    OUT_DIR.mkdir(exist_ok=True)
    with open(os.devnull, "rb") as devnull, \
            _tmpfile() as out_file, _tmpfile() as err_file:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdin=devnull, stdout=out_file, stderr=err_file, env=env, cwd=ROOT,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out_file.seek(0)
        err_file.seek(0)
        return ChildResult(wall, proc.returncode, out_file.read(), err_file.read(), usage.ru_maxrss)


def _tmpfile():
    return tempfile.TemporaryFile(dir=OUT_DIR)


def run_cli(command: Command, env: dict[str, str]) -> ChildResult:
    return run_child(["-m", "thirdrule.cli", *command.argv], env)


def check_output(
    command: Command,
    returncode: int,
    stdout: bytes,
    stderr: bytes,
    reference: dict[str, bytes],
    pinned: dict[str, str],
) -> list[str]:
    """Problems with one command's result, empty when it is correct.

    A command fails on a non-zero exit, a traceback on stderr, stdout
    that differs from the digest pinned for its exact argv, or stdout
    that differs from the first run of the same argv in this benchmark
    run.  Stress reports are also checked for shape.
    """
    problems = []
    key = " ".join(command.argv)
    if returncode != 0:
        problems.append(f"{command.label}: exit code {returncode}")
    if b"Traceback" in stderr:
        problems.append(f"{command.label}: traceback on stderr")
    if key in pinned and digest(stdout) != pinned[key]:
        problems.append(f"{command.label}: stdout differs from the pinned digest")
    first = reference.setdefault(key, stdout)
    if first != stdout:
        problems.append(f"{command.label}: stdout differs between runs of the same command")
    if command.is_stress and returncode == 0:
        problems.extend(_check_stress_report(command, stdout))
    return problems


def _check_stress_report(command: Command, stdout: bytes) -> list[str]:
    text = stdout.decode("utf-8", "replace")
    report = "".join(line for line in text.splitlines(True) if not line.startswith("compare "))
    rows = list(csv.reader(io.StringIO(report)))
    if not rows or rows[0] != REPORT_COLUMNS:
        return [f"{command.label}: report header is wrong"]
    body = rows[1:]
    problems = []
    if len(body) != command.cells:
        problems.append(f"{command.label}: {len(body)} report rows, expected {command.cells}")
    keys = [tuple(r[:3]) for r in body]
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        problems.append(f"{command.label}: report rows are not unique and sorted")
    for row in body:
        record = dict(zip(REPORT_COLUMNS, row))
        for col in RATE_COLUMNS:
            try:
                ok = 0.0 <= float(record.get(col, "")) <= 1.0
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"{command.label}: {col} {record.get(col)!r} is not a rate")
    return problems


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile that still has
    at least ten samples above it, never below the median."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 10  # 1-based rank of the value with ten samples above it
    if rank >= (n + 1) // 2 and rank >= 1:
        return ordered[rank - 1], 100.0 * rank / n, n
    return statistics.median(ordered), 50.0, n


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_record() -> dict:
    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        size = _read(str(index / "size")).strip()
        if level:
            caches[f"L{level}-{kind.lower()}"] = size
    mem_total = ""
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal"):
            mem_total = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model,
        "caches": caches,
        "mem_total": mem_total,
        "platform": platform.platform(),
    }


def software_record() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest(SRC / "thirdrule"),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git
    without running git; None otherwise."""
    head = ROOT / ".git" / "HEAD"
    text = _read(str(head)).strip()
    if text.startswith("ref: "):
        ref = text[5:]
        value = _read(str(ROOT / ".git" / ref)).strip()
        if value:
            return value
        for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
        return None
    return text or None


def _tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(directory)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def out_stem(workload: str, seed: int, trace: int, scale: str) -> Path:
    return OUT_DIR / f"{workload}-seed{seed}-trace{trace}-{scale}"


def emit(record: dict, result: dict, stem: Path) -> None:
    """Write the run record beside the result, echo it to stderr, and
    print the result as the last line of stdout."""
    OUT_DIR.mkdir(exist_ok=True)
    stem.with_suffix(".json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    print("run record: " + json.dumps(record, sort_keys=True), file=sys.stderr)
    print(json.dumps(result), flush=True)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
