"""Benchmark harness for the topogen CLI.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload tree-sweep --seed 1 --seconds 40 --trace 0

Closed loop with one client: each run of a workload is one fresh child
Python process that generates the inputs from the seed and runs the
workload's commands through ``topogen.cli.main`` one after another. Runs
repeat until the time budget is spent (at least three), and each metric
is the median over runs. With ``--trace 1`` the harness alternates
untraced and traced children and reports per-layer metrics instead.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
record (provenance, per-run numbers, output digests), which is also
written under ``benchmarks/.work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# The host's speed swings by up to 2x, in spells of seconds to minutes, so
# end-to-end times are given at a fixed host speed: the one at which the
# child's reference kernel takes this long.
NOMINAL_KERNEL_S = 0.005

MIN_RUNS = 3
HARD_LIMIT_S = 165.0  # a whole invocation stays well inside three minutes
EXIT_TIMEOUT_S = 10.0


class _EventReader:
    """Reads the child's JSON lines, giving up at a deadline."""

    def __init__(self, stream):
        self.fd = stream.fileno()
        self.buffer = b""

    def next(self, deadline: float) -> dict | None:
        while b"\n" not in self.buffer:
            timeout = deadline - time.perf_counter()
            if timeout <= 0 or not select.select([self.fd], [], [], timeout)[0]:
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return None
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)


def _digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def run_child(workload, seed, grid, trace, cwd: Path, hard_deadline, budget_scale=1.0):
    """Start one child, follow its events and check its outputs.

    Returns a dict with ``setup_s`` and ``wall_s`` at nominal host speed,
    ``setup_raw_s``, ``wall_raw_s`` and ``peak_rss_mb`` (None when the
    child did not get that far, and nominal times when it was traced), one
    result per command (``code``, ``wall_s``, ``wall_raw_s``, ``stdout``,
    ``failure``, ``digest``) and ``spans`` when traced.
    """
    cwd.mkdir(parents=True)
    spec = {"workload": workload.name, "seed": seed, "grid": list(grid), "trace": trace}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    results = [
        {
            "code": None, "wall_s": None, "wall_raw_s": None, "stdout": "",
            "failure": "not reached", "digest": None,
        }
        for _ in workload.commands
    ]
    record = {
        "setup_s": None, "setup_raw_s": None, "wall_s": None, "wall_raw_s": None,
        "peak_rss_mb": None, "commands": results,
    }
    with open(cwd / "stderr.txt", "w", encoding="utf-8") as stderr:
        spawned = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=stderr,
        )
        try:
            events = _EventReader(child.stdout)
            deadline = min(spawned + workload.setup_budget_s * budget_scale, hard_deadline)
            event = events.next(deadline)
            if event is not None:
                record["setup_raw_s"] = time.perf_counter() - spawned - event["probe_s"]
                record["setup_s"] = _nominal(record["setup_raw_s"], event)
                for index, command in enumerate(workload.commands):
                    deadline = min(
                        time.perf_counter() + command.budget_s * budget_scale, hard_deadline
                    )
                    event = events.next(deadline)
                    if event is None:
                        results[index]["failure"] = "timed out or died"
                        break
                    wall_raw_s = event["elapsed_s"] - event["probe_s"]
                    results[index].update(
                        code=event["code"], wall_raw_s=wall_raw_s,
                        wall_s=_nominal(wall_raw_s, event), stdout=event["stdout"],
                        failure=None,
                    )
                else:
                    event = events.next(time.perf_counter() + EXIT_TIMEOUT_S)
                    if event is not None:
                        record["peak_rss_mb"] = event["peak_rss_mb"]
                        record["wall_raw_s"] = sum(r["wall_raw_s"] for r in results)
                        if not trace:
                            record["wall_s"] = sum(r["wall_s"] for r in results)
        finally:
            if child.poll() is None:
                try:
                    child.wait(timeout=EXIT_TIMEOUT_S if record["peak_rss_mb"] else 0)
                except subprocess.TimeoutExpired:
                    child.kill()
                    child.wait()
            child.stdout.close()
    if record["setup_raw_s"] is None:
        results[0]["failure"] = "set-up timed out or died"
    if all(r["failure"] is None for r in results):
        try:
            failures = workload.check(cwd, grid, results)
        except Exception as exc:  # a broken output must not stop the benchmark
            failures = {0: f"check raised {type(exc).__name__}: {exc}"}
        for index, reason in failures.items():
            results[index]["failure"] = reason
    for result, command in zip(results, workload.commands):
        if command.out and (cwd / command.out).is_dir():
            result["digest"] = _digest(cwd / command.out)
    if trace and (cwd / "spans.json").exists():
        record["spans"] = json.loads((cwd / "spans.json").read_text(encoding="utf-8"))
    if any(r["failure"] for r in results):
        record["stderr"] = (cwd / "stderr.txt").read_text(encoding="utf-8")[-2000:]
    return record


def _nominal(seconds: float, event: dict) -> float | None:
    """Seconds at the host speed where the reference kernel takes NOMINAL_KERNEL_S."""
    if event["kernel_s"] is None:
        return None
    return seconds * NOMINAL_KERNEL_S / event["kernel_s"]


def _command_walls(workload, record) -> dict[str, float]:
    walls: dict[str, float] = {}
    for result, command in zip(record["commands"], workload.commands):
        if result["wall_raw_s"] is not None:
            walls[command.name] = walls.get(command.name, 0.0) + result["wall_raw_s"]
    return walls


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def provenance(seed: int) -> dict:
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_workload(name, seed, seconds, trace, grid=None, min_runs=MIN_RUNS, budget_scale=1.0):
    """Run one workload for about ``seconds`` and return its full record.

    ``grid`` and ``budget_scale`` shrink inputs and per-command time
    budgets; the harness's own tests use them.
    """
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    grid = grid or workload.grid
    started = time.perf_counter()
    hard_deadline = started + HARD_LIMIT_S
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    kinds = (False, True) if trace else (False,)
    children: list[tuple[bool, dict]] = []
    digests: list[str | None] = []
    try:
        while True:
            rounds = len(children) // len(kinds)
            elapsed = time.perf_counter() - started
            per_round = elapsed / rounds if rounds else 0.0
            wanted = min_runs if not trace else 1
            if rounds >= wanted and elapsed + per_round > seconds:
                break
            if rounds and elapsed + 1.5 * per_round > HARD_LIMIT_S:
                break
            for traced in kinds:
                cwd = work / f"run-{len(children)}"
                record = run_child(
                    workload, seed, grid, traced, cwd, hard_deadline, budget_scale
                )
                shutil.rmtree(cwd, ignore_errors=True)
                for index, result in enumerate(record["commands"]):
                    if len(digests) <= index:
                        digests.append(result["digest"])
                    elif result["digest"] != digests[index] and not result["failure"]:
                        result["failure"] = "output differs from the first run"
                children.append((traced, record))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    commands = [result for _, record in children for result in record["commands"]]
    failed = sum(1 for result in commands if result["failure"])
    untraced = [record for traced, record in children if not traced]

    def med(values):
        values = [v for v in values if v is not None]
        return median(values) if values else 0.0

    if trace:
        traced_children = [record for traced, record in children if traced and "spans" in record]
        per_layer = tracing.median_metrics(
            [tracing.layer_metrics(record["spans"]) for record in traced_children]
        ) if traced_children else {n: 0.0 for n, _, _ in tracing.PER_LAYER}
        for command in ("ingest", "analyze", "tree", "degree"):
            per_layer[f"{command}_s"] = med(
                _command_walls(workload, record).get(command) for record in untraced
            )
        per_layer["fail_ratio"] = failed / len(commands)
        traced_wall = med(record["wall_raw_s"] for record in traced_children)
        untraced_wall = med(record["wall_raw_s"] for record in untraced)
        per_layer["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else 0.0
        metrics = {n: {"value": per_layer[n], "unit": u} for n, u, _ in tracing.PER_LAYER}
    else:
        values = {
            "setup_s": med(record["setup_s"] for record in untraced),
            "wall_s": med(record["wall_s"] for record in untraced),
            "peak_rss_mb": med(record["peak_rss_mb"] for record in untraced),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in END_TO_END}
    for _, record in children:
        record.pop("spans", None)
        for result in record["commands"]:
            result["stdout"] = result["stdout"][-500:]
    return {
        "workload": name,
        "grid": list(grid),
        "trace": trace,
        "provenance": provenance(seed),
        "digest": hashlib.sha256("".join(d or "-" for d in digests).encode()).hexdigest(),
        "fail_ratio": failed / len(commands),
        "runs": [{"traced": traced, **record} for traced, record in children],
        "summary": {
            "correct": failed == 0,
            "attempted": len(commands),
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "topogen" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'topogen'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # Turn termination into SystemExit, so the running child is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for child in result["runs"]:
        for index, command in enumerate(child["commands"]):
            if command["failure"]:
                print(f"failed: command {index}: {command['failure']}", file=sys.stderr)
    summary = result.pop("summary")
    result.pop("runs")
    print(json.dumps(result))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
