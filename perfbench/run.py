"""End-to-end benchmark of the ``mobius_centers`` command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload presets-n7 --seed 1 --seconds 25 --trace 0

Each workload is a fixed list of ``python -m mobius_centers ...`` tasks.  A
task runs in a fresh process, one at a time, in a closed loop with a single
client, the way the tool is used.  The task list is cycled: every task runs
at least once, and the next task runs while it is expected (from its last
run) to end within ``--seconds`` of measured time.  ``solve_cpu_s`` sums
each task's median.  Every task's output is checked after it exits,
outside the timed window.

Times are CPU seconds (user plus system) of the task processes, from each
child's own rusage.  The reference machine is a share of a virtual host:
while other processes compete for its vCPUs, wall time of the same task can
double, while its CPU time moves by a few percent, because time spent
waiting for a CPU (steal included) is not charged to the process.  Wall
times are printed for people to read but are not metrics.

The last line of stdout is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` one
traced pass follows the untraced runs, and the metrics are the per-layer
metrics.  ``--workload all`` runs every workload and prints one combined
object with metric names prefixed by the workload.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 9
TASK_TIMEOUT_S = 120.0
# Tasks still unstarted this long after the run began fail as timed out, so
# a run ends well inside its 180 s limit even when the program hangs.
RUN_BUDGET_S = 150.0


@dataclass(frozen=True)
class Task:
    argv: tuple[str, ...]
    check: Callable[[bytes], None]


@dataclass(frozen=True)
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    failure: str | None


# --- workloads -------------------------------------------------------------


def generic_pairs(rng: random.Random, count: int = 3) -> list[tuple[Fraction, Fraction]]:
    """Distinct pairs (a, b) of positive rationals with small numerators and
    denominators.  Both are nonzero, so none is a preset (each preset has a
    zero entry) and every product has two terms; see check.dim for why
    positive pairs are generic."""
    pairs: list[tuple[Fraction, Fraction]] = []
    while len(pairs) < count:
        pair = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(2))
        if pair not in pairs:
            pairs.append(pair)
    return pairs


def build_workloads(seed: int) -> dict[str, list[Task]]:
    # Imported here: both need the package, whose presence main() checks first.
    import check
    from mobius_centers.linalg import format_rational

    rng = random.Random(seed)
    archived = (ROOT / "reports" / "hecke_center_support_n4.json").read_bytes()
    # The paper's headline question: generator vectors, constraint rows and
    # two-term +-1 elimination.
    presets_n7 = [
        Task(("dim", f"--algebra={name}", "-n", "7", "--format", "json"),
             partial(check.dim, n=7, preset=True))
        for name in ("nilcoxeter", "0-hecke")
    ]
    # Exact elimination with growing rational coefficients; no preset fast
    # path.  --algebra=a,b keeps a leading '-' from being read as a flag.
    generic_n6 = [
        Task(("dim", f"--algebra={format_rational(a)},{format_rational(b)}",
              "-n", "6", "--format", "json"),
             partial(check.dim, n=6, preset=False))
        for a, b in generic_pairs(rng)
    ]
    # The permutation table, reduced words, union-find and multi-MB JSON.
    classes_n8 = [
        Task(("classes", f"--algebra={name}", "-n", "8", "--format", "json"),
             partial(check.classes, n=8))
        for name in ("nilcoxeter", "0-hecke")
    ]
    # Full algebra products, the Gram matrix and the dual solve.
    dual_n5 = [
        Task(("conjecture", "-n", "5", "--format", "json"), partial(check.conjecture, n=5)),
        Task(("table", "--algebra=0-hecke", "-n", "5", "--format", "json"),
             partial(check.table, n=5)),
        Task(("conjecture", "-n", "4", "--format", "json"),
             partial(check.same_bytes, expected=archived)),
    ]
    workloads = {
        "presets-n7": presets_n7,
        "generic-n6": generic_n6,
        "classes-n8": classes_n8,
        "dual-n5": dual_n5,
    }
    for tasks in workloads.values():
        rng.shuffle(tasks)
    return workloads


# --- processes -------------------------------------------------------------


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], out_path: Path,
          timeout: float) -> tuple[float, float, float, int | None]:
    """Run argv through launch.py with stdout in out_path.

    Returns wall seconds from spawn to exit, the command's own CPU seconds
    and peak resident set in MB, and its exit code, or None if it was killed
    on timeout.
    """
    launcher = subprocess.Popen(
        [sys.executable, "-S", "-I", str(HERE / "launch.py"), str(out_path), str(timeout), *argv],
        stdout=subprocess.PIPE, env=_env(), cwd=ROOT)
    try:
        report, _ = launcher.communicate(timeout=timeout + 30)
    except BaseException:
        launcher.terminate()  # launch.py kills and reaps the command first
        launcher.wait()
        raise
    if launcher.returncode != 0:
        raise RuntimeError(f"launch.py failed with status {launcher.returncode}")
    result = json.loads(report)
    return result["wall_s"], result["cpu_s"], result["rss_mb"], result["code"]


def measure_setup(work: Path) -> tuple[float, float]:
    """Median CPU and wall time of a fresh process that only imports the CLI."""
    cpu_samples, wall_samples = [], []
    for _ in range(SETUP_SAMPLES):
        wall, cpu, _, code = spawn([sys.executable, "-c", "import mobius_centers.cli"],
                                   work / "setup.out", TASK_TIMEOUT_S)
        if code != 0:
            raise SystemExit("error: importing mobius_centers.cli failed")
        cpu_samples.append(cpu)
        wall_samples.append(wall)
    return statistics.median(cpu_samples), statistics.median(wall_samples)


def run_pass(tasks: list[Task], work: Path, deadline: float, checked: list[set[bytes]],
             trace_dir: Path | None = None) -> list[Outcome]:
    """Run the tasks one after another, then check their outputs.

    ``checked[k]`` holds digests of outputs of task k that passed its check.
    The program is deterministic, so a later run whose output is byte-equal
    to a checked one skips the slow schema checks.
    """
    raw = []
    for k, task in enumerate(tasks):
        out = work / f"task{k}.out"
        argv = [sys.executable, "-m", "mobius_centers", *task.argv]
        if trace_dir is not None:
            argv = [sys.executable, str(HERE / "traced_cli.py"),
                    str(trace_dir / f"task{k}.json"), *task.argv]
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raw.append((0.0, 0.0, 0.0, None))
            continue
        raw.append(spawn(argv, out, min(TASK_TIMEOUT_S, remaining)))
    outcomes = []
    for k, (task, (wall, cpu, rss, code)) in enumerate(zip(tasks, raw)):
        failure = None
        if code is None:
            failure = "timed out"
        elif code != 0:
            failure = f"exit status {code}"
        else:
            out = (work / f"task{k}.out").read_bytes()
            digest = hashlib.sha256(out).digest()
            if digest not in checked[k]:
                try:
                    task.check(out)
                    checked[k].add(digest)
                except Exception as exc:  # any bad output is a failed task, never a crash
                    failure = f"check failed: {exc!r}"[:300]
        if failure:
            print(f"  FAILED {' '.join(task.argv)}: {failure}", file=sys.stderr)
        outcomes.append(Outcome(wall, cpu, rss, failure))
    return outcomes


# --- metrics ---------------------------------------------------------------


def layer_metrics(trace_dir: Path, count: int) -> dict[str, float]:
    """Per-layer metrics summed over the traced tasks' span files."""
    total: dict[str, float] = dict.fromkeys(tracer.FUNCTIONS, 0.0)
    self_time = dict(total)
    calls = dict.fromkeys(tracer.FUNCTIONS, 0)
    counts: dict[str, dict[str, int]] = {name: {} for name in tracer.FUNCTIONS}
    for k in range(count):
        path = trace_dir / f"task{k}.json"
        if not path.exists():
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        for acc, part in zip((total, self_time, calls), tracer.span_times(record["spans"])):
            for name, value in part.items():
                acc[name] += value
        for name, values in record["counts"].items():
            tracer.add_counts(counts[name], values)

    metrics: dict[str, float] = {}
    for name in tracer.FUNCTIONS:
        metrics[f"{name}.s"] = total[name]
        metrics[f"{name}.self_s"] = self_time[name]
        metrics[f"{name}.calls"] = calls[name]
        keys = tracer.COUNTERS[name][0] if name in tracer.COUNTERS else ()
        for key in keys:
            metrics[f"{name}.{key}"] = counts[name].get(key, 0)
    for layer, functions in tracer.LAYERS.items():
        metrics[f"{layer}.self_s"] = sum(self_time[f"{layer}.{fn}"] for fn in functions)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    rw = counts["perm.reduced_word"]
    metrics["perm.reduced_word.hit_ratio"] = ratio(
        rw.get("cache_hits", 0), rw.get("cache_hits", 0) + rw.get("cache_misses", 0))
    metrics["algebra.gram_matrix.useful_ratio"] = ratio(
        counts["algebra.gram_matrix"].get("distinct_args", 0), calls["algebra.gram_matrix"])
    metrics["linalg.span.useful_ratio"] = ratio(
        metrics["linalg.span.rank"], metrics["linalg.span.rows_in"])
    return metrics


def run_workload(name: str, tasks: list[Task], seconds: int, trace: bool,
                 work: Path) -> tuple[dict[str, float], int, int]:
    deadline = time.perf_counter() + RUN_BUDGET_S
    setup_s, setup_wall_s = measure_setup(work)
    checked: list[set[bytes]] = [set() for _ in tasks]
    # Per-task runs rather than whole passes: a pass of the n = 7 and n = 8
    # workloads is 12-17 s, so whole passes would leave most of the measured
    # time unused, and more samples per run are what steady the medians.
    runs: list[list[Outcome]] = [[] for _ in tasks]
    measured = 0.0
    for k in itertools.cycle(range(len(tasks))):
        if runs[k] and (measured + runs[k][-1].wall_s > seconds
                        or time.perf_counter() >= deadline):
            break
        [outcome] = run_pass([tasks[k]], work, deadline, [checked[k]])
        runs[k].append(outcome)
        measured += outcome.wall_s
    solve_cpu_s = sum(statistics.median(o.cpu_s for o in r) for r in runs)
    solve_wall_s = sum(statistics.median(o.wall_s for o in r) for r in runs)
    every = [o for r in runs for o in r]
    peak_rss_mb = max(o.rss_mb for o in every)
    metrics = {"solve_cpu_s": solve_cpu_s, "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
    if trace:
        trace_dir = work / "spans"
        trace_dir.mkdir(exist_ok=True)
        traced = run_pass(tasks, work, deadline, checked, trace_dir)
        every += traced
        metrics = layer_metrics(trace_dir, len(tasks))
        metrics["trace.overhead_ratio"] = sum(o.cpu_s for o in traced) / solve_cpu_s
        # Spans are wall-clock intervals inside the task processes.
        in_process = sum(o.wall_s for o in traced) - len(tasks) * setup_wall_s
        metrics["trace.accounted_ratio"] = (
            sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS) / in_process)
    failed = sum(o.failure is not None for o in every)
    counts = ", ".join(str(len(r)) for r in runs)
    print(f"workload {name}: {len(tasks)} task(s), run {counts} time(s)"
          f"{' + 1 traced pass' if trace else ''}")
    print(f"  solve_cpu_s  {solve_cpu_s:.3f} s   (sum of per-task medians)")
    print(f"  solve wall   {solve_wall_s:.3f} s   (not a metric)")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"  setup_s      {setup_s:.4f} s   (wall {setup_wall_s:.4f} s, not a metric)")
    print(f"  fail_ratio   {failed / len(every):.4f}   ({failed} of {len(every)} tasks)")
    for task, r in zip(tasks, runs):
        cpu = statistics.median(o.cpu_s for o in r)
        wall = statistics.median(o.wall_s for o in r)
        rss = max(o.rss_mb for o in r)
        print(f"  task {' '.join(task.argv)}: {cpu:.3f} s CPU, {wall:.3f} s wall, {rss:.1f} MB")
    return metrics, len(every), failed


def main(argv: list[str] | None = None) -> int:
    config = json.loads(CONFIG.read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running task is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "mobius_centers" / "cli.py").is_file():
        print(f"error: no mobius_centers package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "mobius_centers")],
                           cwd=ROOT, timeout=TASK_TIMEOUT_S)
    if build.returncode != 0:
        print("error: compiling the package failed", file=sys.stderr)
        return 2

    wanted = config["per_layer"] if args.trace else config["end_to_end"]
    workloads = build_workloads(args.seed)
    selected = names if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for name in selected:
            metrics, attempted, failed = run_workload(
                name, workloads[name], args.seconds, bool(args.trace), work)
            result["attempted"] += attempted
            result["failed"] += failed
            prefix = f"{name}." if args.workload == "all" else ""
            for metric in wanted:
                result["metrics"][prefix + metric["name"]] = {
                    "value": metrics[metric["name"]], "unit": metric["unit"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
