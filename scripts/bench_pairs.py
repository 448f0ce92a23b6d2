#!/usr/bin/env python3
"""Compare one benchmark workload on two commits, in alternating pairs of runs.

Usage (from the repository root):

    python3 scripts/bench_pairs.py --workload classes-n8 --base main --pairs 10

The base commit and HEAD are exported with ``git archive`` into a temporary
directory, so only committed files are measured.  The pairs take the seeds
``--first-seed`` (1 by default) onwards, so a claim can be re-run on seeds
it was not developed on.  The pair of seed i runs
``perfbench/run.py --workload W --seed i`` once on each checkout, in fresh
processes; which one runs first alternates from pair to pair, so a drift of
the host's speed falls on both sides.  For every
end-to-end metric of BENCHMARK.json the file BENCH_<workload>.json records
the median and quartiles on each side, and the number of pairs HEAD won; a
tie counts for neither side.  A metric is marked ``"resolved": false``, and
named after the wins line, when the base side's quartiles span more than the
metric's ``bound`` times its median and not every HEAD run beats every base
run: such runs cannot tell a change of that size from noise.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _export(commit: str, target: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        tar.extractall(target)


def _run(checkout: Path, workload: str, seed: int) -> dict[str, float]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or result.get("correct") is not True:
        raise SystemExit(f"{' '.join(argv)} in {checkout} failed:\n{done.stdout}{done.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def _wins(runs: list[dict], name: str, better: str) -> int:
    """The pairs in which the change did strictly better on metric name."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (r["change"][name] - r["base"][name]) < 0 for r in runs)


def _resolved(runs: list[dict], name: str, better: str, bound: float) -> bool:
    """False when the base runs spread wider than the bound, (q3 - q1) /
    median > bound, and the change did not beat every base run."""
    base = [r["base"][name] for r in runs]
    change = [r["change"][name] for r in runs]
    spread = _summary(base)
    if spread["q3"] - spread["q1"] <= bound * abs(spread["median"]):
        return True
    if better == "lower":
        return max(change) < min(base)
    return min(change) > max(base)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--base", required=True, help="commit to compare HEAD with")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    change = _git("rev-parse", "HEAD^{commit}").decode().strip()
    base = _git("rev-parse", f"{args.base}^{{commit}}").decode().strip()
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = config["end_to_end"]
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        for side, commit in (("base", base), ("change", change)):
            _export(commit, checkouts[side])
        for seed in range(args.first_seed, args.first_seed + args.pairs):
            order = ("base", "change") if seed % 2 else ("change", "base")
            run = {"seed": seed, "first": order[0]}
            for side in order:
                run[side] = _run(checkouts[side], args.workload, seed)
            runs.append(run)
            print(f"pair {seed}: " + ", ".join(
                f"{m['name']} {run['base'][m['name']]:.4g} -> {run['change'][m['name']]:.4g}"
                for m in metrics), file=sys.stderr)

    summary = {}
    for m in metrics:
        name = m["name"]
        summary[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "base": _summary([r["base"][name] for r in runs]),
            "change": _summary([r["change"][name] for r in runs]),
            "wins": _wins(runs, name, m["better"]),
            "resolved": _resolved(runs, name, m["better"], m["bound"]),
        }
    out = {
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": config["run_seconds"],
        "seeds": [r["seed"] for r in runs],
        "base": base,
        "change": change,
        "metrics": summary,
        "runs": runs,
    }
    target = ROOT / f"BENCH_{args.workload}.json"
    target.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({name: s["wins"] for name, s in summary.items()}))
    if unresolved := [name for name, s in summary.items() if not s["resolved"]]:
        print("unresolved: " + ", ".join(unresolved))
    print(f"wrote {target}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
