import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
REPORTS = ROOT / "reports"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dimension_table_passes_when_the_routes_agree(capsys):
    table = load_script("dimension_table")
    assert table.main(["--max-n", "3"]) == 0
    assert "<-" not in capsys.readouterr().out


@pytest.mark.parametrize("name, marker", [
    ("quotient_dim", "ROUTES DISAGREE"),
    ("center_dim_formula", "FORMULA DIFFERS"),
])
def test_dimension_table_fails_on_a_disagreement(capsys, monkeypatch, name, marker):
    table = load_script("dimension_table")
    original = getattr(table, name)
    monkeypatch.setattr(table, name, lambda *args, **kwargs: original(*args, **kwargs) + 1)
    assert table.main(["--max-n", "3"]) == 1
    assert marker in capsys.readouterr().out


def test_conjecture_report_reproduces_the_archived_reports(tmp_path, capsys):
    report = load_script("conjecture_report")
    report.main(["--max-n", "5", "--reports-dir", str(tmp_path)])
    archived = sorted(path.name for path in REPORTS.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == archived
    for name in archived:
        assert (tmp_path / name).read_bytes() == (REPORTS / name).read_bytes(), name


def test_bench_pairs_summary_quartiles():
    bench = load_script("bench_pairs")
    assert bench._summary([4.0, 1.0, 3.0, 2.0]) == {"q1": 1.25, "median": 2.5, "q3": 3.75}
    assert bench._summary([0.5]) == {"q1": 0.5, "median": 0.5, "q3": 0.5}


def test_bench_pairs_wins_count_strictly_better_pairs():
    bench = load_script("bench_pairs")
    runs = [
        {"base": {"t": 1.0}, "change": {"t": 0.9}},
        {"base": {"t": 1.0}, "change": {"t": 1.0}},
        {"base": {"t": 1.0}, "change": {"t": 1.1}},
        {"base": {"t": 2.0}, "change": {"t": 0.5}},
    ]
    # a tie counts for neither side
    assert bench._wins(runs, "t", "lower") == 2
    assert bench._wins(runs, "t", "higher") == 1


def test_bench_pairs_resolved_needs_a_narrow_base_or_a_clean_sweep():
    bench = load_script("bench_pairs")

    def runs(base, change):
        return [{"base": {"t": b}, "change": {"t": c}} for b, c in zip(base, change)]

    # base quartiles 1.0 and 2.0 around a median of 1.5: a spread of 2/3
    wide = [1.0, 1.0, 2.0, 2.0]
    # wider than the bound, and the change's 1.0 does not beat the base's 1.0
    assert not bench._resolved(runs(wide, [0.5, 0.6, 0.7, 1.0]), "t", "lower", 0.25)
    # every change run beats every base run
    assert bench._resolved(runs(wide, [0.5, 0.6, 0.7, 0.9]), "t", "lower", 0.25)
    assert bench._resolved(runs(wide, [2.1, 2.5, 3.0, 2.2]), "t", "higher", 0.25)
    assert not bench._resolved(runs(wide, [0.5, 0.6, 0.7, 0.9]), "t", "higher", 0.25)
    # a spread of at most the bound resolves whatever the change did
    assert bench._resolved(runs(wide, [1.0, 2.0, 1.5, 3.0]), "t", "lower", 1.0)
    assert bench._resolved(runs([1.0, 1.0, 3.0, 3.0], [3.0, 3.0, 3.0, 3.0]), "t", "lower", 1.0)
    assert bench._resolved(runs([0.9, 1.0, 1.0, 1.1], [1.2, 0.8, 1.0, 1.0]), "t", "lower", 0.25)


def test_bench_pairs_names_unresolved_metrics(tmp_path, monkeypatch, capsys):
    # setup_s spreads 1.0-2.0 on the base side against a 0.25 bound and the
    # change never beats 1.0; the other metrics hold still on both sides
    bench = load_script("bench_pairs")
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())

    def fake_run(checkout, workload, seed):
        setup = (1.0 + seed % 2) if checkout.name == "base" else 1.5
        return {"solve_cpu_s": 1.0, "peak_rss_mb": 20.0, "setup_s": setup}

    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "_git", lambda *args: b"0123abc\n")
    monkeypatch.setattr(bench, "_export", lambda commit, target: None)
    monkeypatch.setattr(bench, "_run", fake_run)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--workload", "w", "--base", "x", "--pairs", "4"])
    assert bench.main() == 0
    out = json.loads((tmp_path / "BENCH_w.json").read_text())
    assert {name: m["resolved"] for name, m in out["metrics"].items()} == {
        "solve_cpu_s": True, "peak_rss_mb": True, "setup_s": False,
    }
    wins, unresolved = capsys.readouterr().out.splitlines()
    assert json.loads(wins) == {"solve_cpu_s": 0, "peak_rss_mb": 0, "setup_s": 2}
    assert unresolved == "unresolved: setup_s"


def test_bench_pairs_first_seed(tmp_path, monkeypatch, capsys):
    # the pairs take the seeds from --first-seed on, and the side that runs
    # first alternates; nothing is exported or run
    bench = load_script("bench_pairs")
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    calls = []

    def fake_run(checkout, workload, seed):
        calls.append((checkout.name, seed))
        value = 1.0 if checkout.name == "base" else 0.5
        return {"solve_cpu_s": value, "peak_rss_mb": value, "setup_s": value}

    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "_git", lambda *args: b"0123abc\n")
    monkeypatch.setattr(bench, "_export", lambda commit, target: None)
    monkeypatch.setattr(bench, "_run", fake_run)
    argv = ["bench_pairs.py", "--workload", "w", "--base", "x", "--pairs", "3", "--first-seed", "11"]
    monkeypatch.setattr(sys, "argv", argv)
    assert bench.main() == 0
    assert calls == [
        ("base", 11), ("change", 11), ("change", 12), ("base", 12), ("base", 13), ("change", 13),
    ]
    out = json.loads((tmp_path / "BENCH_w.json").read_text())
    assert out["seeds"] == [11, 12, 13]
    assert {name: m["wins"] for name, m in out["metrics"].items()} == {
        "solve_cpu_s": 3, "peak_rss_mb": 3, "setup_s": 3,
    }
