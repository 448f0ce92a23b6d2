"""The output checks accept the program's real output and reject corrupted
output, and a rejected task is counted as failed."""

import json
from functools import partial

import pytest

import check
import run
from mobius_centers.cli import main


def output(capsys, *argv) -> bytes:
    assert main(list(argv)) == 0
    return capsys.readouterr().out.encode()


def edited(out: bytes, edit) -> bytes:
    payload = json.loads(out)
    edit(payload)
    return json.dumps(payload).encode()


def test_dim_preset(capsys):
    out = output(capsys, "dim", "--algebra=nilcoxeter", "-n", "4", "--format", "json")
    check.dim(out, n=4, preset=True)
    with pytest.raises(check.CheckFailed):
        check.dim(edited(out, lambda p: p.update(agree=False)), n=4, preset=True)
    with pytest.raises(check.CheckFailed):
        check.dim(edited(out, lambda p: p.update(commutant_rank=4)), n=4, preset=True)


def test_dim_generic_pair(capsys):
    out = output(capsys, "dim", "--algebra=2,3", "-n", "4", "--format", "json")
    check.dim(out, n=4, preset=False)
    both = lambda p: p.update(twisted_quotient_rank=4, commutant_rank=4)  # noqa: E731
    with pytest.raises(check.CheckFailed):
        check.dim(edited(out, both), n=4, preset=False)


def test_classes(capsys):
    out = output(capsys, "classes", "--algebra=nilcoxeter", "-n", "4", "--format", "json")
    check.classes(out, n=4)

    def drop_member(p):
        p["classes"][1]["members"].pop()

    def duplicate_member(p):
        p["classes"][0]["members"].append(p["classes"][1]["members"][0])

    def move_member(p):  # still every permutation once, but one class too few
        p["classes"][1]["members"] += p["classes"].pop(2)["members"]

    def bad_schema(p):
        p["classes"][0]["representative"] = "e"

    for edit in (drop_member, duplicate_member, move_member, bad_schema):
        with pytest.raises(Exception):
            check.classes(edited(out, edit), n=4)


def test_conjecture_and_table(capsys):
    report = output(capsys, "conjecture", "-n", "3", "--format", "json")
    check.conjecture(report, n=3)
    with pytest.raises(Exception):
        check.conjecture(edited(report, lambda p: p["classes"].pop()), n=3)

    table = output(capsys, "table", "--algebra=0-hecke", "-n", "3", "--format", "json")
    check.table(table, n=3)

    def corrupt(p):
        p["table"][0][0][0] = "1.5"

    with pytest.raises(check.CheckFailed):
        check.table(edited(table, corrupt), n=3)
    with pytest.raises(check.CheckFailed):
        check.table(edited(table, lambda p: p["table"].pop()), n=3)


def test_rejected_tasks_count_as_failed(tmp_path):
    dim3 = ("dim", "--algebra=nilcoxeter", "-n", "3", "--format", "json")
    flip = lambda out: check.dim(out.replace(b'"agree": true', b'"agree": false'),  # noqa: E731
                                 n=3, preset=True)
    tasks = [
        run.Task(dim3, partial(check.dim, n=3, preset=True)),
        run.Task(dim3, flip),
        # Without '=' argparse reads -1/2,3 as an option and exits with status 2.
        run.Task(("dim", "--algebra", "-1/2,3", "-n", "3"), partial(check.dim, n=3, preset=False)),
    ]
    deadline = run.time.perf_counter() + 60
    outcomes = run.run_pass(tasks, tmp_path, deadline, [set() for _ in tasks])
    assert [o.failure is None for o in outcomes] == [True, False, False]
    assert outcomes[1].failure.startswith("check failed")
    assert outcomes[2].failure == "exit status 2"
    assert all(o.wall_s > 0 and o.cpu_s > 0 and o.rss_mb > 0 for o in outcomes)


def test_peak_rss_is_the_task_own(tmp_path):
    """The launcher's small interpreter, not the benchmark, spawns tasks, so
    a task's reported peak is its own and not the spawner's high-water mark."""
    ballast = bytearray(200 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])
    _, _, rss, code = run.spawn([run.sys.executable, "-S", "-c", "pass"], tmp_path / "out", 30)
    assert code == 0 and rss < 100
    del ballast


def test_generic_pairs_are_seeded_positive_and_distinct():
    first = run.generic_pairs(run.random.Random(5))
    assert first == run.generic_pairs(run.random.Random(5))
    assert len(set(first)) == 3
    assert all(a > 0 and b > 0 for a, b in first)
