"""Span arithmetic, and wrappers that change no result and no cache."""

import pytest

import tracer
from mobius_centers import centers, cli, linalg, perm, quotients
from mobius_centers.cli import main


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 4.0),  # back to back with the next child of a
        ("c", 1, 2.0, 3.0),  # nested in b: not subtracted from a again
        ("b", 0, 4.0, 6.0),
    ]
    total, self_time, calls = tracer.span_times(spans)
    assert total == {"a": 10.0, "b": 5.0, "c": 1.0}
    assert self_time == {"a": 5.0, "b": 4.0, "c": 1.0}
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert sum(self_time.values()) == total["a"]


def test_self_time_merges_overlap_and_clips_to_parent():
    spans = [
        ("p", -1, 0.0, 10.0),
        ("x", 0, 2.0, 5.0),
        ("y", 0, 4.0, 7.0),
        ("z", 0, 9.0, 12.0),
    ]
    _, self_time, _ = tracer.span_times(spans)
    assert self_time["p"] == pytest.approx(10.0 - 5.0 - 1.0)


def test_total_counts_recursion_once():
    spans = [("f", -1, 0.0, 10.0), ("g", 0, 1.0, 9.0), ("f", 1, 2.0, 5.0)]
    total, self_time, _ = tracer.span_times(spans)
    assert total["f"] == 10.0
    assert self_time["f"] == pytest.approx(2.0 + 3.0)


COMMANDS = [
    ("dim", "--algebra=nilcoxeter", "-n", "4", "--format", "json"),
    ("dim", "--algebra=2,1/3", "-n", "4", "--format", "json"),
    ("classes", "--algebra=0-hecke", "-n", "4", "--format", "json"),
    ("conjecture", "-n", "3", "--format", "json"),
    ("table", "--algebra=0-hecke", "-n", "3", "--format", "json"),
    ("verify", "--suite", "all", "--algebra=nilcoxeter", "-n", "3", "--format", "json"),
]
CACHED = [
    (perm, "reduced_word"),
    (perm, "symmetric_group"),
    (quotients, "mobius_classes"),
    (quotients, "twisted_commutator_span"),
    (quotients, "commutator_span"),
    (centers, "center"),
    (centers, "twisted_center"),
    (centers, "dual_center_basis"),
]


def run_commands(capsys):
    for module, name in CACHED:
        getattr(module, name).cache_clear()
    outputs = []
    for argv in COMMANDS:
        outputs.append((cli.main(list(argv)), capsys.readouterr().out))
    infos = [getattr(module, name).cache_info() for module, name in CACHED]
    return outputs, infos


def test_wrappers_change_no_result_and_no_cache(capsys):
    originals = {(m, n): getattr(m, n) for m, n in CACHED}
    nullspace = linalg.nullspace
    plain = run_commands(capsys)
    tr = tracer.Tracer()
    tr.install()
    try:
        # One wrapper under every name the function is looked up by.
        assert centers.nullspace is linalg.nullspace is not nullspace
        assert cli.center is centers.center is not originals[(centers, "center")]
        traced = run_commands(capsys)
    finally:
        tr.uninstall()
    assert traced == plain
    assert all(getattr(m, n) is f for (m, n), f in originals.items())
    assert cli.main is main
    _, _, calls = tracer.span_times(list(zip(tr.names, tr.parents, tr.starts, tr.ends)))
    assert calls["cli.main"] == len(COMMANDS)
    assert calls["perm.reduced_word"] > 0 and calls["linalg.nullspace"] > 0
    counts = tr.counts()
    assert counts["perm.reduced_word"]["cache_hits"] == plain[1][0].hits
    assert counts["quotients.mobius_classes"]["classes"] > 0
