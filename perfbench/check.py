"""Output checks for the benchmark's tasks.

Each check takes the bytes a task wrote to stdout and raises ``CheckFailed``
(or any error from parsing) when they are wrong.  Checks run outside the
timed window.  Expected values come from the closed forms in
``mobius_centers.partitions`` and the report schemas the package declares;
the package must be importable.
"""

from __future__ import annotations

import json
import re
from math import factorial

import jsonschema

from mobius_centers.centers import CONJECTURE_REPORT_SCHEMA
from mobius_centers.partitions import center_dim_formula, partitions
from mobius_centers.quotients import CLASS_REPORT_SCHEMA

_RATIONAL = re.compile(r"-?\d+(/\d+)?")


class CheckFailed(Exception):
    """A task's output is not what it should be."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def dim(out: bytes, n: int, preset: bool) -> None:
    """``dim --format json``: the routes agree on the expected dimension.

    For the Nilcoxeter and 0-Hecke presets that is the closed formula.  The
    generic pairs used here have a, b > 0, so T^2 = aT + b has real roots of
    opposite sign whose ratio is never a root of unity: the algebra is a
    semisimple Hecke algebra, whose center has one basis element per
    partition of n.
    """
    payload = json.loads(out)
    _expect(payload["n"] == n, f"n is {payload['n']}, expected {n}")
    _expect(payload["agree"] is True, "routes disagree")
    expected = center_dim_formula(n) if preset else len(partitions(n))
    ranks = (payload["twisted_quotient_rank"], payload["commutant_rank"])
    _expect(ranks == (expected, expected), f"ranks {ranks}, expected {expected}")


def _evaluate(word: list[int], n: int) -> tuple[int, ...]:
    """One-line image of s_{i1} o ... o s_{ik}: right multiplication by s_i
    swaps positions i and i+1."""
    image = list(range(1, n + 1))
    for i in word:
        _expect(1 <= i <= n - 1, f"letter {i} out of range")
        image[i - 1], image[i] = image[i], image[i - 1]
    return tuple(image)


def classes(out: bytes, n: int) -> None:
    """``classes --format json``: schema-valid, one class per center basis
    element, and members plus zero class are all of S_n, each once."""
    payload = json.loads(out)
    jsonschema.validate(payload, CLASS_REPORT_SCHEMA)
    expected = center_dim_formula(n)
    _expect(len(payload["classes"]) == expected,
            f"{len(payload['classes'])} classes, expected {expected}")
    words = [w for entry in payload["classes"] for w in entry["members"]]
    words += payload["zero_class"]
    images = {_evaluate(w, n) for w in words}
    _expect(len(words) == len(images), "a permutation appears more than once")
    _expect(len(images) == factorial(n), f"{len(images)} permutations, expected {factorial(n)}")


def conjecture(out: bytes, n: int) -> None:
    """``conjecture --format json``: schema-valid, one finding per class."""
    payload = json.loads(out)
    jsonschema.validate(payload, CONJECTURE_REPORT_SCHEMA)
    expected = center_dim_formula(n)
    _expect(payload["n"] == n, f"n is {payload['n']}, expected {n}")
    _expect(len(payload["classes"]) == expected,
            f"{len(payload['classes'])} classes, expected {expected}")


def table(out: bytes, n: int) -> None:
    """``table --format json``: k x k cells of k rational coordinates each,
    with k the center dimension."""
    payload = json.loads(out)
    k = center_dim_formula(n)
    _expect(len(payload["labels"]) == k, f"{len(payload['labels'])} labels, expected {k}")
    rows = payload["table"]
    _expect(len(rows) == k and all(len(row) == k for row in rows), f"table is not {k} x {k}")
    for row in rows:
        for cell in row:
            _expect(len(cell) == k, f"cell has {len(cell)} coordinates, expected {k}")
            for entry in cell:
                _expect(isinstance(entry, str) and _RATIONAL.fullmatch(entry) is not None,
                        f"{entry!r} is not a rational")


def same_bytes(out: bytes, expected: bytes) -> None:
    """The output is byte-equal to an archived report."""
    _expect(out == expected, "output differs from the archived report")

