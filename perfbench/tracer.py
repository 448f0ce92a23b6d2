"""Span tracing of the mobius_centers modules, installed from outside the package.

A ``Tracer`` replaces chosen public functions with wrappers that record one
span per call: name, parent span, start and end.  All spans of one process
belong to one task.  They are kept in memory and written out by ``dump`` when
the task ends, together with counts read from the wrapped calls' arguments
and return values.

Each wrapper calls the original object, so a function decorated with
``lru_cache`` keeps its cache and its ``cache_info()``.  A wrapper is
installed under every name, in every module of the package, that refers to
the original, so calls through ``from .linalg import nullspace`` and through
``linalg.span`` are both seen.

Nothing under ``src/`` is changed; importing this module imports nothing
from the package.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

PACKAGE = "mobius_centers"

# The layers are the package's modules; these are the functions wrapped in
# each.  Per-element helpers (mul_left_generator, swap_values, left_descent,
# ...) are left out on purpose: a task calls them hundreds of thousands of
# times, so a span each would swamp the work being measured.  Their time is
# self time of the wrapped function that called them.
LAYERS = {
    "perm": ("symmetric_group", "reduced_word"),
    "partitions": ("center_dim_formula",),
    "linalg": ("span", "rank", "nullspace", "solve_affine", "coordinates_in_span"),
    "algebra": (
        "single_term_actions",
        "mul",
        "gram_matrix",
        "check_defining_relations",
        "element_to_json",
    ),
    "quotients": (
        "generator_vectors",
        "twisted_commutator_span",
        "commutator_span",
        "quotient_dim",
        "mobius_classes",
        "class_census",
        "classes_to_json",
    ),
    "centers": (
        "center",
        "twisted_center",
        "nc_center_basis",
        "dual_center_basis",
        "multiplication_table",
        "verify_hn_conjecture",
        "conjecture_report_to_json",
    ),
    "cli": ("main",),
}

FUNCTIONS = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)

# Functions whose first argument is an iterable of rows: the wrapper passes
# the original a list, so the row count can be read without consuming it.
_ROWS_IN = frozenset({"linalg.span", "linalg.nullspace", "linalg.solve_affine"})


def _subspace(rows_in: int, space) -> tuple[int, ...]:
    coeffs = [c for vector in space.basis for c in vector.entries.values()]
    bits = max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in coeffs),
        default=0,
    )
    return rows_in, space.dim, len(coeffs), bits


# Counter names and how to compute them from (note, result), per function.
# They are computed when the task ends, so counting adds nothing to any
# span.  ``note`` is the row count for the functions in _ROWS_IN and the
# positional arguments otherwise.  Counters named ``max_*`` aggregate by
# maximum, the others by sum.
COUNTERS = {
    "linalg.span": (("rows_in", "rank", "basis_nnz", "max_coeff_bits"), _subspace),
    "linalg.nullspace": (("rows_in", "dim", "basis_nnz", "max_coeff_bits"), _subspace),
    "linalg.solve_affine": (("constraints",), lambda rows_in, _: (rows_in,)),
    "quotients.generator_vectors": (
        ("vectors", "nnz"),
        lambda _, vectors: (len(vectors), sum(len(v.entries) for v in vectors)),
    ),
    "quotients.mobius_classes": (
        ("classes", "zero_class"),
        lambda _, classes: (len(classes.classes), len(classes.zero_class or ())),
    ),
}
# Functions whose distinct positional arguments are counted, to show repeated work.
_DISTINCT_ARGS = frozenset({"algebra.gram_matrix"})


def add_counts(into: dict, counts: dict) -> None:
    for key, value in counts.items():
        into[key] = max(into.get(key, 0), value) if key.startswith("max_") else into.get(key, 0) + value


class Tracer:
    """Records spans of the functions in ``LAYERS`` while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.observed: list[tuple[str, object, object]] = []
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, original):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack,
        )
        observed = self.observed
        rows_in = name in _ROWS_IN
        observe = name in COUNTERS or name in _DISTINCT_ARGS

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if rows_in and args:
                args = (list(args[0]),) + args[1:]
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe:
                observed.append((name, len(args[0]) if rows_in and args else args, result))
            return result

        if hasattr(original, "cache_info"):
            wrapper.cache_info = original.cache_info
            wrapper.cache_clear = original.cache_clear
        return wrapper

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, functions in LAYERS.items():
            for fname in functions:
                original = getattr(modules[layer], fname)
                name = f"{layer}.{fname}"
                self.originals[name] = original
                wrapper = self._wrap(name, original)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patches.append((namespace, attr, original))
                            setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def counts(self) -> dict[str, dict[str, int]]:
        """Counters per function name.  A result object one function returned
        more than once (an lru_cache hit) is counted once."""
        out: dict[str, dict[str, int]] = defaultdict(dict)
        seen: set[tuple[str, int]] = set()
        distinct: dict[str, set] = defaultdict(set)
        for name, note, result in self.observed:
            if name in _DISTINCT_ARGS:
                distinct[name].add(note)
            if name in COUNTERS and (name, id(result)) not in seen:
                seen.add((name, id(result)))
                keys, count = COUNTERS[name]
                add_counts(out[name], dict(zip(keys, count(note, result))))
        for name, keys in distinct.items():
            out[name]["distinct_args"] = len(keys)
        for name, original in self.originals.items():
            if hasattr(original, "cache_info"):
                info = original.cache_info()
                add_counts(out[name], {"cache_hits": info.hits, "cache_misses": info.misses})
        return dict(out)

    def dump(self, path: str) -> None:
        record = {
            "spans": list(zip(self.names, self.parents, self.starts, self.ends)),
            "counts": self.counts(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the part of [lo, hi] covered by the union of ``intervals``."""
    covered = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def span_times(spans) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Total time, self time and call count per span name.

    ``spans`` is a sequence of (name, parent index or -1, start, end).  Total
    time counts only spans with no ancestor of the same name, so recursion is
    not counted twice.  Self time is a span's duration minus the part of it
    covered by its direct children.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for idx, (name, parent, start, end) in enumerate(spans):
        calls[name] += 1
        self_time[name] += (end - start) - _union_length(children[idx], start, end)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            total[name] += end - start
    return dict(total), dict(self_time), dict(calls)
