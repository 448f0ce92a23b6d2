"""
Commutator and twisted-commutator subspaces, and the equivalence classes of
basis elements on the Mobius band.

The twisted-commutator subspace is spanned by the vectors of
``T_i * x - x * T_{n-i}`` over generators i and basis elements x; quotienting
by it realizes sliding a crossing once around the band.  For the three preset
algebras every such product is a single basis element or zero, so the
identifications close up under union-find, with zero as an absorbing sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from . import linalg
from .algebra import (
    NILCOXETER,
    AlgebraParams,
    commutator_terms,
    preset_name,
    single_term_actions,
)
from .linalg import SparseVector, Subspace
from .perm import Permutation, compose, longest_element, symmetric_group

__all__ = [
    "UnsupportedParamsError",
    "generator_vectors",
    "MobiusClasses",
    "twisted_commutator_span",
    "commutator_span",
    "quotient_dim",
    "mobius_classes",
    "cycle_type",
    "class_census",
    "classes_to_json",
    "CLASS_REPORT_SCHEMA",
]


class UnsupportedParamsError(ValueError):
    """The operation is only defined for specific preset algebras."""


def _commutator_rows(n: int, params: AlgebraParams, twisted: bool) -> Iterator[dict]:
    """The rows of ``generator_vectors`` as the kernel's int dicts, scaled by
    ``params.denominator``, each generator's highest basis index first."""
    for i in range(1, n):
        for diff in commutator_terms(n, params, i, n - i if twisted else i):
            if diff:
                yield diff


def generator_vectors(
    n: int, params: AlgebraParams, twisted: bool
) -> list[SparseVector]:
    """Vectors of T_i * x - x * T_j over generators i and basis x, with
    j = n - i when twisted and j = i otherwise, in (i, x) order."""
    order = symmetric_group(n).order
    d = params.denominator
    out: list[SparseVector] = []
    for i in range(1, n):
        rows = [diff for diff in commutator_terms(n, params, i, n - i if twisted else i) if diff]
        out += (
            SparseVector(order, {u: Fraction(c, d) for u, c in diff.items()})
            for diff in reversed(rows)
        )
    return out


@lru_cache(maxsize=None)
def twisted_commutator_span(n: int, params: AlgebraParams) -> Subspace:
    """Span of { T_i x - x T_{n-i} } inside the n!-dimensional algebra."""
    return linalg.span(
        _commutator_rows(n, params, twisted=True),
        symmetric_group(n).order,
    )


@lru_cache(maxsize=None)
def commutator_span(n: int, params: AlgebraParams) -> Subspace:
    """Span of { T_i x - x T_i }."""
    return linalg.span(
        _commutator_rows(n, params, twisted=False),
        symmetric_group(n).order,
    )


def quotient_dim(n: int, params: AlgebraParams, twisted: bool) -> int:
    """n! minus the rank of the (twisted) commutator rows; no span is kept."""
    order = symmetric_group(n).order
    return order - linalg.rank(_commutator_rows(n, params, twisted), order)


@dataclass(frozen=True)
class MobiusClasses:
    """The partition of the T_w basis under the band identifications.

    ``zero_class`` collects basis elements identified with 0 (Nilcoxeter
    only); it is None when nothing vanishes.  Classes are ordered by their
    representative, the length-minimal lexicographically-minimal member.
    ``members`` lists the same classes with their members in that
    (length, one-line word) order, representative first.
    """

    n: int
    params: AlgebraParams
    classes: tuple[frozenset[Permutation], ...]
    zero_class: frozenset[Permutation] | None
    members: tuple[tuple[Permutation, ...], ...]

    @property
    def representatives(self) -> tuple[Permutation, ...]:
        return tuple(m[0] for m in self.members)


@lru_cache(maxsize=None)
def mobius_classes(n: int, params: AlgebraParams) -> MobiusClasses:
    """Union-find closure of the identifications T_i * T_w ~ T_w * T_{n-i}.

    Each side is a single basis element or zero; zero acts as an absorbing
    sink node.  Only preset algebras keep products single-term.
    """
    if preset_name(params) is None:
        raise UnsupportedParamsError(
            "Mobius classes need single-term generator products; "
            "use one of the preset algebras"
        )
    table = symmetric_group(n)
    order = table.order
    left, right = single_term_actions(n, params)
    # Union-find with path halving; index `order` is the zero sink.
    parent = list(range(order + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(1, n):
        for x, y in zip(left[i - 1], right[n - i - 1]):
            if x != y:
                parent[find(x if x >= 0 else order)] = find(y if y >= 0 else order)

    # Visit the members by (length, lexicographic rank), which orders the
    # one-line words too: each group then lists its representative first,
    # and the groups appear in the order of their representatives.
    perms = table.perms
    groups: dict[int, list[Permutation]] = {}
    for k in sorted(range(order), key=table.lengths.__getitem__):
        groups.setdefault(find(k), []).append(perms[k])
    zero_members = groups.pop(find(order), ())
    members = tuple(map(tuple, groups.values()))
    return MobiusClasses(
        n=n,
        params=params,
        classes=tuple(map(frozenset, members)),
        zero_class=frozenset(zero_members) or None,
        members=members,
    )


def cycle_type(w: Permutation) -> tuple[int, ...]:
    """Cycle type of the band closure map p -> n+1-w(p), i.e. of w0 o w.

    The parts are the thicknesses of the closed components and sum to n.
    """
    mu = compose(longest_element(w.n), w)
    seen = [False] * w.n
    parts = []
    for start in range(1, w.n + 1):
        if seen[start - 1]:
            continue
        size = 0
        p = start
        while not seen[p - 1]:
            seen[p - 1] = True
            p = mu(p)
            size += 1
        parts.append(size)
    parts.sort(reverse=True)
    return tuple(parts)


def class_census(n: int, params: AlgebraParams) -> dict[tuple[int, ...], int]:
    """Number of nonzero classes per cycle type.  Nilcoxeter only: for the
    other presets the cycle type is not constant on classes."""
    if params != NILCOXETER:
        raise UnsupportedParamsError("the class census is graded only for nilcoxeter")
    classes = mobius_classes(n, params)
    census: dict[tuple[int, ...], int] = {}
    for members in classes.classes:
        types = {cycle_type(w) for w in members}
        assert len(types) == 1, f"cycle type not constant on class {members}"
        t = types.pop()
        census[t] = census.get(t, 0) + 1
    return census


CLASS_REPORT_SCHEMA = {
    "type": "object",
    "required": ["n", "algebra", "classes", "zero_class"],
    "properties": {
        "n": {"type": "integer"},
        "algebra": {"type": "string"},
        "classes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["representative", "members"],
                "properties": {
                    "representative": {"type": "array", "items": {"type": "integer"}},
                    "members": {
                        "type": "array",
                        "items": {"type": "array", "items": {"type": "integer"}},
                    },
                    "cycle_type": {"type": "array", "items": {"type": "integer"}},
                    "length": {"type": "integer"},
                },
            },
        },
        "zero_class": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}},
        },
    },
}


def classes_to_json(classes: MobiusClasses) -> dict:
    """Class report; cycle type and length are reported only for nilcoxeter,
    where they are constant per class."""
    is_nc = classes.params == NILCOXETER
    table = symmetric_group(classes.n)
    index, words = table.index, table.words
    out = []
    for members in classes.members:
        rep = members[0]
        ranks = [index[w.image] for w in members]
        entry = {
            "representative": list(words[ranks[0]]),
            "members": [list(words[k]) for k in ranks],
        }
        if is_nc:
            entry["cycle_type"] = list(cycle_type(rep))
            entry["length"] = rep.length
        out.append(entry)
    # (length, rank) is the (length, one-line word) order
    zero = sorted(index[w.image] for w in classes.zero_class or ())
    zero.sort(key=table.lengths.__getitem__)
    return {
        "n": classes.n,
        "algebra": preset_name(classes.params) or "custom",
        "classes": out,
        "zero_class": [list(words[k]) for k in zero],
    }
