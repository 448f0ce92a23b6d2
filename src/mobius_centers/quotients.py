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

from collections.abc import Iterator
from fractions import Fraction
from functools import cached_property, lru_cache

from . import linalg
from .algebra import (
    NILCOXETER,
    AlgebraParams,
    commutator_terms,
    preset_name,
    single_term_actions,
)
from .linalg import SparseVector, Subspace
from .perm import Permutation, symmetric_group

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


def _commutator_rows(
    n: int, params: AlgebraParams, twisted: bool, transpose: bool = False
) -> Iterator[dict]:
    """The nonzero columns of x -> (T_i x - x T_j)_i, j = n - i when twisted
    and j = i otherwise, or its rows with ``transpose``, as the kernel's int
    dicts scaled by ``params.denominator``, each generator's highest index
    first.  The columns span the map's image, the rows cut out its kernel."""
    for i in range(1, n):
        for diff in commutator_terms(n, params, i, n - i if twisted else i, transpose):
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
    """n! minus the rank of the (twisted) commutator rows, which for the
    presets is read off a union-find (see ``linalg.rank``); no span is kept."""
    order = symmetric_group(n).order
    return order - linalg.rank(_commutator_rows(n, params, twisted), order)


class MobiusClasses:
    """The partition of the T_w basis under the band identifications, held
    as basis indices (ranks in ``symmetric_group(n)``).

    ``member_ranks`` lists the nonzero classes, each with its members in
    (length, one-line word) order, so the representative, the
    length-minimal lexicographically-minimal member, comes first; the
    classes are ordered by their representatives.  ``zero_ranks`` lists the
    basis elements identified with 0 (Nilcoxeter only) in the same order.

    ``members``, ``classes``, ``zero_class`` and ``representatives`` are the
    same data as ``Permutation``s, built on first access: ``zero_class`` is
    None when nothing vanishes.
    """

    def __init__(
        self,
        n: int,
        params: AlgebraParams,
        member_ranks: tuple[tuple[int, ...], ...],
        zero_ranks: tuple[int, ...],
    ) -> None:
        self.n = n
        self.params = params
        self.member_ranks = member_ranks
        self.zero_ranks = zero_ranks

    @cached_property
    def members(self) -> tuple[tuple[Permutation, ...], ...]:
        at = symmetric_group(self.n).perms.__getitem__
        return tuple(tuple(map(at, ranks)) for ranks in self.member_ranks)

    @cached_property
    def classes(self) -> tuple[frozenset[Permutation], ...]:
        return tuple(map(frozenset, self.members))

    @cached_property
    def zero_class(self) -> frozenset[Permutation] | None:
        perms = symmetric_group(self.n).perms
        return frozenset(perms[k] for k in self.zero_ranks) or None

    @property
    def representatives(self) -> tuple[Permutation, ...]:
        perms = symmetric_group(self.n).perms
        return tuple(perms[ranks[0]] for ranks in self.member_ranks)


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
    # Union-find with path halving, written into the edge loop: a call per
    # edge would cost about as much as the union itself.  Index `order` is
    # the zero sink.
    parent = list(range(order + 1))
    for i in range(1, n):
        for x, y in zip(left[i - 1], right[n - i - 1]):
            if x != y:
                if x < 0:
                    x = order
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                if y < 0:
                    y = order
                while parent[y] != y:
                    parent[y] = y = parent[parent[y]]
                parent[x] = y
    # Free the action tables before grouping: the groups would otherwise be
    # allocated above them on the heap and keep their pages resident.
    del left, right

    # Visit the ranks by (length, rank), which is the (length, one-line
    # word) order: each group then lists its representative first, and the
    # groups appear in the order of their representatives.
    groups: dict[int, list[int]] = {}
    for k in sorted(range(order), key=table.lengths.__getitem__):
        groups.setdefault(_find(parent, k), []).append(k)
    zero_ranks = groups.pop(_find(parent, order), ())
    return MobiusClasses(
        n=n,
        params=params,
        member_ranks=tuple(map(tuple, groups.values())),
        zero_ranks=tuple(zero_ranks),
    )


def _find(parent: list[int], x: int) -> int:
    """The root of x in the union-find forest ``parent``, halving its path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def cycle_type(w: Permutation) -> tuple[int, ...]:
    """Cycle type of the band closure map p -> n+1-w(p), i.e. of w0 o w.

    The parts are the thicknesses of the closed components and sum to n.
    """
    return _band_cycle_type(w.image)


def _band_cycle_type(image: tuple[int, ...]) -> tuple[int, ...]:
    """``cycle_type`` of the permutation with one-line word ``image``."""
    n = len(image)
    seen = [False] * (n + 1)
    parts = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        size = 0
        p = start
        while not seen[p]:
            seen[p] = True
            p = n + 1 - image[p - 1]
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
    # The payload holds each word list itself, the representative's twice.
    word = table.reduced_words().__getitem__
    out = []
    for ranks in classes.member_ranks:
        rep = ranks[0]
        entry = {"representative": word(rep), "members": list(map(word, ranks))}
        if is_nc:
            entry["cycle_type"] = list(_band_cycle_type(table.image(rep)))
            entry["length"] = table.lengths[rep]
        out.append(entry)
    return {
        "n": classes.n,
        "algebra": preset_name(classes.params) or "custom",
        "classes": out,
        "zero_class": list(map(word, classes.zero_ranks)),
    }
