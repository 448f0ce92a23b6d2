"""
Exact sparse linear algebra over the rationals.

Ranks, nullspaces and solves are exact: the elimination holds Python ints
and results leave it as ``fractions.Fraction``s (arbitrary-precision, always
in lowest terms with positive denominator).  No floating point is used
anywhere in this module.  ``rank`` and ``nullspace`` put every row of at
most two entries, wherever it comes, into one weighted union-find with int
or ``Fraction`` gains, whose finds halve paths inside its row loop.  Only
the longer rows, projected onto the forest's free roots, are eliminated;
the presets' constraint rows have none, so their rank and their nullspace
are read off the forest alone.

Subspaces are kept in reduced row echelon form, which is canonical: two
subspaces are equal exactly when their stored bases are equal, independent
of the order the spanning vectors arrived in.

The elimination itself is fraction-free.  Each stored row is the primitive
integer multiple of its reduced row echelon row: int entries with content
gcd 1, a positive entry at its pivot and none at any other pivot.  A
``Fraction`` is built only when a result leaves the elimination, by one
division by the pivot entry.

Every entry point takes rows in one format, the kernel's mappings
``{index: nonzero int | Fraction}``, together with the dimension, and
raises ValueError for a zero entry or an index outside the dimension.
``SparseVector`` and ``Subspace`` are output types: every vector and
subspace returned holds ``Fraction`` entries.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "format_rational",
    "parse_rational",
    "NoSolutionError",
    "NonUniqueSolutionError",
    "SparseVector",
    "Subspace",
    "span",
    "rank",
    "nullspace",
    "solve_affine",
    "coordinates_in_span",
]

_ZERO = Fraction(0)


def format_rational(x: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


class NoSolutionError(Exception):
    """The linear system is inconsistent."""


class NonUniqueSolutionError(Exception):
    """The solution set is positive-dimensional."""


class SparseVector:
    """A vector with only its nonzero entries stored, as ``Fraction``s.

    The type of the vectors this module returns; treated as immutable.
    Vectors are equal when their dimensions and entries are.
    """

    def __init__(self, dimension: int, entries: Mapping[int, Fraction | int] = {}) -> None:
        clean = {}
        for j, c in entries.items():
            if not 0 <= j < dimension:
                raise ValueError(f"index {j} outside dimension {dimension}")
            c = Fraction(c)
            if c:
                clean[j] = c
        self.dimension = dimension
        self.entries: Mapping[int, Fraction] = clean

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.dimension == other.dimension and self.entries == other.entries
        return NotImplemented


_Row = Mapping[int, Fraction | int]


def _axpy(v: dict, row: Mapping[int, Fraction], c: Fraction) -> None:
    # v -= c * row, dropping entries that cancel
    for j, r in row.items():
        nv = v.get(j, _ZERO) - c * r
        if nv:
            v[j] = nv
        else:
            v.pop(j, None)


def _as_ints(v: Mapping[int, Fraction | int]) -> tuple[dict[int, int], int]:
    """``v`` as int entries over one positive denominator: v = out / den.

    ``out`` is always a new dict, which the caller may change.
    """
    if {*map(type, v.values())} == {int}:
        return dict(v), 1
    out = {j: c.numerator for j, c in v.items() if c.denominator == 1}
    if len(out) == len(v):
        return out, 1
    den = lcm(*[c.denominator for c in v.values()])
    return {j: c.numerator * (den // c.denominator) for j, c in v.items()}, den


class _Echelon:
    """Incremental reduced row echelon form, held fraction-free.

    Invariant: ``rows[p]`` is a dict of ints with a positive entry at its
    pivot p, no entry at any other pivot and content gcd 1; the reduced row
    echelon row it stands for is ``rows[p] / rows[p][p]``.  Reducing a vector
    is therefore a single pass over its pivot-indexed entries.  Against a row
    with pivot entry r the partial remainder is first scaled by
    ``r // gcd(c, r)``, so the arithmetic stays in ints; a pivot entry of 1
    needs no scaling and no gcd, so eliminations with +-1 coefficients do no
    more than plain subtraction.  ``occurs[j]`` holds the pivots of the
    stored rows with an entry in the non-pivot column j; a new pivot p
    updates exactly the rows in ``occurs[p]``.

    The echelon is canonical, so the result does not depend on the order
    rows arrive in, but the work does.  A stored row has entries only at
    and right of its pivot, its smallest column.  Rows fed highest index
    first put each new pivot mostly left of the columns stored rows hold,
    so few rows need the back-substitution; fed ascending, a new pivot
    lands among their entries and is subtracted out of each.  The kernel's
    row sources therefore yield rows highest basis index first.
    """

    def __init__(self, dimension: int):
        self.dimension = dimension
        self.rows: dict[int, dict[int, int]] = {}
        self.occurs: dict[int, set[int]] = {}

    def reduce(self, v: Mapping[int, Fraction | int]) -> tuple[dict[int, int], int]:
        """The remainder of ``v`` against the basis, as ``(out, den)`` with
        int entries ``out`` and a positive ``den``: remainder = out / den."""
        out, den = _as_ints(v)
        if out and not 0 <= min(out) <= max(out) < self.dimension:
            raise ValueError(f"row index outside dimension {self.dimension}")
        if 0 in out.values():
            raise ValueError("zero entry in a row")
        rows = self.rows
        for p in [j for j in out if j in rows]:
            c = out.pop(p)
            row = rows[p]
            r = row[p]
            if r != 1:
                g = gcd(c, r)
                m = r // g
                if m != 1:
                    out = {j: x * m for j, x in out.items()}
                    den *= m
                c //= g
            for j, x in row.items():
                if j == p:
                    continue
                nv = out.get(j, 0) - c * x
                if nv:
                    out[j] = nv
                else:
                    del out[j]
        return out, den

    def insert(self, v: Mapping[int, Fraction | int]) -> int | None:
        """Reduce ``v`` against the basis; absorb the remainder if nonzero.

        Returns the new pivot index, or None if ``v`` was dependent.
        """
        row, _ = self.reduce(v)
        if not row:
            return None
        p = min(row)
        lead = row[p]
        if lead == -1:
            row = {j: -c for j, c in row.items()}
        elif lead != 1:
            g = gcd(*row.values())
            if lead < 0:
                g = -g
            if g != 1:
                row = {j: c // g for j, c in row.items()}
        lead = row[p]
        rows = self.rows
        occurs = self.occurs
        for q in occurs.pop(p, ()):
            other = rows[q]
            c = other.pop(p)
            if lead != 1:
                g = gcd(c, lead)
                m = lead // g
                if m != 1:
                    other = rows[q] = {j: x * m for j, x in other.items()}
                c //= g
            for j, r in row.items():
                if j == p:
                    continue
                nv = other.get(j, 0) - c * r
                if nv:
                    if j not in other:
                        occurs.setdefault(j, set()).add(q)
                    other[j] = nv
                else:
                    del other[j]
                    occurs[j].discard(q)
            if other[q] != 1:
                g = gcd(*other.values())
                if g != 1:
                    rows[q] = {j: x // g for j, x in other.items()}
        for j in row:
            if j != p:
                occurs.setdefault(j, set()).add(p)
        rows[p] = row
        return p

    @property
    def dim(self) -> int:
        return len(self.rows)


class Subspace:
    """A subspace held as a reduced row echelon basis (canonical form), so
    two subspaces are equal exactly when their bases are."""

    def __init__(self, ambient_dimension: int, basis: tuple[SparseVector, ...]) -> None:
        self.ambient_dimension = ambient_dimension
        self.basis = basis

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (
                self.ambient_dimension == other.ambient_dimension
                and self.basis == other.basis
            )
        return NotImplemented

    @property
    def dim(self) -> int:
        return len(self.basis)


def _subspace_from_echelon(ech: _Echelon) -> Subspace:
    basis = []
    for p in sorted(ech.rows):
        row = ech.rows[p]
        lead = row[p]
        if lead != 1:
            row = {j: Fraction(c, lead) for j, c in row.items()}
        basis.append(SparseVector(ech.dimension, row))
    return Subspace(ech.dimension, tuple(basis))


def _echelon(vectors: Iterable[_Row], dimension: int) -> _Echelon:
    """The echelon of ``vectors``, the one loop where rows enter elimination."""
    ech = _Echelon(dimension)
    for v in vectors:
        ech.insert(v)
    return ech


def span(vectors: Iterable[_Row], dimension: int) -> Subspace:
    """Reduced row echelon basis of the span, computed exactly."""
    return _subspace_from_echelon(_echelon(vectors, dimension))


def _forest(
    rows: Iterable[_Row], dimension: int
) -> tuple[list[int], list[Fraction | int], bytearray, int, list[_Row]]:
    """The weighted union-find of the rows with at most two entries, and
    the longer rows, kept as they are.

    Returns ``(parent, gain, fixed, found, longer)``.  The rows of at most
    two entries are the incidence matrix of a signed graph, whatever their
    place in the sequence.  On their common nullspace a tied column v has
    x_v = gain[v] * x_parent[v], an int or a ``Fraction``; a root is its own
    parent and the largest column of its tree, so every parent lies right of
    its child.  Each find halves the path it walks, in the row loop itself:
    a column whose parent is not a root is moved up to its grandparent, its
    gain first multiplied by its parent's.  A one-entry row fixes its
    component at 0 (``fixed`` marks the root), and so does a two-entry row
    that closes a cycle whose gains do not match.  ``found`` counts the rows
    that join two components or fix a free one: the rank of the short rows,
    ``dimension`` minus the number of free components.  Every row is checked
    as the echelon checks it, with the same messages.
    """
    parent = list(range(dimension))
    gain: list[Fraction | int] = [1] * dimension
    fixed = bytearray(dimension)
    found = 0
    longer = []
    for row in rows:
        items = row.items()
        if len(items) == 2:
            (a, c), (b, d) = items
            if not (0 <= a < dimension and 0 <= b < dimension):
                raise ValueError(f"row index outside dimension {dimension}")
            if not (c and d):
                raise ValueError("zero entry in a row")
            ga = gb = 1
            while (p := parent[a]) != a:
                if (q := parent[p]) != p:
                    gain[a] *= gain[p]
                    parent[a] = q
                ga *= gain[a]
                a = q
            while (p := parent[b]) != b:
                if (q := parent[p]) != p:
                    gain[b] *= gain[p]
                    parent[b] = q
                gb *= gain[b]
                b = q
            if a != b:
                if a > b:
                    a, b, c, d, ga, gb = b, a, d, c, gb, ga
                if fixed[a] and fixed[b]:
                    continue
                # c * ga * x_a + d * gb * x_b = 0 puts root a under root b
                num, den = -d * gb, c * ga
                gain[a] = num // den if not num % den else Fraction(num, den)
                parent[a] = b
                if fixed[a]:
                    fixed[b] = 1
                found += 1
                continue
            # the row is (c * ga + d * gb) * x_a
            if not c * ga + d * gb:
                continue
        elif len(items) == 1:
            ((a, c),) = items
            if not 0 <= a < dimension:
                raise ValueError(f"row index outside dimension {dimension}")
            if not c:
                raise ValueError("zero entry in a row")
            while (p := parent[a]) != a:
                if (q := parent[p]) != p:
                    gain[a] *= gain[p]
                    parent[a] = q
                a = q
        elif items:
            if not 0 <= min(row) <= max(row) < dimension:
                raise ValueError(f"row index outside dimension {dimension}")
            if 0 in row.values():
                raise ValueError("zero entry in a row")
            longer.append(row)
            continue
        else:
            continue
        if not fixed[a]:
            fixed[a] = 1
            found += 1
    return parent, gain, fixed, found, longer


def _root_echelon(
    parent: list[int],
    gain: list[Fraction | int],
    fixed: bytearray,
    longer: list[_Row],
    dimension: int,
) -> _Echelon:
    """Point every column of the forest at its root, then the echelon of the
    longer rows projected onto the free roots, each distinct projection up
    to sign once.  Each row of ``longer`` is dropped from it once projected.

    Highest column first, so each parent p > v already points at its root
    with its gain to it; a column whose parent is a root keeps its gain.  On
    the short rows' nullspace x_v = gain[v] * x_root(v), and x_root is 0 for
    a fixed root, so a longer row sum(c_v * x_v) is
    sum(c_v * gain[v] * x_root(v)) over the free roots.
    """
    for v in range(dimension - 1, -1, -1):
        if (r := parent[p := parent[v]]) != p:
            gain[v] *= gain[p]
            parent[v] = r

    def projected():
        # the first projected row of each hash; a row equal to it, or to its
        # negation, adds nothing to the span and is not eliminated
        seen: dict[int, dict] = {}
        for i, row in enumerate(longer):
            # held once, as the row or as its projection
            longer[i] = None
            out = {}
            for v, c in row.items():
                r = parent[v]
                if fixed[r]:
                    continue
                # c * gain[v] is nonzero, so a zero sum cancels an entry
                if x := out.get(r, 0) + c * gain[v]:
                    out[r] = x
                else:
                    del out[r]
            if out and out[min(out)] < 0:
                out = {j: -x for j, x in out.items()}
            if seen.get(h := hash(frozenset(out.items()))) != out:
                seen[h] = out
                yield out

    return _echelon(projected(), dimension)


def rank(vectors: Iterable[_Row], dimension: int) -> int:
    """Dimension of the span, with no basis built.

    The rows of at most two entries go into a weighted union-find (see
    ``_forest``), which gives their rank with no elimination; the presets'
    rows are all of that kind, so their rank is read off the forest alone.
    The longer rows, projected onto the forest's free roots and with
    repeated projections dropped, go to the echelon, and its rank adds to
    the forest's.
    """
    parent, gain, fixed, found, longer = _forest(vectors, dimension)
    if not longer:
        return found
    return found + _root_echelon(parent, gain, fixed, longer, dimension).dim


def nullspace(vectors: Iterable[_Row], dimension: int) -> Subspace:
    """The space of x with ``row . x = 0`` for every input row.

    The short rows' nullspace is parametrized by the free roots of their
    union-find (see ``_forest``), x_v = gain[v] * y_root(v), and the longer
    rows, projected onto those roots, are the equations y must meet.  Each
    free root f that is not a pivot of their echelon gives one y, 1 at f
    and -row[f] / row[p] at each pivot p whose row holds f; it is lifted to
    x and the result is the span of the lifted vectors.  With no longer
    row, as for the presets, there is one vector per free component, and
    their supports are disjoint.
    """
    parent, gain, fixed, _, longer = _forest(vectors, dimension)
    ech = _root_echelon(parent, gain, fixed, longer, dimension)
    # a root is the largest column of its tree, so the free roots come in
    # highest first, the order in which span's echelon takes them fastest
    members: dict[int, list[int]] = {}
    for v in range(dimension - 1, -1, -1):
        if not fixed[r := parent[v]]:
            members.setdefault(r, []).append(v)

    def lifted():
        for f in members:
            if f in ech.rows:
                continue
            y = {f: 1}
            for p in ech.occurs.get(f, ()):
                row = ech.rows[p]
                y[p] = -Fraction(row[f], row[p])
            yield {v: gain[v] * c for r, c in y.items() for v in members[r]}

    return span(lifted(), dimension)


def solve_affine(
    constraints: Iterable[tuple[_Row, Fraction]],
    unknowns_basis: list[_Row],
    dimension: int,
) -> SparseVector:
    """The unique x in the span of ``unknowns_basis`` with
    ``constraint . x = value`` for every pair.

    Raises NoSolutionError if the system is inconsistent and
    NonUniqueSolutionError if the solution set is positive-dimensional.
    """
    if not unknowns_basis:
        raise ValueError("empty unknowns basis")
    k = len(unknowns_basis)
    # Column k holds the negated right-hand side; a solution c is then a
    # nullvector of the augmented rows with last coordinate 1.
    def rows():
        for cvec, value in constraints:
            row = {}
            for j, u in enumerate(unknowns_basis):
                if dot := sum(c * u[i] for i, c in cvec.items() if i in u):
                    row[j] = dot
            if value:
                row[k] = -Fraction(value)
            yield row

    ech = _echelon(rows(), k + 1)
    if k in ech.rows:
        raise NoSolutionError("inconsistent constraint system")
    if len(ech.rows) < k:
        raise NonUniqueSolutionError("solution set is positive-dimensional")
    out: dict[int, Fraction] = {}
    for p, row in ech.rows.items():
        if k in row:
            _axpy(out, unknowns_basis[p], Fraction(row[k], row[p]))
    return SparseVector(dimension, out)


def coordinates_in_span(
    basis: list[_Row], targets: Iterable[_Row], dimension: int
) -> list[list[Fraction]]:
    """For each target, the coefficients c with
    ``sum(c_k * basis[k]) == target``.

    The basis is inserted once, with a tail of k extra columns that tracks
    each combination through elimination, and each target is reduced against
    it as it arrives.  Raises NonUniqueSolutionError before any target is
    read if the basis is linearly dependent (a pivot in the tail is a
    vanishing combination), and NoSolutionError at the first target outside
    the span.
    """
    k = len(basis)
    ech = _echelon(
        ({**v, dimension + j: 1} for j, v in enumerate(basis)),
        dimension + k,
    )
    if any(p >= dimension for p in ech.rows):
        raise NonUniqueSolutionError("basis vectors are linearly dependent")
    out = []
    for target in targets:
        if target and not 0 <= min(target) <= max(target) < dimension:
            raise ValueError(f"target index outside dimension {dimension}")
        red, den = ech.reduce(target)
        if any(j < dimension for j in red):
            raise NoSolutionError("target is outside the span")
        out.append([Fraction(-red.get(dimension + j, 0), den) for j in range(k)])
    return out
