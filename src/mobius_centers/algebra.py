"""
The generic algebra on S_n with structure constants (a, b).

The basis is {T_w : w in S_n}.  Left multiplication by a generator follows
the two-case rule

    T_i * T_w = T_{s_i w}            if length(s_i w) > length(w)
    T_i * T_w = a T_w + b T_{s_i w}  if length(s_i w) < length(w)

and right multiplication is the mirror rule on positions.  The presets are
the Nilcoxeter algebra (a, b) = (0, 0), the 0-Hecke algebra (1, 0) and the
group algebra (0, 1).

The trace reads off the coefficient of the longest element, and the flip
``involve`` conjugates every basis index by the longest element; together
they satisfy trace(x*y) == trace(y*involve(x)).
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import lcm

from .linalg import format_rational, parse_rational
from .perm import (
    Permutation,
    conjugate_by_w0,
    generator,
    identity,
    longest_element,
    reduced_word,
    swap_positions,
    swap_values,
    symmetric_group,
)

__all__ = [
    "AlgebraParams",
    "NILCOXETER",
    "ZERO_HECKE",
    "GROUP_ALGEBRA",
    "preset_name",
    "parse_algebra",
    "AlgebraElement",
    "zero",
    "unit",
    "basis_element",
    "generator_element",
    "mul_left_generator",
    "mul_right_generator",
    "mul",
    "trace",
    "involve",
    "gram_matrix",
    "RelationCheck",
    "RelationReport",
    "check_defining_relations",
    "commutator_terms",
    "single_term_actions",
    "element_to_json",
    "ELEMENT_SCHEMA",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class AlgebraParams:
    """The pair (a, b) of structure constants.

    A single pair suffices on S_n: all adjacent transpositions are conjugate,
    so per-generator constants would be forced equal anyway.  Immutable,
    since it keys dicts and caches: assigning an attribute raises
    AttributeError.
    """

    a: Fraction
    b: Fraction

    def __init__(self, a, b) -> None:
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r} of AlgebraParams")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of AlgebraParams")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b) == (other.a, other.b)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"AlgebraParams(a={self.a!r}, b={self.b!r})"

    @property
    def denominator(self) -> int:
        """The least D > 0 with D * a and D * b integral."""
        return lcm(self.a.denominator, self.b.denominator)


NILCOXETER = AlgebraParams(Fraction(0), Fraction(0))
ZERO_HECKE = AlgebraParams(Fraction(1), Fraction(0))
GROUP_ALGEBRA = AlgebraParams(Fraction(0), Fraction(1))

_PRESETS = {
    NILCOXETER: "nilcoxeter",
    ZERO_HECKE: "0-hecke",
    GROUP_ALGEBRA: "group",
}
_PRESETS_BY_NAME = {name: params for params, name in _PRESETS.items()}


def preset_name(params: AlgebraParams) -> str | None:
    return _PRESETS.get(params)


def parse_algebra(name: str) -> AlgebraParams:
    """Parse a preset name or an explicit "a,b" pair of rationals."""
    if name in _PRESETS_BY_NAME:
        return _PRESETS_BY_NAME[name]
    parts = name.split(",")
    if len(parts) != 2:
        raise ValueError(f"unknown algebra {name!r}: expected a preset name or 'a,b'")
    try:
        return AlgebraParams(parse_rational(parts[0]), parse_rational(parts[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"unknown algebra {name!r}: {exc}") from None


class AlgebraElement:
    """A finitely supported rational combination of basis elements T_w.

    Zero coefficients are never stored.  Instances are treated as immutable;
    two are equal when their n, parameters and terms are.
    """

    def __init__(
        self, n: int, params: AlgebraParams, terms: dict[Permutation, Fraction] = {}
    ) -> None:
        clean = {}
        for w, c in terms.items():
            if w.n != n:
                raise ValueError(f"term on {w.n} strands in an algebra on {n}")
            c = Fraction(c)
            if c:
                clean[w] = c
        self.n = n
        self.params = params
        self.terms = clean

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.params, self.terms) == (other.n, other.params, other.terms)
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, w: Permutation) -> Fraction:
        return self.terms.get(w, _ZERO)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_compatible(self, other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            nc = out.get(w, _ZERO) + c
            if nc:
                out[w] = nc
            else:
                out.pop(w, None)
        return AlgebraElement(self.n, self.params, out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.n, self.params, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scaled(self, c) -> "AlgebraElement":
        c = Fraction(c)
        if not c:
            return zero(self.params, self.n)
        return AlgebraElement(self.n, self.params, {w: c * v for w, v in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "AlgebraElement(0)"
        bits = [
            f"{format_rational(c)}*T{list(reduced_word(w))}"
            for w, c in sorted(self.terms.items(), key=lambda t: (t[0].length, t[0].image))
        ]
        return "AlgebraElement(" + " + ".join(bits) + ")"


def _check_compatible(x: AlgebraElement, y: AlgebraElement) -> None:
    if x.n != y.n:
        raise ValueError(f"size mismatch: {x.n} vs {y.n}")
    if x.params != y.params:
        raise ValueError(f"parameter mismatch: {x.params} vs {y.params}")


def zero(params: AlgebraParams, n: int) -> AlgebraElement:
    return AlgebraElement(n, params, {})


def unit(params: AlgebraParams, n: int) -> AlgebraElement:
    return AlgebraElement(n, params, {identity(n): _ONE})


def basis_element(params: AlgebraParams, w: Permutation) -> AlgebraElement:
    return AlgebraElement(w.n, params, {w: _ONE})


def generator_element(params: AlgebraParams, n: int, i: int) -> AlgebraElement:
    return basis_element(params, generator(n, i))


def mul_left_generator(i: int, x: AlgebraElement) -> AlgebraElement:
    """T_i * x, extended linearly over the terms of x."""
    return _mul_generator(i, x, swap_values)


def mul_right_generator(x: AlgebraElement, i: int) -> AlgebraElement:
    """x * T_i; the mirror of the left rule, acting on positions."""
    return _mul_generator(i, x, swap_positions)


def _mul_generator(i: int, x: AlgebraElement, move) -> AlgebraElement:
    """The two-case rule for generator i, where ``move(w, i)`` is the
    permutation it moves T_w to: values for a left factor, positions for a
    right one."""
    if not 1 <= i <= x.n - 1:
        raise ValueError(f"generator index must be in 1..{x.n - 1}, got {i}")
    a, b = x.params.a, x.params.b
    out: dict[Permutation, Fraction] = {}
    for w, c in x.terms.items():
        moved = move(w, i)
        if moved.length > w.length:
            _accumulate(out, moved, c)
        else:
            if a:
                _accumulate(out, w, a * c)
            if b:
                _accumulate(out, moved, b * c)
    return AlgebraElement(x.n, x.params, out)


def _accumulate(out: dict, w, c) -> None:
    nc = out.get(w, 0) + c
    if nc:
        out[w] = nc
    else:
        out.pop(w, None)


def _integral(c: Fraction) -> int | Fraction:
    return c.numerator if c.denominator == 1 else c


def _push(coords: dict, row, a, b) -> dict:
    """Left-multiply the coordinates ``{index: coeff}`` by the generator
    whose ``lmul`` row is ``row``: on an ascent (``row[k] > k``, see
    ``PermTable``) c moves to ``row[k]``; otherwise ``a*c`` stays at k and
    ``b*c`` goes to ``row[k]``.  Zeros are dropped."""
    out: dict = {}
    for k, c in coords.items():
        m = row[k]
        for j, t in ((m, c),) if m > k else ((k, a * c), (m, b * c)):
            if t:
                t += out.get(j, 0)
                if t:
                    out[j] = t
                else:
                    del out[j]
    return out


def _ranked(x: AlgebraElement) -> dict:
    """The coordinates of x by basis index, as ints when integral."""
    table = symmetric_group(x.n)
    return {table.rank(w): _integral(c) for w, c in x.terms.items()}


def _mul_ranks(table, params: AlgebraParams, x: dict, y: dict) -> dict:
    """The product of two elements given as ``{index: coeff}``.

    The greedy reduced words form a tree (see ``PermTable.reduced_words``):
    the word of k is its smallest left descent d, the first d with
    ``lmul[d-1][k] < k``, followed by the word of ``lmul[d-1][k]``, so
    ``T_k * y = T_d * (T_{lmul[d-1][k]} * y)``.  ``prefixes`` holds
    ``T_k * y`` for every k reached so far, starting from the identity.
    Each term of x walks up its word to the nearest rank held there and
    pushes y's coordinates back down, keeping every rank it passes; so each
    prefix is pushed once per product, however many terms of x share it.
    """
    lmul = table.lmul
    a, b = _integral(params.a), _integral(params.b)
    prefixes = {0: y}
    out: dict = {}
    for k, c in x.items():
        path = []
        while k not in prefixes:  # the identity, rank 0, is always held
            for row in lmul:
                if row[k] < k:
                    break
            path.append((k, row))
            k = row[k]
        acc = prefixes[k]
        for k, row in reversed(path):
            acc = prefixes[k] = _push(acc, row, a, b)
        for k, v in acc.items():
            _accumulate(out, k, c * v)
    return out


def mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """The bilinear product, computed on basis indices by ``_mul_ranks``."""
    _check_compatible(x, y)
    table = symmetric_group(x.n)
    out = _mul_ranks(table, x.params, _ranked(x), _ranked(y))
    perms = table.perms
    return AlgebraElement(x.n, x.params, {perms[k]: c for k, c in out.items()})


def trace(x: AlgebraElement) -> Fraction:
    """The coefficient of the longest element."""
    return x.coefficient(longest_element(x.n))


def involve(x: AlgebraElement) -> AlgebraElement:
    """The algebra involution sending T_w to T_{w0 w w0}.

    On generators this is T_i -> T_{n-i}; it preserves length, hence the
    trace, and is a homomorphism because conjugation preserves reduced words.
    """
    return AlgebraElement(
        x.n, x.params, {conjugate_by_w0(w): c for w, c in x.terms.items()}
    )


def gram_matrix(n: int, params: AlgebraParams) -> list[list[int | Fraction]]:
    """G[u][v] = trace(T_u * T_v) over all basis pairs, in index order,
    as ints when integral and Fractions otherwise.

    Row e is the indicator of w0.  When u s_j is longer than u,
    T_{u s_j} T_v = T_u (T_j T_v), so entry v of row u s_j is entry
    ``lmul[j-1][v]`` of row u on an ascent and ``a`` times entry v plus
    ``b`` times that entry on a descent.  Every k other than e has a right
    descent j, and then u = k s_j has a lower rank than k (see
    ``PermTable``); so the rows are built in rank order, each from a row
    already built.  This uses only associativity, so it holds for every
    (a, b).
    """
    table = symmetric_group(n)
    a, b = _integral(params.a), _integral(params.b)
    ranks = table.ranks  # 0, 1, ... as the ints the table holds
    first = [0] * table.order  # index 0 is the identity
    first[table.w0] = 1
    rows = [first]
    for k in range(1, table.order):
        j, u = next((j, u) for j, rmul in enumerate(table.rmul) if (u := rmul[k]) < k)
        row = rows[u]
        rows.append(
            [row[m] if m > v else a * row[v] + b * row[m] for v, m in zip(ranks, table.lmul[j])]
        )
    if params.denominator != 1:
        return [[_integral(c) for c in row] for row in rows]
    return rows


class RelationCheck:
    def __init__(self, name: str, passed: bool) -> None:
        self.name = name
        self.passed = passed


class RelationReport:
    def __init__(self, n: int, params: AlgebraParams, checks: tuple[RelationCheck, ...]) -> None:
        self.n = n
        self.params = params
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def check_defining_relations(n: int, params: AlgebraParams) -> RelationReport:
    """Verify the braid, commutation and quadratic relations by explicit
    multiplication of generator elements."""
    t = [generator_element(params, n, i) for i in range(1, n)]
    checks = []
    for i in range(1, n - 1):
        lhs = mul(t[i - 1], mul(t[i], t[i - 1]))
        rhs = mul(t[i], mul(t[i - 1], t[i]))
        checks.append(RelationCheck(f"T{i} T{i + 1} T{i} = T{i + 1} T{i} T{i + 1}", lhs == rhs))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            lhs = mul(t[i - 1], t[j - 1])
            rhs = mul(t[j - 1], t[i - 1])
            checks.append(RelationCheck(f"T{i} T{j} = T{j} T{i}", lhs == rhs))
    for i in range(1, n):
        lhs = mul(t[i - 1], t[i - 1])
        rhs = t[i - 1].scaled(params.a) + unit(params, n).scaled(params.b)
        checks.append(RelationCheck(f"T{i}^2 = a T{i} + b T_e", lhs == rhs))
    return RelationReport(n, params, tuple(checks))


def commutator_terms(
    n: int, params: AlgebraParams, i: int, j: int, transpose: bool = False
) -> Iterator[dict[int, int]]:
    """``D * (T_i * T_k - T_k * T_j)`` for each basis index k, the highest
    first, as a dict of nonzero int coefficients keyed by basis index: the
    columns of the map ``x -> D * (T_i x - x T_j)``, or its rows with
    ``transpose``.  Row u of ``x -> T_i x`` is 1 at s_i u and a at u when
    s_i u < u, and b at s_i u when s_i u > u: the column rule with 1 and b
    exchanged.  Right multiplication is the same on ``rmul``.

    Each dict is built in one pass from ``lmul[i-1][k]`` and
    ``rmul[j-1][k]``: the rank goes up exactly when the length does (see
    ``PermTable``), so an ascent m > k gives the term (m, 1) and a descent
    the terms (k, a) and (m, b), zero coefficients dropped.  The left
    product's terms go in first and the right product's are subtracted.

    D is ``params.denominator``, so that every coefficient is an int; it is 1
    for the presets.  Scaling rows changes neither their span nor their
    nullspace, and elimination works best on rows in this order (see
    ``linalg._Echelon``).
    """
    for g in (i, j):
        if not 1 <= g <= n - 1:
            raise ValueError(f"generator index must be in 1..{n - 1}, got {g}")
    table = symmetric_group(n)
    d = params.denominator
    a, b = int(params.a * d), int(params.b * d)
    one, b = (b, d) if transpose else (d, b)
    for k, m, r in zip(
        range(table.order - 1, -1, -1), reversed(table.lmul[i - 1]), reversed(table.rmul[j - 1])
    ):
        if m > k:
            diff = {m: one} if one else {}
        elif a:
            diff = {k: a, m: b} if b else {k: a}
        else:
            diff = {m: b} if b else {}
        if r > k:
            if one:
                if c := diff.get(r, 0) - one:
                    diff[r] = c
                else:
                    del diff[r]
        else:
            if a:
                if c := diff.get(k, 0) - a:
                    diff[k] = c
                else:
                    del diff[k]
            if b:
                if c := diff.get(r, 0) - b:
                    diff[r] = c
                else:
                    del diff[r]
        yield diff


def single_term_actions(
    n: int, params: AlgebraParams
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Generator action tables for presets, where every product of a
    generator with a basis element is a single basis element or zero.

    Returns (left, right) with left[i-1][k] the index of T_i * T_{perms[k]}
    (-1 encodes zero) and right[i-1][k] the index of T_{perms[k]} * T_i.
    Raises ValueError for parameters outside the three presets.
    """
    if params not in _PRESETS:
        raise ValueError(
            "single-term action tables require a preset algebra "
            "(nilcoxeter, 0-hecke or group)"
        )
    table = symmetric_group(n)
    # An ascent, where the rank goes up (see PermTable), gives the moved
    # element in every preset.  On a descent the group algebra also gives
    # the moved element, the 0-Hecke algebra gives T_k and the Nilcoxeter
    # algebra gives zero.
    if params == GROUP_ALGEBRA:
        return table.lmul, table.rmul
    descent_to_k = params == ZERO_HECKE
    ranks = table.ranks  # 0, 1, ... as the ints the table holds
    return tuple(
        tuple(
            tuple([m if m > k else k if descent_to_k else -1 for k, m in zip(ranks, row)])
            for row in side
        )
        for side in (table.lmul, table.rmul)
    )


# --- JSON wire format -------------------------------------------------------

ELEMENT_SCHEMA = {
    "type": "object",
    "required": ["n", "algebra", "terms"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "algebra": {
            "oneOf": [
                {"enum": ["nilcoxeter", "0-hecke", "group"]},
                {
                    "type": "object",
                    "required": ["a", "b"],
                    "properties": {
                        "a": {"type": "string"},
                        "b": {"type": "string"},
                    },
                },
            ]
        },
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["word", "coeff"],
                "properties": {
                    "word": {"type": "array", "items": {"type": "integer"}},
                    "coeff": {"type": "string"},
                },
            },
        },
    },
}


def params_to_json(params: AlgebraParams):
    name = preset_name(params)
    if name is not None:
        return name
    return {"a": format_rational(params.a), "b": format_rational(params.b)}


def element_to_json(x: AlgebraElement) -> dict:
    """Terms are keyed by the canonical reduced word of their permutation."""
    terms = [
        {"word": list(reduced_word(w)), "coeff": format_rational(c)}
        for w, c in sorted(x.terms.items(), key=lambda t: (t[0].length, t[0].image))
    ]
    return {"n": x.n, "algebra": params_to_json(x.params), "terms": terms}
