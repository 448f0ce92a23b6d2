from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PRESETS, PRESET_IDS
from mobius_centers import linalg, quotients
from mobius_centers.algebra import AlgebraParams
from mobius_centers.linalg import (
    NonUniqueSolutionError,
    NoSolutionError,
    SparseVector,
    coordinates_in_span,
    format_rational,
    nullspace,
    parse_rational,
    rank,
    solve_affine,
    span,
)
from mobius_centers.perm import symmetric_group
from mobius_centers.quotients import generator_vectors, twisted_commutator_span


def vec(**entries):
    return {int(k[1:]): Fraction(v) for k, v in entries.items() if v}


def get(v, j):
    return v.get(j, Fraction(0))


def dot(u, v):
    return sum((c * v[j] for j, c in u.items() if j in v), Fraction(0))


def dense_rref(matrix, cols):
    # textbook Gauss-Jordan elimination over exact rationals, no sparsity
    # tricks; returns the nonzero rows of the reduced row echelon form
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank_count = 0
    for col in range(cols):
        pivot = next(
            (r for r in range(rank_count, len(rows)) if rows[r][col] != 0), None
        )
        if pivot is None:
            continue
        rows[rank_count], rows[pivot] = rows[pivot], rows[rank_count]
        head = rows[rank_count][col]
        rows[rank_count] = [x / head for x in rows[rank_count]]
        for r in range(len(rows)):
            if r != rank_count and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank_count])]
        rank_count += 1
    return rows[:rank_count]


def dense_rank_oracle(matrix):
    return len(dense_rref(matrix, len(matrix[0]))) if matrix else 0


def to_sparse(matrix):
    return [{j: Fraction(x) for j, x in enumerate(row) if x} for row in matrix]


def int_rows(matrix):
    # the same rows with every integral entry an int
    return [
        {j: int(x) if x.denominator == 1 else x for j, x in enumerate(map(Fraction, row)) if x}
        for row in matrix
    ]


# --- rationals ----------------------------------------------------------------


def test_rational_round_trip():
    assert format_rational(Fraction(3, 6)) == "1/2"
    assert format_rational(Fraction(-4, 2)) == "-2"
    assert format_rational(Fraction(0)) == "0"
    assert parse_rational("7/3") == Fraction(7, 3)
    assert parse_rational("-5") == Fraction(-5)


# --- span / rank -----------------------------------------------------------------


def test_span_of_nothing_is_zero_subspace():
    space = span([], dimension=4)
    assert space.dim == 0


def test_span_fills_the_plane():
    space = span([vec(e0=1), vec(e0=1, e1=1)], 2)
    assert space.dim == 2


def test_rank_examples():
    v = vec(e0=2, e2=5)
    assert rank([v, {j: 2 * c for j, c in v.items()}], 3) == 1
    assert rank([vec(**{f"e{j}": 1}) for j in range(4)], 4) == 4


def test_span_dimension_mismatch():
    # an index outside the dimension is refused where the row enters the
    # echelon
    with pytest.raises(ValueError, match="outside dimension"):
        span([vec(e0=1), vec(e2=1)], 2)


@pytest.mark.parametrize("op", [span, rank, nullspace])
def test_sparse_vector_of_wrong_dimension_is_refused(op):
    # rows go in as mappings only: a SparseVector, the output type, is not
    # read as a row
    with pytest.raises(AttributeError):
        op([{0: 1}, SparseVector(3, {0: 1})], 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rank([{0: 0}], 3), "zero entry"),
        (lambda: rank([{0: 1}, {0: 2, 1: 0}], 3), "zero entry"),
        (lambda: rank([{0: Fraction(0)}], 3), "zero entry"),
        (lambda: rank([{5: 1}], 3), "outside dimension 3"),
        (lambda: rank([{-1: 1}], 3), "outside dimension 3"),
        (lambda: nullspace([{0: 1, 5: 1}], 3), "outside dimension 3"),
        (lambda: span([{3: Fraction(1, 2)}], 3), "outside dimension 3"),
        # index 3 lies in the tail columns the elimination appends
        (lambda: coordinates_in_span([{0: 1}], [{3: 1}], 3), "outside dimension 3"),
        (lambda: coordinates_in_span([{0: 1}], [{-1: 1}], 3), "outside dimension 3"),
        (lambda: coordinates_in_span([{0: 1}], [{0: 1, 1: 0}], 3), "zero entry"),
        (lambda: rank([{0: 1, 3: 1}], 3), "outside dimension 3"),
        # short rows after a longer one, and a longer one after short rows
        (lambda: rank([{0: 1, 1: 1, 2: 1}, {5: 1}], 3), "outside dimension 3"),
        (lambda: rank([{0: 1, 1: 1, 2: 1}, {0: 1, 1: 0}], 3), "zero entry"),
        (lambda: rank([{0: 1}, {0: 1, 1: -1}, {0: 1, 1: 1, 7: 1}], 3), "outside dimension 3"),
        (lambda: rank([{0: 1}, {1: 1, 2: -1}, {0: 1, 1: 2, 2: 0}], 3), "zero entry"),
        # a negative index would wrap round the forest's lists
        (lambda: rank([{0: 1, 1: -1}, {0: 1, 1: 1, -1: 1}], 3), "outside dimension 3"),
        (lambda: nullspace([{-1: 1, 0: 1, 2: 1}], 3), "outside dimension 3"),
        (lambda: nullspace([{0: 1, 1: 1}, {0: 1, 1: 2, 2: 0}], 3), "zero entry"),
    ],
    ids=[
        "zero-row", "zero-entry", "zero-fraction", "index-above", "index-negative",
        "nullspace-index", "span-index", "target-in-tail", "target-negative", "target-zero",
        "pair-index", "short-index-after-long", "short-zero-after-long",
        "long-index-after-short", "long-zero-after-short", "long-negative",
        "nullspace-long-negative", "nullspace-long-zero",
    ],
)
def test_malformed_rows_are_refused(call, message):
    # every entry point checks each row where it enters the echelon, and
    # rank checks the short rows its union-find takes in the same way
    with pytest.raises(ValueError, match=message):
        call()


def test_nc3_twisted_generators_have_rank_three():
    vectors = generator_vectors(3, PRESETS[0], twisted=True)
    assert rank([v.entries for v in vectors], symmetric_group(3).order) == 3
    dense = [[get(v.entries, j) for j in range(6)] for v in vectors]
    assert dense_rank_oracle(dense) == 3


def test_h3_twisted_generators_have_rank_three():
    vectors = generator_vectors(3, PRESETS[1], twisted=True)
    assert rank([v.entries for v in vectors], 6) == 3


def test_span_idempotent():
    vectors = [vec(e0=1, e2=3), vec(e1=2), vec(e0=1, e1=2, e2=3)]
    space = span(vectors, 4)
    again = span([b.entries for b in space.basis], 4)
    assert again == space


matrices = st.integers(min_value=1, max_value=8).flatmap(
    lambda m: st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-10, max_value=10), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@given(matrices)
def test_rank_matches_dense_oracle(matrix):
    assert rank(to_sparse(matrix), len(matrix[0])) == dense_rank_oracle(matrix)


@given(matrices, st.randoms())
def test_rank_invariant_under_row_shuffle(matrix, rnd):
    vectors = to_sparse(matrix)
    shuffled = list(vectors)
    rnd.shuffle(shuffled)
    dim = len(matrix[0])
    assert rank(shuffled, dim) == rank(vectors, dim)
    assert span(shuffled, dim) == span(vectors, dim)


@given(matrices)
def test_all_arithmetic_stays_rational(matrix):
    space = span(to_sparse(matrix), len(matrix[0]))
    for b in space.basis:
        for value in b.entries.values():
            assert isinstance(value, Fraction)


# --- nullspace -------------------------------------------------------------------


def test_nullspace_simple():
    # x0 + x1 = 0 in dim 3
    space = nullspace([vec(e0=1, e1=1)], 3)
    assert space.dim == 2
    for b in space.basis:
        assert get(b.entries, 0) + get(b.entries, 1) == 0


@given(matrices)
def test_nullspace_orthogonal_to_rows_and_complements_rank(matrix):
    dim = len(matrix[0])
    vectors = to_sparse(matrix)
    null = nullspace(vectors, dim)
    assert null.dim == dim - rank(vectors, dim)
    for b in null.basis:
        for v in vectors:
            assert dot(v, b.entries) == 0


# --- solve_affine ------------------------------------------------------------------


def test_solve_affine_simple():
    e0 = vec(e0=1)
    x = solve_affine([(e0, Fraction(1))], [e0], 2)
    assert x == SparseVector(2, e0)


def test_solve_affine_inconsistent():
    e0 = vec(e0=1)
    with pytest.raises(NoSolutionError):
        solve_affine([(e0, Fraction(1)), (e0, Fraction(0))], [e0], 2)


def test_solve_affine_underdetermined():
    e0, e1 = vec(e0=1), vec(e1=1)
    with pytest.raises(NonUniqueSolutionError):
        solve_affine([(e0, Fraction(1))], [e0, e1], 2)


def test_solve_affine_two_by_two():
    e0, e1 = vec(e0=1), vec(e1=1)
    x = solve_affine(
        [(vec(e0=1, e1=1), Fraction(3)), (vec(e0=1, e1=-1), Fraction(1))],
        [e0, e1],
        2,
    )
    assert x == SparseVector(2, vec(e0=2, e1=1))


# --- coordinates ---------------------------------------------------------------------


def test_coordinates_in_span():
    basis = [vec(e0=1, e1=1), vec(e2=1)]
    target = vec(e0=2, e1=2, e2=-1)
    assert coordinates_in_span(basis, [target], 3) == [[Fraction(2), Fraction(-1)]]


def test_coordinates_outside_span():
    with pytest.raises(NoSolutionError):
        coordinates_in_span([vec(e0=1)], [vec(e1=1)], 3)


def test_coordinates_reject_dependent_basis():
    v = vec(e0=1)
    with pytest.raises(NonUniqueSolutionError):
        coordinates_in_span([v, vec(e0=2)], [v], 3)


# --- rank modulo a prime as an independent oracle ----------------------------------

# 2**61 - 1 is a Mersenne prime; a nonzero rational minor vanishes modulo it
# only if the prime divides its numerator.
PRIME = 2**61 - 1


def modular_rank(vectors, prime, dimension):
    # dense Gaussian elimination over Z/prime, sharing no code with linalg
    rows = [
        [c.numerator * pow(c.denominator, -1, prime) % prime
         for c in (get(v, j) for j in range(dimension))]
        for v in vectors
    ]
    rank_count = 0
    for col in range(dimension):
        pivot = next((r for r in range(rank_count, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank_count], rows[pivot] = rows[pivot], rows[rank_count]
        inv = pow(rows[rank_count][col], -1, prime)
        head = [x * inv % prime for x in rows[rank_count]]
        rows[rank_count] = head
        for r in range(rank_count + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(x - factor * y) % prime for x, y in zip(rows[r], head)]
        rank_count += 1
    return rank_count


@given(matrices)
@settings(max_examples=40)
def test_modular_rank_matches_exact_on_small_integers(matrix):
    # entries are small enough that no nonzero minor can vanish mod a 61-bit prime
    dim = len(matrix[0])
    assert modular_rank(to_sparse(matrix), PRIME, dim) == rank(to_sparse(matrix), dim)


@pytest.mark.parametrize("params", PRESETS, ids=PRESET_IDS)
@pytest.mark.parametrize("n", range(2, 5))
def test_modular_rank_calibrates_on_twisted_spans(n, params):
    # the exact twisted span must have the rank that elimination modulo a
    # large prime finds on the same generator vectors
    vectors = [v.entries for v in generator_vectors(n, params, twisted=True)]
    order = symmetric_group(n).order
    assert modular_rank(vectors, PRIME, order) == twisted_commutator_span(n, params).dim


# --- exactness of the echelon against a dense oracle --------------------------------

entries = st.one_of(
    st.just(0),
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)
# coefficients far from +-1: 41-bit numerators over many distinct
# denominators, so nearly every pivot scales and the lcm of a row's
# denominators is large
large_entries = st.one_of(
    st.just(0),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**40), max_value=2**40),
        st.integers(min_value=1, max_value=10**6),
    ),
)
any_entries = st.one_of(entries, large_entries)


def dense_matrices(cols, max_rows=7):
    # one entry strategy per matrix, so small-entry matrices keep their
    # cancellations and large-entry ones scale at every pivot
    return st.sampled_from([entries, large_entries]).flatmap(
        lambda elements: st.lists(
            st.lists(elements, min_size=cols, max_size=cols),
            min_size=0,
            max_size=max_rows,
        )
    )


def dense(vectors, cols):
    return [[get(v.entries, j) for j in range(cols)] for v in vectors]


def dense_nullspace(matrix, cols):
    reduced = dense_rref(matrix, cols)
    pivots = [next(j for j, x in enumerate(row) if x) for row in reduced]
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        x = [Fraction(0)] * cols
        x[f] = Fraction(1)
        for p, row in zip(pivots, reduced):
            x[p] = -row[f]
        basis.append(x)
    return dense_rref(basis, cols)


def assert_fractions(values):
    assert all(type(c) is Fraction for c in values)


def assert_echelon_invariant(ech):
    # every stored row is the primitive int multiple of its reduced row
    # echelon row, and occurs[j] lists exactly the rows with an entry in
    # the non-pivot column j
    rows = ech.rows
    for p, row in rows.items():
        assert all(type(c) is int for c in row.values()), row
        assert row[p] > 0, row
        assert not (row.keys() & rows.keys()) - {p}, row
        assert gcd(*row.values()) == 1, row
    assert not ech.occurs.keys() & rows.keys()
    columns = {j for row in rows.values() for j in row} - rows.keys()
    for j in columns | ech.occurs.keys():
        assert ech.occurs.get(j, set()) == {p for p, row in rows.items() if j in row}


@contextmanager
def watched_echelon():
    """Check the echelon invariant after every insertion."""
    original = linalg._Echelon.insert
    inserts = []

    def insert(self, v):
        pivot = original(self, v)
        assert_echelon_invariant(self)
        inserts.append(pivot)
        return pivot

    linalg._Echelon.insert = insert
    try:
        yield inserts
    finally:
        linalg._Echelon.insert = original


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda cols: st.tuples(st.just(cols), dense_matrices(cols))), st.randoms())
@settings(max_examples=150, deadline=None)
def test_span_and_nullspace_match_dense_oracle_under_shuffle(system, rnd):
    cols, matrix = system
    vectors = to_sparse(matrix)
    rnd.shuffle(vectors)
    with watched_echelon() as inserts:
        space = span(vectors, cols)
        spanned = len(inserts)
        null = nullspace(vectors, cols)
    # every row of span reaches the echelon; nullspace's short rows go to
    # the union-find instead
    assert spanned == len(vectors)
    assert dense(space.basis, cols) == dense_rref(matrix, cols)
    assert dense(null.basis, cols) == dense_nullspace(matrix, cols)
    for b in space.basis + null.basis:
        assert_fractions(b.entries.values())


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda cols: st.tuples(st.just(cols), dense_matrices(cols))))
@settings(max_examples=150, deadline=None)
def test_dict_rows_match_sparse_vector_rows(system):
    # the kernel's row form, dicts of nonzero entries: rows with every
    # integral entry an int, the same rows all Fractions, and a one-shot
    # generator of them give the same canonical results
    cols, matrix = system
    ints = int_rows(matrix)
    fractions = to_sparse(matrix)

    def once():
        return (dict(row) for row in ints)

    with watched_echelon():
        space = span(ints, cols)
        null = nullspace(ints, cols)
        assert span(fractions, cols) == span(once(), cols) == space
        assert nullspace(fractions, cols) == nullspace(once(), cols) == null
        assert rank(ints, cols) == rank(fractions, cols) == rank(once(), cols) == space.dim
    for b in space.basis + null.basis:
        assert_fractions(b.entries.values())


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda cols: st.tuples(st.just(cols), dense_matrices(cols))))
@settings(max_examples=150, deadline=None)
def test_echelon_leaves_its_input_rows_unchanged(system):
    # all-int rows skip the conversion to ints, and the echelon pops from
    # what it works on: that must be a copy, never the caller's dict.
    # Integral entries are given as ints, so that many rows take that path.
    cols, matrix = system
    rows = int_rows(matrix)
    ech = linalg._Echelon(cols)
    for row in rows:
        before = dict(row)
        ech.reduce(row)
        assert row == before
        ech.insert(row)
        assert row == before
        ech.reduce(row)
        assert row == before


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda cols: st.tuples(
        st.just(cols),
        dense_matrices(cols, max_rows=4).filter(bool),
        dense_matrices(cols),
        st.lists(any_entries, min_size=7, max_size=7),
    )), st.randoms())
@settings(max_examples=150, deadline=None)
def test_solve_affine_matches_dense_oracle(system, rnd):
    cols, unknowns, constraints, values = system
    basis = to_sparse(unknowns)
    pairs = list(zip(to_sparse(constraints), map(Fraction, values)))
    rnd.shuffle(pairs)
    k = len(basis)
    augmented = [[dot(c, u) for u in basis] + [value] for c, value in pairs]
    reduced = dense_rref(augmented, k + 1)
    with watched_echelon():
        if any(row[k] and not any(row[:k]) for row in reduced):
            with pytest.raises(NoSolutionError):
                solve_affine(pairs, basis, cols)
        elif len(reduced) < k:
            with pytest.raises(NonUniqueSolutionError):
                solve_affine(pairs, basis, cols)
        else:
            x = solve_affine(pairs, basis, cols)
            want = [sum((row[k] * u[j] for row, u in zip(reduced, unknowns)), Fraction(0))
                    for j in range(cols)]
            assert dense([x], cols) == [want]
            assert_fractions(x.entries.values())


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda cols: st.tuples(
        st.just(cols),
        dense_matrices(cols, max_rows=5).filter(bool),
        st.lists(any_entries, min_size=5, max_size=5),
    )), st.randoms())
@settings(max_examples=150, deadline=None)
def test_coordinates_in_span_match_dense_oracle(system, rnd):
    cols, matrix, coeffs = system
    rnd.shuffle(matrix)
    basis = to_sparse(matrix)
    coeffs = [Fraction(c) for c in coeffs[: len(basis)]]
    target = {
        j: x for j in range(cols)
        if (x := sum((c * Fraction(row[j]) for c, row in zip(coeffs, matrix)), Fraction(0)))
    }
    with watched_echelon():
        if dense_rank_oracle(matrix) < len(basis):
            with pytest.raises(NonUniqueSolutionError):
                coordinates_in_span(basis, [target], cols)
        else:
            (got,) = coordinates_in_span(basis, [target], cols)
            assert got == coeffs
            assert_fractions(got)


# --- rank of rows with at most two entries, by the weighted union-find -----------

# +-1 and +-2 close both balanced and unbalanced cycles; Fractions make
# gains that are not integral, some of them integral Fractions
short_coefficients = st.one_of(
    st.sampled_from([1, -1, 2, -2]),
    st.integers(min_value=-5, max_value=5).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
)


def short_rows(cols, max_rows=12):
    # few columns, so pairs repeat and cycles close; empty and one-entry
    # rows included
    return st.lists(
        st.dictionaries(
            st.integers(min_value=0, max_value=cols - 1), short_coefficients, max_size=2
        ),
        max_size=max_rows,
    )


# A chain fed leaf-first, x0 = 2 x1, x1 = x2 / 3 and x2 = -3/2 x3, puts
# 0 -> 1 -> 2 -> 3 under the largest root, so x0 = -x3; the last row's find
# from the leaf halves that path.  x0 + x3 then closes a balanced cycle and
# x0 + 2 x3 an unbalanced one, which puts the tree under the sink.
_CHAIN = [{0: 1, 1: -2}, {1: 1, 2: Fraction(-1, 3)}, {2: 2, 3: 3}]


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda cols: st.tuples(st.just(cols), short_rows(cols))))
@example((4, [*_CHAIN, {0: 1, 3: 1}]))
@example((4, [*_CHAIN, {0: 1, 3: 2}]))
# x1 = 0 on the tree the unbalanced cycle already holds at 0 adds no rank
@example((4, [*_CHAIN, {0: 1, 3: 2}, {1: 1}]))
# {0, 1} is held at 0 by a one-entry row and {2, 3, 4} by the unbalanced
# cycle x2 + 2 x4 = x4; x1 + x4 then joins two trees under the sink
@example((5, [{0: 1, 1: 1}, {1: 3}, {2: 1, 3: -1}, {3: 1, 4: 1}, {2: 1, 4: 2}, {1: 1, 4: 1}]))
# x1 + x0 finds the sink from its first column, so the sink must stay the
# root; were it put under column 0, 2 x0 would close a cycle counted as rank
@example((2, [{1: 1}, {1: 1, 0: 1}, {0: 2}]))
@settings(max_examples=300, deadline=None)
def test_rank_of_short_rows_matches_the_echelon(system):
    cols, rows = system
    assert rank(rows, cols) == linalg._echelon(rows, cols).dim


@given(st.integers(min_value=3, max_value=6).flatmap(
    lambda cols: st.tuples(
        st.just(cols),
        short_rows(cols),
        st.dictionaries(
            st.integers(min_value=0, max_value=cols - 1), short_coefficients, min_size=3
        ),
        short_rows(cols, max_rows=6),
    )))
# x0 = 2 x1 puts column 0 under root 1 with gain 2, so the longer row
# projects to 3 x1 + x2; x0 = 0 puts column 0 under the sink, which the
# projection drops
@example((3, [{0: 1, 1: -2}], {0: 1, 1: 1, 2: 1}, []))
@example((3, [{0: 1}], {0: 1, 1: 1, 2: 1}, [{1: 1, 2: -1}]))
# 3 x0 = 0, after the longer row, puts the tree {0, 1, 3} under the sink, so
# the longer row projects to x2 alone and only column 3 is free
@example((4, [{0: 1, 1: -2}, {1: 1, 3: 1}], {0: 1, 1: 1, 2: 1}, [{0: 3}]))
@settings(max_examples=300, deadline=None)
def test_longer_row_among_short_rows_matches_the_echelon(system):
    # the short rows on both sides of the longer row go into the forest,
    # and the longer row, projected onto the forest's free roots, into the
    # echelon
    cols, before, longer, after = system
    rows = [*before, longer, *after]
    assert rank(rows, cols) == linalg._echelon(rows, cols).dim
    matrix = [[get(row, j) for j in range(cols)] for row in rows]
    assert dense(nullspace(rows, cols).basis, cols) == dense_nullspace(matrix, cols)


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("params", PRESETS, ids=PRESET_IDS)
def test_rank_of_preset_rows_matches_the_echelon(params, n):
    # both dimension routes of a preset give rows of at most two entries,
    # so the union-find ranks them all
    order = symmetric_group(n).order
    for rows in (
        list(quotients._commutator_rows(n, params, twisted=True)),
        list(quotients._commutator_rows(n, params, twisted=False, transpose=True)),
    ):
        assert max(map(len, rows), default=0) <= 2
        assert rank(rows, order) == linalg._echelon(rows, order).dim


def echelon_nullspace(rows, dimension):
    """The nullspace by elimination alone: the echelon of every row, then
    back-substitution, one vector per free column, and their span."""
    ech = linalg._echelon(rows, dimension)
    raw = []
    for f in range(dimension):
        if f in ech.rows:
            continue
        vec = {f: 1}
        for p in ech.occurs.get(f, ()):
            row = ech.rows[p]
            vec[p] = -Fraction(row[f], row[p])
        raw.append(vec)
    return span(raw, dimension)


# Roots of unity and b = 0 included: a^2 / b = -1 for (-1, 1), and (1/3, 0)
# gives gains that are powers of 3, most of them Fractions.
GENERIC = [
    AlgebraParams(Fraction(2, 3), Fraction(1, 2)),
    AlgebraParams(Fraction(2), Fraction(1, 3)),
    AlgebraParams(Fraction(-1), Fraction(1)),
    AlgebraParams(Fraction(1, 3), Fraction(0)),
]


@pytest.mark.parametrize(
    "params, n",
    [(params, n) for params in PRESETS for n in range(1, 7)]
    + [(params, n) for params in GENERIC for n in range(1, 6)],
    ids=[f"{name}-{n}" for name in PRESET_IDS for n in range(1, 7)]
    + [f"{p.a},{p.b}-{n}" for p in GENERIC for n in range(1, 6)],
)
@pytest.mark.parametrize("twisted", [False, True], ids=["center", "twisted"])
def test_nullspace_of_commutator_rows_matches_the_echelon(params, n, twisted):
    # the center and the twisted center: the forest, with the longer rows
    # of a generic pair projected onto its free roots, against elimination
    # of every row
    order = symmetric_group(n).order
    rows = list(quotients._commutator_rows(n, params, twisted=twisted, transpose=True))
    null = nullspace(rows, order)
    assert null == echelon_nullspace(rows, order)
    assert rank(rows, order) == order - null.dim
