"""The integer-index kernel against the element-level products it replaced.

Every consumer of the index tables is compared, entry by entry, with the
same quantity built from ``mul_left_generator`` / ``mul_right_generator`` on
``basis_element``, for the presets and for drawn pairs (a, b).  The full
product and the Gram matrix are compared with ``reference_mul``, which folds
the reduced word of each term through ``mul_left_generator``.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PRESET_IDS, PRESETS, algebras, element_to_vector, nonzero, rationals
from mobius_centers.algebra import (
    ZERO_HECKE,
    AlgebraElement,
    AlgebraParams,
    _integral,
    _push,
    basis_element,
    commutator_terms,
    gram_matrix,
    mul,
    mul_left_generator,
    mul_right_generator,
    preset_name,
    single_term_actions,
    trace,
    zero,
)
from mobius_centers.centers import dual_center_basis
from mobius_centers.linalg import SparseVector, nullspace, rank, span
from mobius_centers.perm import reduced_word, symmetric_group
from mobius_centers.quotients import _commutator_rows, generator_vectors

sizes = st.integers(min_value=1, max_value=4)


def reference_generator_vectors(n, params, twisted):
    table = symmetric_group(n)
    out = []
    for i in range(1, n):
        j = n - i if twisted else i
        for w in table.perms:
            x = basis_element(params, w)
            diff = mul_left_generator(i, x) - mul_right_generator(x, j)
            if not diff.is_zero():
                out.append(SparseVector(table.order, element_to_vector(diff)))
    return out


def reference_constraint_rows(n, params, twisted):
    table = symmetric_group(n)
    rows = {}
    for i in range(1, n):
        for k, w in enumerate(table.perms):
            x = basis_element(params, w)
            diff = mul_left_generator(i, x) - mul_right_generator(x, n - i if twisted else i)
            for u, c in element_to_vector(diff).items():
                rows.setdefault((i, u), {})[k] = c
    return list(rows.values())


def as_entries(vectors):
    return [sorted(v.entries.items()) for v in vectors]


def assert_fraction_entries(vectors):
    for v in vectors:
        assert all(type(c) is Fraction for c in v.entries.values())


def assert_kernel_entries(rows):
    # the form rows take into the echelon: nonzero ints or Fractions
    for row in rows:
        assert all(type(c) in (int, Fraction) and c for c in row.values())


@given(sizes, algebras)
@settings(max_examples=80, deadline=None)
def test_generator_terms_and_single_term_actions_match_element_products(n, params):
    # _push applies the two-case rule off one lmul row; for the presets the
    # action tables give each product as a single index or zero
    table = symmetric_group(n)
    a, b = _integral(params.a), _integral(params.b)
    single = single_term_actions(n, params) if preset_name(params) else None
    for i in range(1, n):
        for k, w in enumerate(table.perms):
            x = basis_element(params, w)
            expect = element_to_vector(mul_left_generator(i, x))
            assert _push({k: 1}, table.lmul[i - 1], a, b) == expect
            if single is not None:
                right = element_to_vector(mul_right_generator(x, i))
                for side, product in enumerate((expect, right)):
                    got = single[side][i - 1][k]
                    assert product == ({} if got == -1 else {got: 1})


def reference_single_term_actions(n, params):
    # the action tables as read off the element products, one at a time
    def index(product):
        (k,) = element_to_vector(product) or (-1,)
        return k

    elements = [basis_element(params, w) for w in symmetric_group(n).perms]
    left = tuple(tuple(index(mul_left_generator(i, x)) for x in elements) for i in range(1, n))
    right = tuple(tuple(index(mul_right_generator(x, i)) for x in elements) for i in range(1, n))
    return left, right


@pytest.mark.parametrize("params", PRESETS, ids=PRESET_IDS)
@pytest.mark.parametrize("n", range(1, 7))
def test_single_term_actions_match_generator_terms(n, params):
    assert single_term_actions(n, params) == reference_single_term_actions(n, params)


@given(sizes, algebras, st.booleans())
@settings(max_examples=60, deadline=None)
def test_generator_vectors_match_element_products(n, params, twisted):
    got = generator_vectors(n, params, twisted)
    assert as_entries(got) == as_entries(reference_generator_vectors(n, params, twisted))
    assert_fraction_entries(got)


@given(sizes, algebras, st.booleans())
@settings(max_examples=60, deadline=None)
def test_constraint_rows_match_element_products(n, params, twisted):
    # Rows are compared as a multiset: their order within one generator
    # depends only on which entry of a product is listed first.  They come
    # as a one-shot generator of plain dicts, scaled by params.denominator.
    rows = _commutator_rows(n, params, twisted, transpose=True)
    assert iter(rows) is rows
    got = list(rows)
    d = params.denominator
    want = [{k: d * c for k, c in r.items()} for r in reference_constraint_rows(n, params, twisted)]
    assert sorted(sorted(r.items()) for r in got) == sorted(sorted(r.items()) for r in want)
    assert_kernel_entries(got)


@given(sizes, algebras)
@example(4, PRESETS[0])
@example(4, PRESETS[1])
@example(4, PRESETS[2])
@example(4, AlgebraParams(Fraction(2, 3), Fraction(1, 2)))
@settings(max_examples=40, deadline=None)
def test_commutator_terms_match_element_products_for_every_generator_pair(n, params):
    # The columns of x -> D * (T_i x - x T_j), and with transpose its rows,
    # each highest index first, for every pair (i, j): the routes use only
    # j = i and j = n - i.
    table = symmetric_group(n)
    d = params.denominator
    ks = range(table.order - 1, -1, -1)
    for i in range(1, n):
        for j in range(1, n):
            images = [
                element_to_vector(mul_left_generator(i, x) - mul_right_generator(x, j))
                for x in (basis_element(params, w) for w in table.perms)
            ]
            columns = [{u: d * c for u, c in images[k].items()} for k in ks]
            rows = [{k: d * images[k][u] for k in ks if u in images[k]} for u in ks]
            for transpose, want in ((False, columns), (True, rows)):
                got = list(commutator_terms(n, params, i, j, transpose))
                assert got == want
                assert all(type(c) is int and c for row in got for c in row.values())


@given(sizes, algebras, st.booleans())
@settings(max_examples=60, deadline=None)
def test_kernel_rows_are_nonzero_int_dicts(n, params, twisted):
    # the rows elimination takes hold no Fraction, whatever (a, b) is
    order = symmetric_group(n).order
    rows = list(_commutator_rows(n, params, twisted, transpose=True))
    for i in range(1, n):
        for transpose in (False, True):
            rows += commutator_terms(n, params, i, n - i if twisted else i, transpose)
    for row in rows:
        assert type(row) is dict
        assert all(type(j) is int and 0 <= j < order for j in row)
        assert all(type(c) is int and c for c in row.values()), row


@given(st.integers(min_value=1, max_value=5), algebras, st.booleans())
@example(5, PRESETS[1], True)
@example(5, AlgebraParams(Fraction(2, 3), Fraction(1, 2)), False)
@settings(max_examples=30, deadline=None)
def test_row_order_changes_no_result(n, params, twisted):
    # The kernel feeds each generator's rows highest basis index first.  The
    # echelon is canonical, so the same rows fed in reverse (each
    # generator's lowest index first) give the same span, rank and
    # nullspace, and the span is that of the Fraction generator vectors.
    order = symmetric_group(n).order
    rows = list(_commutator_rows(n, params, twisted))
    space = span(rows, order)
    assert space == span(rows[::-1], order)
    assert space == span([v.entries for v in generator_vectors(n, params, twisted)], order)
    assert rank(rows, order) == rank(rows[::-1], order) == space.dim
    assert nullspace(rows, order) == nullspace(rows[::-1], order)
    constraints = list(_commutator_rows(n, params, twisted, transpose=True))
    null = nullspace(constraints, order)
    assert null == nullspace(constraints[::-1], order)
    assert rank(constraints, order) == rank(constraints[::-1], order) == order - null.dim


def reference_mul(x, y):
    """x * y, each term c T_u of x applied to y one generator at a time."""
    out = zero(x.params, x.n)
    for u, c in x.terms.items():
        acc = y
        for i in reversed(reduced_word(u)):
            acc = mul_left_generator(i, acc)
        out = out + acc.scaled(c)
    return out


def sparse_elements(n, params):
    perms = symmetric_group(n).perms
    return st.builds(
        AlgebraElement,
        st.just(n),
        st.just(params),
        st.dictionaries(st.sampled_from(perms), rationals, max_size=6),
    )


@st.composite
def element_pairs(draw):
    n = draw(sizes)
    params = draw(algebras)
    return draw(sparse_elements(n, params)), draw(sparse_elements(n, params))


@st.composite
def dense_pairs(draw):
    """A left factor whose terms share long word prefixes, full support at
    n = 4 or a 0-Hecke trace-dual basis element at n = 5, times a sparse
    element."""
    if draw(st.booleans()):
        n, params = 4, draw(algebras)
        perms = symmetric_group(n).perms
        x = AlgebraElement(n, params, {w: draw(nonzero) for w in perms})
    else:
        n, params = 5, ZERO_HECKE
        x = draw(st.sampled_from(dual_center_basis(n, params).elements))
    return x, draw(sparse_elements(n, params))


@given(element_pairs() | dense_pairs())
@settings(max_examples=200, deadline=None)
def test_mul_matches_element_products(pair):
    x, y = pair
    got = mul(x, y)
    assert got == reference_mul(x, y)
    assert all(type(c) is Fraction for c in got.terms.values())


@given(sizes, algebras)
@settings(max_examples=40, deadline=None)
def test_gram_matrix_matches_element_traces(n, params):
    elements = [basis_element(params, w) for w in symmetric_group(n).perms]
    got = gram_matrix(n, params)
    assert got == [[trace(reference_mul(x, y)) for y in elements] for x in elements]
    entries = [c for row in got for c in row]
    # the kernel's number convention: ints when integral, Fractions otherwise
    assert all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in entries
    )
    # one shared object each for 0 and 1, not one per entry
    assert len({id(c) for c in entries if c == 0}) <= 1
    assert len({id(c) for c in entries if c == 1}) <= 1
