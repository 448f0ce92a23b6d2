"""The integer-index kernel against the element-level products it replaced.

Every consumer of ``generator_terms`` is compared, entry by entry, with the
same quantity built from ``mul_left_generator`` / ``mul_right_generator`` on
``basis_element``, for the presets and for drawn pairs (a, b).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PRESETS
from mobius_centers.algebra import (
    AlgebraParams,
    basis_element,
    generator_terms,
    mul_left_generator,
    mul_right_generator,
    preset_name,
    single_term_actions,
)
from mobius_centers.centers import _constraint_rows
from mobius_centers.linalg import SparseVector
from mobius_centers.perm import symmetric_group
from mobius_centers.quotients import generator_vectors

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero = rationals.filter(bool)
algebras = st.one_of(
    st.sampled_from(PRESETS),
    st.builds(AlgebraParams, rationals, rationals),
    st.builds(AlgebraParams, nonzero, nonzero),
)
sizes = st.integers(min_value=1, max_value=4)


def element_vector(x) -> dict:
    table = symmetric_group(x.n)
    return {table.rank(u): c for u, c in x.terms.items()}


def reference_generator_vectors(n, params, twisted):
    table = symmetric_group(n)
    out = []
    for i in range(1, n):
        j = n - i if twisted else i
        for w in table.perms:
            x = basis_element(params, w)
            diff = mul_left_generator(i, x) - mul_right_generator(x, j)
            if not diff.is_zero():
                out.append(SparseVector(table.order, element_vector(diff)))
    return out


def reference_constraint_rows(n, params, twisted):
    table = symmetric_group(n)
    rows = {}
    for i in range(1, n):
        for k, w in enumerate(table.perms):
            x = basis_element(params, w)
            if twisted:
                diff = mul_right_generator(x, i) - mul_left_generator(n - i, x)
            else:
                diff = mul_left_generator(i, x) - mul_right_generator(x, i)
            for u, c in element_vector(diff).items():
                rows.setdefault((i, u), {})[k] = c
    return [SparseVector(table.order, r) for r in rows.values()]


def as_entries(vectors):
    return [sorted(v.entries.items()) for v in vectors]


def assert_fraction_entries(vectors):
    for v in vectors:
        assert all(type(c) is Fraction for c in v.entries.values())


@given(sizes, algebras)
@settings(max_examples=80, deadline=None)
def test_generator_terms_and_single_term_actions_match_element_products(n, params):
    table = symmetric_group(n)
    single = single_term_actions(n, params) if preset_name(params) else None
    for side, left in enumerate((True, False)):
        for i in range(1, n):
            for k, terms in enumerate(generator_terms(n, params, i, left)):
                x = basis_element(params, table.perms[k])
                expect = element_vector(
                    mul_left_generator(i, x) if left else mul_right_generator(x, i)
                )
                assert dict(terms) == expect
                assert len(terms) == len(expect) <= 2
                if single is not None:
                    got = single[side][i - 1][k]
                    assert expect == ({} if got == -1 else {got: 1})


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
    # depends only on which entry of a product is listed first.
    got = _constraint_rows(n, params, twisted)
    want = reference_constraint_rows(n, params, twisted)
    assert sorted(as_entries(got)) == sorted(as_entries(want))
    assert_fraction_entries(got)
