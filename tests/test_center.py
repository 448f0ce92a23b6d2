import time
from fractions import Fraction
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PRESETS, PRESET_IDS, algebras, element_to_vector, vector_to_element
from mobius_centers import centers
from mobius_centers.algebra import (
    GROUP_ALGEBRA,
    NILCOXETER,
    ZERO_HECKE,
    basis_element,
    gram_matrix,
    mul,
    parse_algebra,
    trace,
    unit,
    zero,
)
from mobius_centers.centers import (
    CONJECTURE_REPORT_SCHEMA,
    CenterBasis,
    center,
    center_dim,
    conjecture_report_to_json,
    dual_center_basis,
    is_central,
    multiplication_table,
    nc_center_basis,
    twisted_center,
    verify_hn_conjecture,
)
from mobius_centers.linalg import NonUniqueSolutionError, NoSolutionError, span
from mobius_centers.partitions import center_dim_formula, partitions
from mobius_centers.perm import evaluate, longest_element, symmetric_group
from mobius_centers.quotients import (
    commutator_span,
    mobius_classes,
    quotient_dim,
    twisted_commutator_span,
)

T = basis_element


def elem(params, n, *word_coeffs):
    out = zero(params, n)
    for word, coeff in word_coeffs:
        out = out + T(params, evaluate(tuple(word), n)).scaled(coeff)
    return out


# --- commutants -----------------------------------------------------------------


def test_center_dimensions_small():
    assert center(3, NILCOXETER).dim == 3
    assert center(3, ZERO_HECKE).dim == 3
    assert center(1, GROUP_ALGEBRA).dim == 1


@pytest.mark.parametrize("n", range(2, 6))
def test_group_algebra_center_counts_cycle_types(n):
    # classical oracle for the commutant machinery
    cycle_type_count = len({tuple(sorted(_cycle_sizes(w))) for w in symmetric_group(n).perms})
    assert center(n, GROUP_ALGEBRA).dim == cycle_type_count


def _cycle_sizes(w):
    seen = [False] * w.n
    sizes = []
    for start in range(1, w.n + 1):
        if seen[start - 1]:
            continue
        size, p = 0, start
        while not seen[p - 1]:
            seen[p - 1] = True
            p = w(p)
            size += 1
        sizes.append(size)
    return sizes


@pytest.mark.parametrize("params", PRESETS, ids=PRESET_IDS)
@pytest.mark.parametrize("n", range(1, 6))
def test_center_dim_matches_twisted_quotient(n, params):
    assert center(n, params).dim == quotient_dim(n, params, twisted=True)


@pytest.mark.parametrize("params", [NILCOXETER, ZERO_HECKE], ids=["nilcoxeter", "0-hecke"])
def test_golden_n7_dimension_by_all_routes(params):
    # dim Z(NC_7) = dim Z(H_7) = 16 by the formula, the twisted-quotient rank
    # and the commutant rank; each route takes about a second, the budget is
    # generous
    start = time.perf_counter()
    assert center_dim_formula(7) == 16
    assert quotient_dim(7, params, twisted=True) == 16
    assert center(7, params).dim == 16
    assert time.perf_counter() - start < 120.0


@pytest.mark.parametrize(
    "params, want", [(NILCOXETER, 26), (ZERO_HECKE, 26), (GROUP_ALGEBRA, 22)], ids=PRESET_IDS
)
def test_golden_n8_dimension_by_both_routes(params, want):
    # 26 classes for both presets by the formula, and p(8) = 22 for the
    # group algebra; each takes several seconds of CPU
    assert want == (len(partitions(8)) if params == GROUP_ALGEBRA else center_dim_formula(8))
    assert quotient_dim(8, params, twisted=True) == want
    assert center(8, params).dim == want
    # the commutant rows once more, ranked by the union-find rather than
    # reduced to a nullspace basis
    assert center_dim(8, params) == want


@given(st.integers(min_value=1, max_value=4), algebras)
@example(4, NILCOXETER)
@example(4, ZERO_HECKE)
@example(4, GROUP_ALGEBRA)
@settings(max_examples=40, deadline=None)
def test_public_subspaces_hold_fractions(n, params):
    # rows reach the echelon as int or Fraction dicts; every basis that
    # leaves it holds Fractions
    for space in (
        center(n, params),
        twisted_center(n, params),
        twisted_commutator_span(n, params),
        commutator_span(n, params),
    ):
        for v in space.basis:
            assert v.entries
            assert all(type(c) is Fraction for c in v.entries.values())


@given(st.integers(min_value=1, max_value=4), algebras)
@settings(max_examples=60, deadline=None)
def test_rank_routes_agree_for_any_pair(n, params):
    # the trace form is nondegenerate for every (a, b), so the center is
    # dual to the twisted quotient and the twisted center to the plain one
    assert quotient_dim(n, params, twisted=True) == center(n, params).dim
    assert quotient_dim(n, params, twisted=False) == twisted_center(n, params).dim


@pytest.mark.parametrize(
    "n, pair",
    [(n, pair) for n in (5, 6) for pair in ("1,1/3", "2/3,1/2", "5,5")] + [(7, "2/3,1/2")],
)
def test_golden_generic_pairs_by_both_routes(n, pair):
    # positive pairs away from the presets give a semisimple algebra, whose
    # center has one dimension per irreducible, p(n) of them: p(5) = 7,
    # p(6) = 11 and p(7) = 15; the elimination scales at non-unit pivots
    # here.  n = 7 takes a few seconds, so it runs for one pair only.
    params = parse_algebra(pair)
    want = {5: 7, 6: 11, 7: 15}[n]
    assert len(partitions(n)) == want
    assert quotient_dim(n, params, twisted=True) == want
    assert center(n, params).dim == want


@pytest.mark.parametrize("params", PRESETS, ids=PRESET_IDS)
@pytest.mark.parametrize("n", range(1, 5))
def test_twisted_center_dim_matches_plain_quotient(n, params):
    order = symmetric_group(n).order
    assert twisted_center(n, params).dim == order - commutator_span(n, params).dim


def test_twisted_center_of_single_strand_is_everything():
    assert twisted_center(1, NILCOXETER).dim == 1


def test_twisted_center_nc3_dimension():
    # derived by rank; the duality only states the isomorphism
    assert twisted_center(3, NILCOXETER).dim == 4


@pytest.mark.parametrize("params", PRESETS, ids=PRESET_IDS)
@pytest.mark.parametrize("n", range(1, 5))
def test_center_members_commute_with_generators(n, params):
    for v in center(n, params).basis:
        assert is_central(vector_to_element(v.entries, n, params))


# --- the closed-form basis --------------------------------------------------------


def test_nc3_center_basis_is_the_expected_set():
    found = list(nc_center_basis(3).elements)
    expected = [
        elem(NILCOXETER, 3, ([], 1)),
        elem(NILCOXETER, 3, ([1, 2], 1), ([2, 1], 1)),
        elem(NILCOXETER, 3, ([1, 2, 1], 1)),
    ]
    assert len(found) == 3
    for e in expected:
        assert e in found


def test_nc1_center_basis_is_unit():
    basis = nc_center_basis(1)
    assert list(basis.elements) == [elem(NILCOXETER, 1, ([], 1))]


def test_nc4_center_basis_degrees():
    basis = nc_center_basis(4)
    assert len(basis) == 5
    top = 6
    classes = mobius_classes(4, NILCOXETER)
    for members, element in zip(classes.classes, basis.elements):
        class_length = {w.length for w in members}.pop()
        degrees = {w.length for w in element.terms}
        assert degrees == {top - class_length}


@pytest.mark.parametrize("n", range(1, 7))
def test_nc_center_basis_is_central_homogeneous_and_spans(n):
    basis = nc_center_basis(n)
    assert len(basis) == center_dim_formula(n)
    for element in basis.elements:
        assert is_central(element)
        assert len({w.length for w in element.terms}) == 1
    vectors = [element_to_vector(z) for z in basis.elements]
    assert span(vectors, symmetric_group(n).order) == center(n, NILCOXETER)


# --- the trace-dual basis -----------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 6))
def test_dual_basis_equals_closed_form_for_nc(n):
    dual = dual_center_basis(n, NILCOXETER)
    closed = nc_center_basis(n)
    assert dual.labels == closed.labels
    assert list(dual.elements) == list(closed.elements)


def test_dual_basis_rejects_group_algebra():
    with pytest.raises(ValueError):
        dual_center_basis(3, GROUP_ALGEBRA)


@pytest.fixture
def edited_center(monkeypatch):
    """Serve ``dual_center_basis`` the 0-Hecke center basis at n = 4 as
    changed by a given function of it."""

    def edit(change):
        basis = change(center(4, ZERO_HECKE).basis)
        monkeypatch.setattr(centers, "center", lambda n, params: SimpleNamespace(basis=basis))

    dual_center_basis.cache_clear()
    yield edit
    dual_center_basis.cache_clear()


def test_dual_basis_fails_without_a_center_vector(edited_center):
    # some class then pairs to 1 with no central element
    edited_center(lambda basis: basis[:-1])
    with pytest.raises(
        NoSolutionError,
        match=r"class of Permutation\(\[[\d, ]+\]\) at n=4, algebra 0-hecke: inconsistent",
    ):
        dual_center_basis(4, ZERO_HECKE)


def test_dual_basis_fails_with_a_repeated_center_vector(edited_center):
    # the difference of the two copies pairs to 0 with everything
    edited_center(lambda basis: basis + basis[:1])
    with pytest.raises(
        NonUniqueSolutionError,
        match=r"class of Permutation\(\[[\d, ]+\]\) at n=4, algebra 0-hecke: solution set",
    ):
        dual_center_basis(4, ZERO_HECKE)


def test_h2_dual_basis_frozen():
    dual = dual_center_basis(2, ZERO_HECKE)
    assert list(dual.elements) == [
        elem(ZERO_HECKE, 2, ([], -1), ([1], 1)),
        elem(ZERO_HECKE, 2, ([], 1)),
    ]


def test_h3_dual_basis_frozen():
    dual = dual_center_basis(3, ZERO_HECKE)
    assert list(dual.elements) == [
        elem(ZERO_HECKE, 3, ([], -1), ([1], 1), ([2], 1), ([1, 2], -1), ([2, 1], -1), ([1, 2, 1], 1)),
        elem(ZERO_HECKE, 3, ([1], -1), ([2], -1), ([1, 2], 1), ([2, 1], 1)),
        elem(ZERO_HECKE, 3, ([], 1)),
    ]


def test_h3_dual_element_of_top_class_pairs_correctly():
    # the element dual to the class of the longest word: pairing 1 with it
    # and 0 with the other five basis elements
    dual = dual_center_basis(3, ZERO_HECKE)
    z = dual.elements[-1]
    w0 = longest_element(3)
    for w in symmetric_group(3).perms:
        expected = 1 if w == w0 else 0
        assert trace(mul(T(ZERO_HECKE, w), z)) == expected


@pytest.mark.parametrize("params", [NILCOXETER, ZERO_HECKE], ids=["nilcoxeter", "0-hecke"])
@pytest.mark.parametrize("n", range(1, 5))
def test_dual_pairing_is_the_class_indicator(n, params):
    classes = mobius_classes(n, params)
    dual = dual_center_basis(n, params)
    for members, z in zip(classes.classes, dual.elements):
        assert is_central(z)
        for w in symmetric_group(n).perms:
            expected = 1 if w in members else 0
            assert trace(mul(T(params, w), z)) == expected


@pytest.mark.parametrize("params", [NILCOXETER, ZERO_HECKE], ids=["nilcoxeter", "0-hecke"])
@pytest.mark.parametrize("n", [5, 6])
def test_dual_pairing_off_the_gram_matrix_is_the_class_indicator(n, params):
    # beyond n = 4 the pairing trace(T_u * z) is read off row u of the Gram
    # matrix rather than made by mul
    classes = mobius_classes(n, params)
    dual = dual_center_basis(n, params)
    gram = gram_matrix(n, params)
    for ranks, z in zip(classes.member_ranks, dual.elements):
        assert is_central(z)
        # the same exact sums, with each integral coordinate as an int: a
        # Fraction product per Gram entry made this test take 12 s at n = 6
        coords = {
            v: c.numerator if c.denominator == 1 else c
            for v, c in element_to_vector(z).items()
        }
        members = set(ranks)
        assert [sum(row[v] * c for v, c in coords.items()) for row in gram] == [
            1 if u in members else 0 for u in range(len(gram))
        ]


def test_dual_basis_on_one_strand():
    dual = dual_center_basis(1, ZERO_HECKE)
    assert list(dual.elements) == [elem(ZERO_HECKE, 1, ([], 1))]


# --- multiplication tables -----------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 6))
def test_nc_multiplication_table_is_trivial(n):
    basis = nc_center_basis(n)
    table = multiplication_table(basis)
    unit_element = elem(NILCOXETER, n, ([], 1))
    unit_slot = list(basis.elements).index(unit_element)
    k = len(basis)
    for i in range(k):
        for j in range(k):
            coords = table[i][j]
            if i == unit_slot:
                expected = [Fraction(1) if t == j else Fraction(0) for t in range(k)]
            elif j == unit_slot:
                expected = [Fraction(1) if t == i else Fraction(0) for t in range(k)]
            else:
                expected = [Fraction(0)] * k
            assert coords == expected


def test_h3_multiplication_table_frozen_and_consistent():
    basis = dual_center_basis(3, ZERO_HECKE)
    table = multiplication_table(basis)
    as_ints = [[[int(c) for c in cell] for cell in row] for row in table]
    assert as_ints == [
        [[-1, 0, 0], [0, 0, 0], [1, 0, 0]],
        [[0, 0, 0], [0, -1, 0], [0, 1, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    ]
    # reconstruction: the coordinates must reproduce the product exactly
    for i, zi in enumerate(basis.elements):
        for j, zj in enumerate(basis.elements):
            rebuilt = zero(ZERO_HECKE, 3)
            for c, zk in zip(table[i][j], basis.elements):
                rebuilt = rebuilt + zk.scaled(c)
            assert rebuilt == mul(zi, zj)


@pytest.mark.parametrize(
    "elements, reason",
    [
        # T_1 * T_1 = T_e leaves the span of T_1
        ((basis_element(GROUP_ALGEBRA, evaluate((1,), 3)),), "target is outside the span"),
        ((unit(GROUP_ALGEBRA, 3),) * 2, "basis vectors are linearly dependent"),
    ],
    ids=["not-closed", "dependent"],
)
def test_multiplication_table_rejects_an_inconsistent_basis(elements, reason):
    labels = tuple(evaluate((), 3) for _ in elements)
    basis = CenterBasis(3, GROUP_ALGEBRA, labels, elements)
    with pytest.raises(RuntimeError, match=f"center basis at n=3 is inconsistent: {reason}"):
        multiplication_table(basis)


# --- the 0-Hecke support report --------------------------------------------------------


def test_conjecture_trivial_on_one_strand():
    report = verify_hn_conjecture(1)
    assert len(report.classes) == 1
    assert report.classes[0].support_in_complements
    assert report.unique_complement_per_crossing_number


def test_conjecture_findings_n2():
    report = verify_hn_conjecture(2)
    by_rep = {f.representative.image: f for f in report.classes}
    # the dual of the identity class is T_1 - T_e, whose support leaves the
    # single complement {T_1} of the identity: the inclusion fails
    assert not by_rep[(1, 2)].support_in_complements
    assert by_rep[(2, 1)].support_in_complements
    assert report.unique_complement_per_crossing_number
    assert all(f.integer_coefficients for f in report.classes)


def test_conjecture_findings_n3():
    report = verify_hn_conjecture(3)
    by_rep = {f.representative.image: f for f in report.classes}
    assert not by_rep[(1, 2, 3)].support_in_complements
    middle = by_rep[(1, 3, 2)]
    assert middle.support_in_complements
    assert middle.integer_coefficients
    coeffs = {v.image: c for v, c in middle.coefficients}
    assert coeffs == {
        (1, 3, 2): -1,
        (2, 1, 3): -1,
        (2, 3, 1): 1,
        (3, 1, 2): 1,
        (3, 2, 1): 0,
    }
    assert by_rep[(3, 2, 1)].support_in_complements
    # the word (1, 2) element is complementary to both itself and its
    # reverse, two complements with two crossings each
    assert not report.unique_complement_per_crossing_number


def test_conjecture_dual_elements_exist_and_are_unique_up_to_n4():
    for n in range(1, 5):
        report = verify_hn_conjecture(n)
        assert len(report.classes) == center_dim_formula(n)


def test_conjecture_report_json_schema():
    report = conjecture_report_to_json(verify_hn_conjecture(3))
    jsonschema.validate(report, CONJECTURE_REPORT_SCHEMA)
    assert report["n"] == 3
    assert [c["representative"] for c in report["classes"]] == [[], [2], [1, 2, 1]]
