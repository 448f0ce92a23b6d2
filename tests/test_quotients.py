from fractions import Fraction
from itertools import permutations

import jsonschema
import pytest

from conftest import PRESETS, PRESET_IDS, element_to_vector
from mobius_centers.algebra import (
    GROUP_ALGEBRA,
    NILCOXETER,
    ZERO_HECKE,
    AlgebraParams,
    basis_element,
    involve,
    mul,
    mul_left_generator,
    mul_right_generator,
)
from mobius_centers.linalg import span
from mobius_centers.partitions import expected_class_count, partitions
from mobius_centers.perm import (
    Permutation,
    evaluate,
    identity,
    longest_element,
    symmetric_group,
)
from mobius_centers.quotients import (
    CLASS_REPORT_SCHEMA,
    UnsupportedParamsError,
    class_census,
    classes_to_json,
    commutator_span,
    cycle_type,
    mobius_classes,
    quotient_dim,
    twisted_commutator_span,
)


def perms_of(n, *words):
    return frozenset(evaluate(tuple(word), n) for word in words)


# --- spans ----------------------------------------------------------------------


def test_twisted_span_dimensions():
    assert twisted_commutator_span(3, NILCOXETER).dim == 3
    assert twisted_commutator_span(3, ZERO_HECKE).dim == 3
    assert twisted_commutator_span(1, NILCOXETER).dim == 0


def test_commutator_span_dimensions():
    assert commutator_span(1, ZERO_HECKE).dim == 0
    # classical: the group algebra center has one dimension per cycle type
    assert 6 - commutator_span(3, GROUP_ALGEBRA).dim == 3


def test_twisted_span_contains_t1_minus_t2():
    space = twisted_commutator_span(3, NILCOXETER)
    v = element_to_vector(
        basis_element(NILCOXETER, evaluate((1,), 3))
        - basis_element(NILCOXETER, evaluate((2,), 3))
    )
    assert span([*(b.entries for b in space.basis), v], 6) == space


def test_quotient_dims():
    assert quotient_dim(3, NILCOXETER, twisted=True) == 3
    assert quotient_dim(4, NILCOXETER, twisted=True) == 5
    assert quotient_dim(6, NILCOXETER, twisted=True) == 12


@pytest.mark.parametrize("n", range(1, 6))
def test_nc_and_hecke_quotients_agree(n):
    assert quotient_dim(n, NILCOXETER, twisted=True) == quotient_dim(
        n, ZERO_HECKE, twisted=True
    )


@pytest.mark.parametrize("params", PRESETS, ids=PRESET_IDS)
@pytest.mark.parametrize("n", range(1, 5))
def test_generator_edges_span_all_twisted_commutators(n, params):
    # every a b - b f(a) over basis pairs must already lie in the span of
    # the generator-sided vectors
    table = symmetric_group(n)
    full = []
    for a in table.perms:
        fa = involve(basis_element(params, a))
        ta = basis_element(params, a)
        for b in table.perms:
            tb = basis_element(params, b)
            diff = mul(ta, tb) - mul(tb, fa)
            if not diff.is_zero():
                full.append(element_to_vector(diff))
    assert span(full, table.order) == twisted_commutator_span(n, params)


# --- classes ----------------------------------------------------------------------


def test_nc3_classes():
    classes = mobius_classes(3, NILCOXETER)
    assert set(classes.classes) == {
        perms_of(3, ()),
        perms_of(3, (1,), (2,)),
        perms_of(3, (1, 2, 1)),
    }
    assert classes.zero_class == perms_of(3, (1, 2), (2, 1))


def test_h3_classes():
    classes = mobius_classes(3, ZERO_HECKE)
    assert set(classes.classes) == {
        perms_of(3, ()),
        perms_of(3, (1,), (2,), (1, 2), (2, 1)),
        perms_of(3, (1, 2, 1)),
    }
    assert classes.zero_class is None


def test_single_strand_has_one_class():
    classes = mobius_classes(1, NILCOXETER)
    assert classes.classes == (frozenset({identity(1)}),)
    assert classes.zero_class is None


def test_classes_reject_generic_params():
    with pytest.raises(UnsupportedParamsError):
        mobius_classes(3, AlgebraParams(Fraction(1), Fraction(1)))


@pytest.mark.parametrize("n", range(1, 7))
def test_nc_class_count_matches_quotient_dim(n):
    classes = mobius_classes(n, NILCOXETER)
    assert len(classes.classes) == quotient_dim(n, NILCOXETER, twisted=True)


@pytest.mark.parametrize("n", range(1, 6))
def test_hecke_class_count_matches_quotient_dim(n):
    classes = mobius_classes(n, ZERO_HECKE)
    assert len(classes.classes) == quotient_dim(n, ZERO_HECKE, twisted=True)
    assert classes.zero_class is None


@pytest.mark.parametrize("n", range(1, 6))
def test_group_class_count_matches_quotient_dim(n):
    classes = mobius_classes(n, GROUP_ALGEBRA)
    assert len(classes.classes) == quotient_dim(n, GROUP_ALGEBRA, twisted=True)
    assert classes.zero_class is None


@pytest.mark.parametrize("n", range(2, 7))
def test_nc_classes_have_constant_length_and_cycle_type(n):
    for members in mobius_classes(n, NILCOXETER).classes:
        assert len({w.length for w in members}) == 1
        assert len({cycle_type(w) for w in members}) == 1


@pytest.mark.parametrize("params", PRESETS, ids=PRESET_IDS)
@pytest.mark.parametrize("n", range(1, 6))
def test_members_in_length_then_word_order(n, params):
    def key(w):
        return (w.length, w.image)

    classes = mobius_classes(n, params)
    assert tuple(map(frozenset, classes.members)) == classes.classes
    for members, rep in zip(classes.members, classes.representatives):
        assert list(members) == sorted(members, key=key)
        assert rep == min(members, key=key)
    reps = [key(rep) for rep in classes.representatives]
    assert reps == sorted(reps)


def eager_classes(n, params):
    """The classes as Permutations, closed from the algebra's own products:
    (classes, zero_class, members, representatives)."""
    perms = [Permutation(img) for img in permutations(range(1, n + 1))]
    root = {w: w for w in perms}
    root[None] = None  # the zero sink

    def find(w):
        while root[w] != w:
            w = root[w]
        return w

    def single(x):
        (w,) = x.terms or (None,)
        return w

    for w in perms:
        t = basis_element(params, w)
        for i in range(1, n):
            left = single(mul_left_generator(i, t))
            right = single(mul_right_generator(t, n - i))
            root[find(left)] = find(right)
    groups = {}
    for w in sorted(perms, key=lambda w: (w.length, w.image)):
        groups.setdefault(find(w), []).append(w)
    zero = frozenset(groups.pop(find(None), ())) or None
    members = tuple(map(tuple, groups.values()))
    return (
        tuple(map(frozenset, members)),
        zero,
        members,
        tuple(m[0] for m in members),
    )


@pytest.mark.parametrize("params", PRESETS, ids=PRESET_IDS)
@pytest.mark.parametrize("n", range(1, 7))
def test_permutation_views_match_eager_classes(n, params):
    mobius_classes.cache_clear()
    classes = mobius_classes(n, params)
    assert (
        classes.classes,
        classes.zero_class,
        classes.members,
        classes.representatives,
    ) == eager_classes(n, params)
    table = symmetric_group(n)
    assert classes.member_ranks == tuple(
        tuple(table.rank(w) for w in m) for m in classes.members
    )
    assert sorted(classes.zero_ranks) == sorted(
        table.rank(w) for w in classes.zero_class or ()
    )


@pytest.mark.parametrize("params", PRESETS, ids=PRESET_IDS)
def test_class_report_builds_no_permutations(params):
    symmetric_group.cache_clear()
    mobius_classes.cache_clear()
    report = classes_to_json(mobius_classes(6, params))
    assert "perms" not in vars(symmetric_group(6))
    jsonschema.validate(report, CLASS_REPORT_SCHEMA)


def test_class_report_n8_builds_no_inverse_table():
    # only the Nilcoxeter center basis reads inv, which is built on first
    # access
    symmetric_group.cache_clear()
    mobius_classes.cache_clear()
    classes_to_json(mobius_classes(8, ZERO_HECKE))
    assert "inv" not in vars(symmetric_group(8))


def test_hecke_class_lengths_vary():
    classes = mobius_classes(3, ZERO_HECKE)
    big = max(classes.classes, key=len)
    assert len({w.length for w in big}) > 1
    assert len({cycle_type(w) for w in big}) > 1


# --- cycle types -------------------------------------------------------------------


def test_cycle_type_examples():
    assert cycle_type(identity(3)) == (2, 1)
    assert cycle_type(longest_element(3)) == (1, 1, 1)
    assert cycle_type(evaluate((1,), 3)) == (3,)


@pytest.mark.parametrize("n", range(1, 7))
def test_cycle_type_parts_sum_to_n(n):
    for w in symmetric_group(n).perms:
        parts = cycle_type(w)
        assert sum(parts) == n
        assert all(parts[k] >= parts[k + 1] for k in range(len(parts) - 1))


# --- census ------------------------------------------------------------------------


def test_census_small_examples():
    assert class_census(1, NILCOXETER) == {(1,): 1}
    assert class_census(3, NILCOXETER) == {(2, 1): 1, (3,): 1, (1, 1, 1): 1}


def test_census_n6_has_the_double_class():
    census = class_census(6, NILCOXETER)
    assert census[(4, 2)] == 2
    assert all(count == 1 for parts, count in census.items() if parts != (4, 2))
    assert sum(census.values()) == 12


@pytest.mark.parametrize("n", range(1, 8))
def test_census_matches_arrangement_counts(n):
    census = class_census(n, NILCOXETER)
    for stats in partitions(n):
        assert census.get(stats.parts, 0) == expected_class_count(stats)


def test_census_rejects_non_nc():
    with pytest.raises(UnsupportedParamsError):
        class_census(3, ZERO_HECKE)


@pytest.mark.parametrize("n", range(2, 8))
def test_prime_class_crossing_count(n):
    classes = mobius_classes(n, NILCOXETER)
    prime = [c for c in classes.classes if cycle_type(next(iter(c))) == (n,)]
    assert len(prime) == 1
    want = (n - 1) // 2
    assert all(w.length == want for w in prime[0])


# --- report -------------------------------------------------------------------------


def test_class_report_schema_and_content():
    report = classes_to_json(mobius_classes(3, NILCOXETER))
    jsonschema.validate(report, CLASS_REPORT_SCHEMA)
    assert report["n"] == 3
    assert report["algebra"] == "nilcoxeter"
    reps = [tuple(entry["representative"]) for entry in report["classes"]]
    assert reps == [(), (2,), (1, 2, 1)]
    assert report["classes"][1]["cycle_type"] == [3]
    assert report["classes"][1]["length"] == 1
    assert report["zero_class"] == [[1, 2], [2, 1]]

    hecke = classes_to_json(mobius_classes(3, ZERO_HECKE))
    jsonschema.validate(hecke, CLASS_REPORT_SCHEMA)
    assert hecke["zero_class"] == []
    assert "cycle_type" not in hecke["classes"][0]
