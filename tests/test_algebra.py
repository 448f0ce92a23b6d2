import json
import random
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings

from conftest import (
    PRESETS,
    PRESET_IDS,
    compose,
    element_to_vector,
    inverse,
    perms_sharing_n,
    vector_to_element,
)
from mobius_centers.algebra import (
    ELEMENT_SCHEMA,
    GROUP_ALGEBRA,
    NILCOXETER,
    ZERO_HECKE,
    AlgebraParams,
    basis_element,
    check_defining_relations,
    element_to_json,
    gram_matrix,
    involve,
    mul,
    mul_left_generator,
    mul_right_generator,
    parse_algebra,
    preset_name,
    single_term_actions,
    trace,
    unit,
    zero,
)
from mobius_centers.linalg import rank
from mobius_centers.perm import (
    evaluate,
    generator,
    identity,
    longest_element,
    symmetric_group,
)

T = basis_element


def elem(params, n, *word_coeffs):
    out = zero(params, n)
    for word, coeff in word_coeffs:
        out = out + T(params, evaluate(tuple(word), n)).scaled(coeff)
    return out


def test_params_presets():
    assert NILCOXETER == AlgebraParams(Fraction(0), Fraction(0))
    assert ZERO_HECKE == AlgebraParams(Fraction(1), Fraction(0))
    assert GROUP_ALGEBRA == AlgebraParams(Fraction(0), Fraction(1))
    assert parse_algebra("0-hecke") == ZERO_HECKE
    assert parse_algebra("1/2,-3") == AlgebraParams(Fraction(1, 2), Fraction(-3))
    with pytest.raises(ValueError):
        parse_algebra("hecke")


def test_left_generator_shortening_cases():
    s1 = generator(3, 1)
    assert mul_left_generator(1, T(NILCOXETER, s1)).is_zero()
    assert mul_left_generator(1, T(ZERO_HECKE, s1)) == T(ZERO_HECKE, s1)
    assert mul_left_generator(1, T(GROUP_ALGEBRA, s1)) == unit(GROUP_ALGEBRA, 3)


@pytest.mark.parametrize("params", PRESETS, ids=PRESET_IDS)
def test_left_generator_lengthening_case(params):
    s2 = generator(3, 2)
    expect = T(params, compose(generator(3, 1), s2))
    assert mul_left_generator(1, T(params, s2)) == expect


def test_generator_index_range():
    with pytest.raises(ValueError):
        mul_left_generator(3, unit(NILCOXETER, 3))
    with pytest.raises(ValueError):
        mul_right_generator(unit(NILCOXETER, 3), 0)


def test_mul_examples():
    w0 = longest_element(3)
    # lengths add: T_{s1} * T_{s2 s1} = T_{w0}
    assert mul(
        elem(NILCOXETER, 3, ([1], 1)), elem(NILCOXETER, 3, ([2, 1], 1))
    ) == T(NILCOXETER, w0)
    # brute force: T_{s1 s2} T_{s1} = T_{w0} while T_{s2 s1} T_{s1} = 0
    x = elem(NILCOXETER, 3, ([1, 2], 1), ([2, 1], 1))
    assert mul(x, elem(NILCOXETER, 3, ([1], 1))) == T(NILCOXETER, w0)
    # right multiplication that shortens keeps T_{w0} in the 0-Hecke algebra
    assert mul(T(ZERO_HECKE, w0), elem(ZERO_HECKE, 3, ([1], 1))) == T(ZERO_HECKE, w0)


def test_mul_rejects_mismatches():
    with pytest.raises(ValueError):
        mul(unit(NILCOXETER, 3), unit(NILCOXETER, 4))
    with pytest.raises(ValueError):
        mul(unit(NILCOXETER, 3), unit(ZERO_HECKE, 3))


def test_trace_examples():
    w0 = longest_element(3)
    assert trace(T(NILCOXETER, w0)) == 1
    assert trace(unit(NILCOXETER, 3)) == 0
    assert trace(T(NILCOXETER, w0).scaled(3) - elem(NILCOXETER, 3, ([1], 1))) == 3
    # on a single strand the empty diagram is itself maximal
    assert trace(unit(NILCOXETER, 1)) == 1


def test_involve_examples():
    assert involve(elem(NILCOXETER, 3, ([1], 1))) == elem(NILCOXETER, 3, ([2], 1))
    w0 = longest_element(4)
    assert involve(T(ZERO_HECKE, w0)) == T(ZERO_HECKE, w0)
    x = elem(ZERO_HECKE, 4, ([1, 2], 2), ([3], -1))
    assert involve(involve(x)) == x


@given(perms_sharing_n(count=2, min_n=2, max_n=6))
@settings(max_examples=60)
def test_involve_is_an_algebra_map(perms):
    u, v = perms
    for params in PRESETS:
        x, y = T(params, u), T(params, v)
        assert involve(mul(x, y)) == mul(involve(x), involve(y))
        assert trace(involve(x)) == trace(x)


@pytest.mark.parametrize("params", PRESETS, ids=PRESET_IDS)
@pytest.mark.parametrize("n", range(1, 5))
def test_associativity_exhaustive(n, params):
    els = [T(params, w) for w in symmetric_group(n).perms]
    for x in els:
        for y in els:
            xy = mul(x, y)
            for z in els:
                assert mul(xy, z) == mul(x, mul(y, z))


@pytest.mark.parametrize("params", PRESETS, ids=PRESET_IDS)
@pytest.mark.parametrize("n", [5, 6])
def test_associativity_random_triples(n, params):
    rng = random.Random(99)
    perms = symmetric_group(n).perms
    for _ in range(120):
        x, y, z = (T(params, perms[rng.randrange(len(perms))]) for _ in range(3))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))


@pytest.mark.parametrize("params", PRESETS, ids=PRESET_IDS)
@pytest.mark.parametrize("n", range(1, 6))
def test_twisted_trace_identity_all_pairs(n, params):
    els = [T(params, w) for w in symmetric_group(n).perms]
    for x in els:
        fx = involve(x)
        for y in els:
            assert trace(mul(x, y)) == trace(mul(y, fx))


@pytest.mark.parametrize("n", range(2, 6))
def test_nc_products_are_homogeneous(n):
    perms = symmetric_group(n).perms
    for u in perms:
        for v in perms:
            product = mul(T(NILCOXETER, u), T(NILCOXETER, v))
            for w in product.terms:
                assert w.length == u.length + v.length


def test_gram_examples():
    assert gram_matrix(2, NILCOXETER) == [[0, 1], [1, 0]]
    assert gram_matrix(2, ZERO_HECKE) == [[0, 1], [1, 1]]
    # the group algebra pairing is a permutation matrix
    for n in (2, 3, 4):
        gram = gram_matrix(n, GROUP_ALGEBRA)
        for row in gram:
            assert sorted(row, reverse=True) == [1] + [0] * (len(row) - 1)
        for j in range(len(gram)):
            assert sum(row[j] for row in gram) == 1


def bruhat_leq(x, y) -> bool:
    """x <= y in Bruhat order, by the tableau criterion: for every i the
    sorted values x(1..i) are entrywise at most the sorted values y(1..i)."""
    return all(
        all(p <= q for p, q in zip(sorted(x.image[:i]), sorted(y.image[:i])))
        for i in range(1, x.n)
    )


# trace(T_u T_v) for each preset, by the classical closed forms.
GRAM_CLOSED_FORMS = {
    # T_u T_v is T_{uv} when the lengths add up and 0 otherwise
    "nilcoxeter": lambda u, v, w0: v == compose(inverse(u), w0),
    # T_u T_v is T of the Demazure product, which is w0 iff v >= u^{-1} w0
    "0-hecke": lambda u, v, w0: bruhat_leq(compose(inverse(u), w0), v),
    "group": lambda u, v, w0: compose(u, v) == w0,
}


@pytest.mark.parametrize("params", PRESETS, ids=PRESET_IDS)
@pytest.mark.parametrize("n", range(1, 6))
def test_gram_closed_forms(n, params):
    closed_form = GRAM_CLOSED_FORMS[preset_name(params)]
    perms = symmetric_group(n).perms
    w0 = longest_element(n)
    want = [[int(closed_form(u, v, w0)) for v in perms] for u in perms]
    assert gram_matrix(n, params) == want


def test_bruhat_tableau_criterion_examples():
    e, w0 = identity(3), longest_element(3)
    s1, s2 = generator(3, 1), generator(3, 2)
    assert all(bruhat_leq(e, w) and bruhat_leq(w, w0) for w in symmetric_group(3).perms)
    assert not bruhat_leq(s1, s2) and not bruhat_leq(s2, s1)
    assert bruhat_leq(s1, compose(s1, s2)) and bruhat_leq(s2, compose(s1, s2))
    assert not bruhat_leq(compose(s1, s2), compose(s2, s1))


@pytest.mark.parametrize("params", PRESETS, ids=PRESET_IDS)
@pytest.mark.parametrize("n", range(1, 5))
def test_gram_nondegenerate(n, params):
    gram = gram_matrix(n, params)
    order = len(gram)
    rows = [{j: c for j, c in enumerate(row) if c} for row in gram]
    assert rank(rows, order) == order


def test_defining_relations_reports():
    assert check_defining_relations(3, NILCOXETER).ok
    report = check_defining_relations(4, ZERO_HECKE)
    assert report.ok
    assert any("T1 T3 = T3 T1" in c.name for c in report.checks)
    assert check_defining_relations(3, GROUP_ALGEBRA).ok
    # generic parameters satisfy the relations too
    assert check_defining_relations(3, AlgebraParams(Fraction(1, 2), Fraction(2))).ok


def test_single_term_actions_match_element_products():
    for params in PRESETS:
        table = symmetric_group(3)
        left, right = single_term_actions(3, params)
        for i in range(1, 3):
            for k, w in enumerate(table.perms):
                got = left[i - 1][k]
                expect = mul_left_generator(i, T(params, w))
                if got == -1:
                    assert expect.is_zero()
                else:
                    assert expect == T(params, table.perms[got])
                got = right[i - 1][k]
                expect = mul_right_generator(T(params, w), i)
                if got == -1:
                    assert expect.is_zero()
                else:
                    assert expect == T(params, table.perms[got])


def test_single_term_actions_reject_generic_params():
    with pytest.raises(ValueError):
        single_term_actions(3, AlgebraParams(Fraction(1), Fraction(1)))


def test_vector_round_trip():
    x = elem(ZERO_HECKE, 3, ([1, 2], Fraction(1, 2)), ([], -2))
    assert vector_to_element(element_to_vector(x), 3, ZERO_HECKE) == x


def test_element_json_round_trip_and_schema():
    x = elem(NILCOXETER, 3, ([1, 2], Fraction(1, 2)), ([2, 1], -1))
    data = element_to_json(x)
    jsonschema.validate(data, ELEMENT_SCHEMA)
    assert json.loads(json.dumps(data)) == {
        "n": 3,
        "algebra": "nilcoxeter",
        "terms": [{"word": [1, 2], "coeff": "1/2"}, {"word": [2, 1], "coeff": "-1"}],
    }
    custom = elem(AlgebraParams(Fraction(1, 3), Fraction(2)), 3, ([1], 5))
    data = element_to_json(custom)
    jsonschema.validate(data, ELEMENT_SCHEMA)
    assert data == {"n": 3, "algebra": {"a": "1/3", "b": "2"}, "terms": [{"word": [1], "coeff": "5"}]}
