from functools import lru_cache
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compose, inverse, left_descent, perms_sharing_n
from mobius_centers.perm import (
    MAX_N,
    Permutation,
    conjugate_by_w0,
    evaluate,
    generator,
    identity,
    longest_element,
    reduced_word,
    swap_positions,
    swap_values,
    symmetric_group,
)


def naive_inversions(image):
    # independent oracle for the length function
    return sum(
        1
        for x in range(len(image))
        for y in range(x + 1, len(image))
        if image[x] > image[y]
    )


def test_compose_examples():
    s1 = Permutation((2, 1, 3))
    s2 = Permutation((1, 3, 2))
    assert compose(s1, s2).image == (2, 3, 1)
    w = Permutation((3, 1, 2))
    assert compose(w, identity(3)) == w
    assert compose(identity(3), w) == w
    w0 = longest_element(4)
    assert compose(w0, w0) == identity(4)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_length_examples():
    assert Permutation((3, 2, 1)).length == 3
    assert identity(5).length == 0
    assert Permutation((2, 3, 1)).length == 2


@pytest.mark.parametrize("n", range(1, 6))
def test_length_matches_naive_inversions(n):
    for w in symmetric_group(n).perms:
        assert w.length == naive_inversions(w.image)


def test_left_descent_examples():
    assert left_descent(Permutation((2, 1, 3)), 1)
    assert all(not left_descent(identity(4), i) for i in range(1, 4))
    # brute force: s_2 w0 has fewer inversions than w0
    w0 = longest_element(3)
    s2w0 = compose(generator(3, 2), w0)
    assert naive_inversions(s2w0.image) == 2 < naive_inversions(w0.image)
    assert left_descent(w0, 2)


def test_left_descent_range():
    with pytest.raises(ValueError):
        left_descent(identity(3), 3)
    with pytest.raises(ValueError):
        left_descent(identity(3), 0)


@pytest.mark.parametrize("n", range(2, 6))
def test_left_descent_iff_length_drops(n):
    for w in symmetric_group(n).perms:
        for i in range(1, n):
            assert left_descent(w, i) == (compose(generator(n, i), w).length < w.length)


def test_evaluate_examples():
    assert evaluate((1, 2), 3).image == (2, 3, 1)
    assert evaluate((), 3) == identity(3)
    assert evaluate((1, 2, 1), 3) == longest_element(3)


def test_evaluate_letter_out_of_range():
    with pytest.raises(ValueError):
        evaluate((3,), 3)


def test_reduced_word_examples():
    assert reduced_word(identity(4)) == ()
    assert reduced_word(Permutation((2, 1, 3))) == (1,)
    # brute force over all words of length 3: w0 has reduced words
    # {(1,2,1), (2,1,2)}; the lexicographic minimum is (1,2,1)
    w0 = longest_element(3)
    all_words = [
        word
        for word in product((1, 2), repeat=3)
        if evaluate(word, 3) == w0
    ]
    assert sorted(all_words) == [(1, 2, 1), (2, 1, 2)]
    assert reduced_word(w0) == min(all_words)


@pytest.mark.parametrize("n", range(1, 6))
def test_reduced_word_round_trip_and_length(n):
    for w in symmetric_group(n).perms:
        word = reduced_word(w)
        assert len(word) == w.length
        assert evaluate(word, n) == w


def test_longest_element_examples():
    assert longest_element(3).image == (3, 2, 1)
    assert longest_element(1).image == (1,)
    assert longest_element(4).image == (4, 3, 2, 1)
    assert longest_element(6).length == 15


@pytest.mark.parametrize("n", range(1, 7))
def test_longest_element_is_unique_maximum(n):
    top = n * (n - 1) // 2
    maximal = [w for w in symmetric_group(n).perms if w.length == top]
    assert maximal == [longest_element(n)]


def test_conjugate_by_w0_examples():
    assert conjugate_by_w0(generator(3, 1)) == generator(3, 2)
    assert conjugate_by_w0(identity(4)) == identity(4)
    w = Permutation((3, 1, 4, 2))
    assert conjugate_by_w0(conjugate_by_w0(w)) == w


@pytest.mark.parametrize("n", range(1, 6))
def test_conjugate_by_w0_preserves_length(n):
    w0 = longest_element(n)
    for w in symmetric_group(n).perms:
        c = conjugate_by_w0(w)
        assert c == compose(w0, compose(w, w0))
        assert c.length == w.length


@pytest.mark.parametrize("n", range(2, 6))
def test_generator_multiplication_changes_length_by_one(n):
    for w in symmetric_group(n).perms:
        for i in range(1, n):
            assert abs(compose(generator(n, i), w).length - w.length) == 1


@given(perms_sharing_n(count=3, min_n=2, max_n=8))
def test_compose_associative(perms):
    u, v, w = perms
    assert compose(compose(u, v), w) == compose(u, compose(v, w))


@given(perms_sharing_n(count=1, min_n=1, max_n=8))
def test_inverse_round_trip(perms):
    (w,) = perms
    assert compose(w, inverse(w)) == identity(w.n)
    assert compose(inverse(w), w) == identity(w.n)


@given(perms_sharing_n(count=1, min_n=2, max_n=8))
def test_reduced_word_round_trip_random(perms):
    (w,) = perms
    assert evaluate(reduced_word(w), w.n) == w


def descent_scan_word(w):
    # oracle: strip the smallest left descent, one Permutation per letter
    letters = []
    while True:
        for i in range(1, w.n):
            if left_descent(w, i):
                letters.append(i)
                w = swap_values(w, i)
                break
        else:
            return tuple(letters)


@given(perms_sharing_n(count=1, min_n=1, max_n=8))
def test_reduced_word_matches_descent_scan(perms):
    (w,) = perms
    word = reduced_word(w)
    assert word == descent_scan_word(w)
    assert len(word) == w.length


@pytest.mark.parametrize("n", range(1, 5))
def test_reduced_word_is_least_word_of_its_length(n):
    # every word of length <= l(w0), grouped by the permutation it evaluates to
    least = {}
    for size in range(n * (n - 1) // 2 + 1):
        for word in product(range(1, n), repeat=size):
            w = evaluate(word, n)
            if len(word) == w.length and (w not in least or word < least[w]):
                least[w] = word
    assert len(least) == symmetric_group(n).order
    for w, word in least.items():
        assert reduced_word(w) == word


def test_cap_enforced():
    with pytest.raises(ValueError):
        Permutation(tuple(range(1, MAX_N + 2)))
    with pytest.raises(ValueError):
        Permutation(())


def test_invalid_one_line_words():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))


@given(perms_sharing_n(count=1, min_n=2, max_n=8))
def test_generator_length_step_random(perms):
    (w,) = perms
    for i in range(1, w.n):
        assert abs(compose(generator(w.n, i), w).length - w.length) == 1


def assert_table_entries(table, k):
    # every table entry of rank k against the Permutation operations
    w = table.perms[k]
    assert table.rank(w) == k
    assert table.image(k) == w.image
    assert table.lengths[k] == naive_inversions(w.image)
    assert table.perms[table.inv[k]] == inverse(w)
    for i in range(1, table.n):
        right = table.rmul[i - 1][k]
        left = table.lmul[i - 1][k]
        assert table.perms[right] == swap_positions(w, i)
        assert table.perms[left] == swap_values(w, i)
        # a generator raises the length exactly when it raises the rank
        assert (right > k) == (table.lengths[right] > table.lengths[k])
        assert (left > k) == (table.lengths[left] > table.lengths[k])


@pytest.mark.parametrize("n", range(1, 8))
def test_tables_match_permutation_operations(n):
    table = symmetric_group(n)
    assert [w.image for w in table.perms] == sorted(w.image for w in table.perms)
    assert table.perms[table.w0] == longest_element(n)
    for k in range(table.order):
        assert_table_entries(table, k)


@lru_cache(maxsize=None)
def table_words(n):
    return symmetric_group(n).reduced_words()


@pytest.mark.parametrize("n", range(1, 8))
def test_table_words_match_reduced_word(n):
    table = symmetric_group(n)
    words = table.reduced_words()
    assert len(words) == table.order
    for w, word in zip(table.perms, words):
        assert type(word) is list
        assert tuple(word) == reduced_word(w)
    # every call builds new lists, which a caller may keep or hand out
    assert all(a is not b for a, b in zip(words, table.reduced_words()))


@given(perms_sharing_n(count=1, min_n=8, max_n=8))
@settings(deadline=None)
def test_tables_at_n8_match_permutation_operations(perms):
    (w,) = perms
    table = symmetric_group(8)
    k = table.rank(w)
    assert_table_entries(table, k)
    assert tuple(table_words(8)[k]) == reduced_word(w) == descent_scan_word(w)


@given(st.integers(min_value=0, max_value=factorial(8) - 1))
def test_rank_and_image_round_trip_at_n8(k):
    table = symmetric_group(8)
    image = table.image(k)
    assert sorted(image) == list(range(1, 9))
    assert table.rank(Permutation(image)) == k


@pytest.mark.parametrize("n", range(1, 7))
def test_table_images_share_the_index_keys(n):
    # rank and image against the lexicographic order, for every rank; and
    # every entry of the tables is the rank int that ``ranks`` holds
    table = symmetric_group(n)
    lex = list(permutations(range(1, n + 1)))
    assert table.ranks == tuple(range(len(lex)))
    assert table.w0 == table.order - 1 == len(lex) - 1
    for k, img in enumerate(lex):
        assert table.image(k) == img
        assert table.rank(Permutation(img)) == k
    for row in (*table.lmul, *table.rmul, table.inv):
        assert all(k is table.ranks[k] for k in row)
    with pytest.raises(ValueError):
        table.image(table.order)
    with pytest.raises(ValueError):
        table.image(-1)
    with pytest.raises(ValueError):
        table.rank(identity(n + 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_table_perms_built_on_first_access(n):
    symmetric_group.cache_clear()
    table = symmetric_group(n)
    assert "perms" not in vars(table)
    assert "inv" not in vars(table)
    assert table.order == factorial(n)
    perms = table.perms
    assert "perms" in vars(table)
    assert perms == tuple(Permutation(img) for img in permutations(range(1, n + 1)))
    for w, length in zip(perms, table.lengths):
        assert vars(w)["length"] == length == naive_inversions(w.image)
    assert table.perms is perms
    inv = table.inv
    assert "inv" in vars(table) and table.inv is inv
    symmetric_group.cache_clear()
    assert "perms" not in vars(symmetric_group(n))
