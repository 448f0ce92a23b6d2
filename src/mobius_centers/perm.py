"""
Permutations of {1..n} in one-line notation.

Conventions, fixed once and used everywhere downstream:

- ``u o v`` is the function composition ``(u o v)(x) = u(v(x))``.
- ``s_i`` is the transposition swapping the *values* i and i+1.  Hence left
  multiplication by ``s_i`` swaps values in the one-line word and right
  multiplication swaps positions i and i+1.
- ``length(w)`` is the inversion count of the one-line word.

>>> swap_values(generator(3, 2), 1).image
(2, 3, 1)
>>> reduced_word(longest_element(3))
(1, 2, 1)
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, product, repeat
from itertools import permutations as _lex_images
from math import factorial
from operator import add

__all__ = [
    "MAX_N",
    "Word",
    "Permutation",
    "identity",
    "generator",
    "longest_element",
    "evaluate",
    "reduced_word",
    "conjugate_by_w0",
    "swap_values",
    "swap_positions",
    "PermTable",
    "symmetric_group",
]

# Hard cap: n! storage beyond 12 is out of desk scale.
MAX_N = 12

# A word is a sequence of generator indices, each in 1..n-1.  No reducedness
# is required; evaluate() accepts any letters.
Word = tuple[int, ...]


class Permutation:
    """A permutation of {1..n}; ``image[p-1] = w(p)``.

    Immutable, since it keys dicts and caches: assigning an attribute
    raises AttributeError.
    """

    image: tuple[int, ...]

    def __init__(self, image) -> None:
        image = tuple(image)
        n = len(image)
        if not 1 <= n <= MAX_N:
            raise ValueError(f"number of strands must be in 1..{MAX_N}, got {n}")
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {image}")
        object.__setattr__(self, "image", image)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r} of a Permutation")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of a Permutation")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.image == other.image
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.image)

    @property
    def n(self) -> int:
        return len(self.image)

    @cached_property
    def length(self) -> int:
        """Inversion count of the one-line word.

        >>> Permutation((2, 3, 1)).length
        2
        """
        image = self.image
        n = len(image)
        return sum(
            1 for x in range(n) for y in range(x + 1, n) if image[x] > image[y]
        )

    def __call__(self, p: int) -> int:
        return self.image[p - 1]

    def __repr__(self) -> str:
        return f"Permutation({list(self.image)})"


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def generator(n: int, i: int) -> Permutation:
    """The adjacent transposition ``s_i`` exchanging i and i+1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index must be in 1..{n - 1}, got {i}")
    image = list(range(1, n + 1))
    image[i - 1], image[i] = image[i], image[i - 1]
    return Permutation(tuple(image))


def longest_element(n: int) -> Permutation:
    """The order-reversing permutation [n, n-1, ..., 1], of length n(n-1)/2."""
    return Permutation(tuple(range(n, 0, -1)))


def swap_values(w: Permutation, i: int) -> Permutation:
    """``s_i o w``: the one-line word with values i and i+1 exchanged."""
    return Permutation(
        tuple(i + 1 if q == i else i if q == i + 1 else q for q in w.image)
    )


def swap_positions(w: Permutation, i: int) -> Permutation:
    """``w o s_i``: the one-line word with positions i and i+1 exchanged."""
    image = list(w.image)
    image[i - 1], image[i] = image[i], image[i - 1]
    return Permutation(tuple(image))


def evaluate(word: Word, n: int) -> Permutation:
    """The product ``s_{i_1} o ... o s_{i_k}`` of the letters of ``word``."""
    w = identity(n)
    for i in reversed(word):
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter out of range 1..{n - 1}: {i}")
        w = swap_values(w, i)
    return w


@lru_cache(maxsize=None)
def reduced_word(w: Permutation) -> Word:
    """The lexicographically smallest reduced word for ``w``.

    Greedy: the set of possible first letters of a reduced word is exactly
    the left descent set, so repeatedly stripping the smallest descent is
    lexicographically minimal.

    >>> reduced_word(Permutation((3, 2, 1)))
    (1, 2, 1)
    """
    # pos[q] is the position of the value q: i is a left descent iff
    # pos[i] > pos[i+1], and stripping s_i swaps those two entries.  That
    # can only create a descent at i-1, so the scan resumes there.
    n = w.n
    pos = [0] * (n + 1)
    for p, q in enumerate(w.image, start=1):
        pos[q] = p
    letters = []
    i = 1
    while i < n:
        if pos[i] > pos[i + 1]:
            letters.append(i)
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
            if i > 1:
                i -= 1
        else:
            i += 1
    return tuple(letters)


def conjugate_by_w0(w: Permutation) -> Permutation:
    """``w0 o w o w0``; an involution that preserves length and sends
    ``s_i`` to ``s_{n-i}``."""
    n = w.n
    return Permutation(tuple(n + 1 - w.image[n - x] for x in range(1, n + 1)))


class PermTable:
    """All of S_n indexed by lexicographic rank of the one-line word.

    With w the permutation of rank k, ``lmul[i-1][k]`` is the rank of
    ``s_i o w``, ``rmul[i-1][k]`` that of ``w o s_i`` and ``inv[k]`` that of
    w^-1; every entry is an int of ``ranks``, ``range(n!)``.  Every
    exhaustive computation downstream (spans, commutants, class closures and
    the class report) runs on these integer tables.  ``rank`` and ``image``
    convert through the Lehmer code, the rank's factorial-base digits.
    ``inv``, which only the Nilcoxeter center basis reads, and ``perms``,
    the validated ``Permutation`` of each rank with its length filled in,
    are built on first access.

    A generator raises the length exactly when it raises the rank: on a
    descent, swapping the values i+1 and i (left) or the entries at
    positions i and i+1 (right) puts the smaller one first.  So
    ``lmul[i-1][k] < k`` iff i is a left descent of w.
    """

    def __init__(
        self,
        n: int,
        ranks: tuple[int, ...],
        lengths: tuple[int, ...],
        lmul: tuple[tuple[int, ...], ...],
        rmul: tuple[tuple[int, ...], ...],
        w0: int,
    ) -> None:
        self.n = n
        self.ranks = ranks
        self.lengths = lengths
        self.lmul = lmul
        self.rmul = rmul
        self.w0 = w0

    @property
    def order(self) -> int:
        return len(self.ranks)

    def rank(self, w: Permutation) -> int:
        """The rank of w; Lehmer digit p counts the later entries below entry p."""
        image = w.image
        if len(image) != self.n:
            raise ValueError(f"a permutation of {len(image)} strands is not in S_{self.n}")
        k = 0
        for p, q in enumerate(image):
            k = k * (self.n - p) + sum(1 for r in image[p + 1 :] if r < q)
        return k

    def image(self, k: int) -> tuple[int, ...]:
        """The one-line word of rank k, read off its Lehmer digits."""
        if not 0 <= k < len(self.ranks):
            raise ValueError(f"rank {k} outside 0..{len(self.ranks) - 1}")
        unused = list(range(1, self.n + 1))
        out = []
        for m in range(self.n - 1, -1, -1):
            digit, k = divmod(k, factorial(m))
            out.append(unused.pop(digit))
        return tuple(out)

    @cached_property
    def inv(self) -> tuple[int, ...]:
        # Every k > 0 has a left descent i, v = lmul[i][k] < k, so
        # k^-1 = v^-1 s_i.
        rows = tuple(zip(self.lmul, self.rmul))
        inv = [0] * self.order
        for k in range(1, self.order):
            for out, row in rows:
                if (v := out[k]) < k:
                    break
            inv[k] = row[inv[v]]
        return tuple(inv)

    @cached_property
    def perms(self) -> tuple[Permutation, ...]:
        perms = tuple(map(Permutation, _lex_images(range(1, self.n + 1))))
        for w, length in zip(perms, self.lengths):
            object.__setattr__(w, "length", length)  # fill the cached property
        return perms

    def reduced_words(self) -> list[list[int]]:
        """``reduced_word(perms[k])`` for every rank k, as new lists.  The
        first letter is the smallest left descent d, and the rest is the word
        of ``s_d o w``, whose rank is smaller and so already built.
        """
        words: list[list[int]] = [[]]
        lmul = self.lmul
        for k in range(1, self.order):
            for d, row in enumerate(lmul, start=1):
                if row[k] < k:
                    break
            words.append([d] + words[row[k]])
        return words


def _rmul_row(n: int, p: int, ranks: tuple[int, ...]) -> tuple[int, ...]:
    """The ranks of ``w o s_{p+1}`` for every rank of w, in rank order.

    Swapping the entries at positions p and p+1 (0-based) changes only the
    Lehmer digits (c, d) there: to (d+1, c) on an ascent (c <= d) and to
    (d, c-1) on a descent.  The rank therefore moves by an amount that
    depends on (c, d) alone.  In rank order that pair stays put for
    (n-2-p)! ranks at a time and runs through ``product`` order with period
    (n-p)!.  Every entry is taken from ``ranks``, whose ints the table
    shares, rather than made by the addition.
    """
    m = n - 2 - p
    step = factorial(m)
    deltas = [
        step * ((d - c) * m + (m + 1 if c <= d else -1))
        for c, d in product(range(m + 2), range(m + 1))
    ]
    period = [delta for delta in deltas for _ in range(step)]
    moves = chain.from_iterable(repeat(period, len(ranks) // len(period)))
    return tuple(map(ranks.__getitem__, map(add, ranks, moves)))


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> PermTable:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"number of strands must be in 1..{MAX_N}, got {n}")
    ranks = tuple(range(factorial(n)))
    # The lexicographic rank written in the factorial base is the Lehmer
    # code, whose digit sum is the inversion count.
    lengths = tuple(map(sum, product(*(range(m) for m in range(n, 0, -1)))))
    # w o s_i swaps the entries at positions i and i+1 (0-based p = i-1).
    rmul = tuple(_rmul_row(n, p, ranks) for p in range(n - 1))
    # Every k > 0 has a right descent j, u = rmul[j][k] < k, so s_i k =
    # (s_i u) s_j.
    lmul = [[row[0]] * len(ranks) for row in rmul]
    for k in range(1, len(ranks)):
        for row in rmul:
            if (u := row[k]) < k:
                break
        for out in lmul:
            out[k] = row[out[u]]
    for i, out in enumerate(lmul):  # one row's list at a time is held twice
        lmul[i] = tuple(out)
    return PermTable(
        n=n,
        ranks=ranks,
        lengths=lengths,
        lmul=tuple(lmul),
        rmul=rmul,
        w0=ranks[-1],
    )


if __name__ == "__main__":
    import doctest

    doctest.testmod()
