from hypothesis import strategies as st

from mobius_centers import GROUP_ALGEBRA, NILCOXETER, ZERO_HECKE
from mobius_centers.algebra import AlgebraElement, AlgebraParams
from mobius_centers.perm import Permutation, symmetric_group

PRESETS = [NILCOXETER, ZERO_HECKE, GROUP_ALGEBRA]
PRESET_IDS = ["nilcoxeter", "0-hecke", "group"]

# the presets and drawn pairs (a, b): zero, negative and non-integral
# entries, both entries nonzero, and both non-integral
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero = rationals.filter(bool)
nonintegral = rationals.filter(lambda c: c.denominator > 1)
algebras = st.one_of(
    st.sampled_from(PRESETS),
    st.builds(AlgebraParams, rationals, rationals),
    st.builds(AlgebraParams, nonzero, nonzero),
    st.builds(AlgebraParams, nonintegral, nonintegral),
)


@st.composite
def perms_sharing_n(draw, count=1, min_n=1, max_n=8):
    """Draw `count` permutations on a common number of strands."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    return tuple(
        Permutation(tuple(draw(st.permutations(list(range(1, n + 1))))))
        for _ in range(count)
    )


def element_to_vector(x: AlgebraElement) -> dict:
    """Coordinates of ``x`` over the basis, indexed by lexicographic rank,
    as the ``{index: coefficient}`` rows that linalg takes."""
    table = symmetric_group(x.n)
    return {table.rank(w): c for w, c in x.terms.items()}


def vector_to_element(v, n: int, params: AlgebraParams) -> AlgebraElement:
    """The element with coordinates ``v``, a mapping ``{rank: coefficient}``."""
    perms = symmetric_group(n).perms
    return AlgebraElement(n, params, {perms[k]: c for k, c in v.items()})


# Reference operations on Permutations, the oracles for the rank tables.


def compose(u: Permutation, v: Permutation) -> Permutation:
    """Function composition ``(u o v)(x) = u(v(x))``."""
    if u.n != v.n:
        raise ValueError(f"size mismatch: {u.n} vs {v.n}")
    return Permutation(tuple(u.image[x - 1] for x in v.image))


def inverse(w: Permutation) -> Permutation:
    image = [0] * w.n
    for p, q in enumerate(w.image, start=1):
        image[q - 1] = p
    return Permutation(tuple(image))


def left_descent(w: Permutation, i: int) -> bool:
    """True iff the value i comes after the value i+1 in the one-line word,
    which is when ``length(s_i o w) < length(w)``."""
    if not 1 <= i <= w.n - 1:
        raise ValueError(f"generator index must be in 1..{w.n - 1}, got {i}")
    return w.image.index(i) > w.image.index(i + 1)
