"""
Integer partitions with even-part statistics, and the closed-form dimension
of the center as a sum of multinomial arrangement counts.

>>> [p.parts for p in partitions(4)]
[(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
>>> center_dim_formula(6)
12
"""

from __future__ import annotations

from functools import cached_property
from math import factorial

__all__ = [
    "PartitionStats",
    "partitions",
    "center_dim_formula",
    "expected_class_count",
]


class PartitionStats:
    """A partition of n together with its even-part statistics."""

    def __init__(self, parts) -> None:
        self.parts = parts = tuple(parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @cached_property
    def n_even(self) -> int:
        """Number of even parts."""
        return sum(1 for p in self.parts if p % 2 == 0)

    @cached_property
    def even_multiplicities(self) -> dict[int, int]:
        """Map j -> number of parts equal to 2j."""
        out: dict[int, int] = {}
        for p in self.parts:
            if p % 2 == 0:
                out[p // 2] = out.get(p // 2, 0) + 1
        return out


def partitions(n: int) -> list[PartitionStats]:
    """All partitions of n, in reverse-lexicographic order.

    >>> [p.parts for p in partitions(3)]
    [(3,), (2, 1), (1, 1, 1)]
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")

    def emit(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for head in range(min(cap, remaining), 0, -1):
            yield from emit(remaining - head, head, prefix + (head,))

    return [PartitionStats(parts) for parts in emit(n, n, ())]


def expected_class_count(stats: PartitionStats) -> int:
    """n_even! divided by the product of the even multiplicities' factorials.

    Counts the distinct arrangements of the even components, which is the
    number of basis classes carrying this cycle type.
    """
    denom = 1
    for m in stats.even_multiplicities.values():
        denom *= factorial(m)
    count, rem = divmod(factorial(stats.n_even), denom)
    assert rem == 0
    return count


def center_dim_formula(n: int) -> int:
    """Dimension of the center on n strands: the sum of
    ``expected_class_count`` over all partitions of n.

    >>> [center_dim_formula(n) for n in range(1, 7)]
    [1, 2, 3, 5, 7, 12]
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return sum(expected_class_count(p) for p in partitions(n))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
