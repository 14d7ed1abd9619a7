"""Multi-index bookkeeping for mixed partial derivatives.

A multi-index is a tuple of nonnegative ints, one entry per path variable.
Every derivative request is one. Directions are numbered from 1, so the
multi-index ``(2, 1)`` has the direction sequence ``(1, 1, 2)``.

``s_partitions`` enumerates the unordered ways of writing a multi-index as
a sum of k nonzero multi-indices, as a multiset: partitions that arise more
than once are listed more than once, which is exactly the multiplicity the
derivative summation needs. ``t_permutations`` lists every ordering of every
member, so its length is always k! times the partition count.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .errors import DimensionMismatch, EmptyIndex

MultiIndex = tuple[int, ...]


def as_index(alpha: Sequence[int], name: str = "alpha") -> MultiIndex:
    t = tuple(int(v) for v in alpha)
    if len(t) == 0:
        raise DimensionMismatch(f"{name}: multi-index needs at least one variable")
    for v in t:
        if v < 0:
            raise DimensionMismatch(f"{name}: negative entry in {t}")
    return t


def order(alpha: Sequence[int]) -> int:
    """Total order |alpha|."""
    return int(sum(alpha))


def unit(nvars: int, v: int) -> MultiIndex:
    """Multi-index of the single direction ``v`` (1-based)."""
    if not 1 <= v <= nvars:
        raise DimensionMismatch(f"direction {v} out of range 1..{nvars}")
    return tuple(1 if i == v - 1 else 0 for i in range(nvars))


def add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    if len(a) != len(b):
        raise DimensionMismatch(f"multi-index lengths {len(a)} and {len(b)} differ")
    return tuple(x + y for x, y in zip(a, b))


def split_last(alpha: Sequence[int]) -> tuple[MultiIndex, MultiIndex]:
    """Split off the unit at the largest-indexed nonzero coordinate.

    Returns ``(beta, gamma)`` with ``alpha = beta + gamma`` and gamma a unit
    index. Raises EmptyIndex when ``|alpha| = 0``.
    """
    alpha = as_index(alpha)
    if order(alpha) == 0:
        raise EmptyIndex("cannot split a zero multi-index")
    last = max(i for i, v in enumerate(alpha) if v > 0)
    gamma = unit(len(alpha), last + 1)
    beta = tuple(v - g for v, g in zip(alpha, gamma))
    return beta, gamma


def factorial(alpha: Sequence[int]) -> int:
    """alpha! = prod_i alpha_i!."""
    return math.prod(math.factorial(v) for v in alpha)


def alpha_to_dirs(alpha: Sequence[int]) -> tuple[int, ...]:
    """Canonical ascending direction sequence realizing ``alpha``."""
    alpha = as_index(alpha)
    out: list[int] = []
    for i, v in enumerate(alpha):
        out.extend([i + 1] * v)
    return tuple(out)


def iter_sub_indices(alpha: Sequence[int]) -> Iterator[MultiIndex]:
    """All multi-indices t with 0 <= t <= alpha componentwise."""
    alpha = as_index(alpha)
    for t in itertools.product(*(range(v + 1) for v in alpha)):
        yield t


def _canonical(parts: list[tuple[MultiIndex, ...]]) -> list[tuple[MultiIndex, ...]]:
    return sorted(tuple(sorted(p)) for p in parts)


def s_partitions(alpha: Sequence[int], k: int) -> list[tuple[MultiIndex, ...]]:
    """Multiset of splittings of ``alpha`` into ``k`` nonzero multi-indices.

    Members and the outer list are in canonical (lexicographic) order.
    Splittings produced along distinct recursion branches are kept even when
    equal, so a splitting's multiplicity in the returned list is its weight
    in the derivative summation. For one variable the count is the Stirling
    partition number {|alpha| over k}.
    """
    alpha = as_index(alpha)
    m = order(alpha)
    if m == 0:
        raise EmptyIndex("cannot partition a zero multi-index")
    if k < 1 or k > m:
        return []
    if m == 1:
        return [(alpha,)]
    beta, gamma = split_last(alpha)  # order(beta) == m - 1 >= 1 here
    out: list[tuple[MultiIndex, ...]] = []
    # merge gamma into each slot of each splitting of beta into k parts
    for part in s_partitions(beta, k):
        for i in range(k):
            merged = list(part)
            merged[i] = add(merged[i], gamma)
            out.append(tuple(merged))
    # or let gamma stand alone next to a splitting of beta into k - 1 parts
    for part in s_partitions(beta, k - 1) if k >= 2 else []:
        out.append(part + (gamma,))
    return _canonical(out)


def resolve_request(alpha: Sequence[int], nvars: int) -> MultiIndex:
    """Normalize a derivative request on a path of ``nvars`` variables.

    A multi-index of another length raises DimensionMismatch; a request of
    order zero raises EmptyIndex.
    """
    a = as_index(alpha)
    if len(a) != nvars:
        raise DimensionMismatch(f"multi-index {a} has {len(a)} entries, expected {nvars}")
    if order(a) == 0:
        raise EmptyIndex("derivative request must have order >= 1")
    return a


def t_permutations(alpha: Sequence[int], k: int) -> list[tuple[MultiIndex, ...]]:
    """Every ordering of every member of ``s_partitions(alpha, k)``.

    Length is exactly ``k!`` times the splitting count; orderings that
    coincide because a splitting has repeated parts are kept.
    """
    out: list[tuple[MultiIndex, ...]] = []
    for part in s_partitions(alpha, k):
        out.extend(itertools.permutations(part))
    return out
