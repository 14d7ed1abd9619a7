"""Multi-index helpers and the ordered set partitions behind the chain rule."""
import math
from collections import Counter

import numpy as np
import pytest

from matderiv import s_partitions, t_permutations
from matderiv.errors import DimensionMismatch, EmptyIndex
from matderiv.multiindex import (
    add,
    alpha_to_dirs,
    as_index,
    factorial,
    iter_sub_indices,
    order,
    resolve_request,
    split_last,
    unit,
)


def test_order_and_unit():
    assert order((2, 1)) == 3
    assert unit(3, 2) == (0, 1, 0)
    assert add((1, 0), (0, 2)) == (1, 2)


def test_as_index_rejects_negative():
    with pytest.raises(DimensionMismatch):
        as_index((1, -1))


def test_split_last():
    assert split_last((2, 1)) == ((2, 0), (0, 1))
    assert split_last((1, 0)) == ((0, 0), (1, 0))
    assert split_last((0, 3)) == ((0, 2), (0, 1))
    with pytest.raises(EmptyIndex):
        split_last((0, 0))


def test_dirs_alpha_round_trip():
    assert alpha_to_dirs((2, 1)) == (1, 1, 2)
    assert alpha_to_dirs((0, 1, 2)) == (2, 3, 3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        nv = int(rng.integers(1, 5))
        alpha = tuple(int(x) for x in rng.integers(0, 4, nv))
        if sum(alpha) == 0:
            continue
        counts = Counter(alpha_to_dirs(alpha))
        assert tuple(counts[v] for v in range(1, nv + 1)) == alpha


def test_factorial():
    assert factorial((2, 3, 0)) == 12
    assert factorial((0,)) == 1
    assert factorial((4, 1)) == math.factorial(4)


def test_iter_sub_indices():
    subs = list(iter_sub_indices((1, 1)))
    assert set(subs) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_s_partitions_base_cases():
    assert s_partitions((1,), 1) == [((1,),)]
    assert s_partitions((3,), 5) == []
    assert s_partitions((2, 1), 4) == []


def test_s_partitions_known_example():
    # one block pair appears twice; the duplicate is kept
    got = s_partitions((2, 1), 2)
    assert got == [
        ((0, 1), (2, 0)),
        ((1, 0), (1, 1)),
        ((1, 0), (1, 1)),
    ]
    assert s_partitions((2, 1), 3) == [((0, 1), (1, 0), (1, 0))]


def test_s_partitions_single_variable_counts():
    # totals over k follow the Bell numbers, per-k sizes the Stirling numbers
    bell = [1, 2, 5, 15]
    stirling = {
        (1, 1): 1,
        (2, 1): 1, (2, 2): 1,
        (3, 1): 1, (3, 2): 3, (3, 3): 1,
        (4, 1): 1, (4, 2): 7, (4, 3): 6, (4, 4): 1,
    }
    for m in range(1, 5):
        total = 0
        for k in range(1, m + 1):
            size = len(s_partitions((m,), k))
            assert size == stirling[(m, k)]
            total += size
        assert total == bell[m - 1]


def test_s_partitions_members_sum_to_alpha():
    rng = np.random.default_rng(1)
    for _ in range(30):
        nv = int(rng.integers(1, 4))
        alpha = tuple(int(x) for x in rng.integers(0, 3, nv))
        m = sum(alpha)
        if m == 0 or m > 4:
            continue
        for k in range(1, m + 1):
            for part in s_partitions(alpha, k):
                assert len(part) == k
                total = tuple(sum(col) for col in zip(*part))
                assert total == alpha
                assert all(sum(p) >= 1 for p in part)


def test_t_permutations_size():
    for alpha in [(1,), (2,), (3,), (4,), (1, 1), (2, 1), (2, 2), (1, 1, 1), (3, 1)]:
        m = sum(alpha)
        for k in range(1, min(m, 4) + 1):
            s = s_partitions(alpha, k)
            t = t_permutations(alpha, k)
            assert len(t) == math.factorial(k) * len(s)


def test_t_permutations_are_permutations():
    s = s_partitions((1, 1), 2)
    t = t_permutations((1, 1), 2)
    assert sorted(t) == sorted([((1, 0), (0, 1)), ((0, 1), (1, 0))])
    for member in t:
        assert tuple(sorted(member)) in [tuple(sorted(x)) for x in s]


def test_resolve_request():
    assert resolve_request((1, 1), 2) == (1, 1)
    assert resolve_request([2, 1], 2) == (2, 1)


def test_resolve_request_checks_length_and_order():
    assert resolve_request((1, 0), 2) == (1, 0)
    with pytest.raises(DimensionMismatch):
        resolve_request((1, 0, 0), 2)
    with pytest.raises(DimensionMismatch):
        resolve_request((1,), 2)
    with pytest.raises(EmptyIndex):
        resolve_request((0, 0), 2)
