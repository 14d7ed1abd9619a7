"""Divided differences and the spectral-sum routes for derivatives.

Divided differences are evaluated over sorted nodes with a confluent
fallback: once two spanning nodes are closer than ``TAU_CONFL`` relative,
the table entry switches to the analytic derivative at the midpoint. That
makes both the triangular path evaluation and the eigenbasis formulas
robust against (near-)repeated eigenvalues, provided the scalar function
can supply derivatives of the needed order.

``divided_difference`` is the scalar reference. The eigenbasis routes take
their tables from ``dd_table``, which sorts the n nodes once and builds
every level 0..m of the Newton recurrence as numpy arrays over sorted
index multisets, since divided differences are symmetric in their nodes.
The cost of ``dk_general`` at order m = |alpha| on an n x n base is then:

- n evaluations of f, plus one derivative call per confluent multiset
  (at least the n repeated-index ones per level);
- C(n+m, m+1) table entries at the top level (123410 for n=40, m=3),
  against n^(m+1) = 2560000 index tuples;
- n^(m+1) complex multiply-adds per contraction, one per level and
  distinct last factor of the ``t_permutations`` tuples;
- working memory bounded by a fixed slab of ``_SLAB_ELEMENTS`` gathered
  tensor entries, so the n^(m+1) tensor is never formed.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ComplexityRefusal,
    DimensionMismatch,
    EmptyIndex,
    MissingJetTerm,
    NotTriangular,
)
from .funcs import ScalarFunction
from .linalg import SpectralDecomp, as_matrix
from .multiindex import MultiIndex, as_index, order, t_permutations

TAU_CONFL = 1e-8

DEFAULT_COST_CAP = 1e7

# Divided-difference tensor entries gathered at once by dk_general (4 MiB
# of complex128); the contraction walks the leading index in slabs of this
# size (at least one index), so its working memory does not grow with
# n^(m+1).
_SLAB_ELEMENTS = 1 << 18


def _is_confluent(lo, hi):
    """The confluence rule, for scalars or arrays of span endpoints."""
    return abs(hi - lo) <= TAU_CONFL * (1.0 + abs(lo))


def _confluent_value(f: ScalarFunction, lo, hi, span: int) -> complex:
    """Table entry of a confluent span: f^(span)(mid) / span!."""
    return f.deriv(complex(0.5 * (lo + hi)), span) / math.factorial(span)


def divided_difference(f: ScalarFunction, nodes: Sequence[complex]) -> complex:
    """Divided difference f[x_0, ..., x_m] with confluent handling.

    Nodes are sorted lexicographically by (real, imag) first, so clustered
    nodes sit next to each other and the confluent branch sees them as one
    group. A span whose endpoints satisfy ``|hi - lo| <= TAU_CONFL * (1 +
    |lo|)`` is filled with ``f.deriv(mid, span) / span!``.
    """
    xs = sorted((complex(z) for z in nodes), key=lambda z: (z.real, z.imag))
    m = len(xs)
    if m == 0:
        raise DimensionMismatch("divided difference needs at least one node")
    col = [f.eval(x) for x in xs]
    for span in range(1, m):
        nxt = []
        for i in range(m - span):
            lo, hi = xs[i], xs[i + span]
            if _is_confluent(lo, hi):
                nxt.append(_confluent_value(f, lo, hi, span))
            else:
                nxt.append((col[i + 1] - col[i]) / (hi - lo))
        col = nxt
    return complex(col[0])


def descloux_eval(f: ScalarFunction, u) -> np.ndarray:
    """Evaluate f on an upper triangular matrix by summing increasing paths.

    Entry (i, j) collects, over every strictly increasing index path from i
    to j, the product of the corresponding entries of ``u`` times the
    divided difference of f over the diagonal entries the path visits.
    Zero entries prune the walk, and divided differences are cached per
    index tuple, so the cost is driven by the sparsity between i and j.
    """
    u = as_matrix(u, "u")
    if np.any(np.tril(u, -1) != 0):
        raise NotTriangular("matrix has nonzero entries below the diagonal")
    n = u.shape[0]
    lam = np.diag(u)
    cache: dict[tuple[int, ...], complex] = {}

    def dd(idx: tuple[int, ...]) -> complex:
        val = cache.get(idx)
        if val is None:
            val = divided_difference(f, [lam[t] for t in idx])
            cache[idx] = val
        return val

    def path_sum(cur: int, j: int, prod: complex, idx: tuple[int, ...]) -> complex:
        total = 0.0 + 0.0j
        direct = u[cur, j]
        if direct != 0:
            total += prod * direct * dd(idx + (j,))
        for mid in range(cur + 1, j):
            w = u[cur, mid]
            if w != 0:
                total += path_sum(mid, j, prod * w, idx + (mid,))
        return total

    out = np.zeros_like(u)
    for i in range(n):
        out[i, i] = f.eval(lam[i])
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            out[i, j] = path_sum(i, j, 1.0 + 0.0j, (i,))
    return out


# --------------------------------------------------------------------------
# divided-difference tables over sorted index multisets
#
# Level k lists the sorted multisets i_0 <= ... <= i_k of range(n) in colex
# order: by last index, then by the rest in the same order. Level k then
# has P_k(v) = C(v + k, k + 1) multisets ending below v, and the ones
# ending in v are the level-(k-1) ones ending at or below v, a prefix of
# that level, each followed by v.


@dataclass(frozen=True)
class _MultisetLevel:
    """Multisets of one level: smallest and largest index, and the ranks
    one level down of the multiset without its first or its last index."""

    first: np.ndarray
    last: np.ndarray
    drop_first: np.ndarray
    drop_last: np.ndarray


@functools.lru_cache(maxsize=16)
def _multiset_levels(
    n: int, m: int, idx_type
) -> tuple[tuple[_MultisetLevel, ...], tuple[np.ndarray, ...]]:
    """Levels 0..m of the sorted multisets of range(n), and their insert
    tables: ``inserts[k][a, r]`` is the level-k rank of level-(k-1)
    multiset r with index a added. Ranks are stored as ``idx_type``.

    The result depends only on the arguments, so it is cached and shared
    by every table built for the same (n, m); its arrays are read-only."""
    offsets = [
        np.array([math.comb(v + k, k + 1) for v in range(n + 1)], dtype=idx_type)
        for k in range(m + 1)
    ]
    single = np.arange(n, dtype=idx_type)
    empty = np.zeros(n, dtype=idx_type)
    # level 0 holds the single indices; dropping either end leaves the
    # empty multiset (rank 0), and adding a to the empty multiset gives a
    levels = [_MultisetLevel(single, single, empty, empty)]
    inserts = [single[:, None]]
    for k in range(1, m + 1):
        prev = levels[-1]
        counts = offsets[k - 1][1:]
        rows = np.arange(offsets[k][n], dtype=idx_type) - np.repeat(offsets[k][:-1], counts)
        last = np.repeat(single, counts)
        levels.append(_MultisetLevel(
            first=prev.first[rows],
            last=last,
            drop_first=offsets[k - 1][last] + prev.drop_first[rows],
            drop_last=rows,
        ))
        # a after every index of r: (r, a); else a joins r minus its last
        a = single[:, None]
        v = prev.last[None, :]
        inserts.append(np.where(
            a >= v,
            offsets[k][a] + np.arange(len(prev.last), dtype=idx_type),
            offsets[k][v] + np.take(inserts[-1], prev.drop_last, axis=1),
        ))
    for level in levels:
        for arr in (level.first, level.last, level.drop_first, level.drop_last):
            arr.setflags(write=False)
    for arr in inserts:
        arr.setflags(write=False)
    return tuple(levels), tuple(inserts)


@dataclass(frozen=True, eq=False)
class DividedDifferenceTable:
    """Divided differences of f over every multiset of up to m+1 nodes.

    ``order`` sorts the nodes. ``values[k][r]`` is f[x_{i_0}, ..., x_{i_k}]
    for the sorted multiset of colex rank r over sorted node positions, and
    for k >= 1 ``inserts[k][a, r]`` is the level-k rank of level-(k-1)
    multiset r with position a added; the insert tables are shared by
    every table of the same size and are read-only. ``ranks`` expands a
    level to all index tuples.
    """

    order: np.ndarray
    values: tuple[np.ndarray, ...]
    inserts: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.order.shape[0]

    def ranks(self, k: int) -> np.ndarray:
        """Level-k rank of every index tuple, an (n,)*(k+1) tensor over
        sorted positions; symmetric under any permutation of its axes."""
        r = np.arange(self.dim)
        for j in range(1, k + 1):
            r = self.inserts[j][:, r]
        return r


def dd_table(f: ScalarFunction, nodes, m: int) -> DividedDifferenceTable:
    """Divided differences of f over all multisets of up to m+1 of ``nodes``.

    Nodes are sorted once by (real, imag) and f is evaluated once per node.
    Level k follows the recurrence of ``divided_difference`` over its
    sorted multisets, so every entry equals ``divided_difference`` on the
    same nodes; a confluent span calls ``f.deriv`` once per multiset.
    """
    x = np.asarray(nodes)
    if x.ndim != 1 or x.shape[0] == 0:
        raise DimensionMismatch(f"nodes must be a nonempty vector, got shape {x.shape}")
    if m < 0:
        raise DimensionMismatch(f"table level must be >= 0, got {m}")
    if np.iscomplexobj(x):
        x = x.astype(np.complex128)
        perm = np.lexsort((x.imag, x.real))
    else:
        x = x.astype(np.float64)
        perm = np.argsort(x, kind="stable")
    x = x[perm]
    n = x.shape[0]
    idx_type = np.int32 if math.comb(n + m, m + 1) < 2**31 else np.int64
    levels, inserts = _multiset_levels(n, m, idx_type)
    values = [np.array([f.eval(complex(v)) for v in x], dtype=np.complex128)]
    for k in range(1, m + 1):
        level = levels[k]
        lo, hi = x[level.first], x[level.last]
        confluent = _is_confluent(lo, hi)
        prev = values[-1]
        vals = (prev[level.drop_first] - prev[level.drop_last]) / np.where(confluent, 1.0, hi - lo)
        for i in np.flatnonzero(confluent):
            vals[i] = _confluent_value(f, lo[i], hi[i], k)
        values.append(vals)
    return DividedDifferenceTable(order=perm, values=tuple(values), inserts=inserts)


def jet_to_eigenbasis(d: SpectralDecomp, terms: Mapping[MultiIndex, np.ndarray]) -> dict[MultiIndex, np.ndarray]:
    """Rotate every jet term to the eigenbasis once, for reuse across routes."""
    return {as_index(t): d.to_eigenbasis(m) for t, m in terms.items()}


def _contract_level(
    table: DividedDifferenceTable,
    m: int,
    groups: Mapping[MultiIndex, Sequence[tuple[float, list[np.ndarray]]]],
    factors: Mapping[MultiIndex, np.ndarray],
) -> np.ndarray:
    """Sum over tuples of U_1[a,b_1] ... U_m[b_{m-1},z] T[a,b_1,...,b_{m-1},z].

    ``groups`` maps each last factor U_m to its (weight, [U_1..U_{m-1}])
    prefixes; their weighted chains are summed and then contracted with
    the level-m tensor T in slabs of leading indices a. T is symmetric, so
    a slab gathered as [a, y, b_1..b_{m-2}, z] through the rank tables puts
    y = b_{m-1} next to a, and one batched product serves every group.
    """
    n = table.dim
    inner = n ** (m - 2)
    tail = table.ranks(m - 1).reshape(-1)
    values = table.values[m]
    inserts = table.inserts[m]
    lasts = list(groups)
    chunk = max(1, _SLAB_ELEMENTS // n**m)
    out = np.empty((n, n), dtype=np.complex128)
    for a0 in range(0, n, chunk):
        a1 = min(n, a0 + chunk)
        ca = a1 - a0
        prefix = np.zeros((ca, len(lasts), n ** (m - 1)), dtype=np.complex128)
        for g, last in enumerate(lasts):
            for weight, us in groups[last]:
                w = us[0][a0:a1]
                for u in us[1:]:
                    w = (w.reshape(ca, -1, n)[..., None] * u).reshape(ca, -1)
                prefix[:, g] += weight * w
        # [a, g, b_1..b_{m-2}, y] -> [a, y, g, b_1..b_{m-2}]
        lhs = prefix.reshape(ca, len(lasts), inner, n).transpose(0, 3, 1, 2)
        slab = np.take(values, np.take(inserts[a0:a1], tail, axis=1)).reshape(ca, n, inner, n)
        x = np.matmul(lhs, slab)  # [a, y, g, z]
        out[a0:a1] = sum(
            np.einsum("ayz,yz->az", x[:, :, g], factors[last]) for g, last in enumerate(lasts)
        )
    return out


def dk_general(
    f: ScalarFunction,
    d: SpectralDecomp,
    jet_eigen: Mapping[MultiIndex, np.ndarray],
    alpha: Sequence[int],
    cost_cap: float = DEFAULT_COST_CAP,
) -> np.ndarray:
    """Mixed partial derivative of any order from the eigensystem.

    ``jet_eigen`` maps multi-indices to path derivatives rotated to the
    eigenbasis. For each ordered splitting of ``alpha`` into m nonzero
    pieces, the corresponding eigenbasis factors are chained and weighted
    by the (m+1)-node divided-difference tensor. Coinciding splittings are
    contracted once with their multiplicity as weight. Cost grows as
    n^(m+1); requests beyond ``cost_cap`` raise ComplexityRefusal.
    """
    alpha = as_index(alpha)
    m_total = order(alpha)
    if m_total == 0:
        raise EmptyIndex("derivative request must have order >= 1")
    n = d.dim
    if float(n) ** (m_total + 1) > cost_cap:
        raise ComplexityRefusal(
            f"n^(|alpha|+1) = {n}^{m_total + 1} exceeds cost cap {cost_cap:.0e}"
        )

    def lookup(t: MultiIndex) -> np.ndarray:
        hit = jet_eigen.get(t)
        if hit is None:
            raise MissingJetTerm(f"eigenbasis jet has no term for multi-index {t}")
        return as_matrix(hit, f"jet term {t}")

    levels = {m: Counter(t_permutations(alpha, m)) for m in range(1, m_total + 1)}
    factors = {t: lookup(t) for tuples in levels.values() for tup in tuples for t in tup}
    table = dd_table(f, d.eigenvalues, m_total)
    perm = table.order
    # work over sorted eigenvalue positions, where the table is indexed
    factors = {t: u[np.ix_(perm, perm)] for t, u in factors.items()}
    total = np.zeros((n, n), dtype=np.complex128)
    for m, tuples in levels.items():
        if m == 1:  # the single splitting (alpha,)
            total += table.values[1][table.ranks(1)] * factors[alpha]
            continue
        groups: dict[MultiIndex, list[tuple[float, list[np.ndarray]]]] = {}
        for t, w in tuples.items():
            groups.setdefault(t[-1], []).append((float(w), [factors[ti] for ti in t[:-1]]))
        total += _contract_level(table, m, groups, factors)
    back = np.argsort(perm)
    return d.from_eigenbasis(total[np.ix_(back, back)])
