"""Block upper triangular construction of matrix function derivatives.

Every block route builds its matrix as one ``linalg.ShiftJet``, which
writes X = sum_t C_t (x) u^t over a product of units: a nilpotent shift
of size s (u^s = 0) differentiates exactly, a 2x2 imaginary unit
(``IMAG``, u^2 = -1) carries a complex-like step. ``_jet_coeffs`` is the
one coefficient rule. Giving each variable of a derivative request one
shift of size alpha_i + 1 turns differentiation into a single function
evaluation on a matrix of prod(alpha_i + 1) n rows: the top-right block
of ``f`` applied to the embedding is the requested derivative over
alpha!. The same machinery evaluates multilinear directional
derivatives, and a partition sum converts those back into mixed partial
derivatives, giving two independent exact routes.

The shifts commute, so f(X) lies in the same truncated polynomial
algebra as X and is fixed by its coefficients. ``matrix_exp`` and
``matrix_cos`` evaluate an embedding of shifts alone on the
coefficients and return f(X) as an element, so composed with each other
they stay in the algebra. A product costs prod s_i (s_i + 1) / 2 n x n
products, 18 at alpha = (2, 1) and 27 at (1, 1, 1), where a block upper
triangular product of the dense matrix costs 56 and 120. A jet whose
coefficients are all upper triangular (every n = 1 jet) is evaluated as
its dense matrix, which is then upper triangular, so the exact
triangular rule of ``matrix_exp`` keeps it exact. An embedding with an
``IMAG`` unit, and every other callable, sees the dense matrix.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyIndex,
    MissingJetTerm,
    NotDag,
    OrderExceeded,
)
from .linalg import IMAG, ShiftJet, as_matrix, extract_block
from .multiindex import (
    MultiIndex,
    alpha_to_dirs,
    as_index,
    factorial,
    order,
    resolve_request,
    s_partitions,
    unit,
)

MAX_ORDER = 6

MatrixCallable = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class PathJet:
    """Derivatives of a matrix path A(x) at a point, keyed by multi-index.

    ``terms[t]`` holds the partial derivative of A with multi-index t; the
    zero index (the base point) is mandatory. Lookups of absent indices
    raise MissingJetTerm unless the jet was built with ``missing_is_zero``,
    which is the right setting for paths known to be multilinear.
    """

    terms: Mapping[MultiIndex, np.ndarray]
    order: int
    missing_is_zero: bool = False
    nvars: int = field(init=False)
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.terms:
            raise MissingJetTerm("jet has no terms")
        normalized: dict[MultiIndex, np.ndarray] = {}
        nvars = None
        dim = None
        for key, val in self.terms.items():
            t = as_index(key, "jet key")
            if nvars is None:
                nvars = len(t)
            elif len(t) != nvars:
                raise DimensionMismatch(f"jet keys mix lengths {nvars} and {len(t)}")
            m = as_matrix(val, f"jet term {t}")
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise DimensionMismatch(f"jet term {t} has dim {m.shape[0]}, expected {dim}")
            if order(t) > self.order:
                raise OrderExceeded(f"jet term {t} exceeds declared order {self.order}")
            normalized[t] = m
        if self.order < 1:
            raise OrderExceeded(f"jet order must be >= 1, got {self.order}")
        if dim == 0:
            raise DimensionMismatch("jet terms are 0x0; need dimension >= 1")
        zero = (0,) * nvars
        if zero not in normalized:
            raise MissingJetTerm("jet is missing the base point (zero multi-index)")
        object.__setattr__(self, "terms", normalized)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "dim", dim)

    @property
    def base(self) -> np.ndarray:
        return self.terms[(0,) * self.nvars]

    def term(self, t: Sequence[int]) -> np.ndarray:
        key = as_index(t, "jet lookup")
        if len(key) != self.nvars:
            raise DimensionMismatch(f"jet lookup {key} has {len(key)} vars, jet has {self.nvars}")
        hit = self.terms.get(key)
        if hit is not None:
            return hit
        if self.missing_is_zero:
            return np.zeros((self.dim, self.dim), dtype=np.complex128)
        raise MissingJetTerm(f"jet has no term for multi-index {key}")


def jet_from_directions(a0: np.ndarray, es: Sequence[np.ndarray]) -> PathJet:
    """Jet of the multilinear path A + sum_i x_i E_i (mixed terms vanish)."""
    a0 = as_matrix(a0, "a0")
    k = len(es)
    if k == 0:
        raise EmptyIndex("need at least one direction")
    terms: dict[MultiIndex, np.ndarray] = {(0,) * k: a0}
    for i, e in enumerate(es):
        terms[unit(k, i + 1)] = as_matrix(e, f"e{i + 1}")
    return PathJet(terms=terms, order=k, missing_is_zero=True)


def _jet_coeffs(
    jet: PathJet, alpha: Sequence[int], stepped: int = 0, h: float = 1.0
) -> tuple[dict, list[int]]:
    """Coefficients and units of the embedding of ``jet`` for multi-index ``alpha``.

    Exact copies of alpha's ascending directions, all but the last
    ``stepped``, share one shift of size a + 1 per variable (a its count),
    the inner digits; each stepped copy gets an outer IMAG unit. Shift
    digits s and imaginary digit set S carry h^|S| A_{s+t(S)} / s!.
    """
    dirs = alpha_to_dirs(alpha)
    k = len(dirs)
    if k < 1:
        raise EmptyIndex("derivative request must have order >= 1")
    if k > MAX_ORDER:
        raise OrderExceeded(f"order {k} exceeds the supported maximum {MAX_ORDER}")
    exact, steps = dirs[:k - stepped], dirs[k - stepped:]
    variables = tuple(dict.fromkeys(exact))
    counts = tuple(exact.count(v) for v in variables)
    # first imaginary digit fastest: the order fd adds the coefficients in
    subsets = [S[::-1] for S in itertools.product((0, 1), repeat=stepped)]
    coeffs = {}
    for s in itertools.product(*(range(c + 1) for c in counts)):
        w = factorial(s)
        for S in subsets:
            t = [0] * len(alpha)
            for v, d in zip(variables + steps, s + S):
                t[v - 1] += d
            c = jet.term(tuple(t))
            # a complex divide by 1 can flip the sign of a zero, so skip it
            c = c / w if w > 1 else c
            coeffs[s + S] = math.prod([h] * sum(S)) * c if any(S) else c
    return coeffs, [c + 1 for c in counts] + [IMAG] * stepped


def _corner(
    f: MatrixCallable, jet: PathJet, alpha: Sequence[int], stepped: int = 0, h: float = 1.0
) -> np.ndarray:
    """a! times the top-right block of f of the embedding: the derivative times
    h^stepped, up to O(h^2)."""
    x = ShiftJet(*_jet_coeffs(jet, alpha, stepped, h))
    corner = extract_block(f(x), 0, x.shape[0] // jet.dim - 1, jet.dim)
    w = factorial([u - 1 for u in x.units if u != IMAG])
    return corner * w if w > 1 else corner


def partial_via_blocktri(f: MatrixCallable, jet: PathJet, alpha: Sequence[int]) -> np.ndarray:
    """Mixed partial derivative ``alpha`` of f(A(x)) read off one block evaluation.

    f gets the embedding as a ``ShiftJet``: the dense matrix, read-only,
    carrying its coefficients. ``matrix_exp`` and ``matrix_cos`` evaluate
    it in the algebra of shifts and return an element; every other
    callable sees the dense matrix.
    """
    return _corner(f, jet, resolve_request(alpha, jet.nvars))


def frechet_via_blocktri(
    f: MatrixCallable, a0: np.ndarray, es: Sequence[np.ndarray]
) -> np.ndarray:
    """k-th derivative of f at a0 in directions es (symmetric multilinear).

    Directions that are the same object share one variable, so
    D^3 f[E, E, E] is one third-order partial on a 4n embedding.
    """
    counts = Counter(map(id, es))
    distinct = list({id(e): e for e in es}.values())
    return partial_via_blocktri(f, jet_from_directions(a0, distinct), tuple(counts.values()))


def partial_via_frechet_sum(
    f: MatrixCallable, jet: PathJet, alpha: Sequence[int]
) -> np.ndarray:
    """Mixed partial derivative as a sum of directional derivatives.

    Sums, over every splitting of ``alpha`` into i nonzero pieces, the i-th
    directional derivative of f at the base point along the corresponding
    jet terms. Each distinct splitting is evaluated once and weighted by
    its multiplicity in ``s_partitions``. On a ``missing_is_zero`` jet a
    splitting that names a term the jet does not store is zero, by
    multilinearity, and is skipped. Terms are accumulated in canonical
    order (i ascending, splittings in their canonical order), so results
    are bit-reproducible.
    """
    alpha = as_index(alpha)
    m = order(alpha)
    if m == 0:
        raise EmptyIndex("derivative request must have order >= 1")
    a0 = jet.base
    total = np.zeros((jet.dim, jet.dim), dtype=np.complex128)
    for i in range(1, m + 1):
        for part, count in Counter(s_partitions(alpha, i)).items():
            if jet.missing_is_zero and not all(t in jet.terms for t in part):
                continue
            term = frechet_via_blocktri(f, a0, [jet.term(t) for t in part])
            total += count * term if count > 1 else term
    return total


def longest_path(adj) -> int:
    """Number of vertices on a longest path of a strictly upper triangular DAG.

    A single vertex with no edges counts 1. Nonzero entries on or below the
    diagonal raise NotDag.
    """
    a = np.asarray(adj)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"adjacency must be square, got shape {a.shape}")
    edges = a != 0
    n = edges.shape[0]
    if np.any(np.tril(edges)):
        raise NotDag("adjacency has entries on or below the diagonal")
    best = np.ones(n, dtype=np.int64)
    for j in range(n):
        preds = np.nonzero(edges[:, j])[0]
        if preds.size:
            best[j] = 1 + int(best[preds].max())
    return int(best.max()) if n else 0
