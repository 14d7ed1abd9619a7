"""Dense complex matrix core: validation, spectral decomposition, matrix
functions, block extraction, and the spectral norm used for error metrics.

All matrices are square numpy arrays promoted to complex128. Operations
re-validate their inputs so failures surface as typed errors rather than
numpy broadcasting accidents.

``ShiftJet`` builds every block embedding X = sum_t C_t (x) u^t, each unit
a nilpotent shift (u^s = 0) or ``IMAG`` (u^2 = -1); one signed product
table gives both its dense image and products of coefficient stacks.
``matrix_exp`` and ``matrix_cos`` return an element for an element.

``matrix_exp`` is a numpy-only scaling-and-squaring Pade method after
Al-Mohy & Higham, "A new scaling and squaring algorithm for the matrix
exponential", SIAM J. Matrix Anal. Appl. 31 (2009). It runs on elements
X = sum_t C_t (x) u^t of the algebra of commuting nilpotent shifts
u_1..u_L of sizes s_1..s_L (u_i^s_i = 0), stored as the stack of their
coefficients. A plain matrix is the element with no shifts, so there is
one evaluator:

- A product is the truncated convolution (XY)_t = sum_{r <= t} X_r Y_{t-r}
  (r <= t digitwise): prod s_i (s_i + 1) / 2 products of n x n blocks.
  The dense image has b = prod s_i block rows, and a block upper
  triangular product of it costs b (b + 1) (b + 2) / 6: 18 against 56 at
  sizes (3, 2), 27 against 120 at (2, 2, 2).
- X^2, X^4 and X^6 are formed, and d4 = ||X^4||_1^(1/4) and
  d6 = ||X^6||_1^(1/6) pick the degree m, the first of 3, 5, 7, 9 with
  max(d4, d6) <= theta_m. Otherwise m = 13, with
  s = ceil(log2(min(max(d4, d6), max(d4, d10)) / theta_13))_+ squarings,
  where d10 = (||X^4||_1 ||X^6||_1)^(1/10). The bounds d8 <= d4 and
  d10 stand in for the exact norms, so no X^8 or X^10 is formed. They
  only over-estimate eta_5, so the backward error bound holds. ||.||_1 of
  an element is that of its dense image, the largest column sum of
  sum_t |C_t|, so m and s are the dense ones.
- The Pade quotient (V - U)^-1 (V + U) is solved by forward substitution
  over the total degree of t, one ``np.linalg.solve`` with the constant
  coefficient per degree against the stacked right-hand sides.
- Diagonal input, 1 x 1 included, gives the exact exp of its diagonal.
  For triangular input with s > 0, the diagonal and first superdiagonal
  are recomputed exactly after every squaring (Code Fragment 2.1).
  Lower triangular input goes through its transpose. A ``ShiftJet`` whose
  coefficients are all upper triangular (every 1 x 1 one among them) is
  evaluated as its dense image, which is upper triangular, so it keeps
  this rule. So is one with an ``IMAG`` unit, which is not nilpotent.
- The work runs in fixed buffers, written in place with ``out=``, and
  squaring alternates two of them.
- Non-finite input raises DomainError.

``matrix_cos`` evaluates exp(iA) and exp(-iA) together. They share X^2,
X^4, X^6 and V, and U(-X) = -U(X), so exp(-X) is (V + U)^-1 (V - U) from
the same two factors. Only the squarings are done twice.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    NoConvergence,
    NotHermitian,
)

HERMITIAN_RTOL = 1e-12
IMAG = -1  # unit code for the 2x2 imaginary unit [[0, 1], [-1, 0]]


def as_matrix(a, name: str = "a") -> np.ndarray:
    """Validate and promote ``a`` to a square complex128 matrix."""
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{name}: expected a square matrix, got shape {arr.shape}")
    return np.ascontiguousarray(arr, dtype=np.complex128)


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, "fro"))


def hermitian_defect(a: np.ndarray) -> float:
    """Relative Frobenius distance of ``a`` from its Hermitian part."""
    scale = frobenius(a)
    if scale == 0.0:
        return 0.0
    return frobenius(a - a.conj().T) / scale


def require_hermitian(a: np.ndarray) -> np.ndarray:
    a = as_matrix(a)
    defect = hermitian_defect(a)
    if defect > HERMITIAN_RTOL:
        raise NotHermitian(f"relative Hermitian defect {defect:.3e} exceeds {HERMITIAN_RTOL:.1e}")
    return a


@dataclass(frozen=True)
class SpectralDecomp:
    """Unitary eigendecomposition ``a = Q diag(eigenvalues) Q^H``.

    ``eigenvalues`` is real and ascending; column ``vectors[:, i]`` belongs
    to ``eigenvalues[i]``.

    ``to_eigenbasis`` rotates each distinct ndarray once per decomposition.
    Its cache is keyed by ``id()`` and holds a copy of the input and the
    rotation. A hit needs the same object with content equal to the copy,
    so an array mutated in place is rotated again. The input is held by weak
    reference: its entry goes when the caller drops the array. Inputs that
    cannot be weakly referenced, such as lists, are rotated on every call.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    # id(m) -> (weak reference to m, copy of m, rotation)
    _rotations: dict[int, tuple] = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def _operand(self, m) -> np.ndarray:
        """``m`` as a complex matrix of this decomposition's size."""
        a = as_matrix(m, "m")
        if a.shape[0] != self.dim:
            raise DimensionMismatch(
                f"matrix of shape {a.shape} does not match the {self.dim} x {self.dim} decomposition"
            )
        return a

    def to_eigenbasis(self, m) -> np.ndarray:
        """Return ``Q^H m Q``, read-only."""
        key = id(m)
        entry = self._rotations.get(key)
        if entry is not None and entry[0]() is m and np.array_equal(m, entry[1]):
            return entry[2]
        a = self._operand(m)
        q = self.vectors
        rotated = q.conj().T @ a @ q
        rotated.flags.writeable = False
        if isinstance(m, np.ndarray):
            owner = weakref.ref(self)

            def forget(ref, key=key):
                d = owner()
                if d is not None and d._rotations.get(key, (None,))[0] is ref:
                    del d._rotations[key]

            self._rotations[key] = (weakref.ref(m, forget), np.array(m), rotated)
        return rotated

    def to_eigenbasis_block(self, m, rows: slice, cols: slice) -> np.ndarray:
        """Return block ``(rows, cols)`` of ``Q^H m Q``, uncached.

        The two products start from the narrower side, so an ne x (n - ne)
        block costs n^2 min(ne, n - ne) + ne (n - ne) n multiply-adds.
        """
        a = self._operand(m)
        left, right = self.vectors[:, rows].conj().T, self.vectors[:, cols]
        if left.shape[0] <= right.shape[1]:
            return (left @ a) @ right
        return left @ (a @ right)

    def from_eigenbasis(self, m) -> np.ndarray:
        """Return ``Q m Q^H``."""
        q = self.vectors
        return q @ self._operand(m) @ q.conj().T


def hermitian_eig(a) -> SpectralDecomp:
    """Eigendecomposition of a Hermitian matrix with ascending eigenvalues.

    Raises
    ------
    NotHermitian
        if the relative Hermitian defect exceeds ``HERMITIAN_RTOL``.
    NoConvergence
        if the underlying eigensolver fails.
    """
    a = require_hermitian(a)
    try:
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NoConvergence(str(exc)) from exc
    return SpectralDecomp(eigenvalues=w.astype(np.float64), vectors=q.astype(np.complex128))


def _require_finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{what} produced non-finite entries")
    return x


# Largest 2^-s eta for which the degree-m Pade approximant of exp has backward
# error below the double unit roundoff (Al-Mohy & Higham 2009, Table 3.1).
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068))
_THETA13 = 5.371920351148152
# c_j = (2m - j)! / (j! (m - j)!): numerator sum_j c_j X^j, denominator sum_j c_j (-X)^j
_PADE = {m: tuple(float(math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j)))
                  for j in range(m + 1))
         for m in (3, 5, 7, 9, 13)}


def _diag(x: np.ndarray, k: int = 0) -> np.ndarray:
    """Writable view of the k-th superdiagonal of a C-contiguous square matrix."""
    n = x.shape[0]
    return x.reshape(-1)[k:n * (n - k):n + 1]


def _lincomb(out: np.ndarray, terms, const: float = 0.0) -> np.ndarray:
    """``out = sum(c * m for c, m in terms) + const * I`` on coefficient stacks."""
    (c0, m0), *rest = terms
    np.multiply(m0, c0, out=out)
    for c, m in rest:
        out += c * m
    if const:
        _diag(out[0])[:] += const
    return out


@lru_cache(maxsize=None)
def _shift_table(units: tuple[int, ...]) -> tuple[tuple, tuple]:
    """Signed product table of the algebra over ``units``.

    Each unit is a shift size s >= 1 (u^s = 0) or IMAG (u^2 = -1), a digit
    of size 2 that wraps around with -1. A coefficient u^t sits at flat
    index sum_i t_i prod(sizes[:i]), unit 1 the innermost digit. Returns
    ``(pairs, levels)``: ``pairs[t]`` lists every ``(r, q, neg)`` with
    u^r u^q = (-1)^neg u^t, r ascending, so r = 0 comes first and is not
    negated. On a shift digit q = t - r with r <= t; on an IMAG digit
    q = r xor t, negated once per IMAG digit set in both r and q.
    ``levels[d]`` holds the flat indices of total degree d. No units is
    the algebra of plain matrices: ``(((0, 0, False),),), ((0,),)``.
    """
    sizes = [2 if u == IMAG else u for u in units]
    strides = [math.prod(sizes[:i]) for i in range(len(sizes))]
    digits = [tuple(k // st % s for st, s in zip(strides, sizes)) for k in range(math.prod(sizes))]

    def factor(dr, dt):  # (q, neg) with u^r u^q = (-1)^neg u^t
        q = [a ^ b if u == IMAG else b - a for u, a, b in zip(units, dr, dt)]
        neg = sum(a & d for u, a, d in zip(units, dr, q) if u == IMAG) % 2 == 1
        return sum(d * st for d, st in zip(q, strides)), neg

    pairs = tuple(tuple((r, *factor(dr, dt)) for r, dr in enumerate(digits)
                        if all(u == IMAG or a <= b for u, a, b in zip(units, dr, dt)))
                  for dt in digits)
    levels = tuple(tuple(t for t, dt in enumerate(digits) if sum(dt) == d)
                   for d in range(sum(sizes) - len(sizes) + 1))
    return pairs, levels


def _image(c: np.ndarray, pairs) -> np.ndarray:
    """Dense matrix of the element with coefficients c: block (r, t) is +-c[q].

    It is the matrix of left multiplication by the element, so products and
    functions of elements map to those of their images.
    """
    nb, n = c.shape[:2]
    if nb == 1:
        return c[0]
    x = np.zeros((nb, n, nb, n), dtype=c.dtype)
    for t, terms in enumerate(pairs):
        for r, q, neg in terms:
            x[r, :, t] = -c[q] if neg else c[q]
    return x.reshape(nb * n, nb * n)


class ShiftJet(np.ndarray):
    """X = sum_t C_t (x) u^t over shift and IMAG units, as its dense image.

    ``ShiftJet(coeffs, units)`` is the one builder of an embedding: an
    IMAG unit is a size-2 shift that wraps around with -1, so one
    imaginary unit with ``{(0,): a, (1,): b}`` gives ``[[a, b], [-b, a]]``.
    A missing coefficient is zero. The array is read-only, so the matrix
    cannot drift from the coefficients it keeps, stacked by flat index (see
    ``_shift_table``), in ``coeffs``. ``matrix_exp`` and ``matrix_cos``
    evaluate X in the algebra from them when no unit is IMAG, returning a
    ShiftJet; every other case sees the dense matrix. Arrays derived from
    it (views, products) carry no coefficients. A coefficient that does
    not fit the units or is not n x n, or no coefficient at all, raises
    DimensionMismatch.
    """

    def __new__(cls, coeffs, units):
        units = tuple(int(u) for u in units)
        if not coeffs:
            raise DimensionMismatch("no coefficients given")
        sizes = [2 if u == IMAG else u for u in units]
        if min(sizes, default=1) < 1:
            raise DimensionMismatch(f"units must be IMAG or positive sizes, got {units}")
        strides = [math.prod(sizes[:i]) for i in range(len(sizes))]
        shape = np.shape(next(iter(coeffs.values())))
        n = shape[0] if shape else 0
        stack = np.zeros((math.prod(sizes), n, n), dtype=np.complex128)
        for t, c in coeffs.items():
            if len(t) != len(sizes) or any(not 0 <= d < s for d, s in zip(t, sizes)):
                raise DimensionMismatch(f"coefficient {tuple(t)} out of range for units {units}")
            if np.shape(c) != (n, n):
                raise DimensionMismatch(f"coefficient {tuple(t)} has shape {np.shape(c)}, not ({n}, {n})")
            stack[sum(d * st for d, st in zip(t, strides))] = c
        return _shift_jet(stack, units)

    def __array_finalize__(self, obj) -> None:
        self.coeffs, self.units = None, ()


def _shift_jet(stack: np.ndarray, units: tuple[int, ...]) -> ShiftJet:
    """The element with coefficient stack ``stack`` over ``units``; both are read-only after."""
    stack.flags.writeable = False
    x = _image(stack, _shift_table(units)[0]).view(ShiftJet)
    x.coeffs, x.units = stack, units
    x.flags.writeable = False
    return x


def _element(a) -> tuple[np.ndarray, tuple[int, ...]]:
    """Coefficient stack and units to evaluate ``a`` on.

    A ShiftJet goes in as its dense image when a unit is IMAG, whose
    element the forward substitution of ``_solve`` cannot invert, or when
    its coefficients are all upper triangular: its image is then upper
    triangular, so that the exact band rule of ``_expm`` applies to it.
    """
    coeffs = getattr(a, "coeffs", None)
    if (isinstance(a, ShiftJet) and coeffs is not None and IMAG not in a.units
            and np.tril(coeffs, -1).any()):
        return coeffs, a.units
    return as_matrix(a)[None], ()


def _norm1(c: np.ndarray) -> float:
    """1-norm of the element's dense image: its last block column holds every c[t] once."""
    return float(np.linalg.norm(np.abs(c).sum(axis=0), 1))


def _mul(a: np.ndarray, b: np.ndarray, pairs, out: np.ndarray | None = None) -> np.ndarray:
    """Product of two elements: ``out[t] = sum +-a[r] b[q]`` over ``pairs[t]``."""
    if out is None:
        out = np.empty_like(a)
    for t, ((r0, q0, _), *rest) in enumerate(pairs):
        np.matmul(a[r0], b[q0], out=out[t])
        for r, q, neg in rest:
            if neg:
                out[t] -= a[r] @ b[q]
            else:
                out[t] += a[r] @ b[q]
    return out


def _solve(q: np.ndarray, p: np.ndarray, table) -> np.ndarray:
    """``q^-1 p`` in an algebra of shifts, by forward substitution over total degree.

    y[t] = q[0]^-1 (p[t] - sum_{r > 0} q[r] y[t - r]), one solve with q[0]
    per degree against that degree's stacked right-hand sides.
    """
    pairs, levels = table
    n = q.shape[1]
    y = np.empty_like(p)
    for level in levels:
        rhs = p[list(level)]
        for j, t in enumerate(level):
            for r, s, _ in pairs[t][1:]:
                rhs[j] -= q[r] @ y[s]
        sol = np.linalg.solve(q[0], rhs.transpose(1, 0, 2).reshape(n, -1))
        y[list(level)] = sol.reshape(n, len(level), n).transpose(1, 0, 2)
    return y


def _degree(n4: float, n6: float) -> tuple[int, int]:
    """Pade degree m and squarings s from n4 = ||X^4||_1 and n6 = ||X^6||_1.

    d_k = ||X^k||_1^(1/k) for k = 4, 6. Degrees 3..9 take eta = max(d4, d6),
    which bounds Al-Mohy & Higham's eta_1..eta_3 because d8 <= d4. Degree 13
    uses d10 <= (n4 n6)^(1/10), so no X^8 or X^10 is formed; both bounds only
    over-estimate eta_5, which keeps the backward error bound.
    """
    d4, d6 = n4 ** 0.25, n6 ** (1.0 / 6.0)
    eta = max(d4, d6)
    for m, theta in _THETA:
        if eta <= theta:
            return m, 0
    eta5 = min(eta, max(d4, (n4 * n6) ** 0.1))
    if not math.isfinite(eta5):
        raise DomainError("matrix_exp: powers of the input overflow")
    return 13, max(0, math.ceil(math.log2(eta5 / _THETA13)))


def _pade(x, x2, x4, x6, m, pairs):
    """Return ``(V + U, V - U)`` of the degree-m Pade approximant at ``x``.

    U is odd and V even in x. The power buffers x2, x4, x6 are overwritten.
    """
    c = _PADE[m]
    if m == 13:
        w = _lincomb(np.empty_like(x), [(c[13], x6), (c[11], x4), (c[9], x2)])
        t = _mul(x6, w, pairs)
        _lincomb(w, [(c[7], x6), (c[5], x4), (c[3], x2)], c[1])
        t += w
        u = _mul(x, t, pairs, out=w)
        _lincomb(t, [(c[12], x6), (c[10], x4), (c[8], x2)])
        v_low = _lincomb(x2, [(c[2], x2), (c[4], x4), (c[6], x6)], c[0])
        v = _mul(x6, t, pairs, out=x4)
        v += v_low
    else:
        powers = [x2, x4, x6][:m // 2]
        if m == 9:
            powers.append(_mul(x4, x4, pairs))
        w = _lincomb(np.empty_like(x), [(c[2 * j + 3], p) for j, p in enumerate(powers)], c[1])
        u = _mul(x, w, pairs)
        v = _lincomb(w, [(c[2 * j + 2], p) for j, p in enumerate(powers)], c[0])
    q = np.subtract(v, u, out=x2)
    v += u
    return v, q


def _exp_divdiff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First divided difference ``(e^b - e^a) / (b - a)``, ``e^a`` where b == a.

    Close nodes use exp((a + b)/2) sinh(h)/h with h = (b - a)/2, which has no
    cancellation (Higham, Functions of Matrices, eq. 10.42).
    """
    h = 0.5 * (b - a)
    close = np.abs(h) <= 1.0
    sinch = np.ones_like(h)
    nz = close & (h != 0)
    sinch[nz] = np.sinh(h[nz]) / h[nz]
    out = np.exp(0.5 * (a + b)) * sinch
    far = ~close
    out[far] = (np.exp(b[far]) - np.exp(a[far])) / (b[far] - a[far])
    return out


def _exact_band(r: np.ndarray, d: np.ndarray, sd: np.ndarray, scale: float) -> None:
    """Overwrite diagonal and superdiagonal of r = exp(scale T), T upper triangular."""
    ds = d * scale
    _diag(r)[:] = np.exp(ds)
    _diag(r, 1)[:] = (sd * scale) * _exp_divdiff(ds[:-1], ds[1:])


def _scaling(c: np.ndarray, pairs):
    """X^2, X^4, X^6 of the element c, and the Pade degree m and squarings s."""
    x2 = _mul(c, c, pairs)
    x4 = _mul(x2, x2, pairs)
    x6 = _mul(x4, x2, pairs)
    return x2, x4, x6, _degree(_norm1(x4), _norm1(x6))


def _expm(c: np.ndarray, sizes: tuple[int, ...], pair: bool = False) -> list[np.ndarray]:
    """``[exp(c)]``, or ``[exp(c), exp(-c)]`` from one shared Pade evaluation.

    ``c`` is the coefficient stack of an element over shifts of ``sizes``;
    the results are stacks too. A plain matrix is the stack of one.
    """
    if not np.isfinite(c).all():
        raise DomainError("matrix_exp: input has non-finite entries")
    signs = (1.0, -1.0) if pair else (1.0,)
    upper = lower = False
    if not sizes:
        a = c[0]
        upper = not np.tril(a, -1).any()
        lower = not np.triu(a, 1).any()
        if upper and lower:
            return [np.diag(np.exp(sign * np.diagonal(a)))[None] for sign in signs]
        if lower:
            return [np.ascontiguousarray(e[0].T)[None]
                    for e in _expm(np.ascontiguousarray(a.T)[None], sizes, pair)]
    table = _shift_table(sizes)
    pairs = table[0]
    x2, x4, x6, (m, s) = _scaling(c, pairs)
    x = c
    if s:
        x = c * 2.0 ** -s
        x2 *= 2.0 ** (-2 * s)
        x4 *= 2.0 ** (-4 * s)
        x6 *= 2.0 ** (-6 * s)
    p, q = _pade(x, x2, x4, x6, m, pairs)
    del x, x2, x4, x6  # release the Pade buffers that p and q do not hold before solving
    results = [_solve(q, p, table)]
    if pair:
        # U(-X) = -U(X) exactly, so exp(-X)'s Pade quotient swaps the factors
        results.append(_solve(p, q, table))
    d, sd = np.diagonal(c[0]), np.diagonal(c[0], 1)
    out = []
    for r, spare, sign in zip(results, (p, q), signs):
        if upper and s:
            _exact_band(r[0], sign * d, sign * sd, 2.0 ** -s)
        for j in range(s - 1, -1, -1):
            _mul(r, r, pairs, out=spare)
            r, spare = spare, r
            if upper:
                _exact_band(r[0], sign * d, sign * sd, 2.0 ** -j)
        out.append(r)
    return out


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade).

    A ShiftJet evaluated in its algebra gives a ShiftJet over the same
    units; every other input gives a plain matrix.
    """
    c, sizes = _element(a)
    e = _require_finite(_expm(c, sizes)[0], "matrix_exp")
    return _shift_jet(e, sizes) if sizes else e[0]


def matrix_cos(a) -> np.ndarray:
    """Matrix cosine ``(exp(iA) + exp(-iA)) / 2``, both from one Pade evaluation."""
    c, sizes = _element(a)
    e_pos, e_neg = _expm(1j * c, sizes, pair=True)
    e = _require_finite(0.5 * (e_pos + e_neg), "matrix_cos")
    return _shift_jet(e, sizes) if sizes else e[0]


def extract_block(x: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Return block ``(i, j)`` (0-based) of a matrix partitioned into n x n blocks."""
    x = as_matrix(x, "x")
    if x.shape[0] % n != 0:
        raise DimensionMismatch(f"matrix of size {x.shape[0]} is not a multiple of block size {n}")
    nb = x.shape[0] // n
    if not (0 <= i < nb and 0 <= j < nb):
        raise DimensionMismatch(f"block index ({i}, {j}) out of range for {nb} x {nb} blocks")
    return np.array(x[i * n:(i + 1) * n, j * n:(j + 1) * n])


def spectral_norm(x) -> float:
    """Largest singular value, from LAPACK's SVD via ``np.linalg.norm(x, 2)``."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {x.shape}")
    if x.size == 0:
        return 0.0
    return float(np.linalg.norm(x, 2))
