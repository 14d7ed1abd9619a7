"""Dense complex matrix core: validation, spectral decomposition, matrix
functions, block assembly, and the spectral norm used for error metrics.

All matrices are square numpy arrays promoted to complex128. Operations
re-validate their inputs so failures surface as typed errors rather than
numpy broadcasting accidents.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    DomainError,
    NoConvergence,
    NotHermitian,
)

HERMITIAN_RTOL = 1e-12


def as_matrix(a, name: str = "a") -> np.ndarray:
    """Validate and promote ``a`` to a square complex128 matrix."""
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{name}: expected a square matrix, got shape {arr.shape}")
    return np.ascontiguousarray(arr, dtype=np.complex128)


def same_shape(a: np.ndarray, b: np.ndarray, names: str = "operands") -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(f"{names}: shapes {a.shape} and {b.shape} differ")


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, "fro"))


def hermitian_defect(a: np.ndarray) -> float:
    """Relative Frobenius distance of ``a`` from its Hermitian part."""
    scale = frobenius(a)
    if scale == 0.0:
        return 0.0
    return frobenius(a - a.conj().T) / scale


def require_hermitian(a: np.ndarray, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    a = as_matrix(a)
    defect = hermitian_defect(a)
    if defect > rtol:
        raise NotHermitian(f"relative Hermitian defect {defect:.3e} exceeds {rtol:.1e}")
    return a


@dataclass(frozen=True)
class SpectralDecomp:
    """Unitary eigendecomposition ``a = Q diag(eigenvalues) Q^H``.

    ``eigenvalues`` is real and ascending; column ``vectors[:, i]`` belongs
    to ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        q = self.vectors
        return (q * self.eigenvalues) @ q.conj().T

    def to_eigenbasis(self, m: np.ndarray) -> np.ndarray:
        """Return ``Q^H m Q``."""
        q = self.vectors
        return q.conj().T @ as_matrix(m, "m") @ q

    def from_eigenbasis(self, m: np.ndarray) -> np.ndarray:
        """Return ``Q m Q^H``."""
        q = self.vectors
        return q @ as_matrix(m, "m") @ q.conj().T


def hermitian_eig(a, rtol: float = HERMITIAN_RTOL) -> SpectralDecomp:
    """Eigendecomposition of a Hermitian matrix with ascending eigenvalues.

    Raises
    ------
    NotHermitian
        if the relative Hermitian defect exceeds ``rtol``.
    NoConvergence
        if the underlying eigensolver fails.
    """
    a = require_hermitian(a, rtol)
    try:
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NoConvergence(str(exc)) from exc
    return SpectralDecomp(eigenvalues=w.astype(np.float64), vectors=q.astype(np.complex128))


def spectral_apply(f, d: SpectralDecomp) -> np.ndarray:
    """Apply a scalar function through a spectral decomposition.

    ``f`` may be a plain callable or anything with an ``eval`` method.
    DomainError propagates from the scalar function.
    """
    evalf: Callable[[float], complex] = getattr(f, "eval", f)
    vals = np.array([evalf(lam) for lam in d.eigenvalues], dtype=np.complex128)
    q = d.vectors
    return (q * vals) @ q.conj().T


def _require_finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{what} produced non-finite entries")
    return x


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade)."""
    a = as_matrix(a)
    return _require_finite(scipy.linalg.expm(a), "matrix_exp")


def matrix_cos(a) -> np.ndarray:
    """Matrix cosine via ``(exp(iA) + exp(-iA)) / 2``."""
    a = as_matrix(a)
    ia = 1j * a
    return _require_finite(0.5 * (scipy.linalg.expm(ia) + scipy.linalg.expm(-ia)), "matrix_cos")


def kron_identity_left(k: int, e) -> np.ndarray:
    """Kronecker product ``I_k (x) e``: e repeated k times on the block diagonal."""
    e = as_matrix(e, "e")
    if k < 1:
        raise DimensionMismatch(f"identity factor must be positive, got {k}")
    return np.kron(np.eye(k, dtype=np.complex128), e)


def assemble_2x2(tl, tr, bl, br) -> np.ndarray:
    """Assemble ``[[tl, tr], [bl, br]]`` from four equally sized blocks."""
    return assemble_blocks([[tl, tr], [bl, br]])


def assemble_blocks(grid: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """Assemble a block matrix from a rectangular grid of equal square blocks."""
    blocks = [[as_matrix(b, "block") for b in row] for row in grid]
    n = blocks[0][0].shape[0]
    for row in blocks:
        for b in row:
            if b.shape != (n, n):
                raise DimensionMismatch(f"block shape {b.shape} differs from ({n}, {n})")
    return np.block([[b for b in row] for row in blocks])


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
