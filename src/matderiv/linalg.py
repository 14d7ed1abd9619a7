"""Dense complex matrix core: validation, spectral decomposition, matrix
functions, block extraction, and the spectral norm used for error metrics.

All matrices are square numpy arrays promoted to complex128. Operations
re-validate their inputs so failures surface as typed errors rather than
numpy broadcasting accidents.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def to_eigenbasis(self, m: np.ndarray) -> np.ndarray:
        """Return ``Q^H m Q``."""
        q = self.vectors
        return q.conj().T @ as_matrix(m, "m") @ q

    def from_eigenbasis(self, m: np.ndarray) -> np.ndarray:
        """Return ``Q m Q^H``."""
        q = self.vectors
        return q @ as_matrix(m, "m") @ q.conj().T


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


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade)."""
    a = as_matrix(a)
    return _require_finite(scipy.linalg.expm(a), "matrix_exp")


def matrix_cos(a) -> np.ndarray:
    """Matrix cosine via ``(exp(iA) + exp(-iA)) / 2``."""
    a = as_matrix(a)
    ia = 1j * a
    return _require_finite(0.5 * (scipy.linalg.expm(ia) + scipy.linalg.expm(-ia)), "matrix_cos")


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
