"""Dense-kernel tests: eigensolver wrapper, function backends, block helpers."""
import numpy as np
import pytest

from matderiv import (
    NotHermitian,
    SpectralDecomp,
    hermitian_eig,
    matrix_cos,
    matrix_exp,
    spectral_norm,
)
from matderiv.errors import DimensionMismatch, DomainError
from matderiv.linalg import (
    extract_block,
    frobenius,
    hermitian_defect,
    require_hermitian,
)


def rand_hermitian(rng, n):
    m = rng.uniform(-0.5, 0.5, (n, n)) + 1j * rng.uniform(-0.5, 0.5, (n, n))
    return (m + m.conj().T) / 2.0


def test_hermitian_eig_sorted_diagonal():
    d = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(d.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)


def test_hermitian_eig_identity():
    d = hermitian_eig(np.eye(4))
    np.testing.assert_allclose(d.eigenvalues, np.ones(4), atol=1e-14)
    np.testing.assert_allclose(
        d.vectors @ d.vectors.conj().T, np.eye(4), atol=1e-13
    )


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_reconstruction_sweep():
    # eigenvalues ascending, Q unitary, Q diag(lam) Q^H = A
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        a = rand_hermitian(rng, n)
        d = hermitian_eig(a)
        assert np.all(np.diff(d.eigenvalues) >= 0)
        scale = max(frobenius(a), 1e-300)
        q = d.vectors
        assert frobenius((q * d.eigenvalues) @ q.conj().T - a) <= 1e-10 * scale
        assert frobenius(d.vectors.conj().T @ d.vectors - np.eye(n)) <= 1e-12 * n


def test_to_from_eigenbasis_round_trip():
    rng = np.random.default_rng(3)
    a = rand_hermitian(rng, 5)
    d = hermitian_eig(a)
    m = rng.uniform(-1, 1, (5, 5)) + 1j * rng.uniform(-1, 1, (5, 5))
    np.testing.assert_allclose(
        d.from_eigenbasis(d.to_eigenbasis(m)), m, atol=1e-13
    )


def test_matrix_exp_diagonal():
    out = matrix_exp(np.diag([1.0, -1.0]))
    np.testing.assert_allclose(out, np.diag([np.e, 1.0 / np.e]), rtol=1e-14)


def test_matrix_exp_zero():
    np.testing.assert_allclose(matrix_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)


def test_matrix_exp_inverse_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        prod = matrix_exp(a) @ matrix_exp(-a)
        assert frobenius(prod - np.eye(n)) <= 1e-12 * n


def test_matrix_exp_rejects_overflow():
    with np.errstate(over="ignore"), pytest.raises(DomainError):
        matrix_exp(np.array([[1e6]]))


def test_matrix_cos_scalar_and_zero():
    np.testing.assert_allclose(
        matrix_cos(np.array([[1.0]]))[0, 0], 0.5403023058681398, rtol=1e-13
    )
    np.testing.assert_allclose(matrix_cos(np.zeros((2, 2))), np.eye(2), atol=1e-15)


def test_matrix_cos_matches_spectral_route():
    rng = np.random.default_rng(11)
    a = rand_hermitian(rng, 6)
    d = hermitian_eig(a)
    q = d.vectors
    np.testing.assert_allclose(
        matrix_cos(a), (q * np.cos(d.eigenvalues)) @ q.conj().T, atol=1e-12
    )


def test_assemble_extract_round_trip_exact():
    rng = np.random.default_rng(5)
    n = 3
    blocks = [[rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
               for _ in range(4)] for _ in range(4)]
    x = np.block(blocks)
    for i in range(4):
        for j in range(4):
            # bit-exact: assembly is pure placement
            assert np.array_equal(extract_block(x, i, j, n), blocks[i][j].astype(complex))


def test_extract_block_bounds():
    with pytest.raises(DimensionMismatch):
        extract_block(np.eye(4), 0, 2, 2)


def test_spectral_norm_matches_lapack():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 10))
        x = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        assert abs(spectral_norm(x) - np.linalg.norm(x, 2)) <= 1e-10 * np.linalg.norm(x, 2)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_require_hermitian():
    with pytest.raises(NotHermitian):
        require_hermitian(np.array([[0.0, 1.0], [2.0, 0.0]]))
    a = np.array([[1.0, 2.0], [2.0, -1.0]])
    np.testing.assert_array_equal(require_hermitian(a), a.astype(complex))
    assert hermitian_defect(a) == 0.0


def test_spectral_decomp_dim():
    d = SpectralDecomp(eigenvalues=np.array([1.0, 2.0]), vectors=np.eye(2, dtype=complex))
    assert d.dim == 2
