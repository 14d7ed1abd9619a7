"""Dense-kernel tests: eigensolver wrapper, function backends, block helpers."""
import itertools
import math

import numpy as np
import pytest

from matderiv import (
    IMAG,
    NotHermitian,
    PathJet,
    SpectralDecomp,
    hermitian_eig,
    matrix_cos,
    matrix_exp,
    spectral_norm,
)
from matderiv.blocktri import _jet_coeffs
from matderiv.errors import DimensionMismatch, DomainError
from matderiv.linalg import (
    ShiftJet,
    _image,
    _mul,
    _scaling,
    _shift_table,
    extract_block,
    frobenius,
    hermitian_defect,
    require_hermitian,
)
from matderiv.multiindex import iter_sub_indices


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


def test_to_eigenbasis_rotates_each_array_once():
    rng = np.random.default_rng(4)
    d = hermitian_eig(rand_hermitian(rng, 5))
    m = rand_hermitian(rng, 5)
    u = d.to_eigenbasis(m)
    assert d.to_eigenbasis(m) is u
    assert not u.flags.writeable
    np.testing.assert_array_equal(d.to_eigenbasis(m.tolist()), u)
    assert d.to_eigenbasis(m.tolist()) is not d.to_eigenbasis(m.tolist())


def test_eigenbasis_rotations_check_size():
    d = hermitian_eig(np.diag([1.0, 2.0, 3.0, 4.0]))
    for call in (d.to_eigenbasis, d.from_eigenbasis,
                 lambda m: d.to_eigenbasis_block(m, slice(0, 2), slice(2, None))):
        with pytest.raises(DimensionMismatch):
            call(np.eye(3))


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


def rand_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rel_err(x, ref):
    return np.linalg.norm(x - ref, 1) / np.linalg.norm(ref, 1)


def degree_of(a):
    """Pade degree and squaring count matrix_exp picks for ``a``."""
    from matderiv.linalg import _degree

    pw = np.linalg.matrix_power
    return _degree(np.linalg.norm(pw(a, 4), 1), np.linalg.norm(pw(a, 6), 1))


@pytest.mark.parametrize("a", [
    np.arange(36.0).reshape(6, 6) / 20.0 - 0.9,
    np.triu(np.arange(36.0).reshape(6, 6) - 10.0),  # triangular, squared 5+ times
    np.diag([0.5, -2.0, 3.0]),
])
def test_matrix_cos_is_exp_pair_bitwise(a):
    assert np.array_equal(matrix_cos(a), 0.5 * (matrix_exp(1j * a) + matrix_exp(-1j * a)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fn", [matrix_exp, matrix_cos])
def test_matrix_functions_reject_non_finite_input(fn, bad):
    a = np.eye(3, dtype=complex)
    a[0, 2] = bad
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(DomainError):
        fn(a)


@pytest.mark.parametrize("fn", [matrix_exp, matrix_cos])
def test_matrix_functions_reject_overflowing_powers(fn):
    a = np.array([[1e200, 1.0], [1.0, 0.0]])
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(DomainError):
        fn(a)


@pytest.mark.parametrize("fn", [matrix_exp, matrix_cos])
def test_matrix_functions_empty_input(fn):
    assert fn(np.zeros((0, 0))).shape == (0, 0)


def test_large_diagonal_overflows_exp_but_not_cos():
    a = np.diag([800.0, 1.0])
    with np.errstate(over="ignore"), pytest.raises(DomainError):
        matrix_exp(a)
    assert np.all(np.isfinite(matrix_cos(a)))


def test_diagonal_input_is_exact_exp():
    d = np.array([0.3 - 2.0j, -40.0, 7.5 + 1e-3j, 0.0])
    assert np.array_equal(matrix_exp(np.diag(d)), np.diag(np.exp(d)))


@pytest.mark.parametrize("a,b", [(a, b) for a in (-30, -5, 12, 30 + 4j) for b in (1.0, 1e3)])
def test_matrix_exp_toeplitz_block_exact(a, b):
    t = np.array([[a, b, 0], [0, a, b], [0, 0, a]], dtype=complex)
    want = np.exp(a) * np.array([[1, b, b * b / 2], [0, 1, b], [0, 0, 1]])
    got = matrix_exp(t)
    nz = want != 0
    assert np.array_equal(got[~nz], want[~nz])
    assert np.max(np.abs(got - want)[nz] / np.abs(want[nz])) <= 2e-15
    assert np.array_equal(matrix_exp(t.T), got.T)


@pytest.mark.parametrize("gap", [1e-9, 1e-3, 0.7, 40.0])
def test_matrix_exp_bidiagonal_distinct_diagonal(gap):
    # superdiagonal of exp([[a, t], [0, b]]) is t (e^b - e^a) / (b - a)
    a, t = -30.0, 3.0
    b = a + gap
    gap = b - a  # exact: the gap the matrix really has
    got = matrix_exp(np.array([[a, t], [0.0, b]]))
    corner = t * np.exp(a) * np.expm1(gap) / gap
    assert abs(got[0, 1] - corner) <= 2e-15 * abs(corner)
    assert got[0, 0] == np.exp(a) and got[1, 1] == np.exp(b)


@pytest.mark.parametrize("m", [3, 5, 7, 9, 13])
def test_matrix_exp_matches_scipy_each_degree(m):
    sl = pytest.importorskip("scipy.linalg")
    theta = {3: 1.5e-2, 5: 0.25, 7: 0.95, 9: 2.1, 13: 5.37}
    lo = {3: 0.0, 5: 1.5e-2, 7: 0.25, 9: 0.95, 13: 2.1}
    base = rand_complex(np.random.default_rng(m), 8)
    pw = np.linalg.matrix_power
    eta = max(np.linalg.norm(pw(base, 4), 1) ** 0.25, np.linalg.norm(pw(base, 6), 1) ** (1 / 6))
    a = base * (0.5 * (lo[m] + theta[m]) / eta)
    assert degree_of(a) == (m, 0)
    assert rel_err(matrix_exp(a), sl.expm(a)) <= 1e-13
    assert rel_err(matrix_cos(a), sl.cosm(a)) <= 1e-13


def test_matrix_exp_matches_scipy_with_squaring():
    sl = pytest.importorskip("scipy.linalg")
    a = rand_complex(np.random.default_rng(50), 10)
    a *= 50.0 / np.linalg.norm(a, 1)
    assert degree_of(a)[1] > 0
    assert rel_err(matrix_exp(a), sl.expm(a)) <= 1e-12
    assert rel_err(matrix_cos(a), sl.cosm(a)) <= 1e-12


@pytest.mark.parametrize("n", [20, 40])
@pytest.mark.parametrize("alpha", [(2, 1), (3, 0)])
def test_matrix_functions_match_scipy_on_embeddings(alpha, n):
    sl = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(sum(alpha) * 10 + alpha[0] + n)
    coeffs = {t: rand_complex(rng, n) / n for t in iter_sub_indices(alpha)}
    x = ShiftJet(*_jet_coeffs(PathJet(terms=coeffs, order=3), alpha))
    element = ShiftJet({t: c / np.prod([math.factorial(d) for d in t]) for t, c in coeffs.items()},
                       [a + 1 for a in alpha])
    assert np.array_equal(element, x)
    for a in (np.array(x), element):
        assert rel_err(matrix_exp(a), sl.expm(x)) <= 1e-13
        assert rel_err(matrix_cos(a), sl.cosm(x)) <= 1e-13


ALGEBRA_ALPHAS = [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (2, 2), (1, 1, 1)]


def shift_element(rng, n, alpha, scale):
    coeffs = {t: scale * rand_complex(rng, n) / n for t in iter_sub_indices(alpha)}
    return coeffs, [a + 1 for a in alpha]


def embed(coeffs, units):
    """Reference image of sum_t coeffs[t] (x) u^t, placed block by block.

    Block (r, c) carries the coefficient whose digit is c_i - r_i on a
    shift and r_i xor c_i on an IMAG unit, negated once per IMAG digit set
    in both t and r. It shares no code with ``ShiftJet``'s product table.
    """
    sizes = [2 if u == IMAG else int(u) for u in units]
    strides = [math.prod(sizes[:i]) for i in range(len(sizes))]
    nb = math.prod(sizes)
    n = next(iter(coeffs.values())).shape[0]
    x = np.zeros((nb * n, nb * n), dtype=np.complex128)
    for t, c in coeffs.items():
        places = [(0, 0, False)]  # (row block, column block, negated)
        for d, u, s, st in zip(t, units, sizes, strides):
            if u == IMAG:
                digit = ((0, d * st, False), (st, (1 - d) * st, d == 1))
            else:
                digit = [(r * st, (r + d) * st, False) for r in range(s - d)]
            places = [(r + dr, col + dc, neg != dn)
                      for r, col, neg in places for dr, dc, dn in digit]
        for r, col, neg in places:
            x[r * n:(r + 1) * n, col * n:(col + 1) * n] = -c if neg else c
    return x


def random_element(rng, n, units, drop=0.0):
    """Random coefficients for every digit of ``units``, each dropped with probability ``drop``."""
    sizes = [2 if u == IMAG else u for u in units]
    return {t: rand_complex(rng, n) for t in np.ndindex(*sizes) if not any(t) or rng.random() >= drop}


UNIT_CHOICES = (1, 2, 3, 4, IMAG)


@pytest.mark.parametrize("units", [(IMAG,), (IMAG, IMAG), (2, IMAG), (IMAG, 3), (2, IMAG, IMAG),
                                   (IMAG, 2, IMAG), (3, 2)])
def test_signed_products_map_to_image_products(units):
    rng = np.random.default_rng(35)
    a = ShiftJet(random_element(rng, 3, units), units)
    b = ShiftJet(random_element(rng, 3, units), units)
    pairs = _shift_table(units)[0]
    assert rel_err(_image(_mul(a.coeffs, b.coeffs, pairs), pairs), np.array(a) @ np.array(b)) <= 1e-13


@pytest.mark.parametrize("units", [(1,), (3,), (3, 2), (2, 2, 2), (4, 1, 3)])
def test_shift_only_tables_are_unsigned_truncated_convolutions(units):
    strides = [math.prod(units[:i]) for i in range(len(units))]
    digits = [d[::-1] for d in np.ndindex(*units[::-1])]  # flat order: first digit fastest
    flat = {d: sum(x * st for x, st in zip(d, strides)) for d in digits}
    pairs = _shift_table(units)[0]
    for dt in digits:
        want = sorted((flat[dr], flat[dt] - flat[dr], False) for dr in digits
                      if all(r <= t for r, t in zip(dr, dt)))
        assert list(pairs[flat[dt]]) == want


@pytest.mark.parametrize("units", [(IMAG,), (IMAG, IMAG), (2, IMAG), (IMAG, 2)])
def test_imag_element_is_evaluated_as_its_dense_matrix(units):
    rng = np.random.default_rng(36)
    x = ShiftJet({t: c / 4 for t, c in random_element(rng, 4, units).items()}, units)
    assert np.array_equal(matrix_exp(x), matrix_exp(np.asarray(x)))
    assert np.array_equal(matrix_cos(x), matrix_cos(np.asarray(x)))


def test_shift_jet_is_embed_matrix():
    rng = np.random.default_rng(30)
    coeffs, sizes = shift_element(rng, 3, (2, 1), 1.0)
    del coeffs[(1, 1)]  # a missing coefficient is zero, as in embed
    x = ShiftJet(coeffs, sizes)
    assert isinstance(x, np.ndarray) and np.array_equal(x, embed(coeffs, sizes))
    # every unit tuple of length 1 to 3 over shifts 1..4 and IMAG, some coefficients missing
    cases = 0
    for units in itertools.chain.from_iterable(itertools.product(UNIT_CHOICES, repeat=k)
                                               for k in (1, 2, 3)):
        for n in (1, 3):
            element = random_element(rng, n, units, drop=0.25)
            assert np.array_equal(ShiftJet(element, units), embed(element, units)), units
            cases += 1
    assert cases == 310
    assert not x.flags.writeable
    assert (x @ x).coeffs is None and x.T.coeffs is None  # derived arrays are plain matrices


@pytest.mark.parametrize("n", [3, 20])
@pytest.mark.parametrize("alpha", ALGEBRA_ALPHAS)
@pytest.mark.parametrize("scale", [0.5, 8.0])
def test_algebra_matches_dense_image(alpha, n, scale):
    rng = np.random.default_rng(31 + n)
    x = ShiftJet(*shift_element(rng, n, alpha, scale))
    dense = np.array(x)
    assert _scaling(x.coeffs, _shift_table(x.units)[0])[3] == degree_of(dense)
    assert rel_err(matrix_exp(x), matrix_exp(dense)) <= 1e-13
    assert rel_err(matrix_cos(x), matrix_cos(dense)) <= 1e-13


@pytest.mark.parametrize("alpha", ALGEBRA_ALPHAS)
@pytest.mark.parametrize("fn", [matrix_exp, matrix_cos], ids=["exp", "cos"])
def test_function_of_element_is_an_element(fn, alpha):
    # coefficient t of f(X) is block (0, t) of f of the dense image
    rng = np.random.default_rng(37)
    n = 4
    x = ShiftJet(*shift_element(rng, n, alpha, 2.0))
    fx = fn(x)
    assert isinstance(fx, ShiftJet) and fx.units == x.units
    assert not fx.flags.writeable and not fx.coeffs.flags.writeable
    dense = fn(np.asarray(x))
    assert np.array_equal(fx, _image(fx.coeffs, _shift_table(x.units)[0]))
    for t, c in enumerate(fx.coeffs):
        assert rel_err(c, extract_block(dense, 0, t, n)) <= 1e-13, t


@pytest.mark.parametrize("fn", [matrix_exp, matrix_cos], ids=["exp", "cos"])
def test_plain_imag_and_triangular_inputs_give_a_plain_matrix(fn):
    rng = np.random.default_rng(38)
    a = rand_complex(rng, 3) / 4
    upper = ShiftJet({(0,): np.triu(a), (1,): np.triu(a.T)}, (2,))
    imag = ShiftJet({(0,): a, (1,): a.T}, (IMAG,))
    for x in (a, upper, imag):
        fx = fn(x)
        assert type(fx) is np.ndarray
        assert np.array_equal(fx, fn(np.array(x)))


@pytest.mark.parametrize("alpha", [(2, 1), (3, 0), (1, 1, 1)])
def test_algebra_matches_scipy(alpha):
    sl = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(32)
    x = ShiftJet(*shift_element(rng, 40, alpha, 30.0))
    assert _scaling(x.coeffs, _shift_table(x.units)[0])[3][1] > 0
    assert rel_err(matrix_exp(x), sl.expm(np.array(x))) <= 1e-13
    assert rel_err(matrix_cos(x), sl.cosm(np.array(x))) <= 1e-13


def test_matrix_cos_of_element_is_exp_pair_bitwise():
    rng = np.random.default_rng(33)
    coeffs, sizes = shift_element(rng, 5, (2, 1), 4.0)
    pos = ShiftJet({t: 1j * c for t, c in coeffs.items()}, sizes)
    neg = ShiftJet({t: -1j * c for t, c in coeffs.items()}, sizes)
    assert np.array_equal(matrix_cos(ShiftJet(coeffs, sizes)),
                          0.5 * (matrix_exp(pos) + matrix_exp(neg)))


def test_matrix_exp_matches_scipy_on_step_embedding():
    sl = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(8)
    n, h = 20, 1e-8
    x = ShiftJet({(0,): rand_complex(rng, n) / 4, (1,): h * rand_complex(rng, n)}, (IMAG,))
    got = extract_block(matrix_exp(x), 0, 1, n)
    assert rel_err(got, extract_block(sl.expm(x), 0, 1, n)) <= 1e-13


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
