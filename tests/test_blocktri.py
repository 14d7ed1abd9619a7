"""Block upper triangular embeddings and the partition-sum route."""
import numpy as np
import pytest

from matderiv import (
    IMAG,
    PathJet,
    dk_general,
    frechet_via_blocktri,
    get_function,
    hermitian_eig,
    jet_from_directions,
    jet_to_eigenbasis,
    longest_path,
    matrix_exp,
    partial_via_blocktri,
    partial_via_frechet_sum,
)
from matderiv.errors import (
    DimensionMismatch,
    EmptyIndex,
    MissingJetTerm,
    NotDag,
    OrderExceeded,
)
from matderiv.blocktri import _jet_coeffs
from matderiv.linalg import ShiftJet, extract_block, frobenius
from matderiv.multiindex import iter_sub_indices


def rand_complex(rng, n):
    return rng.uniform(-0.5, 0.5, (n, n)) + 1j * rng.uniform(-0.5, 0.5, (n, n))


def complete_jet(rng, n, alpha):
    terms = {t: rand_complex(rng, n) for t in iter_sub_indices(alpha)}
    return PathJet(terms=terms, order=sum(alpha))


def test_pathjet_requires_base():
    with pytest.raises(MissingJetTerm):
        PathJet(terms={(1,): np.eye(2)}, order=1)


def test_pathjet_rejects_order_overflow():
    with pytest.raises(OrderExceeded):
        PathJet(terms={(0,): np.eye(2), (2,): np.eye(2)}, order=1)


def test_pathjet_rejects_mixed_dims():
    with pytest.raises(DimensionMismatch):
        PathJet(terms={(0,): np.eye(2), (1,): np.eye(3)}, order=1)


def test_pathjet_rejects_zero_dim():
    with pytest.raises(DimensionMismatch, match="0x0"):
        PathJet(terms={(0,): np.zeros((0, 0)), (1,): np.zeros((0, 0))}, order=1)


def test_pathjet_missing_term_policies():
    strict = PathJet(terms={(0, 0): np.eye(2)}, order=2)
    with pytest.raises(MissingJetTerm):
        strict.term((1, 0))
    loose = PathJet(terms={(0, 0): np.eye(2)}, order=2, missing_is_zero=True)
    np.testing.assert_array_equal(loose.term((1, 0)), np.zeros((2, 2)))


def test_build_xk_one_level():
    rng = np.random.default_rng(0)
    a = rand_complex(rng, 3)
    e = rand_complex(rng, 3)
    jet = PathJet(terms={(0,): a, (1,): e}, order=1)
    x = ShiftJet(*_jet_coeffs(jet, (1,)))
    expected = np.block([[a, e], [np.zeros((3, 3)), a]])
    np.testing.assert_array_equal(x, expected)


def test_build_xk_two_levels_layout():
    rng = np.random.default_rng(1)
    n = 2
    jet = complete_jet(rng, n, (1, 1))
    a = jet.term((0, 0))
    ab = jet.term((1, 0))
    ag = jet.term((0, 1))
    ax = jet.term((1, 1))
    x = ShiftJet(*_jet_coeffs(jet, (1, 1)))
    z = np.zeros((n, n))
    # first direction on the inner doubling, second on the outer
    expected = np.block([
        [a, ab, ag, ax],
        [z, a, z, ag],
        [z, z, a, ab],
        [z, z, z, a],
    ])
    np.testing.assert_array_equal(x, expected)


def test_build_xk_repeated_direction():
    # a repeated direction is one shift of size alpha + 1 carrying A_t / t!
    rng = np.random.default_rng(2)
    n = 2
    jet = complete_jet(rng, n, (2,))
    a = jet.term((0,))
    a1 = jet.term((1,))
    a2 = jet.term((2,))
    x = ShiftJet(*_jet_coeffs(jet, (2,)))
    z = np.zeros((n, n))
    expected = np.block([
        [a, a1, a2 / 2],
        [z, a, a1],
        [z, z, a],
    ])
    np.testing.assert_array_equal(x, expected)


def test_build_xk_zero_directions_block_diagonal():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    jet = PathJet(terms={(0,): a}, order=2, missing_is_zero=True)
    x = ShiftJet(*_jet_coeffs(jet, (2,)))
    np.testing.assert_array_equal(x, np.kron(np.eye(3), a.astype(complex)))


@pytest.mark.parametrize("alpha", [(2, 0), (3, 0), (2, 1), (2, 2), (1, 1, 1)])
def test_build_xk_minimal_size(alpha):
    rng = np.random.default_rng(20)
    n = 2
    jet = complete_jet(rng, n, alpha)
    x = ShiftJet(*_jet_coeffs(jet, alpha))
    assert x.shape[0] == np.prod([a + 1 for a in alpha]) * n


@pytest.mark.parametrize("k", [2, 3])
def test_frechet_repeated_direction_object_shares_one_shift(k):
    rng = np.random.default_rng(21)
    n = 3
    a = rand_complex(rng, n)
    e = rand_complex(rng, n)
    exp = get_function("exp")
    rows = []

    def counting(x):
        rows.append(x.shape[0])
        return exp(x)

    shared = frechet_via_blocktri(counting, a, [e] * k)
    assert rows == [(k + 1) * n]
    # equal values in distinct objects keep one unit each
    apart = frechet_via_blocktri(exp, a, [e] * (k - 1) + [e.copy()])
    assert frobenius(shared - apart) <= 1e-12 * frobenius(apart)


def hermitian_base_jet(rng, n, alpha):
    terms = {t: rand_complex(rng, n) for t in iter_sub_indices(alpha)}
    m = rand_complex(rng, n)
    terms[(0,) * len(alpha)] = m + m.conj().T
    return PathJet(terms=terms, order=sum(alpha))


@pytest.mark.parametrize("alpha", [(3, 0), (2, 2), (4, 0), (1, 1, 1)])
@pytest.mark.parametrize("fname", ["exp", "cos"])
def test_minimal_embedding_matches_independent_routes(alpha, fname):
    rng = np.random.default_rng(22)
    n = 4
    jet = hermitian_base_jet(rng, n, alpha)
    f = get_function(fname)
    got = partial_via_blocktri(f, jet, alpha)
    d = hermitian_eig(jet.base)
    nonzero = {t: jet.term(t) for t in iter_sub_indices(alpha) if any(t)}
    spectral = dk_general(f.scalar, d, jet_to_eigenbasis(d, nonzero), alpha)
    for ref in (spectral, partial_via_frechet_sum(f, jet, alpha)):
        assert frobenius(got - ref) <= 1e-10 * frobenius(ref)


@pytest.mark.parametrize(
    "alpha,evals,members", [((3, 0), 3, 5), ((2, 2), 9, 15)], ids=["3-0", "2-2"]
)
def test_frechet_sum_evaluates_each_distinct_splitting_once(alpha, evals, members):
    # s_partitions lists a splitting once per multiplicity (``members`` in
    # all); the sum evaluates each distinct one once and scales it
    rng = np.random.default_rng(23)
    n = 3
    jet = complete_jet(rng, n, alpha)
    exp = get_function("exp")
    calls = []

    def counting(x):
        calls.append(x.shape[0])
        return exp(x)

    got = partial_via_frechet_sum(counting, jet, alpha)
    assert len(calls) == evals < members
    ref = partial_via_blocktri(exp, jet, alpha)
    assert frobenius(got - ref) <= 1e-12 * frobenius(ref)


def test_frechet_sum_skips_splittings_of_unstored_terms():
    # on a multilinear jet only (1,0),(1,0),(0,1) names stored terms; the
    # other splittings of (2, 1) are zero and are not evaluated
    rng = np.random.default_rng(24)
    n = 5
    jet = jet_from_directions(rand_complex(rng, n), [rand_complex(rng, n) for _ in range(2)])
    exp = get_function("exp")
    rows = []

    def counting(x):
        rows.append(x.shape[0])
        return exp(x)

    got = partial_via_frechet_sum(counting, jet, (2, 1))
    assert rows == [6 * n]
    ref = partial_via_blocktri(exp, jet, (2, 1))
    assert frobenius(got - ref) <= 1e-12 * frobenius(ref)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("a", [-30, 30 + 4j])
def test_scalar_toeplitz_jet_is_exact(a, k):
    # every coefficient of an n = 1 jet is upper triangular, so the dense
    # matrix is evaluated with the exact triangular rule: d^k/dx^k e^(a + bx) = b^k e^a
    b = 0.75 - 0.5j
    jet = PathJet(terms={(0,): np.array([[a]]), (1,): np.array([[b]])}, order=k,
                  missing_is_zero=True)
    got = partial_via_blocktri(get_function("exp"), jet, (k,))[0, 0]
    want = b ** k * np.exp(a)
    assert abs(got - want) <= 2e-15 * abs(want)


@pytest.mark.parametrize("alpha,fact", [((1, 1), 1), ((2, 1), 2)])
def test_other_callables_get_the_dense_matrix(alpha, fact):
    rng = np.random.default_rng(25)
    n = 3
    jet = complete_jet(rng, n, alpha)
    dense = ShiftJet(*_jet_coeffs(jet, alpha))
    last = dense.shape[0] // n - 1
    seen = []

    def cube(x):
        seen.append(isinstance(x, np.ndarray) and np.array_equal(x, dense))
        return x @ x @ x

    got = partial_via_blocktri(cube, jet, alpha)
    assert seen == [True]
    assert np.array_equal(got, fact * extract_block(dense @ dense @ dense, 0, last, n))
    for name, p in (("x^2", 2), ("x^3", 3)):
        ref = fact * extract_block(np.linalg.matrix_power(dense, p), 0, last, n)
        got = partial_via_blocktri(get_function(name), jet, alpha)
        assert frobenius(got - ref) <= 1e-14 * frobenius(ref)


def test_build_xk_validates_input():
    jet = PathJet(terms={(0,): np.eye(2)}, order=1, missing_is_zero=True)
    with pytest.raises(EmptyIndex):
        ShiftJet(*_jet_coeffs(jet, (0,)))
    with pytest.raises(DimensionMismatch):
        ShiftJet(*_jet_coeffs(jet, (0, 1)))
    deep = PathJet(terms={(0,): np.eye(2)}, order=7, missing_is_zero=True)
    with pytest.raises(OrderExceeded):
        ShiftJet(*_jet_coeffs(deep, (7,)))


def test_embed_validates_units_and_coefficients():
    a = np.eye(2, dtype=complex)
    with pytest.raises(DimensionMismatch):
        ShiftJet({}, (2,))
    with pytest.raises(DimensionMismatch):
        ShiftJet({(0,): a}, (0,))
    with pytest.raises(DimensionMismatch):
        ShiftJet({(0,): a, (2,): a}, (2,))
    with pytest.raises(DimensionMismatch):
        ShiftJet({(0,): a, (2,): a}, (IMAG,))
    with pytest.raises(DimensionMismatch):
        ShiftJet({(0, 0): a}, (2,))
    with pytest.raises(DimensionMismatch):
        ShiftJet({(0,): a, (1,): np.eye(3)}, (2,))
    for coeffs, units in [
        ({(0,): a}, (-2,)),  # below 1 and not IMAG
        ({(0, 0): a, (2, 0): a}, (2, 2)),  # digit 2 of a size-2 shift
        ({(0, 0): a, (0, 2): a}, (2, IMAG)),  # digit 2 of an IMAG unit
        ({(0,): a, (1,): np.ones((2, 3))}, (2,)),  # not square
        ({(0,): a, (1,): a[0]}, (IMAG,)),  # not a matrix
        ({(0,): 1.0}, (2,)),  # a scalar
    ]:
        with pytest.raises(DimensionMismatch):
            ShiftJet(coeffs, units)


def test_diagonal_blocks_carry_f_of_base():
    rng = np.random.default_rng(3)
    jet = complete_jet(rng, 3, (1, 1))
    f = get_function("exp")
    fx = f(ShiftJet(*_jet_coeffs(jet, (1, 1))))
    fa = f(jet.base)
    for i in range(4):
        blk = extract_block(fx, i, i, 3)
        assert frobenius(blk - fa) <= 1e-12 * max(frobenius(fa), 1.0)


def test_frechet_exp_at_zero():
    e = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = frechet_via_blocktri(get_function("exp"), np.zeros((2, 2)), (e,))
    np.testing.assert_allclose(out, e, atol=1e-14)


def test_frechet_square_closed_form():
    rng = np.random.default_rng(4)
    a = rand_complex(rng, 4)
    e = rand_complex(rng, 4)
    out = frechet_via_blocktri(get_function("x^2"), a, (e,))
    np.testing.assert_allclose(out, a @ e + e @ a, atol=1e-13)


def test_frechet_second_order_square_closed_form():
    rng = np.random.default_rng(5)
    a = rand_complex(rng, 3)
    e1 = rand_complex(rng, 3)
    e2 = rand_complex(rng, 3)
    out = frechet_via_blocktri(get_function("x^2"), a, (e1, e2))
    np.testing.assert_allclose(out, e1 @ e2 + e2 @ e1, atol=1e-13)


def test_frechet_linearity():
    rng = np.random.default_rng(6)
    a = rand_complex(rng, 3)
    e1 = rand_complex(rng, 3)
    e2 = rand_complex(rng, 3)
    f = get_function("exp")
    c1, c2 = 0.7, -1.3
    left = frechet_via_blocktri(f, a, (c1 * e1 + c2 * e2,))
    right = c1 * frechet_via_blocktri(f, a, (e1,)) + c2 * frechet_via_blocktri(f, a, (e2,))
    assert frobenius(left - right) <= 1e-12 * max(frobenius(right), 1.0)


def test_frechet_second_order_symmetry():
    rng = np.random.default_rng(7)
    a = rand_complex(rng, 3)
    e1 = rand_complex(rng, 3)
    e2 = rand_complex(rng, 3)
    f = get_function("cos")
    l12 = frechet_via_blocktri(f, a, (e1, e2))
    l21 = frechet_via_blocktri(f, a, (e2, e1))
    assert frobenius(l12 - l21) <= 1e-11 * max(frobenius(l12), 1.0)


def test_partial_scalar_references():
    jet = PathJet(terms={(0,): np.zeros((1, 1)), (1,): np.ones((1, 1))}, order=1)
    out = partial_via_blocktri(get_function("exp"), jet, alpha=(1,))
    np.testing.assert_allclose(out[0, 0], 1.0, atol=1e-14)
    jet = PathJet(terms={(0,): np.ones((1, 1)), (1,): np.ones((1, 1))}, order=1)
    out = partial_via_blocktri(get_function("cos"), jet, alpha=(1,))
    np.testing.assert_allclose(out[0, 0], -np.sin(1.0), rtol=1e-13)


@pytest.mark.parametrize("alpha", [(1, 1), (2, 1)])
@pytest.mark.parametrize("fname", ["exp", "cos", "x^2"])
def test_returned_derivative_is_a_writable_copy(alpha, fname):
    rng = np.random.default_rng(27)
    jet = complete_jet(rng, 3, alpha)
    f = get_function(fname)
    got = partial_via_blocktri(f, jet, alpha)
    want = got.copy()
    got[...] = 0.0
    assert np.array_equal(partial_via_blocktri(f, jet, alpha), want)


def test_composition_stays_in_the_algebra():
    rng = np.random.default_rng(28)
    jet = complete_jet(rng, 4, (2, 1))
    exp, cos = get_function("exp"), get_function("cos")
    inner = []

    def cos_exp(x):
        e = exp(x)
        inner.append(type(e))
        return cos(e)

    got = partial_via_blocktri(cos_exp, jet, (2, 1))
    assert inner == [ShiftJet]
    dense = partial_via_blocktri(lambda x: cos(exp(np.asarray(x))), jet, (2, 1))
    assert frobenius(got - dense) <= 1e-13 * frobenius(dense)
    by_sum = partial_via_frechet_sum(cos_exp, jet, (2, 1))
    assert frobenius(got - by_sum) <= 1e-13 * frobenius(by_sum)


def test_partial_rejects_alpha_of_other_length():
    rng = np.random.default_rng(8)
    jet = complete_jet(rng, 2, (1, 1))
    with pytest.raises(DimensionMismatch):
        partial_via_blocktri(get_function("exp"), jet, alpha=(1, 0, 0))


def test_route_equivalence_blocktri_vs_partition_sum():
    rng = np.random.default_rng(9)
    fns = ["exp", "cos", "x^2", "x^3"]
    alphas = [(1,), (2,), (3,), (1, 1), (2, 1), (1, 1, 1)]
    for i in range(24):
        n = int(rng.integers(2, 5))
        alpha = alphas[i % len(alphas)]
        jet = complete_jet(rng, n, alpha)
        f = get_function(fns[i % len(fns)])
        a = partial_via_blocktri(f, jet, alpha=alpha)
        b = partial_via_frechet_sum(f, jet, alpha)
        assert frobenius(a - b) <= 1e-9 * max(frobenius(a), 1.0)


def test_truncation_insensitivity_vs_polynomial_path():
    # the derivative only sees the stored partials, so differencing the
    # explicit multilinear path must reproduce it
    rng = np.random.default_rng(10)
    n = 3
    jet = complete_jet(rng, n, (1, 1))
    f = get_function("exp")
    exact = partial_via_blocktri(f, jet, alpha=(1, 1))

    def path(x, y):
        return (jet.term((0, 0)) + x * jet.term((1, 0)) + y * jet.term((0, 1))
                + x * y * jet.term((1, 1)))

    h = 1e-3
    fd = (f(path(h, h)) - f(path(h, -h)) - f(path(-h, h)) + f(path(-h, -h))) / (4 * h * h)
    assert frobenius(fd - exact) <= 1e-5 * max(frobenius(exact), 1.0)


def test_higher_order_terms_do_not_leak():
    # jet entries above the requested order cannot influence the result
    rng = np.random.default_rng(11)
    n = 2
    base_terms = {t: rand_complex(rng, n) for t in iter_sub_indices((1, 1))}
    plain = PathJet(terms=base_terms, order=2)
    padded_terms = dict(base_terms)
    padded_terms[(2, 1)] = 1e6 * rand_complex(rng, n)
    padded = PathJet(terms=padded_terms, order=3)
    f = get_function("cos")
    np.testing.assert_array_equal(
        partial_via_blocktri(f, plain, alpha=(1, 1)),
        partial_via_blocktri(f, padded, alpha=(1, 1)),
    )


def test_jet_from_directions_matches_manual():
    rng = np.random.default_rng(12)
    a = rand_complex(rng, 2)
    e1 = rand_complex(rng, 2)
    e2 = rand_complex(rng, 2)
    jet = jet_from_directions(a, (e1, e2))
    np.testing.assert_array_equal(jet.term((1, 0)), e1.astype(complex))
    np.testing.assert_array_equal(jet.term((1, 1)), np.zeros((2, 2)))
    f = get_function("exp")
    via_jet = partial_via_blocktri(f, jet, alpha=(1, 1))
    direct = frechet_via_blocktri(f, a, (e1, e2))
    np.testing.assert_allclose(via_jet, direct, atol=1e-13)


def test_longest_path_basics():
    assert longest_path(np.zeros((1, 1))) == 1
    chain = np.diag(np.ones(3), 1)
    assert longest_path(chain) == 4
    two_chains = np.zeros((4, 4))
    two_chains[0, 1] = 1.0
    two_chains[2, 3] = 1.0
    assert longest_path(two_chains) == 2


def test_longest_path_rejects_cycles_and_diagonal():
    with pytest.raises(NotDag):
        longest_path(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(NotDag):
        longest_path(np.array([[1.0]]))


def test_exp_of_x1_matches_quadrature_free_series():
    # sanity anchor: d/dt exp(tA) at t=0 equals A for a plain matrix path
    rng = np.random.default_rng(13)
    a = rand_complex(rng, 3)
    jet = PathJet(terms={(0,): np.zeros((3, 3)), (1,): a}, order=1)
    out = partial_via_blocktri(get_function("exp"), jet, alpha=(1,))
    np.testing.assert_allclose(out, a, atol=1e-13)
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))
