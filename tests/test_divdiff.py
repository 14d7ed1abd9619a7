"""Divided differences, triangular path sums, and eigenbasis derivative routes."""
import itertools

import numpy as np
import pytest

from matderiv import (
    SpectralDecomp,
    dd_table,
    descloux_eval,
    divided_difference,
    dk_first_order,
    dk_general,
    dk_second_order,
    first_dd_table,
    get_function,
    hermitian_eig,
    jet_to_eigenbasis,
    matrix_exp,
    partial_via_blocktri,
    PathJet,
)
from matderiv import divdiff
from matderiv.divdiff import TAU_CONFL
from matderiv.errors import (
    ComplexityRefusal,
    DimensionMismatch,
    DomainError,
    EmptyIndex,
    InsufficientDerivatives,
    MissingJetTerm,
    NotTriangular,
)
from matderiv.funcs import SCALAR_COS, SCALAR_EXP, SCALAR_X2, SCALAR_X3, ScalarFunction
from matderiv.linalg import frobenius
from matderiv.multiindex import iter_sub_indices, t_permutations
from matderiv.qperturb import step_function


def rand_hermitian(rng, n):
    m = rng.uniform(-0.5, 0.5, (n, n)) + 1j * rng.uniform(-0.5, 0.5, (n, n))
    return (m + m.conj().T) / 2.0


def test_dd_single_node():
    assert divided_difference(SCALAR_EXP, [0.0]) == pytest.approx(1.0)


def test_dd_square_two_nodes():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.uniform(-2, 2, 2)
        got = divided_difference(SCALAR_X2, [a, b])
        assert got == pytest.approx(a + b, abs=1e-12)


def test_dd_confluent_pair():
    assert divided_difference(SCALAR_EXP, [0.0, 0.0]) == pytest.approx(1.0)
    # triple at the same point: f''(x)/2
    got = divided_difference(SCALAR_EXP, [1.0, 1.0, 1.0])
    assert got == pytest.approx(np.e / 2.0, rel=1e-12)


def test_dd_permutation_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(10):
        nodes = list(rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
        ref = divided_difference(SCALAR_COS, nodes)
        for perm in itertools.permutations(nodes):
            got = divided_difference(SCALAR_COS, list(perm))
            assert abs(got - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_dd_needs_derivatives_for_clusters():
    capped = ScalarFunction(
        name="exp1", eval_fn=np.exp, deriv_fn=lambda x, k: np.exp(x), max_order=1
    )
    assert divided_difference(capped, [0.0, 0.0]) == pytest.approx(1.0)
    with pytest.raises(InsufficientDerivatives):
        divided_difference(capped, [0.0, 0.0, 0.0])


def test_dd_empty_rejected():
    with pytest.raises(DimensionMismatch):
        divided_difference(SCALAR_EXP, [])


def test_descloux_two_by_two_formula():
    a, b, e = 0.3, 1.1, 0.7
    u = np.array([[a, e], [0.0, b]])
    got = descloux_eval(SCALAR_EXP, u)
    f_ab = (np.exp(b) - np.exp(a)) / (b - a)
    expected = np.array([[np.exp(a), e * f_ab], [0.0, np.exp(b)]])
    np.testing.assert_allclose(got, expected, rtol=1e-13)


def test_descloux_rejects_lower_entries():
    with pytest.raises(NotTriangular):
        descloux_eval(SCALAR_EXP, np.array([[1.0, 0.0], [0.5, 2.0]]))


def test_descloux_jordan_block_confluent():
    lam = 0.4
    u = np.array([[lam, 1.0], [0.0, lam]])
    got = descloux_eval(SCALAR_EXP, u)
    expected = np.exp(lam) * np.array([[1.0, 1.0], [0.0, 1.0]])
    np.testing.assert_allclose(got, expected, rtol=1e-13)
    # order-3 nilpotent ladder picks up the 1/2! weight
    u3 = lam * np.eye(3) + np.diag([1.0, 1.0], 1)
    got3 = descloux_eval(SCALAR_EXP, u3)
    np.testing.assert_allclose(got3, matrix_exp(u3), rtol=1e-12)


def test_descloux_matches_exp_backend():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        diag = 0.2 * np.arange(n) + rng.uniform(0, 0.05, n)
        u = np.triu(rng.uniform(-0.5, 0.5, (n, n)) + 1j * rng.uniform(-0.5, 0.5, (n, n)), 1)
        u = u + np.diag(diag)
        got = descloux_eval(SCALAR_EXP, u)
        ref = matrix_exp(u)
        assert frobenius(got - ref) <= 1e-10 * frobenius(ref)


def test_descloux_sparsity_pruning():
    # a zero superdiagonal entry cuts every path through it
    u = np.diag([0.0, 1.0, 2.0])
    got = descloux_eval(SCALAR_EXP, u)
    np.testing.assert_allclose(got, np.diag(np.exp([0.0, 1.0, 2.0])), rtol=1e-14)


def test_loewner_symmetry_real_nodes():
    rng = np.random.default_rng(3)
    lam = np.sort(rng.uniform(-1, 1, 6))
    table = first_dd_table(SCALAR_COS, lam)
    assert np.max(np.abs(table - table.T)) <= 1e-13
    assert np.max(np.abs(table.imag)) <= 1e-15


def test_first_dd_table_diagonal_is_derivative():
    lam = np.array([0.0, 0.5, 2.0])
    table = first_dd_table(SCALAR_EXP, lam)
    np.testing.assert_allclose(np.diag(table).real, np.exp(lam), rtol=1e-12)


def test_dk_first_order_identity_function():
    rng = np.random.default_rng(4)
    a = rand_hermitian(rng, 5)
    d = hermitian_eig(a)
    e = rand_hermitian(rng, 5)
    ident = get_function("x^1")
    out = dk_first_order(ident.scalar, d, d.to_eigenbasis(e))
    np.testing.assert_allclose(out, e, atol=1e-13)


def test_dk_first_order_diagonal_direction():
    # direction diagonal in the eigenbasis only picks up f' at each level
    rng = np.random.default_rng(5)
    a = rand_hermitian(rng, 4)
    d = hermitian_eig(a)
    w = np.diag(rng.uniform(-1, 1, 4))
    out = dk_first_order(SCALAR_EXP, d, w.astype(complex))
    expected = d.from_eigenbasis(np.diag(np.exp(d.eigenvalues) * np.diag(w)))
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_dk_second_order_reduces_to_first():
    rng = np.random.default_rng(6)
    a = rand_hermitian(rng, 4)
    d = hermitian_eig(a)
    u_x = d.to_eigenbasis(rand_hermitian(rng, 4))
    z = np.zeros((4, 4))
    two = dk_second_order(SCALAR_COS, d, z, z, u_x)
    one = dk_first_order(SCALAR_COS, d, u_x)
    np.testing.assert_allclose(two, one, atol=1e-13)


def test_dk_second_order_square_closed_form():
    rng = np.random.default_rng(7)
    n = 4
    a = rand_hermitian(rng, n)
    ab = rand_hermitian(rng, n)
    ag = rand_hermitian(rng, n)
    ax = rand_hermitian(rng, n)
    d = hermitian_eig(a)
    got = dk_second_order(
        SCALAR_X2, d, d.to_eigenbasis(ab), d.to_eigenbasis(ag), d.to_eigenbasis(ax)
    )
    expected = ax @ a + a @ ax + ab @ ag + ag @ ab
    assert frobenius(got - expected) <= 1e-13 * max(frobenius(expected), 1.0)


def test_dk_hermitian_preservation():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        a = rand_hermitian(rng, n)
        d = hermitian_eig(a)
        u_b = d.to_eigenbasis(rand_hermitian(rng, n))
        u_g = d.to_eigenbasis(rand_hermitian(rng, n))
        u_x = d.to_eigenbasis(rand_hermitian(rng, n))
        for out in (
            dk_first_order(SCALAR_EXP, d, u_b),
            dk_second_order(SCALAR_COS, d, u_b, u_g, u_x),
        ):
            assert frobenius(out - out.conj().T) <= 1e-11 * frobenius(out)


def test_dk_general_low_orders_match_specialized():
    rng = np.random.default_rng(9)
    n = 4
    terms = {t: rand_hermitian(rng, n) for t in iter_sub_indices((1, 1))}
    d = hermitian_eig(terms[(0, 0)])
    eig_terms = jet_to_eigenbasis(d, terms)
    first = dk_general(SCALAR_EXP, d, eig_terms, (1, 0))
    np.testing.assert_allclose(
        first, dk_first_order(SCALAR_EXP, d, eig_terms[(1, 0)]), atol=1e-13
    )
    second = dk_general(SCALAR_EXP, d, eig_terms, (1, 1))
    np.testing.assert_allclose(
        second,
        dk_second_order(
            SCALAR_EXP, d, eig_terms[(1, 0)], eig_terms[(0, 1)], eig_terms[(1, 1)]
        ),
        atol=1e-12,
    )


def test_dk_general_third_order_vs_blocktri():
    rng = np.random.default_rng(10)
    n = 4
    alpha = (2, 1)
    terms = {t: rand_hermitian(rng, n) for t in iter_sub_indices(alpha)}
    jet = PathJet(terms=terms, order=3)
    f = get_function("exp")
    ref = partial_via_blocktri(f, jet, alpha=alpha)
    d = hermitian_eig(jet.base)
    got = dk_general(f.scalar, d, jet_to_eigenbasis(d, terms), alpha)
    assert frobenius(got - ref) <= 1e-7 * frobenius(ref)


def test_dk_general_guards():
    rng = np.random.default_rng(11)
    a = rand_hermitian(rng, 3)
    d = hermitian_eig(a)
    eig_terms = jet_to_eigenbasis(d, {(0,): a})
    with pytest.raises(EmptyIndex):
        dk_general(SCALAR_EXP, d, eig_terms, (0,))
    with pytest.raises(ComplexityRefusal):
        dk_general(SCALAR_EXP, d, eig_terms, (2,), cost_cap=10.0)
    with pytest.raises(MissingJetTerm):
        dk_general(SCALAR_EXP, d, eig_terms, (1,))


def test_dk_general_default_cost_cap_engages():
    n = 60
    d = hermitian_eig(np.diag(np.linspace(0.0, 1.0, n)))
    eig_terms = {
        (0,): np.zeros((n, n), dtype=complex),
        (1,): np.zeros((n, n), dtype=complex),
        (2,): np.zeros((n, n), dtype=complex),
        (3,): np.zeros((n, n), dtype=complex),
    }
    with pytest.raises(ComplexityRefusal):
        dk_general(SCALAR_EXP, d, eig_terms, (3,))


# --------------------------------------------------------------------------
# the vectorized table builder against the scalar reference

TABLE_MU = 0.0123


def _table_spectra():
    """Unsorted node vectors: separated, repeated, and clustered at and
    below the confluence threshold."""
    rng = np.random.default_rng(30)
    n = 12
    gapped = np.cumsum(rng.uniform(1e-3, 0.3, n)) - 1.2
    repeats = np.array([0.3, 0.3, 0.3, -0.7, -0.7, 1.1, 0.9, 0.9, -0.2, -0.2, -0.2, -0.2])
    half_tau = np.repeat(rng.uniform(-1.0, 1.0, n // 2), 2) + np.tile([0.0, 0.5 * TAU_CONFL], n // 2)
    at_tau = np.repeat(rng.uniform(-1.0, 1.0, n // 2), 2) + np.tile([0.0, TAU_CONFL], n // 2)
    spectra = {
        "gapped": gapped,
        "repeats": repeats,
        "half_tau": half_tau,
        "at_tau": at_tau,
    }
    return {name: rng.permutation(x) for name, x in spectra.items()}


@pytest.mark.parametrize(
    "f",
    [SCALAR_EXP, SCALAR_COS, SCALAR_X2, SCALAR_X3, step_function(TABLE_MU)],
    ids=lambda f: f.name,
)
@pytest.mark.parametrize("spectrum", ["gapped", "repeats", "half_tau", "at_tau"])
def test_dd_table_matches_scalar_reference(f, spectrum):
    nodes = _table_spectra()[spectrum]
    assert not np.any(nodes == TABLE_MU)
    table = dd_table(f, nodes, 3)
    for k in range(4):
        dense = table.dense(k)
        for idx in itertools.combinations_with_replacement(range(len(nodes)), k + 1):
            ref = divided_difference(f, [nodes[i] for i in idx])
            assert abs(dense[idx] - ref) <= 1e-12 * max(1.0, abs(ref)), (k, idx)


def test_dd_table_complex_nodes_match_scalar_reference():
    rng = np.random.default_rng(31)
    nodes = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
    nodes[3] = nodes[5].real + 1j * (nodes[5].imag + 0.25)  # equal real parts
    for f in (SCALAR_EXP, SCALAR_COS, SCALAR_X3):
        table = dd_table(f, nodes, 3)
        for k in range(4):
            dense = table.dense(k)
            for idx in itertools.combinations_with_replacement(range(len(nodes)), k + 1):
                ref = divided_difference(f, [nodes[i] for i in idx])
                assert abs(dense[idx] - ref) <= 1e-12 * max(1.0, abs(ref))


def test_dd_table_permutation_invariant():
    rng = np.random.default_rng(32)
    table = dd_table(SCALAR_COS, rng.uniform(-2, 2, 6), 3)
    dense = table.dense(3)
    for perm in itertools.permutations(range(4)):
        assert np.array_equal(dense, dense.transpose(perm))


def _counting_exp():
    calls = {"eval": 0}

    def ev(x):
        calls["eval"] += 1
        return np.exp(x)

    return ScalarFunction(name="exp", eval_fn=ev, deriv_fn=lambda x, k: np.exp(x)), calls


def test_dk_general_evaluates_f_once_per_eigenvalue():
    rng = np.random.default_rng(33)
    n = 7
    for alpha in ((1,), (1, 1), (2, 1), (0, 3)):
        terms = {t: rand_hermitian(rng, n) for t in iter_sub_indices(alpha)}
        d = hermitian_eig(terms[(0,) * len(alpha)])
        f, calls = _counting_exp()
        dk_general(f, d, jet_to_eigenbasis(d, terms), alpha)
        assert calls["eval"] == n


def _dk_dense_reference(f, d, eig_terms, alpha):
    """dk_general written out: one dense divided-difference tensor per
    level from the scalar reference, one einsum per t_permutations tuple."""
    n = d.dim
    lam = d.eigenvalues
    letters = "abcdefghij"
    total = np.zeros((n, n), dtype=complex)
    for m in range(1, sum(alpha) + 1):
        dd = np.empty((n,) * (m + 1), dtype=complex)
        for idx in np.ndindex(dd.shape):
            dd[idx] = divided_difference(f, [lam[i] for i in idx])
        pairs = ",".join(letters[i] + letters[i + 1] for i in range(m))
        spec = f"{pairs},{letters[:m + 1]}->{letters[0]}{letters[m]}"
        for t in t_permutations(alpha, m):
            total += np.einsum(spec, *[eig_terms[ti] for ti in t], dd)
    return d.from_eigenbasis(total)


def test_dk_general_matches_dense_reference():
    rng = np.random.default_rng(34)
    n = 5
    for alpha, f in (((1, 1), SCALAR_EXP), ((2, 1), SCALAR_COS), ((0, 3), SCALAR_EXP), ((2, 2), SCALAR_COS)):
        terms = {t: rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
                 for t in iter_sub_indices(alpha)}
        terms[(0, 0)] = rand_hermitian(rng, n)
        d = hermitian_eig(terms[(0, 0)])
        eig_terms = jet_to_eigenbasis(d, terms)
        ref = _dk_dense_reference(f, d, eig_terms, alpha)
        got = dk_general(f, d, eig_terms, alpha)
        assert frobenius(got - ref) <= 1e-12 * frobenius(ref)


def test_dk_general_slab_size_does_not_change_result(monkeypatch):
    rng = np.random.default_rng(35)
    n = 6
    alpha = (2, 1)
    terms = {t: rand_hermitian(rng, n) for t in iter_sub_indices(alpha)}
    d = hermitian_eig(terms[(0, 0)])
    eig_terms = jet_to_eigenbasis(d, terms)
    whole = dk_general(SCALAR_EXP, d, eig_terms, alpha)
    monkeypatch.setattr(divdiff, "_SLAB_ELEMENTS", 50)  # several leading indices per slab
    np.testing.assert_allclose(dk_general(SCALAR_EXP, d, eig_terms, alpha), whole, rtol=0, atol=1e-13)
    monkeypatch.setattr(divdiff, "_SLAB_ELEMENTS", 1)  # one leading index per slab
    np.testing.assert_allclose(dk_general(SCALAR_EXP, d, eig_terms, alpha), whole, rtol=0, atol=1e-13)


def test_dk_general_unsorted_decomposition():
    rng = np.random.default_rng(36)
    n = 6
    alpha = (1, 2)
    terms = {t: rand_hermitian(rng, n) for t in iter_sub_indices(alpha)}
    d = hermitian_eig(terms[(0, 0)])
    p = rng.permutation(n)
    shuffled = SpectralDecomp(eigenvalues=d.eigenvalues[p], vectors=d.vectors[:, p])
    ref = dk_general(SCALAR_COS, d, jet_to_eigenbasis(d, terms), alpha)
    got = dk_general(SCALAR_COS, shuffled, jet_to_eigenbasis(shuffled, terms), alpha)
    assert frobenius(got - ref) <= 1e-12 * frobenius(ref)


def test_dk_general_propagates_insufficient_derivatives():
    capped = ScalarFunction(
        name="exp1", eval_fn=np.exp, deriv_fn=lambda x, k: np.exp(x), max_order=1
    )
    d = hermitian_eig(np.diag([0.2, 0.2, 0.9]))
    eye = np.eye(3, dtype=complex)
    with pytest.raises(InsufficientDerivatives):
        dk_general(capped, d, {(1,): eye, (2,): eye}, (2,))


def test_dk_general_propagates_step_domain_error():
    mu = 0.5
    d = hermitian_eig(np.diag([0.1, mu, 0.9]))
    eye = np.eye(3, dtype=complex)
    with pytest.raises(DomainError):
        dk_general(step_function(mu), d, {(1,): eye}, (1,))
    with pytest.raises(DomainError):
        dk_first_order(step_function(mu), d, eye)
