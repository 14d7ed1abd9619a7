"""Block step approximations: embeddings, sign patterns, convergence shapes."""
import warnings

import numpy as np
import pytest

from matderiv import (
    IMAG,
    NotReal,
    PathJet,
    central_fd_1,
    central_fd_2_mixed,
    cs_frechet_1,
    cs_partial_2,
    dk_general,
    get_function,
    hermitian_eig,
    hybrid_partial_2,
    jet_from_directions,
    matrix_cos,
    matrix_exp,
    partial_via_blocktri,
    regular_cs_1,
)
from matderiv.errors import DimensionMismatch, DomainError
from matderiv.linalg import ShiftJet, frobenius
from matderiv.multiindex import iter_sub_indices


def rand_complex(rng, n):
    return rng.uniform(-0.5, 0.5, (n, n)) + 1j * rng.uniform(-0.5, 0.5, (n, n))


def rand_hermitian(rng, n):
    m = rand_complex(rng, n)
    return (m + m.conj().T) / 2.0


def complete_jet(rng, n, alpha):
    terms = {t: rand_complex(rng, n) for t in iter_sub_indices(alpha)}
    return PathJet(terms=terms, order=sum(alpha))


def test_block_embed_one_level():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    x = ShiftJet({(0,): a, (1,): b}, (IMAG,))
    np.testing.assert_array_equal(x, np.block([[a, b], [-b, a]]).astype(complex))


def test_block_embed_two_level_sign_pattern():
    # golden 1x1 check of every sign in the two-level layout
    a, b, c, d = 1.0, 2.0, 3.0, 5.0
    x = ShiftJet(
        {(0, 0): np.array([[a]]), (1, 0): np.array([[b]]),
         (0, 1): np.array([[c]]), (1, 1): np.array([[d]])},
        (IMAG, IMAG),
    )
    expected = np.array([
        [a, b, c, d],
        [-b, a, -d, c],
        [-c, -d, a, b],
        [d, -c, -b, a],
    ])
    np.testing.assert_array_equal(x, expected.astype(complex))


def test_multicomplex_embed_one_level():
    a = np.array([[2.0]])
    e = np.array([[3.0]])
    x = ShiftJet({(0,): a, (1,): 0.5 * e}, (IMAG,))
    np.testing.assert_array_equal(
        x, np.array([[2.0, 1.5], [-1.5, 2.0]]).astype(complex)
    )


def test_multicomplex_embed_zero_directions_block_diagonal():
    rng = np.random.default_rng(0)
    a = rand_complex(rng, 2)
    z = np.zeros((2, 2))
    x = ShiftJet({(0, 0): a, (1, 0): z, (0, 1): z}, (IMAG, IMAG))
    np.testing.assert_array_equal(x, np.kron(np.eye(4), a))


def test_multicomplex_embed_matches_direct_recursion():
    # independent construction: nest the doubling by hand
    rng = np.random.default_rng(1)
    a = rand_complex(rng, 2)
    e1 = rand_complex(rng, 2)
    e2 = rand_complex(rng, 2)
    h = 0.25
    x1 = np.block([[a, h * e1], [-h * e1, a]])
    he2 = np.kron(np.eye(2), h * e2)
    x2 = np.block([[x1, he2], [-he2, x1]])
    x = ShiftJet({(0, 0): a, (1, 0): h * e1, (0, 1): h * e2}, (IMAG, IMAG))
    np.testing.assert_array_equal(x, x2)


def test_cs_frechet_1_scalar_reference():
    out = cs_frechet_1(matrix_cos, np.array([[1.0]]), np.array([[1.0]]), 1e-8)
    assert abs(out[0, 0] - (-np.sin(1.0))) <= 1e-13 * abs(np.sin(1.0))


def test_cs_frechet_1_zero_direction():
    out = cs_frechet_1(matrix_exp, np.eye(3), np.zeros((3, 3)), 1e-8)
    np.testing.assert_array_equal(out, np.zeros((3, 3)))


def test_cs_frechet_1_complex_scalar_chain_rule():
    rng = np.random.default_rng(2)
    a = rand_complex(rng, 1)
    e = rand_complex(rng, 1)
    out = cs_frechet_1(matrix_cos, a, e, 1e-6)
    expected = -np.sin(a[0, 0]) * e[0, 0]
    assert abs(out[0, 0] - expected) <= 1e-10 * abs(expected)


def test_cs_frechet_1_no_cancellation_floor():
    # truncation decays with h and there is no blow-up as h shrinks
    ref = -np.sin(1.0)
    a = np.array([[1.0]])
    e = np.array([[1.0]])
    for h in np.geomspace(1e-10, 1e-6, 9):
        got = cs_frechet_1(matrix_cos, a, e, float(h))[0, 0]
        assert abs((got - ref) / ref) <= 1e-12


def test_central_fd_1_cancellation_signature():
    # same problem through the difference quotient: error is not monotone in
    # h and never reaches the block scheme's floor
    ref = -np.sin(1.0)
    a = np.array([[1.0]])
    e = np.array([[1.0]])
    errs = []
    for h in np.geomspace(1e-1, 1e-13, 25):
        got = central_fd_1(matrix_cos, a, e, float(h))[0, 0]
        errs.append(abs((got.real - ref) / ref))
    assert min(errs) >= 1e-12
    diffs = np.diff(np.log(errs))
    assert np.any(diffs > 0) and np.any(diffs < 0)


# second directional derivative by a two-level block step: cs_partial_2 on
# the multilinear jet of the two directions, at alpha = (1, 1)


def test_cs_frechet_2_square_function():
    rng = np.random.default_rng(3)
    n = 3
    a = rand_complex(rng, n)
    e1 = rand_complex(rng, n)
    e2 = rand_complex(rng, n)
    f = get_function("x^2")
    out = cs_partial_2(f, jet_from_directions(a, [e1, e2]), (1, 1), 1e-4)
    expected = e1 @ e2 + e2 @ e1
    assert frobenius(out - expected) <= 1e-6


def test_cs_frechet_2_zero_direction():
    jet = jet_from_directions(np.eye(2), [np.eye(2), np.zeros((2, 2))])
    out = cs_partial_2(matrix_exp, jet, (1, 1), 1e-5)
    np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-20)


def test_cs_frechet_2_matches_dk():
    rng = np.random.default_rng(4)
    n = 4
    a = rand_hermitian(rng, n)
    e1 = rand_hermitian(rng, n)
    e2 = rand_hermitian(rng, n)
    d = hermitian_eig(a)
    out = cs_partial_2(matrix_cos, jet_from_directions(a, [e1, e2]), (1, 1), 1e-5)
    z = np.zeros((n, n))
    u_jet = {(1, 0): d.to_eigenbasis(e1), (0, 1): d.to_eigenbasis(e2), (1, 1): z}
    ref = dk_general(get_function("cos").scalar, d, u_jet, (1, 1))
    assert frobenius(out - ref) <= 1e-8 * frobenius(ref)


def test_cs_frechet_2_scalar_matches_explicit_real_embedding():
    # same 4x4 block matrix built by hand from real scalars
    a, e1, e2, h = 0.8, -0.4, 1.1, 1e-5
    x1 = np.array([[a, h * e1], [-h * e1, a]])
    he2 = h * e2 * np.eye(2)
    x4 = np.block([[x1, he2], [-he2, x1]]).astype(complex)
    scalar_val = matrix_exp(x4)[0, 3] / (h * h)
    jet = jet_from_directions(np.array([[a]]), [np.array([[e1]]), np.array([[e2]])])
    out = cs_partial_2(matrix_exp, jet, (1, 1), h)
    assert abs(out[0, 0] - scalar_val) <= 1e-15 * abs(scalar_val)


def test_cs_partial_2_zero_jet_terms():
    n = 2
    z = np.zeros((n, n))
    jet = PathJet(
        terms={(0, 0): np.eye(n), (1, 0): z, (0, 1): z, (1, 1): z}, order=2
    )
    out = cs_partial_2(matrix_exp, jet, (1, 1), 1e-5)
    np.testing.assert_allclose(out, z, atol=1e-20)


def test_cs_partial_2_vs_exact_route():
    rng = np.random.default_rng(5)
    jet = complete_jet(rng, 3, (1, 1))
    f = get_function("cos")
    ref = partial_via_blocktri(f, jet, alpha=(1, 1))
    out = cs_partial_2(f, jet, (1, 1), 1e-4)
    assert frobenius(out - ref) <= 1e-6 * frobenius(ref)


def test_cs_partial_2_square_symbolic():
    rng = np.random.default_rng(6)
    jet = complete_jet(rng, 3, (1, 1))
    f = get_function("x^2")
    a = jet.base
    ab, ag, ax = jet.term((1, 0)), jet.term((0, 1)), jet.term((1, 1))
    expected = ax @ a + a @ ax + ab @ ag + ag @ ab
    out = cs_partial_2(f, jet, (1, 1), 1e-4)
    assert frobenius(out - expected) <= 1e-6


def test_cs_partial_2_repeated_direction():
    rng = np.random.default_rng(7)
    jet = complete_jet(rng, 3, (2,))
    f = get_function("exp")
    ref = partial_via_blocktri(f, jet, alpha=(2,))
    out = cs_partial_2(f, jet, (2,), 1e-5)
    assert frobenius(out - ref) <= 1e-8 * frobenius(ref)


def test_hybrid_partial_2_zero_jet_terms():
    n = 2
    z = np.zeros((n, n))
    jet = PathJet(
        terms={(0, 0): np.eye(n), (1, 0): z, (0, 1): z, (1, 1): z}, order=2
    )
    out = hybrid_partial_2(matrix_exp, jet, (1, 1), 1e-6)
    np.testing.assert_allclose(out, z, atol=1e-20)


def test_hybrid_partial_2_vs_exact_route():
    rng = np.random.default_rng(8)
    jet = complete_jet(rng, 3, (1, 1))
    f = get_function("cos")
    ref = partial_via_blocktri(f, jet, alpha=(1, 1))
    out = hybrid_partial_2(f, jet, (1, 1), 1e-6)
    assert frobenius(out - ref) <= 1e-8 * frobenius(ref)


def test_hybrid_partial_2_matches_hand_built_embedding():
    # one size-2 shift inside one imaginary unit, nested by hand
    rng = np.random.default_rng(17)
    n = 3
    jet = complete_jet(rng, n, (1, 1))
    a0, ab, ag, ax = jet.base, jet.term((1, 0)), jet.term((0, 1)), jet.term((1, 1))
    h = 1e-5
    z = np.zeros((n, n))
    i0 = np.block([[a0, ab], [z, a0]])
    i1 = np.block([[ag, ax], [z, ag]])
    x = np.block([[i0, h * i1], [-h * i1, i0]])
    expected = matrix_exp(x)[:n, 3 * n:] / h
    np.testing.assert_array_equal(hybrid_partial_2(matrix_exp, jet, (1, 1), h), expected)


def test_hybrid_partial_2_second_order_convergence():
    rng = np.random.default_rng(9)
    jet = complete_jet(rng, 3, (1, 1))
    f = get_function("cos")
    ref = partial_via_blocktri(f, jet, alpha=(1, 1))
    for h in (1e-2, 1e-3, 1e-4):
        e_big = frobenius(hybrid_partial_2(f, jet, (1, 1), h) - ref)
        e_small = frobenius(hybrid_partial_2(f, jet, (1, 1), h / 2.0) - ref)
        assert 3.5 <= e_big / e_small <= 4.5


def test_central_fd_1_identity_and_square_exact():
    rng = np.random.default_rng(10)
    a = rand_complex(rng, 3)
    e = rand_complex(rng, 3)
    ident = get_function("x^1")
    np.testing.assert_allclose(central_fd_1(ident, a, e, 1e-3), e, atol=1e-13)
    sq = get_function("x^2")
    np.testing.assert_allclose(
        central_fd_1(sq, a, e, 1e-3), a @ e + e @ a, atol=1e-10
    )


def test_central_fd_2_mixed_square_exact():
    rng = np.random.default_rng(11)
    jet = complete_jet(rng, 3, (1, 1))
    f = get_function("x^2")
    a = jet.base
    ab, ag, ax = jet.term((1, 0)), jet.term((0, 1)), jet.term((1, 1))
    expected = ax @ a + a @ ax + ab @ ag + ag @ ab
    out = central_fd_2_mixed(f, jet, 1e-3, (1, 1))
    assert frobenius(out - expected) <= 1e-9


def test_central_fd_2_mixed_vs_exact_route():
    rng = np.random.default_rng(12)
    jet = complete_jet(rng, 3, (1, 1))
    f = get_function("cos")
    ref = partial_via_blocktri(f, jet, alpha=(1, 1))
    out = central_fd_2_mixed(f, jet, 1e-4, (1, 1))
    assert frobenius(out - ref) <= 1e-6 * frobenius(ref)


def test_central_fd_2_mixed_needs_unambiguous_target():
    # the target is always named: each order-2 index of a jet storing
    # several selects its own term, and other orders are refused
    rng = np.random.default_rng(13)
    n = 2
    terms = {t: rand_complex(rng, n) for t in iter_sub_indices((1, 1))}
    terms[(2, 0)] = rand_complex(rng, n)
    terms[(0, 2)] = rand_complex(rng, n)
    jet = PathJet(terms=terms, order=2)
    f = get_function("exp")
    with pytest.raises(DimensionMismatch):
        central_fd_2_mixed(f, jet, 1e-4, (1, 0))
    for alpha in ((1, 1), (2, 0), (0, 2)):
        ref = partial_via_blocktri(f, jet, alpha=alpha)
        out = central_fd_2_mixed(f, jet, 1e-4, alpha)
        assert frobenius(out - ref) <= 1e-6 * frobenius(ref)


def test_regular_cs_identity_and_square():
    rng = np.random.default_rng(14)
    a = rng.uniform(-0.5, 0.5, (3, 3))
    e = rng.uniform(-0.5, 0.5, (3, 3))
    ident = get_function("x^1")
    np.testing.assert_allclose(regular_cs_1(ident, a, e, 1e-8), e, atol=1e-14)
    sq = get_function("x^2")
    # odd/even separation makes the square exact for any h
    np.testing.assert_allclose(
        regular_cs_1(sq, a, e, 1e-4), a @ e + e @ a, atol=1e-13
    )


def test_regular_cs_rejects_complex_input():
    with pytest.raises(NotReal):
        regular_cs_1(matrix_exp, np.eye(2) * 1j, np.eye(2), 1e-8)
    with pytest.raises(NotReal):
        regular_cs_1(matrix_exp, np.eye(2), np.eye(2) * 1j, 1e-8)


def test_block_step_handles_complex_input():
    # where the plain imaginary trick refuses, the fresh-unit scheme agrees
    # with the eigenbasis route
    rng = np.random.default_rng(15)
    n = 4
    a = rand_hermitian(rng, n)
    e = rand_hermitian(rng, n)
    d = hermitian_eig(a)
    ref = dk_general(get_function("exp").scalar, d, {(1,): d.to_eigenbasis(e)}, (1,))
    out = cs_frechet_1(matrix_exp, a, e, 1e-6)
    assert frobenius(out - ref) <= 1e-9 * frobenius(ref)


def test_conjugation_identity_for_exp():
    rng = np.random.default_rng(16)
    for _ in range(5):
        n = int(rng.integers(1, 6))
        a = rng.uniform(-0.5, 0.5, (n, n))
        b = rng.uniform(-0.5, 0.5, (n, n))
        big = matrix_exp(np.block([[a, b], [-b, a]]))
        inner = matrix_exp(a + 1j * b)
        expected = np.block([
            [inner.real, inner.imag],
            [-inner.imag, inner.real],
        ])
        assert frobenius(big - expected) <= 1e-12 * frobenius(expected)


def test_underflow_warning():
    # h^k, k the number of stepped copies, leaves the normal range: the
    # guard warns, and the quotient, no longer finite, raises
    rng = np.random.default_rng(18)
    for alpha, h in (((1, 1), 1e-160), ((3,), 1e-110)):
        jet = complete_jet(rng, 2, alpha)
        with pytest.warns(RuntimeWarning, match=f"to the power {sum(alpha)}"):
            with pytest.raises(DomainError):
                cs_partial_2(matrix_exp, jet, alpha, h)


def test_order_one_step_does_not_warn_far_below_sqrt_tiny():
    # one stepped copy divides by h, not h^2, so h = 1e-170 is still exact
    ref = -np.sin(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (1e-170, 1e-300):
            got = cs_frechet_1(matrix_cos, np.array([[1.0]]), np.array([[1.0]]), h)[0, 0]
            assert abs((got - ref) / ref) <= 2e-15


@pytest.mark.parametrize("scheme,h", [
    ("cs1", 1e-310), ("cs2", 1e-160), ("cs2", 1e-170), ("hybrid", 1e-310), ("fd", 1e-170),
])
def test_non_finite_step_result_raises(scheme, h):
    rng = np.random.default_rng(19)
    jet = complete_jet(rng, 2, (1, 1))
    run = {
        "cs1": lambda: cs_frechet_1(matrix_exp, jet.base, jet.term((1, 0)), h),
        "cs2": lambda: cs_partial_2(matrix_exp, jet, (1, 1), h),
        "hybrid": lambda: hybrid_partial_2(matrix_exp, jet, (1, 1), h),
        "fd": lambda: central_fd_2_mixed(matrix_exp, jet, h, (1, 1)),
    }[scheme]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DomainError):
            run()


# cs and hybrid above order 2. Both truncate at O(h^2) relative to the
# derivative, with a constant of a few on these jets (entries in
# [-0.5, 0.5]); 100 h^2 bounds it at h = 1e-5. At h = 1e-8 the truncation
# is below rounding and, with no subtraction, only rounding is left.
HIGH_ORDER = ((2, 1), (3, 0), (1, 1, 1), (2, 2))


@pytest.mark.parametrize("scheme", ["cs", "hybrid"])
@pytest.mark.parametrize("alpha", HIGH_ORDER, ids=str)
@pytest.mark.parametrize("n", [3, 20])
def test_block_step_above_order_two_matches_blocktri(scheme, alpha, n):
    rng = np.random.default_rng(20 + n)
    jet = complete_jet(rng, n, alpha)
    step = cs_partial_2 if scheme == "cs" else hybrid_partial_2
    for fname in ("exp", "cos"):
        f = get_function(fname)
        ref = partial_via_blocktri(f, jet, alpha=alpha)
        for h, bound in ((1e-5, 100 * 1e-5 ** 2), (1e-8, 1e-13)):
            out = step(f, jet, alpha, h)
            assert frobenius(out - ref) <= bound * frobenius(ref), (fname, h)


def test_block_step_order_one_routes_agree_bitwise():
    # cs_partial_2 at order 1 is the same embedding cs_frechet_1 builds
    rng = np.random.default_rng(21)
    jet = complete_jet(rng, 3, (1, 1))
    for alpha in ((1, 0), (0, 1)):
        np.testing.assert_array_equal(
            cs_partial_2(matrix_exp, jet, alpha, 1e-8),
            cs_frechet_1(matrix_exp, jet.base, jet.term(alpha), 1e-8),
        )
    with pytest.raises(DimensionMismatch):
        hybrid_partial_2(matrix_exp, jet, (1, 0), 1e-5)


def test_central_fd_is_the_sign_corner_stencil():
    # the split-complex step reproduces the hand-written two-point and
    # four-corner stencils bit for bit
    rng = np.random.default_rng(22)
    n = 3
    terms = {t: rand_complex(rng, n) for t in iter_sub_indices((1, 1))}
    terms[(2, 0)] = rand_complex(rng, n)
    terms[(0, 2)] = rand_complex(rng, n)
    jet = PathJet(terms=terms, order=2)
    for fname in ("exp", "cos"):
        f = get_function(fname)
        for h in (1e-2, 1e-5):
            a0, e1 = jet.base, jet.term((1, 0))
            two = (f(a0 + h * e1) - f(a0 - h * e1)) / (2.0 * h)
            np.testing.assert_array_equal(central_fd_1(f, a0, e1, h), two)
            for alpha, beta, gamma in (((1, 1), (1, 0), (0, 1)),
                                       ((2, 0), (1, 0), (1, 0)),
                                       ((0, 2), (0, 1), (0, 1))):
                ab, ag, ax = jet.term(beta), jet.term(gamma), jet.term(alpha)
                h2 = h * h
                app = f(a0 + h * ab + h * ag + h2 * ax)
                apm = f(a0 + h * ab - h * ag - h2 * ax)
                amp = f(a0 - h * ab + h * ag - h2 * ax)
                amm = f(a0 - h * ab - h * ag + h2 * ax)
                four = (app - apm - amp + amm) / (4.0 * h2)
                np.testing.assert_array_equal(central_fd_2_mixed(f, jet, h, alpha), four)
