"""Spectral-projector derivatives and ground-state corrections."""
import gc
import math
import weakref

import numpy as np
import pytest

from matderiv import (
    density_deriv_1,
    density_deriv_2,
    density_matrix,
    density_response,
    divided_difference,
    dk_general,
    eigvec_correction_1,
    eigvec_correction_2,
    hermitian_eig,
    jet_to_eigenbasis,
    step_function,
)
from matderiv.errors import (
    DegenerateGroundState,
    DimensionMismatch,
    DomainError,
    NotHermitian,
    TooCloseToMu,
)
from matderiv.linalg import frobenius


def rand_hermitian(rng, n):
    m = rng.uniform(-0.5, 0.5, (n, n)) + 1j * rng.uniform(-0.5, 0.5, (n, n))
    return (m + m.conj().T) / 2.0


def widest_gap_mu(evals):
    gaps = np.diff(evals)
    i = int(np.argmax(gaps))
    return float((evals[i] + evals[i + 1]) / 2.0)


def test_step_function_values():
    f = step_function(1.0)
    assert f.eval(0.0) == 1.0
    assert f.eval(2.0) == 0.0
    assert f.deriv(0.0, 1) == 0.0
    assert f.deriv(2.0, 3) == 0.0
    with pytest.raises(DomainError):
        f.deriv(1.0, 1)


# divided differences of the step function at mu = 1: -1/|li - lj| on a
# straddling pair; on a triple, +-1 over the product of the lone node's
# distances to the other two, negative when the lone node is above mu

STEP = step_function(1.0)


def test_step_divdiff_1_pinned():
    assert divided_difference(STEP, [0.0, 2.0]) == pytest.approx(-0.5)
    assert divided_difference(STEP, [0.0, 0.5]) == 0.0
    assert divided_difference(STEP, [2.0, 3.0]) == 0.0


def test_step_divdiff_1_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.uniform(-2.0, 2.0, 2)
        if abs(a - 1.0) < 1e-6 or abs(b - 1.0) < 1e-6 or abs(a - b) < 1e-6:
            continue
        assert divided_difference(STEP, [a, b]) == pytest.approx(
            divided_difference(STEP, [b, a])
        )


def test_step_divdiff_1_band_protection():
    d = hermitian_eig(np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(TooCloseToMu):
        density_deriv_1(d, np.eye(2), 1.0 + 1e-12)


def test_step_divdiff_2_pinned():
    # lone node above the level: negative sign, 1/((2-0)(2-0.5)) = 1/3
    assert divided_difference(STEP, [0.0, 0.5, 2.0]) == pytest.approx(-1.0 / 3.0)
    # lone node below: positive sign, 1/((0.5-2)(0.5-3)) = 1/3.75
    assert divided_difference(STEP, [2.0, 3.0, 0.5]) == pytest.approx(1.0 / 3.75)
    # all on one side: zero
    assert divided_difference(STEP, [0.0, 0.2, 0.4]) == 0.0
    assert divided_difference(STEP, [2.0, 2.5, 3.0]) == 0.0


def test_step_divdiff_2_permutation_invariant():
    from itertools import permutations

    nodes = (0.1, 0.7, 1.9)
    vals = {divided_difference(STEP, list(p)) for p in permutations(nodes)}
    assert len({round(v.real, 14) for v in vals}) == 1


def test_split_at_mu():
    # the occupied levels are the ones below mu; the band around mu is refused
    d = hermitian_eig(np.diag([-1.0, 0.2, 0.9, 1.4, 2.0]).astype(complex))
    assert np.trace(density_matrix(d, 1.0)).real == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(TooCloseToMu):
        density_deriv_1(d, np.eye(5), 0.9 + 1e-10)


def test_density_matrix_is_projector():
    rng = np.random.default_rng(1)
    h0 = rand_hermitian(rng, 6)
    d = hermitian_eig(h0)
    mu = widest_gap_mu(d.eigenvalues)
    p = density_matrix(d, mu)
    assert frobenius(p @ p - p) <= 1e-12
    assert frobenius(p - p.conj().T) <= 1e-13
    n_occ = int(np.sum(d.eigenvalues < mu))
    assert np.trace(p).real == pytest.approx(n_occ, abs=1e-10)


def test_density_deriv_1_diagonal_direction_vanishes():
    # a perturbation commuting with the state does not move the projector
    rng = np.random.default_rng(2)
    h0 = rand_hermitian(rng, 5)
    d = hermitian_eig(h0)
    mu = widest_gap_mu(d.eigenvalues)
    h1 = d.vectors @ np.diag(rng.uniform(-1, 1, 5)) @ d.vectors.conj().T
    p1 = density_deriv_1(d, h1, mu)
    assert frobenius(p1) <= 1e-12


def test_density_deriv_1_properties():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        h0 = rand_hermitian(rng, n)
        h1 = rand_hermitian(rng, n)
        d = hermitian_eig(h0)
        mu = widest_gap_mu(d.eigenvalues)
        p = density_matrix(d, mu)
        p1 = density_deriv_1(d, h1, mu)
        assert abs(np.trace(p1)) <= 1e-12
        assert frobenius(p1 - p1.conj().T) <= 1e-11
        # differentiated idempotency: P' = P P' + P' P
        assert frobenius(p1 - (p @ p1 + p1 @ p)) <= 1e-10


def test_density_deriv_1_matches_finite_difference():
    rng = np.random.default_rng(4)
    n = 5
    h0 = rand_hermitian(rng, n)
    h1 = rand_hermitian(rng, n)
    d = hermitian_eig(h0)
    mu = widest_gap_mu(d.eigenvalues)
    p1 = density_deriv_1(d, h1, mu)

    def density_at(t):
        return density_matrix(hermitian_eig(h0 + t * h1), mu)

    eps = 1e-5
    central = lambda e: (density_at(e) - density_at(-e)) / (2.0 * e)
    fd = (4.0 * central(eps) - central(2.0 * eps)) / 3.0
    assert frobenius(p1 - fd) <= 1e-6 * max(frobenius(p1), 1.0)


def test_density_deriv_2_zero_cross_terms_reduce():
    rng = np.random.default_rng(5)
    n = 5
    h0 = rand_hermitian(rng, n)
    hx = rand_hermitian(rng, n)
    d = hermitian_eig(h0)
    mu = widest_gap_mu(d.eigenvalues)
    z = np.zeros((n, n))
    p2 = density_deriv_2(d, z, z, hx, mu)
    p1_of_hx = density_deriv_1(d, hx, mu)
    assert frobenius(p2 - p1_of_hx) <= 1e-12


def test_density_deriv_2_linear_path_identity():
    # along a straight line the chain rule collapses to
    # P'' = P P'' + P'' P + 2 P' P'
    rng = np.random.default_rng(6)
    n = 6
    h0 = rand_hermitian(rng, n)
    h1 = rand_hermitian(rng, n)
    d = hermitian_eig(h0)
    mu = widest_gap_mu(d.eigenvalues)
    z = np.zeros((n, n))
    p = density_matrix(d, mu)
    p1 = density_deriv_1(d, h1, mu)
    p2 = density_deriv_2(d, h1, h1, z, mu)
    assert frobenius(p2 - (p @ p2 + p2 @ p + 2.0 * p1 @ p1)) <= 1e-9


def test_density_deriv_2_matches_mixed_finite_difference():
    rng = np.random.default_rng(7)
    n = 5
    h0 = rand_hermitian(rng, n)
    hb = rand_hermitian(rng, n)
    hg = rand_hermitian(rng, n)
    hx = rand_hermitian(rng, n)
    d = hermitian_eig(h0)
    mu = widest_gap_mu(d.eigenvalues)
    p2 = density_deriv_2(d, hb, hg, hx, mu)

    def density_at(s, t):
        return density_matrix(hermitian_eig(h0 + s * hb + t * hg + s * t * hx), mu)

    eps = 1e-4
    def stencil(e):
        return (
            density_at(e, e) - density_at(e, -e)
            - density_at(-e, e) + density_at(-e, -e)
        ) / (4.0 * e * e)
    fd = (4.0 * stencil(eps) - stencil(2.0 * eps)) / 3.0
    assert frobenius(p2 - fd) <= 1e-4 * max(frobenius(p2), 1.0)


@pytest.mark.parametrize("ne", [0, 1, 4, 8, 9])
def test_density_deriv_2_matches_dk_at_every_occupation(ne):
    # n = 9 is odd, so the occupied and virtual blocks are never square
    # and a swapped block slice cannot go unnoticed
    rng = np.random.default_rng(20)
    n = 9
    h0 = rand_hermitian(rng, n)
    hb = rand_hermitian(rng, n)
    hg = rand_hermitian(rng, n)
    hx = rand_hermitian(rng, n)
    d = hermitian_eig(h0)
    lam = d.eigenvalues
    if ne == 0:
        mu = float(lam[0]) - 1.0
    elif ne == n:
        mu = float(lam[-1]) + 1.0
    else:
        mu = float(lam[ne - 1] + lam[ne]) / 2.0
    assert int(np.sum(lam < mu)) == ne
    p2 = density_deriv_2(d, hb, hg, hx, mu)
    u_jet = jet_to_eigenbasis(d, {(1, 0): hb, (0, 1): hg, (1, 1): hx})
    ref = dk_general(step_function(mu), d, u_jet, (1, 1))
    if ne in (0, n):
        assert not np.any(p2)
    assert frobenius(p2 - ref) <= 1e-10 * frobenius(ref)


ORDERS = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2), (4,)]


@pytest.mark.parametrize("ne", [0, 1, 4, 8, 9])
@pytest.mark.parametrize("alpha", ORDERS, ids=lambda a: "alpha" + "".join(map(str, a)))
def test_density_response_matches_dk_at_every_order(alpha, ne):
    rng = np.random.default_rng(21)
    n = 9
    d = hermitian_eig(rand_hermitian(rng, n))
    lam = d.eigenvalues
    if ne == 0:
        mu = float(lam[0]) - 1.0
    elif ne == n:
        mu = float(lam[-1]) + 1.0
    else:
        mu = float(lam[ne - 1] + lam[ne]) / 2.0
    terms = {t: rand_hermitian(rng, n) for t in np.ndindex(*(a + 1 for a in alpha)) if any(t)}
    got = density_response(d, terms, alpha, mu)
    ref = dk_general(step_function(mu), d, jet_to_eigenbasis(d, terms), alpha, cost_cap=math.inf)
    if ne in (0, n):
        assert not np.any(got)
    assert frobenius(got - ref) <= 1e-12 * frobenius(ref)


def test_density_response_absent_terms_are_zero():
    rng = np.random.default_rng(22)
    n = 6
    d = hermitian_eig(rand_hermitian(rng, n))
    mu = widest_gap_mu(d.eigenvalues)
    h1 = rand_hermitian(rng, n)
    z = np.zeros((n, n))
    got = density_response(d, {(1,): h1}, (3,), mu)
    ref = density_response(d, {(1,): h1, (2,): z, (3,): z}, (3,), mu)
    assert frobenius(got - ref) <= 1e-15 * frobenius(ref)
    with pytest.raises(DimensionMismatch):
        density_response(d, {(1, 0): h1}, (2,), mu)


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("entry", [
    "density_deriv_1", "density_deriv_2_split", "density_deriv_2_cross", "density_response",
    "eigvec_correction_1", "eigvec_correction_2",
])
def test_direction_of_wrong_size_is_dimension_mismatch(entry, n):
    d = hermitian_eig(np.diag(np.arange(n, dtype=float)))
    mu = n - 0.5
    good, bad = np.eye(n), np.eye(n + 1)
    calls = {
        "density_deriv_1": lambda: density_deriv_1(d, bad, mu),
        "density_deriv_2_split": lambda: density_deriv_2(d, good, bad, good, mu),
        "density_deriv_2_cross": lambda: density_deriv_2(d, good, good, bad, mu),
        "density_response": lambda: density_response(d, {(1,): good, (2,): bad}, (2,), mu),
        "eigvec_correction_1": lambda: eigvec_correction_1(d, bad),
        "eigvec_correction_2": lambda: eigvec_correction_2(d, bad),
    }
    with pytest.raises(DimensionMismatch):
        calls[entry]()


def test_direction_mutated_in_place_is_rotated_again():
    rng = np.random.default_rng(23)
    n = 6
    h0, h1, h2 = (rand_hermitian(rng, n) for _ in range(3))
    d = hermitian_eig(h0)
    mu = widest_gap_mu(d.eigenvalues)
    before = density_deriv_2(d, h1, h2, h1, mu)
    h1 += rand_hermitian(rng, n)
    after = density_deriv_2(d, h1, h2, h1, mu)
    fresh = density_deriv_2(hermitian_eig(h0), h1.copy(), h2.copy(), h1.copy(), mu)
    assert frobenius(after - before) > 1e-3 * frobenius(before)
    assert frobenius(after - fresh) <= 1e-14 * frobenius(fresh)


def test_direction_mutated_to_non_hermitian_still_raises():
    rng = np.random.default_rng(24)
    n = 5
    d = hermitian_eig(rand_hermitian(rng, n))
    mu = widest_gap_mu(d.eigenvalues)
    h1 = rand_hermitian(rng, n)
    density_deriv_1(d, h1, mu)
    h1[0, 1] += 1.0
    with pytest.raises(NotHermitian):
        density_deriv_1(d, h1, mu)


def test_decomposition_does_not_keep_directions_alive():
    rng = np.random.default_rng(25)
    n = 5
    d = hermitian_eig(rand_hermitian(rng, n))
    mu = widest_gap_mu(d.eigenvalues)
    h1 = rand_hermitian(rng, n)
    density_deriv_1(d, h1, mu)
    released = weakref.ref(h1)
    del h1
    gc.collect()
    assert released() is None
    assert not d._rotations


def test_density_derivs_reject_mu_on_eigenvalue():
    rng = np.random.default_rng(8)
    n = 4
    h0 = rand_hermitian(rng, n)
    h1 = rand_hermitian(rng, n)
    d = hermitian_eig(h0)
    for mu_bad in (float(d.eigenvalues[1]), float(d.eigenvalues[1]) + 1e-10):
        with pytest.raises(TooCloseToMu):
            density_deriv_1(d, h1, mu_bad)
        with pytest.raises(TooCloseToMu):
            density_deriv_2(d, h1, h1, h1, mu_bad)


def test_density_deriv_requires_hermitian_direction():
    rng = np.random.default_rng(9)
    n = 4
    h0 = rand_hermitian(rng, n)
    d = hermitian_eig(h0)
    mu = widest_gap_mu(d.eigenvalues)
    skew = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    with pytest.raises(NotHermitian):
        density_deriv_1(d, skew, mu)


def test_non_hermitian_direction_raises_before_band_and_gap_checks():
    rng = np.random.default_rng(26)
    n = 4
    d = hermitian_eig(np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex))
    h1 = rand_hermitian(rng, n)
    skew = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    mu_bad = float(d.eigenvalues[2])
    calls = (
        lambda: density_deriv_1(d, skew, mu_bad),
        lambda: density_deriv_2(d, h1, skew, h1, mu_bad),
        lambda: density_deriv_2(d, h1, h1, skew, mu_bad),
        lambda: density_response(d, {(3,): skew}, (3,), mu_bad),
        lambda: eigvec_correction_1(d, skew),
        lambda: eigvec_correction_2(d, skew),
    )
    for call in calls:
        with pytest.raises(NotHermitian):
            call()


def test_eigvec_correction_1_zero_perturbation():
    rng = np.random.default_rng(10)
    h0 = rand_hermitian(rng, 4)
    d = hermitian_eig(h0)
    q1 = eigvec_correction_1(d, np.zeros((4, 4)))
    np.testing.assert_allclose(q1, np.zeros(4), atol=1e-20)


def test_eigvec_correction_1_two_level_pinned():
    # diagonal gaps 1,2,3 and a coupling only between the two lowest levels
    h0 = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    h1 = np.zeros((4, 4), dtype=complex)
    h1[0, 1] = 1.0
    h1[1, 0] = 1.0
    d = hermitian_eig(h0)
    q1 = eigvec_correction_1(d, h1)
    # first-order mixing coefficient h1_{10}/(e0-e1) = -1 onto level 1
    expected = -d.vectors[:, 1]
    np.testing.assert_allclose(q1, expected, atol=1e-13)


def test_eigvec_correction_1_orthogonal_to_ground_state():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        h0 = rand_hermitian(rng, n)
        h1 = rand_hermitian(rng, n)
        d = hermitian_eig(h0)
        q1 = eigvec_correction_1(d, h1)
        assert abs(np.vdot(d.vectors[:, 0], q1)) <= 1e-10


def test_eigvec_correction_1_matches_finite_difference():
    rng = np.random.default_rng(12)
    n = 5
    h0 = rand_hermitian(rng, n)
    h1 = rand_hermitian(rng, n)
    d = hermitian_eig(h0)
    q1 = eigvec_correction_1(d, h1)
    q0 = d.vectors[:, 0]

    def projected(t):
        # P(t) q0 through the perturbed ground vector; phase independent
        dt = hermitian_eig(h0 + t * h1)
        v = dt.vectors[:, 0]
        return v * np.vdot(v, q0)

    eps = 1e-6
    fd = (projected(eps) - projected(-eps)) / (2.0 * eps)
    assert np.linalg.norm(q1 - fd) <= 1e-6


def test_eigvec_correction_2_zero_perturbation():
    rng = np.random.default_rng(13)
    h0 = rand_hermitian(rng, 4)
    d = hermitian_eig(h0)
    q2 = eigvec_correction_2(d, np.zeros((4, 4)))
    np.testing.assert_allclose(q2, np.zeros(4), atol=1e-20)


def test_eigvec_correction_2_two_by_two_closed_form():
    # H(e) = [[0, e], [e, 1]]: ground state (cos t, -sin t) with
    # tan(2t) = 2e, hence q'' = (-2, 0) at e = 0
    h0 = np.array([[0.0, 0.0], [0.0, 1.0]]).astype(complex)
    h1 = np.array([[0.0, 1.0], [1.0, 0.0]]).astype(complex)
    d = hermitian_eig(h0)
    q1 = eigvec_correction_1(d, h1)
    q2 = eigvec_correction_2(d, h1)
    np.testing.assert_allclose(q1, np.array([0.0, -1.0]), atol=1e-13)
    np.testing.assert_allclose(q2, np.array([-2.0, 0.0]), atol=1e-10)


def test_eigvec_correction_2_matches_finite_difference():
    rng = np.random.default_rng(14)
    n = 6
    h0 = rand_hermitian(rng, n)
    h1 = rand_hermitian(rng, n)
    d = hermitian_eig(h0)
    q2 = eigvec_correction_2(d, h1)
    q0 = d.vectors[:, 0]

    def projected(t):
        dt = hermitian_eig(h0 + t * h1)
        v = dt.vectors[:, 0]
        return v * np.vdot(v, q0)

    def stencil(e):
        return (projected(e) - 2.0 * projected(0.0) + projected(-e)) / (e * e)

    eps = 3e-3
    fd = (4.0 * stencil(eps) - stencil(2.0 * eps)) / 3.0
    assert np.linalg.norm(q2 - fd) <= 1e-4


def test_eigvec_correction_degenerate_ground_state():
    h0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    h1 = np.eye(3, dtype=complex)
    d = hermitian_eig(h0)
    with pytest.raises(DegenerateGroundState):
        eigvec_correction_1(d, h1)
    with pytest.raises(DegenerateGroundState):
        eigvec_correction_2(d, h1)


def test_eigvec_correction_single_level():
    d = hermitian_eig(np.array([[2.0]]).astype(complex))
    np.testing.assert_array_equal(eigvec_correction_1(d, np.array([[1.0]])), [0.0])
    np.testing.assert_array_equal(eigvec_correction_2(d, np.array([[1.0]])), [0.0])
