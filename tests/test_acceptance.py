"""Acceptance suite: one test per shipped guarantee, at the stated tolerance.

Each test is self-contained and states the property it locks in its
docstring; oracles are recomputed locally rather than imported from the
code under test wherever a route-independent reference exists.
"""
import math
import time

import numpy as np
import pytest

from matderiv import (
    PathJet,
    descloux_eval,
    dk_general,
    density_deriv_1,
    density_deriv_2,
    density_matrix,
    eigvec_correction_1,
    eigvec_correction_2,
    frechet_via_blocktri,
    get_function,
    hermitian_eig,
    jet_to_eigenbasis,
    longest_path,
    matrix_exp,
    partial_via_blocktri,
    partial_via_frechet_sum,
    s_partitions,
    step_function,
    t_permutations,
)
from matderiv.cstep import cs_frechet_1, cs_partial_2
from matderiv.experiments import (
    ExperimentConfig,
    rel_error,
    run_fig1,
    run_fig2,
)
from matderiv.funcs import SCALAR_EXP
from matderiv.linalg import frobenius
from matderiv.multiindex import iter_sub_indices, order


def rand_complex(rng, n, lo=-0.5, hi=0.5):
    return rng.uniform(lo, hi, (n, n)) + 1j * rng.uniform(lo, hi, (n, n))


def rand_hermitian(rng, n):
    m = rand_complex(rng, n)
    return (m + m.conj().T) / 2.0


def errs_for(records, method):
    return [r.rel_error for r in records if r.method == method]


def err_at(records, method, h):
    for r in records:
        if r.method == method and np.isclose(r.h, h, rtol=1e-9):
            return r.rel_error
    raise AssertionError(f"no {method} record at h = {h}")


def test_criterion_01_route_equivalence_quadrangle():
    """Four first/second derivative routes agree on random Hermitian jets."""
    start = time.perf_counter()
    alphas = [(1,), (2,), (1, 1), (0, 1), (2, 0)]
    worst_exact = 0.0
    worst_all = 0.0
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(2, 9))
        f = get_function("exp" if i % 2 == 0 else "cos")
        alpha = alphas[i % len(alphas)]
        terms = {t: rand_hermitian(rng, n) for t in iter_sub_indices(alpha)}
        jet = PathJet(terms=terms, order=max(order(alpha), 1))
        vals = {
            "blocktri": partial_via_blocktri(f, jet, alpha),
            "frechet_sum": partial_via_frechet_sum(f, jet, alpha),
        }
        d = hermitian_eig(jet.base)
        vals["dk"] = dk_general(f.scalar, d, jet_to_eigenbasis(d, jet.terms), alpha)
        if order(alpha) == 1:
            vals["cs"] = cs_frechet_1(f, jet.base, jet.term(alpha), 1e-5)
        else:
            vals["cs"] = cs_partial_2(f, jet, alpha, 1e-5)
        names = list(vals)
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                gap = rel_error(vals[names[b]], vals[names[a]])
                worst_all = max(worst_all, gap)
                if "cs" not in (names[a], names[b]):
                    worst_exact = max(worst_exact, gap)
    elapsed = time.perf_counter() - start
    assert worst_exact <= 1e-9
    assert worst_all <= 1e-6
    assert elapsed <= 60.0


def test_criterion_02_third_order_routes():
    """Exact routes agree on third-order mixed derivatives of complex jets."""
    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng(100 + i)
        n = int(rng.integers(2, 5))
        alpha = (2, 1)
        terms = {(0, 0): rand_hermitian(rng, n)}
        for t in iter_sub_indices(alpha):
            if t != (0, 0):
                terms[t] = rand_complex(rng, n)
        jet = PathJet(terms=terms, order=3)
        f = get_function("exp")
        v1 = partial_via_blocktri(f, jet, alpha)
        v2 = partial_via_frechet_sum(f, jet, alpha)
        d = hermitian_eig(jet.base)
        v3 = dk_general(f.scalar, d, jet_to_eigenbasis(d, jet.terms), alpha)
        worst = max(worst, rel_error(v2, v1), rel_error(v3, v1), rel_error(v3, v2))
    assert worst <= 1e-7


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def test_criterion_03_partition_combinatorics():
    """Partition multisets keep duplicates and satisfy |T| = k!|S|."""
    expected = [
        (((0, 1), (2, 0))),
        (((1, 0), (1, 1))),
        (((1, 0), (1, 1))),
    ]
    assert s_partitions((2, 1), 2) == expected
    for total in range(1, 5):
        for alpha in compositions(total):
            for k in range(1, order(alpha) + 1):
                s = s_partitions(alpha, k)
                t = t_permutations(alpha, k)
                assert len(t) == math.factorial(k) * len(s)
    # zero-padded components do not change the counts
    assert len(s_partitions((2, 0, 1), 2)) == len(s_partitions((2, 1), 2))


def test_criterion_04_first_derivative_convergence_real():
    """Block schemes hit 1e-12 at h = 1e-8 where difference quotients cannot."""
    start = time.perf_counter()
    result = run_fig1(ExperimentConfig(seed=0), "real")
    blk = err_at(result.records, "block_cs", 1e-8)
    tri = err_at(result.records, "blocktri_exact", 1e-8)
    assert blk <= 1e-12
    assert tri <= 1e-12
    fd_errs = errs_for(result.records, "central_fd")
    assert min(fd_errs) >= 1e-12
    diffs = np.diff(np.log10(fd_errs))
    assert np.any(diffs > 0) and np.any(diffs < 0)
    reg = err_at(result.records, "regular_cs", 1e-8)
    assert reg > 0.0
    assert reg >= 100.0 * blk
    assert time.perf_counter() - start <= 5.0


def test_criterion_05_first_derivative_complex_input():
    """The plain imaginary trick is refused on complex data; blocks still work."""
    result = run_fig1(ExperimentConfig(seed=0), "complex")
    assert "regular_cs" in result.flags
    assert err_at(result.records, "block_cs", 1e-6) <= 1e-10


def test_criterion_06_second_derivative_convergence():
    """Mixed second derivatives: exact route flat, stepped routes order two."""
    start = time.perf_counter()
    result = run_fig2(ExperimentConfig(seed=0, n=3, h_min=1e-8, points=15))
    assert result.reference_agreement <= 1e-6
    exact = errs_for(result.records, "blocktri_exact")
    assert max(exact) <= 1e-10
    assert np.ptp(exact) <= 1e-10
    assert 1.7 <= result.orders["block_cs"] <= 2.3
    assert 1.7 <= result.orders["hybrid"] <= 2.3
    fd_min = min(errs_for(result.records, "central_fd"))
    cs_min = min(errs_for(result.records, "block_cs"))
    assert fd_min >= 100.0 * cs_min
    assert time.perf_counter() - start <= 30.0


def test_criterion_07_triangular_path_sum_oracle():
    """Path-sum evaluation matches the exponential on 500 triangular matrices."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        diag = (
            0.15 * np.arange(n)
            + rng.uniform(0.0, 0.04, n)
            - 0.5
            + 1j * rng.uniform(-0.2, 0.2, n)
        )
        u = np.triu(rand_complex(rng, n), 1) + np.diag(diag)
        got = descloux_eval(SCALAR_EXP, u)
        ref = matrix_exp(u)
        worst = max(worst, frobenius(got - ref) / frobenius(ref))
    assert worst <= 1e-8


def test_criterion_08_real_pair_embedding_identity():
    """exp of [[A, B], [-B, A]] equals the real/imaginary split of exp(A+iB)."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        a = rng.uniform(-0.5, 0.5, (n, n))
        b = rng.uniform(-0.5, 0.5, (n, n))
        big = matrix_exp(np.block([[a, b], [-b, a]]))
        inner = matrix_exp(a + 1j * b)
        expected = np.block([[inner.real, inner.imag], [-inner.imag, inner.real]])
        worst = max(worst, frobenius(big - expected) / frobenius(expected))
    assert worst <= 1e-12


def test_criterion_09_projector_and_ground_state_suite():
    """Projector derivatives and ground-state corrections pass every oracle."""
    # fixed 2x2 pencil with a closed-form ground state
    h0 = np.array([[0.0, 0.0], [0.0, 1.0]]).astype(complex)
    h1 = np.array([[0.0, 1.0], [1.0, 0.0]]).astype(complex)
    d2 = hermitian_eig(h0)
    np.testing.assert_allclose(
        eigvec_correction_1(d2, h1), np.array([0.0, -1.0]), atol=1e-10
    )
    np.testing.assert_allclose(
        eigvec_correction_2(d2, h1), np.array([-2.0, 0.0]), atol=1e-10
    )

    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = 8
        h0 = 0.5 * rand_hermitian(rng, n)
        h_b = rand_hermitian(rng, n)
        h_g = rand_hermitian(rng, n)
        h_x = rand_hermitian(rng, n)
        d = hermitian_eig(h0)
        lam = d.eigenvalues
        k = int(np.argmax(np.diff(lam)))
        mu = float(0.5 * (lam[k] + lam[k + 1]))

        p0 = density_matrix(d, mu)
        p1 = density_deriv_1(d, h_b, mu)
        p1g = density_deriv_1(d, h_g, mu)
        p2 = density_deriv_2(d, h_b, h_g, h_x, mu)

        # derivative identities of an idempotent path
        assert rel_error(p0 @ p1 + p1 @ p0, p1) <= 1e-9
        assert rel_error(p0 @ p2 + p2 @ p0 + p1 @ p1g + p1g @ p1, p2) <= 1e-9

        # generic divided-difference route with the step scalar function
        step = step_function(mu)
        u_b = d.to_eigenbasis(h_b)
        u_jet = {(1, 0): u_b, (0, 1): d.to_eigenbasis(h_g), (1, 1): d.to_eigenbasis(h_x)}
        assert rel_error(p1, dk_general(step, d, {(1,): u_b}, (1,))) <= 1e-10
        assert rel_error(p2, dk_general(step, d, u_jet, (1, 1))) <= 1e-10

        # recomputation difference oracles with one extrapolation step
        def density_at(h_mat):
            return density_matrix(hermitian_eig(h_mat), mu)

        eps = 1e-5

        def central(e):
            return (density_at(h0 + e * h_b) - density_at(h0 - e * h_b)) / (2.0 * e)

        p1_fd = (4.0 * central(eps) - central(2.0 * eps)) / 3.0
        assert rel_error(p1, p1_fd) <= 1e-5

        def stencil(e):
            e2 = e * e
            return (
                density_at(h0 + e * h_b + e * h_g + e2 * h_x)
                - density_at(h0 + e * h_b - e * h_g - e2 * h_x)
                - density_at(h0 - e * h_b + e * h_g - e2 * h_x)
                + density_at(h0 - e * h_b - e * h_g + e2 * h_x)
            ) / (4.0 * e2)

        p2_fd = (4.0 * stencil(eps) - stencil(2.0 * eps)) / 3.0
        assert rel_error(p2, p2_fd) <= 1e-5

        # ground-state response against the projected-vector difference
        q1 = eigvec_correction_1(d, h_b)
        q2 = eigvec_correction_2(d, h_b)
        q0 = d.vectors[:, 0]

        def projected(e):
            dd = hermitian_eig(h0 + e * h_b)
            v = dd.vectors[:, 0]
            return v * np.vdot(v, q0)

        eps_v = 3e-3

        def q1_central(e):
            return (projected(e) - projected(-e)) / (2.0 * e)

        def q2_central(e):
            return (projected(e) - 2.0 * projected(0.0) + projected(-e)) / (e * e)

        q1_fd = (4.0 * q1_central(eps_v / 2.0) - q1_central(eps_v)) / 3.0
        q2_fd = (4.0 * q2_central(eps_v / 2.0) - q2_central(eps_v)) / 3.0
        assert np.linalg.norm(q1 - q1_fd) <= 1e-6
        assert np.linalg.norm(q2 - q2_fd) <= 1e-4


def test_criterion_10_block_recursion_depth():
    """Longest chain in the doubling block pattern grows by one per level."""
    g = np.zeros((1, 1))
    for i in range(7):
        assert longest_path(g) == i + 1
        m = g.shape[0]
        g = np.block([
            [g, np.eye(m) + g],
            [np.zeros((m, m)), g],
        ])


def test_criterion_11_frechet_algebraic_suite():
    """Derivative maps are linear, symmetric, and exact on the square."""
    rng = np.random.default_rng(42)
    for name in ("exp", "cos"):
        f = get_function(name)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            a = rand_complex(rng, n)
            e1 = rand_complex(rng, n)
            e2 = rand_complex(rng, n)
            e3 = rand_complex(rng, n)
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lhs = frechet_via_blocktri(f, a, [c * e1 + e3])
            rhs = c * frechet_via_blocktri(f, a, [e1]) + frechet_via_blocktri(f, a, [e3])
            assert frobenius(lhs - rhs) <= 1e-12 * max(frobenius(rhs), 1.0)
            lhs2 = frechet_via_blocktri(f, a, [c * e1 + e3, e2])
            rhs2 = c * frechet_via_blocktri(f, a, [e1, e2]) + frechet_via_blocktri(
                f, a, [e3, e2]
            )
            assert frobenius(lhs2 - rhs2) <= 1e-12 * max(frobenius(rhs2), 1.0)
            sym_ab = frechet_via_blocktri(f, a, [e1, e2])
            sym_ba = frechet_via_blocktri(f, a, [e2, e1])
            assert frobenius(sym_ab - sym_ba) <= 1e-11 * max(frobenius(sym_ab), 1.0)

    sq = get_function("x^2")
    for _ in range(5):
        n = int(rng.integers(2, 5))
        a = rand_complex(rng, n)
        e1 = rand_complex(rng, n)
        e2 = rand_complex(rng, n)
        l1 = frechet_via_blocktri(sq, a, [e1])
        assert frobenius(l1 - (a @ e1 + e1 @ a)) <= 1e-13
        l2 = frechet_via_blocktri(sq, a, [e1, e2])
        assert frobenius(l2 - (e1 @ e2 + e2 @ e1)) <= 1e-13
