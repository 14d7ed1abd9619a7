"""Experiment runners, CSV serialization, and the route dispatcher."""
import math

import numpy as np
import pytest

from matderiv.errors import (
    DimensionMismatch,
    NotHermitian,
    ReferenceValidationFailed,
)
from matderiv import experiments
from matderiv.experiments import (
    MAX_N,
    MAX_POINTS,
    ROUTES,
    CheckRecord,
    ConvergenceRecord,
    ExperimentConfig,
    checks_to_csv,
    compute_route,
    fit_order,
    random_complex_matrix,
    random_hermitian,
    records_to_csv,
    rel_error,
    run_custom,
    run_density_demo,
    run_fig1,
    run_fig2,
)
from matderiv import (
    PathJet,
    central_fd_1,
    central_fd_2_mixed,
    cs_frechet_1,
    cs_partial_2,
    get_function,
    hybrid_partial_2,
    jet_from_directions,
)


def test_geometric_grid_descending():
    g = ExperimentConfig(h_max=1e-1, h_min=1e-9, points=9).grid()
    assert g[0] == pytest.approx(1e-1)
    assert g[-1] == pytest.approx(1e-9)
    assert np.all(np.diff(g) < 0)
    with pytest.raises(DimensionMismatch):
        ExperimentConfig(h_max=1e-9, h_min=1e-1, points=9).grid()
    with pytest.raises(DimensionMismatch):
        ExperimentConfig(h_max=1e-1, h_min=1e-9, points=1).grid()


def test_rel_error_values():
    assert rel_error(np.eye(2), np.eye(2)) == 0.0
    assert rel_error(2.0 * np.eye(2), np.eye(2)) == pytest.approx(1.0)
    with pytest.raises(DimensionMismatch):
        rel_error(np.eye(2), np.zeros((2, 2)))


def test_fit_order_recovers_slope():
    records = [
        ConvergenceRecord(h=float(h), method="m", rel_error=float(3.0 * h**2), runtime_micros=0.0)
        for h in np.geomspace(1e-1, 1e-4, 10)
    ]
    assert fit_order(records, "m") == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(DimensionMismatch):
        fit_order(records, "absent")


def test_records_to_csv_layout():
    records = [
        ConvergenceRecord(h=0.5, method="b", rel_error=0.25, runtime_micros=3.0),
        ConvergenceRecord(h=1.0, method="b", rel_error=0.5, runtime_micros=2.0),
        ConvergenceRecord(h=1.0, method="a", rel_error=0.125, runtime_micros=1.0),
    ]
    text = records_to_csv(records)
    lines = text.splitlines()
    assert lines[0] == "h,method,rel_error,runtime_micros"
    # sorted by method, then h descending
    assert lines[1] == "1.0,a,0.125,1.0"
    assert lines[2] == "1.0,b,0.5,2.0"
    assert lines[3] == "0.5,b,0.25,3.0"
    assert text.endswith("\n")


def test_checks_to_csv_layout():
    checks = [
        CheckRecord("alpha", 1e-12, 1e-9, True),
        CheckRecord("beta", 2.0, 1.0, False),
    ]
    text = checks_to_csv(checks)
    lines = text.splitlines()
    assert lines[0] == "check,value,threshold,status"
    assert lines[1] == "alpha,1e-12,1e-09,pass"
    assert lines[2] == "beta,2.0,1.0,fail"


def test_config_validation():
    ExperimentConfig(seed=1, n=2, h_max=1e-1, h_min=1e-8, points=5)
    with pytest.raises(DimensionMismatch):
        ExperimentConfig(points=1)
    with pytest.raises(DimensionMismatch):
        ExperimentConfig(h_max=1e-9, h_min=1e-1)
    with pytest.raises(DimensionMismatch):
        ExperimentConfig(n=0)
    # beyond what a run can hold: an unbounded grid, a huge matrix, an infinite step
    for bad in (
        dict(points=MAX_POINTS + 1),
        dict(points=10**11),
        dict(n=MAX_N + 1),
        dict(n=10**6),
        dict(h_max=math.inf),
        dict(h_max=math.nan),
    ):
        with pytest.raises(DimensionMismatch):
            ExperimentConfig(**bad)
    ExperimentConfig(n=MAX_N, points=MAX_POINTS)


def test_random_matrix_draw_order():
    # real block first, imaginary block second, both uniform on [lo, hi)
    rng = np.random.default_rng(123)
    m = random_complex_matrix(rng, 3)
    rng2 = np.random.default_rng(123)
    re = rng2.uniform(-0.5, 0.5, size=(3, 3))
    im = rng2.uniform(-0.5, 0.5, size=(3, 3))
    np.testing.assert_array_equal(m, re + 1j * im)
    h = random_hermitian(np.random.default_rng(7), 4)
    np.testing.assert_allclose(h, h.conj().T, atol=0)


def test_run_fig1_real_structure():
    config = ExperimentConfig(seed=0, h_max=1e-1, h_min=1e-9, points=5)
    result = run_fig1(config, "real")
    methods = {r.method for r in result.records}
    assert methods == {"central_fd", "regular_cs", "block_cs", "blocktri_exact"}
    assert len(result.records) == 4 * 5
    assert result.flags == {}
    assert result.reference[0, 0] == pytest.approx(-np.sin(1.0))
    exact = [r.rel_error for r in result.records if r.method == "blocktri_exact"]
    assert max(exact) <= 1e-12


def test_run_fig1_complex_flags_regular_step():
    config = ExperimentConfig(seed=0, h_max=1e-1, h_min=1e-9, points=7)
    result = run_fig1(config, "complex")
    assert result.flags["regular_cs"] == "invalid for complex input; recorded literally"
    reg = min(r.rel_error for r in result.records if r.method == "regular_cs")
    blk = min(r.rel_error for r in result.records if r.method == "block_cs")
    assert reg >= 1e-6
    assert blk <= 1e-10
    with pytest.raises(DimensionMismatch):
        run_fig1(config, "imaginary")


def test_run_fig2_orders_and_reference():
    config = ExperimentConfig(seed=0, n=3, h_max=1e-1, h_min=1e-8, points=15)
    result = run_fig2(config)
    assert result.reference_agreement <= 1e-6
    assert 1.7 <= result.orders["block_cs"] <= 2.3
    assert 1.7 <= result.orders["hybrid"] <= 2.3
    exact = [r.rel_error for r in result.records if r.method == "blocktri_exact"]
    assert max(exact) <= 1e-10


def test_run_fig2_reference_gate(monkeypatch):
    monkeypatch.setattr(experiments, "REFERENCE_GATE", 1e-18)
    config = ExperimentConfig(seed=0, n=3, h_max=1e-1, h_min=1e-8, points=15)
    with pytest.raises(ReferenceValidationFailed):
        run_fig2(config)


def test_deterministic_mode_zeroes_runtime_and_fixes_bytes():
    config = ExperimentConfig(
        seed=3, h_max=1e-1, h_min=1e-9, points=5, deterministic=True
    )
    r1 = run_fig1(config, "real")
    r2 = run_fig1(config, "real")
    assert all(r.runtime_micros == 0.0 for r in r1.records)
    assert records_to_csv(r1.records) == records_to_csv(r2.records)


def test_run_density_demo_all_checks_pass():
    # the two sizes the CLI sweeps run; a repeat must give the same bytes
    for n in (6, 20):
        config = ExperimentConfig(seed=0, n=n)
        result = run_density_demo(config)
        assert result.all_passed
        assert checks_to_csv(result.checks) == checks_to_csv(run_density_demo(config).checks)
        names = [c.name for c in result.checks]
        assert names == [
            "p1_hermitian",
            "p1_commutation",
            "p2_commutation",
            "p1_vs_dk",
            "p2_vs_dk",
            "p1_vs_fd",
            "p2_vs_fd",
            "q1_orthogonal",
            "q1_vs_fd",
            "q2_vs_fd",
        ]
        assert 0 < result.n_occ < n


@pytest.mark.parametrize("mu", [math.nan, math.inf, 1e300, -1e300])
def test_run_density_demo_needs_a_level_on_each_side_of_mu(mu):
    with pytest.raises(ValueError, match="between the levels"):
        run_density_demo(ExperimentConfig(seed=0, n=6), mu=mu)


def test_run_custom_identity_returns_term():
    rng = np.random.default_rng(11)
    a = random_hermitian(rng, 3)
    e = random_complex_matrix(rng, 3)
    jet = PathJet(terms={(0,): a, (1,): e}, order=1)
    out = run_custom(jet, "identity", ("blocktri",), (1,))
    np.testing.assert_array_equal(out.results["blocktri"], e)
    np.testing.assert_array_equal(out.primary, e)
    assert out.comparisons == []


def test_run_custom_compares_routes():
    rng = np.random.default_rng(12)
    a = random_hermitian(rng, 3)
    e = random_hermitian(rng, 3)
    jet = PathJet(terms={(0,): a, (1,): e}, order=1)
    out = run_custom(jet, "exp", ("blocktri", "dk"), (1,))
    assert len(out.comparisons) == 1
    left, right, gap = out.comparisons[0]
    assert (left, right) == ("blocktri", "dk")
    assert gap <= 1e-10


def test_run_custom_dk_needs_hermitian_base():
    rng = np.random.default_rng(13)
    a = random_complex_matrix(rng, 3)
    e = random_complex_matrix(rng, 3)
    jet = PathJet(terms={(0,): a, (1,): e}, order=1)
    with pytest.raises(NotHermitian):
        run_custom(jet, "exp", ("dk",), (1,))


def test_run_custom_needs_routes():
    with pytest.raises(DimensionMismatch):
        run_custom(jet_from_directions(np.eye(2), [np.eye(2)]), "exp", (), (1,))


def test_compute_route_order_limits():
    rng = np.random.default_rng(14)
    a = random_hermitian(rng, 2)
    f = get_function("exp")
    terms = {(0,): a, (1,): np.eye(2, dtype=complex), (2,): np.zeros((2, 2), dtype=complex), (3,): np.zeros((2, 2), dtype=complex)}
    jet = PathJet(terms=terms, order=3)
    # cs steps each copy on its own unit, so it reaches every order
    ref = compute_route("blocktri", f, jet, (3,))
    assert rel_error(compute_route("cs", f, jet, (3,)), ref) <= 1e-6
    with pytest.raises(DimensionMismatch):
        compute_route("hybrid", f, jet, (1,))
    with pytest.raises(DimensionMismatch):
        compute_route("fd", f, jet, (3,))
    with pytest.raises(DimensionMismatch):
        compute_route("voodoo", f, jet, (1,))
    assert set(ROUTES) == {"blocktri", "frechet_sum", "dk", "cs", "hybrid", "fd"}


def test_compute_route_dk_matches_blocktri_on_multilinear_jet():
    # jet_from_directions stores no mixed or repeated terms; they read as zero
    rng = np.random.default_rng(15)
    n = 5
    jet = jet_from_directions(
        random_hermitian(rng, n), [random_hermitian(rng, n), random_complex_matrix(rng, n)]
    )
    f = get_function("exp")
    for alpha in ((1, 0), (1, 1), (2, 0), (0, 2)):
        ref = compute_route("blocktri", f, jet, alpha)
        assert rel_error(compute_route("dk", f, jet, alpha), ref) <= 1e-9


@pytest.mark.parametrize("h", [1e-3, 1e-8])
def test_stepped_wrappers_equal_their_table_entries(h):
    # the public stepped wrappers are the table's cs, hybrid and fd, bit for bit
    rng = np.random.default_rng(16)
    n = 4
    f = get_function("exp")
    a, e = random_complex_matrix(rng, n), random_complex_matrix(rng, n)
    line = jet_from_directions(a, [e])
    assert np.array_equal(cs_frechet_1(f, a, e, h), ROUTES["cs"](f, line, (1,), h))
    assert np.array_equal(central_fd_1(f, a, e, h), ROUTES["fd"](f, line, (1,), h))
    terms = {t: random_complex_matrix(rng, n) for t in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0))}
    jet = PathJet(terms=terms, order=2)
    for alpha in ((1, 1), (2, 0)):
        assert np.array_equal(cs_partial_2(f, jet, alpha, h), ROUTES["cs"](f, jet, alpha, h))
        assert np.array_equal(hybrid_partial_2(f, jet, alpha, h), ROUTES["hybrid"](f, jet, alpha, h))
        assert np.array_equal(central_fd_2_mixed(f, jet, h, alpha), ROUTES["fd"](f, jet, alpha, h))
